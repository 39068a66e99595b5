"""Singular value transformation: phase solving, the transform node, and the
Moore-Penrose pseudoinverse built on top of it.

Scalar model convention: signal operator W(x) = [[x, i*sqrt(1-x^2)],
[i*sqrt(1-x^2), x]], phases acting as exp(i*phi*Z), and the realized function
is the real part of the top-left entry of
    exp(i*phi_0*Z) * prod_{j=1..d} [ W(x) * exp(i*phi_j*Z) ].
The lowering aligns this with projector-controlled phase rotations around the
input and output sectors, plus a one-qubit average with the conjugate-phase
branch that extracts the real part.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial import chebyshev as cheb

from .circuits import Gate, global_phase, h, rz
from .composites import Scale
from .nodes import BudgetExceededError, Node, ProxyNode, embed_gates
from .subspaces import ScratchPool, membership_flip_gates

_MARGIN = 1e-3


class PhaseSolverError(RuntimeError):
    """Phase iteration did not reach the requested residual."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


@dataclass(frozen=True)
class TargetPolynomial:
    """Real Chebyshev series with definite parity, bounded by 1 on [-1, 1]."""

    coefficients: tuple[float, ...]
    parity: str  # "even" | "odd"

    @classmethod
    def chebyshev(cls, coefficients, parity: str | None = None) -> "TargetPolynomial":
        c = np.asarray(coefficients, dtype=float)
        while len(c) > 1 and abs(c[-1]) <= 1e-14:
            c = c[:-1]
        d = len(c) - 1
        detected = "even" if d % 2 == 0 else "odd"
        if parity is None:
            parity = detected
        if parity not in ("even", "odd"):
            raise ValueError(f"parity must be 'even' or 'odd', got {parity!r}")
        if parity != detected and d > 0:
            raise ValueError(f"leading degree {d} does not have {parity} parity")
        wrong = c[(0 if parity == "odd" else 1)::2]
        if wrong.size and np.max(np.abs(wrong)) > 1e-12:
            raise ValueError(f"coefficients of wrong parity present (max "
                             f"{np.max(np.abs(wrong)):.2e})")
        t = cls(tuple(c), parity)
        sup = t.sup_norm()
        if sup > 1 + 1e-9:
            raise ValueError(f"target exceeds the unit bound: sup ~= {sup:.6f}")
        return t

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def __call__(self, x):
        return cheb.chebval(x, np.asarray(self.coefficients))

    def sup_norm(self, samples: int = 2001) -> float:
        xs = np.linspace(-1.0, 1.0, samples)
        return float(np.max(np.abs(self(xs))))

    def scaled(self, s: float) -> "TargetPolynomial":
        return TargetPolynomial(tuple(s * c for c in self.coefficients), self.parity)


@dataclass(frozen=True)
class PhaseVector:
    """Solved phase factors and the residual their realization achieved."""

    phases: tuple[float, ...]
    parity: str
    residual: float

    @property
    def degree(self) -> int:
        return len(self.phases) - 1


def _signal(xs: np.ndarray) -> np.ndarray:
    c = np.sqrt(np.clip(1.0 - xs * xs, 0.0, None))
    w = np.zeros((len(xs), 2, 2), dtype=complex)
    w[:, 0, 0] = xs
    w[:, 1, 1] = xs
    w[:, 0, 1] = 1j * c
    w[:, 1, 0] = 1j * c
    return w


def _qsp_suffixes(phases, xs):
    """R[j] = exp(i phi_j Z) W ... W exp(i phi_d Z) for each sample point."""
    d = len(phases) - 1
    w = _signal(xs)
    r = np.empty((d + 1, len(xs), 2, 2), dtype=complex)
    cur = np.zeros((len(xs), 2, 2), dtype=complex)
    e = np.exp(1j * phases[d])
    cur[:, 0, 0] = e
    cur[:, 1, 1] = e.conjugate()
    r[d] = cur
    for j in range(d - 1, -1, -1):
        cur = w @ cur
        e = np.exp(1j * phases[j])
        cur = cur.copy()
        cur[:, 0, :] *= e
        cur[:, 1, :] *= e.conjugate()
        r[j] = cur
    return r


def realized_poly(phases, x):
    """Value of the scalar phase sequence at x (real-part convention)."""
    if isinstance(phases, PhaseVector):
        phases = phases.phases
    phases = np.asarray(phases, dtype=float)
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(np.abs(xs) > 1 + 1e-12):
        raise ValueError("realized_poly is defined on [-1, 1]")
    vals = _qsp_suffixes(phases, np.clip(xs, -1.0, 1.0))[0][:, 0, 0].real
    return float(vals[0]) if np.isscalar(x) or np.ndim(x) == 0 else vals


def _value_and_grad(phases, xs):
    """Realized values and d(value)/d(phi_j) at each sample point."""
    d = len(phases) - 1
    w = _signal(xs)
    r = _qsp_suffixes(phases, xs)
    vals = r[0][:, 0, 0].real
    grad = np.empty((len(xs), d + 1))
    left = np.zeros((len(xs), 2, 2), dtype=complex)
    left[:, 0, 0] = 1.0
    left[:, 1, 1] = 1.0
    for j in range(d + 1):
        # derivative inserts iZ in front of R[j]
        g = 1j * (left[:, 0, 0] * r[j][:, 0, 0] - left[:, 0, 1] * r[j][:, 1, 0])
        grad[:, j] = g.real
        if j < d:
            e = np.exp(1j * phases[j])
            step = left.copy()
            step[:, :, 0] *= e
            step[:, :, 1] *= e.conjugate()
            left = step @ w
    return vals, grad


def _symmetric_full(vars_, d):
    """Symmetric full phases from the reduced vector, pi/4 end offsets."""
    full = np.array([vars_[min(j, d - j)] for j in range(d + 1)], dtype=float)
    full[0] += math.pi / 4
    full[-1] += math.pi / 4
    return full


@lru_cache(maxsize=64)
def solve_phases(target: TargetPolynomial, tol: float = 1e-8,
                 max_iterations: int = 500) -> PhaseVector:
    """Phases whose realized function matches the target at Chebyshev nodes.

    Deterministic: fixed nodes, fixed start (zero symmetric phases plus the
    pi/4 endpoint offsets), damped Gauss-Newton with a fixed schedule.  Pure
    Chebyshev targets c*T_d are dispatched analytically.  The last 64
    distinct calls are cached (`solve_phases.cache_info()` counts hits).
    """
    c = np.asarray(target.coefficients, dtype=float)
    d = target.degree
    nonzero = np.flatnonzero(np.abs(c) > 1e-14)
    if len(nonzero) <= 1:
        # c * T_d: exp(i*phi0*Z) W^d has top-left exp(i*phi0) T_d(x)
        amp = c[d] if len(c) and abs(c[d]) > 1e-14 else 0.0
        if abs(amp) > 1:
            raise ValueError("Chebyshev amplitude exceeds 1")
        phases = np.zeros(d + 1)
        phases[0] = math.acos(amp)
        xs = np.cos((2 * np.arange(1, d + 2) - 1) * math.pi / (4 * (d + 1)))
        res = float(np.max(np.abs(realized_poly(phases, xs) - target(xs))))
        return PhaseVector(tuple(phases), target.parity, res)

    sup = target.sup_norm()
    if sup > 1 - _MARGIN:
        raise ValueError(
            f"target sup-norm {sup:.6f} is above 1 - {_MARGIN}; rescale the target first")

    k = (d + 2) // 2  # free symmetric phases = free coefficients of this parity
    xs = np.cos((2 * np.arange(1, k + 1) - 1) * math.pi / (4 * k))
    fx = target(xs)
    vars_ = np.zeros(k)
    lam = 1e-3

    def residual(v):
        vals, grad = _value_and_grad(_symmetric_full(v, d), xs)
        jac = np.zeros((len(xs), k))
        for j in range(d + 1):
            jac[:, min(j, d - j)] += grad[:, j]
        return vals - fx, jac

    r, jac = residual(vars_)
    best = float(np.max(np.abs(r)))
    for _ in range(max_iterations):
        if best <= tol:
            break
        a = jac.T @ jac
        g = jac.T @ r
        accepted = False
        for _ in range(60):
            step = np.linalg.solve(a + lam * np.eye(k), -g)
            r2, jac2 = residual(vars_ + step)
            if np.linalg.norm(r2) < np.linalg.norm(r):
                vars_ = vars_ + step
                r, jac = r2, jac2
                best = float(np.max(np.abs(r)))
                lam = max(lam / 3.0, 1e-12)
                accepted = True
                break
            lam *= 4.0
        if not accepted:
            break
    if best > tol:
        raise PhaseSolverError(
            f"phase solver stalled at residual {best:.3e} (tolerance {tol:.1e})",
            residual=best)
    return PhaseVector(tuple(_symmetric_full(vars_, d)), target.parity, best)


class SingularValueTransform(Node):
    """Applies a bounded polynomial to the singular values of a block.

    Circuit: projector-controlled phases around the input/output sectors
    alternating with the child circuit and its adjoint; one extra qubit
    averages the sequence with its conjugate-phase twin so the realized
    function is the real part.  Arithmetic path: dense SVD.
    """

    def __init__(self, a: Node, target: TargetPolynomial, solver_tol: float = 1e-8):
        if target.parity == "odd" and target.degree == 0:
            raise ValueError("odd target must have degree >= 1")
        self.a = a
        self.children = (a,)
        self.target = target
        sup = target.sup_norm()
        if sup > 1 - _MARGIN:
            s = (1 - _MARGIN) / sup
        else:
            s = 1.0
        self._rescale = s
        self.phase_vector = solve_phases(target if s == 1.0 else target.scaled(s),
                                         solver_tol)

    @property
    def phase_residual(self) -> float:
        return self.phase_vector.residual

    def _raw_subspaces(self):
        if self.target.parity == "odd":
            return self.a.subspace_in, self.a.subspace_out
        return self.a.subspace_in, self.a.subspace_in

    @property
    def normalization(self) -> float:
        return 1.0 / self._rescale

    def _transformed(self) -> np.ndarray:
        cached = getattr(self, "_tf", None)
        if cached is None:
            block = self.a.toarray() / self.a.normalization
            u, svals, vh = np.linalg.svd(block)
            if self.target.parity == "odd":
                r = len(svals)
                cached = (u[:, :r] * self.target(svals)) @ vh[:r, :]
            else:
                n_in = block.shape[1]
                padded = np.zeros(n_in)
                padded[: len(svals)] = svals
                v = vh.conj().T
                cached = (v * self.target(padded)) @ vh
            self._tf = cached
        return cached

    def compute(self, v):
        return self._transformed() @ np.asarray(v, dtype=complex)

    def adjoint_compute(self, w):
        return self._transformed().conj().T @ np.asarray(w, dtype=complex)

    def _parts(self):
        a = self.a
        m = self.main_qubits
        phases = np.asarray(self.phase_vector.phases)
        d = len(phases) - 1
        # exp(i*phi*Z) chains become projector rotations after pulling
        # a -pi/4 phase through each neighbouring signal application
        psi = phases.copy()
        for j in range(d + 1):
            psi[j] -= (math.pi / 4) * ((j > 0) + (j < d))

        lcu = m
        a_flag_base = m + 1
        a_pers = a.persistent_ancillas
        rot = a_flag_base + a_pers
        pool_base = rot + 1
        a_flags = range(a_flag_base, a_flag_base + a_pers)

        fwd = embed_gates(a, range(a.main_qubits), a_flag_base, rot)
        bwd = [g.inverse() for g in reversed(fwd)]
        memb_peak = 0

        def phase_step(angle, space):
            nonlocal memb_peak
            pool = ScratchPool(pool_base)
            mark = membership_flip_gates(space, 0, rot, pool, zero_qubits=a_flags)
            memb_peak = max(memb_peak, pool.peak)
            return (mark
                    + [Gate("X", (rot,), ((lcu, 1),)),
                       rz(-2.0 * angle, rot),
                       Gate("X", (rot,), ((lcu, 1),))]
                    + mark[::-1])

        s_in = a.subspace_in
        s_out = a.subspace_out if self.target.parity == "odd" else a.subspace_in
        gates = [h(lcu)]
        gates += phase_step(psi[d], s_in)
        for k in range(1, d + 1):
            gates += fwd if k % 2 else bwd
            gates += phase_step(psi[d - k], a.subspace_out if k % 2 else s_in)
        if d % 4:
            gates.append(global_phase(d * math.pi / 2, [(lcu, 0)]))
            gates.append(global_phase(-d * math.pi / 2, [(lcu, 1)]))
        gates.append(h(lcu))

        scr_a = a.ancilla_count - a_pers
        return gates, 1 + a_pers, max(scr_a, 1 + memb_peak)

    def __repr__(self):
        return (f"SingularValueTransform({self.a!r}, degree={self.target.degree}, "
                f"parity={self.target.parity})")


def _cheb_series(fn, n: int) -> np.ndarray:
    """Chebyshev coefficients up to degree n from extrema samples (DCT-I)."""
    k = np.arange(n + 1)
    xs = np.cos(math.pi * k / n)
    vals = np.asarray(fn(xs), dtype=float)
    ext = np.concatenate([vals, vals[-2:0:-1]])
    f = np.fft.rfft(ext).real[: n + 1] / n
    f[0] /= 2
    f[n] /= 2
    return f


def _inverse_target(delta: float, eps: float, cap: int):
    """Odd polynomial close to delta/(2x) on [delta, 1].

    Chebyshev series of delta/(2x) times the even window 1 - (1 - x^2)^b
    (which vanishes to second order at 0), truncated to the smallest odd
    degree meeting eps/2 on [delta, 1].  Returns (target, compensation) where
    compensation restores any clamping of the sup norm.
    """
    if not 0 < delta <= 1:
        raise ValueError(f"delta must lie in (0, 1], got {delta}")
    if delta == 1.0:
        b = 1
    else:
        b = max(1, math.ceil(math.log(4.0 / eps) / -math.log1p(-delta * delta)))

    def f(xs):
        xs = np.asarray(xs, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            window = 1.0 - np.exp(b * np.log1p(-np.minimum(xs * xs, 1.0)))
        safe = np.where(np.abs(xs) < 1e-300, 1.0, xs)
        out = 0.5 * delta * window / safe
        return np.where(np.abs(xs) < 1e-300, 0.0, out)

    n = 1 << max(10, (2 * cap - 1).bit_length())
    coefs = _cheb_series(f, n)
    coefs[0::2] = 0.0  # enforce odd parity exactly

    grid = np.linspace(delta, 1.0, 2001)
    want = 0.5 * delta / grid
    tx = np.polynomial.chebyshev.chebvander(grid, min(cap, n))
    partial = np.zeros_like(grid)
    degree = None
    for j in range(min(cap, n) + 1):
        partial = partial + coefs[j] * tx[:, j]
        if j % 2 == 1 and np.max(np.abs(partial - want)) <= eps / 2:
            degree = j
            break
    if degree is None:
        raise PhaseSolverError(
            f"no odd degree within the budget {cap} reaches accuracy {eps / 2:.2e}")
    c = coefs[: degree + 1].copy()

    comp = 1.0
    xs = np.linspace(-1.0, 1.0, 4001)
    sup = float(np.max(np.abs(cheb.chebval(xs, c))))
    bound = 1 - 2 * _MARGIN
    if sup > bound:
        c *= bound / sup
        comp = sup / bound
    return TargetPolynomial.chebyshev(c, "odd"), comp


class Pseudoinverse(ProxyNode):
    """Moore-Penrose inverse via an odd polynomial approximation of
    (smallest singular value)/(2x), rescaled back by 2/(delta*gamma)."""

    def __init__(self, a: Node, condition: float, tolerance: float,
                 delta: float | None = None, solver_tol: float = 1e-8):
        if condition < 1:
            raise ValueError("condition must be >= 1")
        if not 0 < tolerance < 1:
            raise ValueError("tolerance must lie in (0, 1)")
        self.a = a
        self.children = (a,)
        self.condition = float(condition)
        self.tolerance = float(tolerance)
        self._solver_tol = solver_tol
        if delta is None:
            try:
                block = a.toarray() / a.normalization
            except BudgetExceededError as exc:
                raise ValueError(
                    "smallest singular value not obtainable at this scale; "
                    "pass delta explicitly") from exc
            svals = np.linalg.svd(block, compute_uv=False)
            keep = svals[svals > 1e-12 * svals[0]]
            delta = min(float(keep[-1]), 1.0)  # block norms can round above 1
        self.delta = float(delta)
        cap = math.ceil(4 * self.condition * math.log(4.0 / self.tolerance))
        self._target, self._comp = _inverse_target(self.delta, self.tolerance, cap)

    @property
    def degree(self) -> int:
        return self._target.degree

    @property
    def phase_residual(self) -> float:
        return self.expansion.a.phase_residual

    def _expand(self):
        # the transform applies on the adjoint: p^SV(block^H) = V p(S) U^H,
        # which for p(x) ~ delta/(2x) recovers V S^-1 U^H, the inverse direction
        svt = SingularValueTransform(self.a.adjoint(), self._target, self._solver_tol)
        factor = 2.0 * self._comp / (self.delta * self.a.normalization)
        return Scale(factor, svt)

    def __repr__(self):
        return f"Pseudoinverse({self.a!r}, condition={self.condition}, tolerance={self.tolerance})"
