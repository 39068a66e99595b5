"""Singular value transformation: phase solving, the transform node, and the
Moore-Penrose pseudoinverse built on top of it.

Scalar model convention: signal operator W(x) = [[x, i*sqrt(1-x^2)],
[i*sqrt(1-x^2), x]], phases acting as exp(i*phi*Z), and the realized function
is the real part of the top-left entry of
    exp(i*phi_0*Z) * prod_{j=1..d} [ W(x) * exp(i*phi_j*Z) ].
The lowering aligns this with projector-controlled phase rotations around the
input and output sectors, plus a one-qubit average with the conjugate-phase
branch that extracts the real part.

Phase solving (`solve_phases`) fits symmetric phases at Chebyshev nodes by a
fixed-point iteration preconditioned with the Jacobian at zero phases, a DCT
applied by one FFT, and accelerated by Anderson mixing (Walker & Ni, SIAM
J. Numer. Anal. 2011).  Each iterate is evaluated on the first half of its
symmetric sequence only.  In the basis where W(x) is diag(w, 1/w),
w = exp(i theta), every phase is a real rotation, so the half product's top
row is two Laurent polynomials in w with real coefficients.  A product tree
builds them: the steps are padded with pairs of pi/2 phases to a
power-of-two count of equal leaf blocks, the blocks advance together, and
each tree level merges neighbouring blocks from one real FFT.  One FFT
takes the root to the nodes, and the second half follows in closed form.
A pass costs O(d log^2 d), no array is larger than O(d), and no linear system
is solved but a least-squares fit over at most 5 past steps.  The pointwise
recurrence (`_top_row`) evaluates a sequence at arbitrary x for
`realized_poly`.  Every sup check is one certified decision
(`TargetPolynomial._exceeds`), and only the transform node rescales a
target, by its bound.
"""
from __future__ import annotations

import cmath
import math
from collections import deque
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from numpy.polynomial import chebyshev as cheb

from .circuits import Gate, PhaseSequence, global_phase, h, inverted
from .composites import Scale
from .nodes import BudgetExceededError, Layout, Node, ProxyNode, get_budget
from .subspaces import ScratchPool, membership_flip_gates

_MARGIN = 1e-3


class PhaseSolverError(RuntimeError):
    """Phase iteration did not reach the requested residual."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


def _sup_bounds(c, m: int) -> tuple[float, float, float]:
    """For the Chebyshev series `c` of degree d < M: max |p| over the M + 1
    Chebyshev extrema cos(k pi / M), from one real FFT of length 2M, and a
    lower and an upper bound on max |p| over [-1, 1].

    With u = 2^-53 and L = sum |c_j|, the FFT's values err by at most
    e = 7 log2(2M) sqrt(2M) u L, the radix-2 bound (Higham, Accuracy and
    Stability of Numerical Algorithms, 2002, ch. 24) with ||c||_2 <= L;
    numpy's mixed-radix FFT is taken to meet it, which the tests check at
    x = 1 and -1.  The largest value less 2e is the lower bound.  The
    largest value times sec(d pi / 2M) bounds |p| everywhere (Ehlich &
    Zeller, Math. Z. 1964), and the upper bound adds twice e and twice the
    first-order error bound of a Clenshaw evaluation such as `chebval`,
    4 (d + 1)^2 u L: its roundings at the step of c_k amount to a change of
    c_k, and they are at most 4 u times the partial sums
    sum_{j >= k} c_j U_{j-k}(x) of that step, which |U_m| <= m + 1 on
    [-1, 1] bounds by (d + 1) L, so no Clenshaw value exceeds the bound."""
    c = np.asarray(c, dtype=float)
    d = len(c) - 1
    top = float(np.max(np.abs(np.fft.rfft(c, 2 * m).real)))
    fft = 7 * math.log2(2 * m) * math.sqrt(2 * m)
    l1 = float(np.sum(np.abs(c)))
    return (top, top - 2 * fft * 2.0 ** -53 * l1,
            top / math.cos(d * math.pi / (2 * m)) + 2 * (4 * (d + 1) ** 2 + fft) * 2.0 ** -53 * l1)


def _trimmed(c) -> np.ndarray:
    """c without its trailing coefficients of magnitude at most 1e-14, the
    first one always kept."""
    big = np.flatnonzero(np.abs(c) > 1e-14)
    return c[: big[-1] + 1 if big.size else 1]


@dataclass(frozen=True)
class TargetPolynomial:
    """Real Chebyshev series with definite parity.  `chebyshev` checks the
    unit bound on [-1, 1]; the pseudoinverse's fit skips it."""

    coefficients: tuple[float, ...]
    parity: str  # "even" | "odd"

    @classmethod
    def chebyshev(cls, coefficients, parity: str | None = None) -> "TargetPolynomial":
        """The target with these coefficients, trailing ones below 1e-14
        trimmed, after checking that they are finite, their parity and the
        unit bound: it rejects a target unless its sup is certified to be
        at most 1 + 1e-9 (`_exceeds`)."""
        c = np.asarray(coefficients, dtype=float)
        if not c.size:
            raise ValueError("a target needs at least one coefficient")
        bad = np.flatnonzero(~np.isfinite(c))
        if bad.size:
            raise ValueError(f"coefficient {bad[0]} is not finite: {c[bad[0]]}")
        c = _trimmed(c)
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
        if why := t._exceeds(1 + 1e-9):
            raise ValueError(f"target exceeds the unit bound: {why}")
        return t

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def __call__(self, x):
        return cheb.chebval(x, np.asarray(self.coefficients))

    @cached_property
    def _extrema(self) -> tuple[int, float, float, float]:
        """M, the least power of two >= 4d, and `_sup_bounds` at M."""
        d = self.degree
        m = 1 << (4 * d - 1).bit_length() if d else 1
        return (m, *_sup_bounds(self.coefficients, m))

    def sup_norm(self) -> float:
        """Largest |p| over the M + 1 Chebyshev extrema cos(k pi / M), M the
        least power of two >= 4d; at most `sup_bound`."""
        return self._extrema[1]

    @property
    def sup_bound(self) -> float:
        """An upper bound on max |p| over [-1, 1], from the FFT of
        `sup_norm` and a rounding slack (`_sup_bounds`)."""
        return self._extrema[3]

    def _exceeds(self, level: float) -> str:
        """The evidence that max |p| over [-1, 1] exceeds `level`: a lower
        bound above it, or "" once sum |c| or the bound at M extrema, M
        growing eightfold from that of `sup_norm`, certifies it does not.
        Past the amplitude budget it counts as exceeding: rejected or
        rescaled, never solved unchecked."""
        l1 = float(np.sum(np.abs(self.coefficients)))
        if l1 * (1 + (self.degree + 1) * 2.0 ** -53) <= level:
            return ""
        m, _, low, high = self._extrema
        most = get_budget().max_amplitudes
        while low <= level < high:
            m *= 8
            if m > most:  # M + 1 values past the amplitude budget
                return f"cannot certify sup <= {level:.10g} within the amplitude budget"
            _, low, high = _sup_bounds(self.coefficients, m)
        return f"sup >= {low:.10g}" if low > level else ""

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


def _top_row(phases, xs):
    """Top row (A, B) of exp(i phi_0 Z) W exp(i phi_1 Z) ... W exp(i phi_d Z)
    at each sample point.

    Every factor lies in SU(2), so each prefix product is
    [[a, b], [-conj(b), conj(a)]] and two numbers per point carry it.
    """
    c = 1j * np.sqrt(np.clip(1.0 - xs * xs, 0.0, None))
    a = np.full(len(xs), cmath.exp(1j * phases[0]))
    b = np.zeros(len(xs), dtype=complex)
    for phi in phases[1:]:
        e = cmath.exp(1j * phi)
        a, b = (a * xs + b * c) * e, (a * c + b * xs) * e.conjugate()
    return a, b


def realized_poly(phases, x):
    """Value of the scalar phase sequence at x (real-part convention)."""
    if isinstance(phases, PhaseVector):
        phases = phases.phases
    phases = np.asarray(phases, dtype=float)
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(np.abs(xs) > 1 + 1e-12):
        raise ValueError("realized_poly is defined on [-1, 1]")
    vals = _top_row(phases, np.clip(xs, -1.0, 1.0))[0].real
    return float(vals[0]) if np.isscalar(x) or np.ndim(x) == 0 else vals


def _symmetric_full(vars_, d):
    """Symmetric full phases from the reduced vector, pi/4 end offsets."""
    full = np.concatenate([vars_, vars_[: d + 1 - len(vars_)][::-1]])
    full[0] += math.pi / 4
    full[-1] += math.pi / 4
    return full


def _symmetric_compose(a, b, full, xs, ys=None):
    """Top row (A, B) of a symmetric sequence (phi_j = phi_{d-j}) from the top
    row (a, b) of its first half, phases 0..m with m = d // 2, at xs, given
    ys = sqrt(1 - xs^2) or computing it.

    W(x) and exp(i phi Z) are symmetric matrices, so the second half of the
    product is the transpose of the first: U = P_m M P_m^T, M = W for odd d
    and M = exp(-i phi_m Z) for even d.
    """
    d = len(full) - 1
    if d % 2:
        if ys is None:
            ys = np.sqrt(np.clip(1.0 - xs * xs, 0.0, None))
        return (xs * (a * a + b * b) + 2j * ys * a * b,
                xs * (a.conj() * b - a * b.conj()) + 1j * ys * (abs(a) ** 2 - abs(b) ** 2))
    e = cmath.exp(1j * full[d // 2])
    return (a * a * e.conjugate() + b * b * e,
            b * a.conj() * e - a * b.conj() * e.conjugate())


# Steps per leaf block of the product tree.  A leaf step is two numpy calls
# on every block at once, a tree level two FFTs and five products, and each
# level the leaves save keeps |a|^2 + |b|^2 closer to 1: a symmetric
# sequence of degree 3000 is within 5e-14 of it from 16-step leaves and
# 8e-14 from 8-step ones.
_LEAF = 16


def _leaves(e):
    """Rows of each block of steps, from e = exp(-i phi) of shape
    (steps, blocks).

    In the basis (1, 1), (i, -i) the step W(x) exp(i phi Z) is D R with
    D = diag(w, 1/w), w = exp(i theta), and the real rotation
    R = [[cos phi, -sin phi], [sin phi, cos phi]], so the top row of a
    product of n steps is (p, q) with p = w^-n sum_{j=1..n} p_j w^2j and
    real p_j (the coefficient of w^-n is zero from the first step on), and
    q alike.  A step maps p_j, q_j to the real and imaginary parts of
    (p_{j-1} + i q_j) exp(-i phi): z holds those sums, so a step moves the
    real parts up one place and multiplies, while the first entry of z
    stays zero and the second starts as the empty product's 1.

    Returns p_n..p_1 and q_n..q_1, shape (2, blocks, n): reversed, the
    largest coefficient of a step near the identity comes first, where
    the FFTs of `_merge` carry it without rounding.
    """
    steps, blocks = e.shape
    z = np.zeros((steps + 2, blocks), dtype=complex)
    z[1] = 1.0
    up, down = z.real[1:], z.real[:-1]
    for col in e:
        up[...] = down
        z *= col
    rows = z[:1:-1].T
    return np.stack([rows.real, rows.imag])


@lru_cache(maxsize=32)
def _merge_signs(n):
    """(-1, 1) times (-1)^f, f = 0..n: the reversal of a block's row in
    `_merge`, and the sign of u1 u2^R."""
    signs = np.ones(n + 1)
    signs[1::2] = -1.0
    out = np.stack([-signs, signs])[:, None]
    out.flags.writeable = False
    return out


def _merge(rows):
    """Rows of the products of neighbouring blocks, rows[:, 2i] times
    rows[:, 2i + 1], from one real FFT of every block.

    The second row of an SU(2) matrix with top row (p, q) is (-q^R, p^R),
    where p^R(w) = p(1/w) has the coefficients reversed, so two rows
    multiply to (p1 p2 - q1 q2^R, p1 q2 + q1 p2^R).  For the reversed
    arrays s and u of `_leaves` that reads s = s1 s2 - z u1 u2^R and
    u = s1 u2 + z u1 s2^R, with z one place up.  On blocks of n
    coefficients and at FFT length 2n, z times a reversal is (-1)^f times
    the conjugate, and the products fill exactly 2n, so nothing wraps
    around.
    """
    n = rows.shape[-1]
    f = np.fft.rfft(rows, 2 * n)
    left, right = f[:, 0::2], f[:, 1::2]
    out = left[0] * right
    cross = right[::-1].conj()
    cross *= _merge_signs(n)
    cross *= left[1]
    out += cross
    return np.fft.irfft(out, 2 * n)


def _row_coefficients(phases):
    """The coefficients p_j + i q_j, j = 1..n, of the rows of `_leaves` for
    prod_{j >= 1} W exp(i phi_j Z), n >= 1 steps.

    The tree takes a power-of-two count of `_LEAF`-step blocks, so the
    steps are padded at the start with pairs of pi/2 phases: since
    W exp(i pi Z / 2) W exp(i pi Z / 2) = -I, each pair moves both rows up
    one place and flips their sign, which the slice of the root and `sign`
    undo.  The blocks advance together (`_leaves`) and each tree level is
    one `_merge`; for odd n the last step is applied once, to the root.
    """
    n = len(phases) - 1
    body = n - n % 2
    blocks = 1 << (-(-body // _LEAF) - 1).bit_length() if body else 1
    pairs = (blocks * _LEAF - body) // 2
    sign = (-1) ** pairs
    e = np.empty(blocks * _LEAF, dtype=complex)
    e[: 2 * pairs] = -1j
    np.exp(np.asarray(phases[1 : body + 1], dtype=float) * -1j, out=e[2 * pairs:])
    rows = _leaves(e.reshape(blocks, _LEAF).T)
    while rows.shape[1] > 1:
        rows = _merge(rows)
    p, q = rows[:, 0, ::-1][:, pairs : pairs + body]
    z = np.empty(n, dtype=complex)
    if n == body:
        np.multiply(p, sign, out=z.real)
        np.multiply(q, sign, out=z.imag)
        return z
    # (p_{j-1} + i q_j) exp(-i phi_n), where p_0 is the padded empty
    # product's sign
    z.real[0] = 0.0 if body else sign
    z.real[1:] = p
    z.imag[:-1] = q
    z.imag[-1] = 0.0
    z *= sign * cmath.exp(-1j * phases[n])
    return z


def _nodes(k):
    """The k Chebyshev nodes x_i = cos theta_i, theta_i = (2i - 1) pi / 4k."""
    return np.cos((2 * np.arange(1, k + 1) - 1) * math.pi / (4 * k))


@lru_cache(maxsize=8)
def _node_arrays(k):
    """The k Chebyshev nodes x and sqrt(1 - x^2), read-only."""
    x = _nodes(k)
    y = np.sqrt(np.clip(1.0 - x * x, 0.0, None))
    x.flags.writeable = y.flags.writeable = False
    return x, y


@lru_cache(maxsize=8)
def _node_twiddles(k, n):
    """The twiddles of `_row_at_nodes` for n steps at k nodes, read-only:
    exp(-i pi j / 2k) on coefficient j, and w_i^(2 - n) / 2 and its
    conjugate at node i, w_i = exp(i theta_i)."""
    turns = (2 - n) * (2 * np.arange(1, k + 1) - 1) % (8 * k)  # in units of pi / 4k
    outer = 0.5 * np.exp(0.25j * math.pi / k * turns)
    out = np.exp(-0.5j * math.pi / k * np.arange(n)), outer, outer.conj()
    for a in out:
        a.flags.writeable = False
    return out


def _row_at_nodes(phases, k):
    """Top row (a, b) of a sequence of at most 2k - 1 signal steps at the k
    Chebyshev nodes.

    The coefficients F of `_row_coefficients` make a polynomial in
    z = w^2 = exp(2i theta_i), and z runs over the odd 4k-th roots of unity,
    so one length-2k FFT with a twiddle gives F at the nodes and at their
    conjugates.  p and q have real coefficients, so p + i q = w^(2-n) F(z)
    and p - i q = w^(2-n) conj(F(conj z)), and back in the first basis
    a = conj(X + Y) and b = X - Y, X = w^(2-n) F(z) / 2 and
    Y = w^(n-2) F(conj z) / 2, times exp(i phi_0).
    """
    n = len(phases) - 1
    front = cmath.exp(1j * phases[0])
    if not n:
        return np.full(k, front), np.zeros(k, dtype=complex)
    z = _row_coefficients(phases)
    inner, outer, outer_conj = _node_twiddles(k, n)
    z *= inner
    vals = np.fft.fft(z, 2 * k)
    at_z = vals[: k - 1 : -1] * outer  # X
    at_conj = vals[:k] * outer_conj  # Y
    a = at_z + at_conj
    np.conjugate(a, out=a)
    a *= front
    at_z -= at_conj
    at_z *= front
    return a, at_z


def _node_top_row(full, k):
    """Top row (A, B) of a symmetric sequence at the k Chebyshev nodes."""
    a, b = _row_at_nodes(full[: (len(full) - 1) // 2 + 1], k)
    return _symmetric_compose(a, b, full, *_node_arrays(k))


def _chebyshev_at_nodes(c, k):
    """sum_n c_n T_n(x_i) at the k Chebyshev nodes: T_n(cos theta) =
    cos(n theta), a length-4k inverse FFT with a twiddle."""
    n = np.arange(len(c))
    vals = np.fft.ifft(c * np.exp(-0.25j * math.pi * n / k), 4 * k)[1 : k + 1]
    return 4 * k * vals.real


@lru_cache(maxsize=64)
def solve_phases(target: TargetPolynomial, tol: float = 1e-8,
                 max_iterations: int = 500) -> PhaseVector:
    """Phases whose realized function matches the target at Chebyshev nodes.

    Deterministic: fixed nodes, fixed start (zero symmetric phases plus the
    pi/4 endpoint offsets) and a fixed-point iteration on the k free
    symmetric phases fitted at k nodes.  Each step is v <- v - J0^-1 r, with
    r = Re U_00 - f at the nodes and J0 the Jacobian at zero phases, a
    DCT-IV (odd d) or DCT-II (even d) solved by one length-2k FFT; Anderson
    mixing over the last 6 iterates accelerates it.  From the zero start the
    first step is -c_{d-2j}/2 for reduced phase j (-c_0 for the middle phase
    of an even target).  Each iterate is evaluated at the nodes by
    `_node_top_row`: a product tree of real rotations and real FFT
    convolutions gives the coefficients of the first half's top row, one
    length-2k FFT its values at the nodes, and the symmetric composition the
    full row, so a pass costs O(d log^2 d) and memory is O(d); the target at
    the nodes is one length-4k FFT.  The solve
    stops at the tolerance, after `max_iterations` steps, or after 10 steps
    without a new best residual, and returns the best iterate.  Pure
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
        realized = _row_at_nodes(phases, d + 1)[0].real
        res = float(np.max(np.abs(realized - _chebyshev_at_nodes(c, d + 1))))
        return PhaseVector(tuple(phases), target.parity, res)

    if why := target._exceeds(1 - _MARGIN):
        raise ValueError(f"target above the margin 1 - {_MARGIN} ({why}); "
                         "rescale the target first")

    k = (d + 2) // 2  # free symmetric phases = free coefficients of this parity
    fx = _chebyshev_at_nodes(c, k)
    # At zero reduced phases U_00 = i T_d(x), and reduced phase j moves Re U_00
    # by -cos(n_j theta_i) weight_j, n_j = d - 2j and theta_i = (2i - 1) pi / 4k:
    # phase d-j moves it as phase j does, so j counts twice, the middle phase
    # of an even sequence (n_j = 0) once.  C[i, j] = cos(n_j theta_i) is a
    # DCT-IV (odd d) or DCT-II (even d) with C^T C = diag(k/2, ..., k for
    # n_j = 0), so J0 = -C diag(weight) has J0^-1 = -C^T / k, and (C^T r)_j is
    # the real part of exp(-i n_j pi / 4k) times the length-4k DFT of r at n_j.
    # With n_j = 2m + d % 2 that is the length-2k DFT of
    # r_i exp(-i pi (d % 2) i / 2k) at m = k - 1 - j.
    n = d - 2 * np.arange(k)
    twiddle = np.exp(-1j * math.pi * n / (4 * k)) / k
    half = np.exp(-0.5j * math.pi * (d % 2) / k * np.arange(k))

    def step(r):  # -J0^-1 r
        return (np.fft.fft(r * half, 2 * k)[k - 1 :: -1] * twiddle).real

    vars_, r = np.zeros(k), -fx  # the residual at the start is exact
    best_vars, best = vars_, float(np.max(np.abs(r)))
    fs, gs = deque(maxlen=6), deque(maxlen=6)
    stale = 0
    for _ in range(max_iterations):
        if best <= tol or stale >= 10:
            break
        f = step(r)
        fs.append(f)
        gs.append(vars_ + f)
        vars_ = gs[-1]
        if len(fs) > 1:
            # Anderson mixing: the combination of recent steps with the
            # least-squares smallest fixed-point residual
            gamma = np.linalg.lstsq(np.diff(fs, axis=0).T, f, rcond=None)[0]
            vars_ = vars_ - np.diff(gs, axis=0).T @ gamma
        r = _node_top_row(_symmetric_full(vars_, d), k)[0].real - fx
        err = float(np.max(np.abs(r)))
        if err < best:
            best_vars, best, stale = vars_, err, 0
        else:
            stale += 1
    if best > tol:
        raise PhaseSolverError(
            f"phase solver stalled at residual {best:.3e} (tolerance {tol:.1e})",
            residual=best)
    return PhaseVector(tuple(_symmetric_full(best_vars, d)), target.parity, best)


def _at_singular_values(target: TargetPolynomial, s) -> np.ndarray:
    """The target at singular values s, clipped to [0, 1], over the
    coefficients of the target's parity (`_parity_series`)."""
    c = np.asarray(target.coefficients)[target.parity == "odd"::2]
    return _parity_series(c, np.arccos(np.clip(s, 0.0, 1.0)), target.parity)


class SingularValueTransform(Node):
    """Applies a bounded polynomial to the singular values of a block.

    Circuit: projector-controlled phases around the input/output sectors
    alternating with the child circuit and its adjoint; one extra qubit
    averages the sequence with its conjugate-phase twin so the realized
    function is the real part.  Arithmetic path: dense SVD.  A target not
    certified within 1 - `_MARGIN` is solved scaled by (1 - `_MARGIN`) /
    `sup_bound`, the inverse of the normalization, so it has phases.
    """

    def __init__(self, a: Node, target: TargetPolynomial):
        if target.parity == "odd" and target.degree == 0:
            raise ValueError("odd target must have degree >= 1")
        self.a = a
        self.children = (a,)
        self.target = target
        self._rescale = ((1 - _MARGIN) / target.sup_bound
                         if target._exceeds(1 - _MARGIN) else 1.0)

    @cached_property
    def phase_vector(self) -> PhaseVector:
        """Phases of the rescaled target, solved on first use: a simulation,
        a flattened gate sequence or an export, never counting."""
        s = self._rescale
        return solve_phases(self.target if s == 1.0 else self.target.scaled(s))

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

    @cached_property
    def _transformed(self) -> np.ndarray:
        block = self.a.toarray() / self.a.normalization
        u, svals, vh = np.linalg.svd(block)
        if self.target.parity == "odd":
            r = len(svals)
            return (u[:, :r] * _at_singular_values(self.target, svals)) @ vh[:r, :]
        n_in = block.shape[1]
        padded = np.zeros(n_in)
        padded[: len(svals)] = svals
        v = vh.conj().T
        return (v * _at_singular_values(self.target, padded)) @ vh

    def compute(self, v):
        return self._transformed @ np.asarray(v, dtype=complex)

    def adjoint_compute(self, w):
        return self._transformed.conj().T @ np.asarray(w, dtype=complex)

    def _angles(self) -> list[float]:
        """The RZ angle of each phase step, from the solved phases:
        exp(i*phi*Z) chains become projector rotations after pulling a -pi/4
        phase through each neighbouring signal application."""
        phases = np.asarray(self.phase_vector.phases)
        pulled = np.full(len(phases), 2.0)
        pulled[0] -= 1
        pulled[-1] -= 1
        psi = phases - (math.pi / 4) * pulled
        return (-2.0 * psi[::-1]).tolist()

    def _parts(self):
        a = self.a
        m = self.main_qubits
        d = self.target.degree

        lcu = m
        lay = Layout(m, 1, self.children)
        rot = lay.scratch_base

        # the child, its adjoint, the sector marks and the flip are built
        # once and referenced by the one item of all d + 1 phase steps, which
        # fetches its angles only when its gates are needed
        fwd = tuple(lay.embed(0))
        bwd = tuple(inverted(fwd)) if d > 1 else ()  # even steps from step 2 on
        marks, peak = [], 0
        for space in (a.subspace_in, a.subspace_out):
            pool = ScratchPool(rot + 1)
            mark = tuple(membership_flip_gates(space, 0, rot, pool, zero_qubits=lay.flags[0]))
            marks.append((mark, mark[::-1]))
            peak = max(peak, pool.peak)
        flip = Gate("X", (rot,), ((lcu, 1),))
        steps = PhaseSequence((bwd, fwd), tuple(marks), flip, Gate("RZ", (rot,)),
                              self._angles, d)

        items = [h(lcu), steps]
        if d % 4:
            items.append(global_phase(d * math.pi / 2, [(lcu, 0)]))
            items.append(global_phase(-d * math.pi / 2, [(lcu, 1)]))
        items.append(h(lcu))
        return items, lay.persistent, max(lay.child_scratch, 1 + peak)

    def __repr__(self):
        return (f"SingularValueTransform({self.a!r}, degree={self.target.degree}, "
                f"parity={self.target.parity})")


def _window_exponent(delta: float, eps: float) -> int:
    """The least b >= 1 with (1 - delta^2)^b <= eps / 4: the window
    1 - (1 - x^2)^b then errs by at most eps / 8 at x = delta."""
    if not 0 < delta <= 1:
        raise ValueError(f"delta must lie in (0, 1], got {delta}")
    if delta == 1.0:
        return 1
    gain = -math.log1p(-delta * delta)  # 0 once delta^2 underflows
    b = math.log(4.0 / eps) / gain if gain else math.inf
    if not math.isfinite(b):
        raise ValueError(f"delta {delta} is too small: the window exponent "
                         "ln(4/eps) / -ln(1 - delta^2) is not finite")
    return max(1, math.ceil(b))


def _central_binomial(b: int) -> float:
    """C(2b, b) / 4^b: exact below b = 64, and from there its Stirling series
    exp(-1/8b + 1/192b^3 - 1/640b^5 + 17/14336b^7) / sqrt(pi b), whose next
    term is below 1e-19."""
    if b < 64:
        return math.comb(2 * b, b) / 4 ** b
    y = 1.0 / b
    return (math.exp(y * (-1 / 8 + y * y * (1 / 192 + y * y * (-1 / 640 + y * y * 17 / 14336))))
            / (math.sqrt(math.pi) * math.sqrt(b)))


def _window_series(delta: float, b: int, count: int) -> np.ndarray:
    """The odd Chebyshev coefficients c_1, c_3, ..., c_{2 count - 1} of
    delta/(2x) times the window 1 - (1 - x^2)^b, in closed form (Childs,
    Kothari & Somma, SIAM J. Comput. 2017):

        c_{2j+1} = 2 delta (-1)^j sum_{i > j} C(2b, b + i) / 4^b.

    With r_i = C(2b, b + i) / C(2b, b), a cumulative product of the ratios
    (b - i) / (b + i + 1), and half the binomials above the centre summing
    to (1 - C(2b, b) / 4^b) / 2, the tail sum is that half less C(2b, b) / 4^b
    times the cumulative sum of r_1..r_j.  The series ends at degree 2b - 1,
    so the coefficients from j = b on are zero.  Each coefficient is the
    same for every `count` that includes it."""
    n = min(count, b)
    central = _central_binomial(b)
    bf = float(b)
    k = np.arange(n - 1, dtype=float)
    tails = np.zeros(count)
    tails[1:n] = np.cumsum(np.cumprod((bf - k) / (bf + k + 1)))
    tails[:n] = (1.0 - central) / 2 - central * tails[:n]
    tails[1::2] *= -1
    return tails * (2 * delta)


# Complex entries of each power table of `_parity_series`.
_TABLE = 1 << 11
# Entries of the first witness table of `_inverse_target`.
_WITNESS_TABLE = 1 << 16


def _powers(x, n: int) -> np.ndarray:
    """Rows x^0 .. x^(n-1), by doubling: row k + i is row i times x^k."""
    out = np.empty((n, len(x)), dtype=complex)
    out[0] = 1.0
    k = 1
    while k < n:
        r = min(k, n - k)
        np.multiply(out[:r], x if k == 1 else out[k - 1] * x, out=out[k:k + r])
        k *= 2
    return out


def _parity_series(c, theta, parity: str) -> np.ndarray:
    """The Chebyshev series of one parity, sum_m c_m cos((2m + p) theta) with
    p = 1 if `parity` is "odd" and 0 if "even", at each angle theta, by baby
    steps and giant steps (Paterson & Stockmeyer, SIAM J. Comput. 1973):
    with w = exp(2i theta), B = ceil(sqrt(len(c))) and m = g B + s, the sum
    is Re exp(i p theta) sum_g (w^B)^g sum_s c_{gB+s} w^s.  Per chunk of
    angles the inner sums are one real (G x B) by complex (B x angles)
    product against the powers of w, and each power table holds at most
    max(`_TABLE`, 4 len(c)) entries.  The powers of w and of
    exp(2iB theta) multiply up from their bases, so a term errs by about
    B + G ulps."""
    m = len(c)
    b = math.isqrt(m - 1) + 1
    g = -(-m // b)
    coefs = np.zeros(g * b)
    coefs[:m] = c
    coefs = coefs.reshape(g, b)
    out = np.empty(len(theta))
    step = max(1, max(_TABLE, 4 * m) // max(b, g))
    for lo in range(0, len(theta), step):
        t = theta[lo:lo + step]
        e1 = np.exp(1j * t)
        inner = (coefs @ _powers(e1 * e1, b).view(float)).view(complex)  # G x angles
        giant = _powers(np.exp((2j * b) * t), g)
        giant *= inner
        total = giant.sum(axis=0)
        out[lo:lo + step] = (e1 * total).real if parity == "odd" else total.real
    return out


def _first_fit(odd, theta, want, tol: float, witnesses: list) -> int:
    """The number of terms of the shortest partial sum of the odd series
    `odd` within `tol` of `want` at every angle theta, or 0 if none is.

    At the `witnesses` rows the partial sums of every length come from one
    cosine table and one cumulative sum.  Only the first length that meets
    `tol` at every witness is evaluated at every angle (`_parity_series`); if
    it misses, its worst angle joins `witnesses` and the search goes on.  A
    length that misses at a witness misses at every angle, so the length is
    the one a full check of each length finds."""
    j = np.arange(1, 2 * len(odd), 2)

    def passes(rows):  # whether each length meets tol at every row
        sums = np.outer(theta[rows], j)
        np.cos(sums, out=sums)
        sums *= odd
        np.cumsum(sums, axis=1, out=sums)
        sums -= want[rows, None]
        return (np.abs(sums, out=sums) <= tol).all(axis=0)

    ok = passes(witnesses)
    m = 0  # terms of the last length checked in full
    while ok[m:].any():
        m += int(np.argmax(ok[m:])) + 1
        err = np.abs(_parity_series(odd[:m], theta, "odd") - want)
        worst = int(np.argmax(err))
        if err[worst] <= tol:
            return m
        witnesses.append(worst)
        ok &= passes([worst])
    return 0


@lru_cache(maxsize=64)
def _inverse_target(delta: float, eps: float, cap: int):
    """Odd polynomial close to delta/(2x) on [delta, 1].

    The Chebyshev series of delta/(2x) times the even window
    1 - (1 - x^2)^b (which vanishes to second order at 0), in closed form
    (`_window_series`), truncated to the smallest odd degree at most `cap`
    whose partial sum is within eps/2 of delta/(2x) at every point of a
    2,001-point grid of [delta, 1] (`_first_fit`).  The last 64 distinct
    calls are cached, as in `solve_phases`, so a pseudoinverse rebuilt from
    its graph document does not fit its target again.

    The cost follows the degree found, not `cap`.  Coefficients are computed
    up to a horizon that starts near 2 sqrt(b ln(4/eps)), where the binomial
    weights r_i ~ exp(-i^2 / b) fall below eps/4, and doubles towards the cap
    and the series' own degree 2b - 1 until a degree passes.  The first
    witnesses are the first grid points, where the fits' error peaks (near
    x = 5/m for m odd terms at eps = 0.01): as many as fit in
    `_WITNESS_TABLE` cosines, at least 2 and at most 32.  A horizon of more
    than the amplitude budget's count of coefficients raises
    `BudgetExceededError`.  Each |c_{2j+1}| is below delta (each tail sum of
    binomials is below 1/2), so n terms sum to below n delta at the first
    grid point x = delta, where the fit must reach (1 - eps)/2.  Where the
    most terms the search may take sum to below half of that, the other half
    left to rounding, it raises its error without computing a coefficient.

    The target is the one `TargetPolynomial.chebyshev` would build, trailing
    coefficients trimmed, without its unit check: at tight tolerances its
    sup exceeds 1, and `SingularValueTransform` rescales it.
    """
    b = _window_exponent(delta, eps)
    top = min((cap + 1) // 2, b)  # odd degrees up to the cap and up to 2b - 1
    most = get_budget().max_amplitudes
    reach = min(top, most)  # the most terms the search may take
    m = 0
    if 4 * reach * delta >= 1 - eps:
        count = min(reach, math.ceil(math.sqrt(b) * math.sqrt(math.log(4.0 / eps))) + 1)
        grid = np.linspace(delta, 1.0, 2001)
        want = 0.5 * delta / grid
        theta = np.arccos(grid)
        witnesses = list(range(min(32, max(2, _WITNESS_TABLE // count))))
        while True:
            odd = _window_series(delta, b, count)
            m = _first_fit(odd, theta, want, eps / 2, witnesses)
            if m or count == reach:
                break
            count = min(reach, 2 * count)
    if not m:
        if top <= most:
            raise PhaseSolverError(f"no odd degree within the budget {cap} "
                                   f"reaches accuracy {eps / 2:.2e}")
        raise BudgetExceededError(
            f"the inverse fit needs more than {most} odd coefficients "
            f"(degree {2 * most - 1}), over the amplitude budget")
    c = np.zeros(2 * m)
    c[1::2] = odd[:m]
    return TargetPolynomial(tuple(_trimmed(c)), "odd")


class Pseudoinverse(ProxyNode):
    """Moore-Penrose inverse via an odd polynomial approximation of
    (smallest singular value)/(2x), rescaled back by 2/(delta*gamma)."""

    def __init__(self, a: Node, condition: float, tolerance: float,
                 delta: float | None = None):
        if condition < 1:
            raise ValueError("condition must be >= 1")
        if not 0 < tolerance < 1:
            raise ValueError("tolerance must lie in (0, 1)")
        self.a = a
        self.children = (a,)
        self.condition = float(condition)
        self.tolerance = float(tolerance)
        cap = 4 * self.condition * math.log(4.0 / self.tolerance)
        if not math.isfinite(cap):
            raise ValueError(f"condition {condition} too large: the degree cap "
                             "4*condition*ln(4/tolerance) is not finite")
        if delta is None:
            try:
                block = a.toarray() / a.normalization
            except BudgetExceededError as exc:
                raise ValueError(
                    "smallest singular value not obtainable at this scale; "
                    "pass delta explicitly") from exc
            svals = np.linalg.svd(block, compute_uv=False)
            keep = svals[svals > 1e-12 * svals[0]]
            if not keep.size:
                raise ValueError("the block has no nonzero singular value")
            delta = min(float(keep[-1]), 1.0)  # block norms can round above 1
        self.delta = float(delta)
        self._target = _inverse_target(self.delta, self.tolerance, math.ceil(cap))

    @property
    def degree(self) -> int:
        return self._target.degree

    @property
    def phase_residual(self) -> float:
        return self.expansion.a.phase_residual

    def _expand(self):
        # the transform applies on the adjoint: p^SV(block^H) = V p(S) U^H,
        # which for p(x) ~ delta/(2x) recovers V S^-1 U^H, the inverse direction
        return Scale(2.0 / (self.delta * self.a.normalization),
                     SingularValueTransform(self.a.adjoint(), self._target))

    def __repr__(self):
        return f"Pseudoinverse({self.a!r}, condition={self.condition}, tolerance={self.tolerance})"
