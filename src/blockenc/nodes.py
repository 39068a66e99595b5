"""Node contract for the block-encoding DAG.

Every operation is an immutable Node exposing a normalization, input/output
subspaces, ancilla accounting, a direct arithmetic rule (`compute`), and a
circuit lowering.  `simulate` runs the lowered circuit and projects back onto
the encoded block; `verify` cross-checks the two paths column by column.

Ancilla register layout of every node's circuit: persistent flags first (they
must be |0> in the accepted output sector and are never reused), then scratch
(compute-uncompute qubits restored to |0> on every basis input, shared by
sequential children in stack fashion).
"""
from __future__ import annotations

import math
import numbers
import os
import warnings
from dataclasses import dataclass

import numpy as np

from .circuits import Circuit, Gate
from .subspaces import Subspace


class BudgetExceededError(RuntimeError):
    """Dense evaluation or simulation would exceed the configured budget."""


@dataclass
class Budget:
    """Size limits for the dense evaluation and simulation paths."""

    max_amplitudes: int = 1 << 20
    max_dim: int = 1 << 12

    @classmethod
    def from_env(cls) -> "Budget":
        raw = os.environ.get("BE_BUDGET")
        if not raw:
            return cls()
        try:
            parts = [int(p) for p in raw.split(",")]
        except ValueError:
            parts = []
        if not 1 <= len(parts) <= 2 or min(parts) <= 0:
            raise ValueError(f"BE_BUDGET={raw!r} is not of the form "
                             f'"<max_amplitudes>[,<max_dim>]" with positive integers')
        return cls(*parts)


_budget: Budget | None = None  # read from BE_BUDGET on first use, not at import


def get_budget() -> Budget:
    global _budget
    if _budget is None:
        _budget = Budget.from_env()
    return _budget


def set_budget(budget: Budget):
    global _budget
    _budget = budget


@dataclass(frozen=True)
class EncodingView:
    """Dense realization of a node, used by oracles and tests."""

    matrix: np.ndarray
    normalization: float
    subspace_in: Subspace
    subspace_out: Subspace


@dataclass(frozen=True)
class VerifyReport:
    max_error: float
    worst_index: int
    tolerance: float
    passed: bool

    def __str__(self):
        status = "pass" if self.passed else "FAIL"
        return (f"verify: {status} (max |simulate - compute| = {self.max_error:.3e} "
                f"at column {self.worst_index}, tolerance {self.tolerance:.1e})")


@dataclass(frozen=True)
class ResourceReport:
    """Static resource summary; produced without any simulation."""

    main_qubits: int
    ancilla_qubits: int
    total_qubits: int
    gate_counts: dict[str, int]
    normalization: float
    info_efficiency: float | None = None
    assumptions: tuple[str, ...] = ()

    def norm_query_estimate(self, eps: float, delta: float, eta: float | None = None) -> int:
        """Queries needed to measure the encoded vector norm to relative error
        eps with failure probability delta: ceil(eps^-1 * eta^-1 * ln(1/delta))."""
        if eta is None:
            eta = self.info_efficiency
        if eta is None:
            raise ValueError("information efficiency unavailable; pass eta explicitly")
        return math.ceil((1.0 / eps) * (1.0 / eta) * math.log(1.0 / delta))

    def to_json(self) -> dict:
        out = {
            "main_qubits": self.main_qubits,
            "ancilla_qubits": self.ancilla_qubits,
            "total_qubits": self.total_qubits,
            "gate_counts": dict(sorted(self.gate_counts.items())),
            "normalization": self.normalization,
            "info_efficiency": self.info_efficiency,
        }
        if self.assumptions:
            out["assumptions"] = list(self.assumptions)
        return out


class Node:
    """Immutable vertex of the block-encoding DAG.

    Subclasses provide `_raw_subspaces`, `normalization`, `compute`,
    `adjoint_compute`, and `_parts` (gate list plus persistent/scratch ancilla
    counts).  Everything else, including caching, lives here.
    """

    children: tuple["Node", ...] = ()

    # -- subclass surface -------------------------------------------------
    def _raw_subspaces(self) -> tuple[Subspace, Subspace]:
        raise NotImplementedError

    @property
    def normalization(self) -> float:
        raise NotImplementedError

    def compute(self, v: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def adjoint_compute(self, w: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _parts(self) -> tuple[list[Gate], int, int]:
        """(gates, persistent ancillas, scratch ancillas) over this node's register."""
        raise NotImplementedError

    # Certificates that the unitary maps the input sector exactly into the
    # output sector (forward) or vice versa for its adjoint (backward).
    @property
    def exact_forward(self) -> bool:
        return False

    @property
    def exact_backward(self) -> bool:
        return False

    @property
    def assumptions(self) -> tuple[str, ...]:
        out: tuple[str, ...] = ()
        for c in self.children:
            out += c.assumptions
        return out

    # -- derived, cached ---------------------------------------------------
    @property
    def main_qubits(self) -> int:
        cached = getattr(self, "_main_qubits", None)
        if cached is None:
            si, so = self._raw_subspaces()
            cached = max(si.qubit_count, so.qubit_count)
            self._main_qubits = cached
        return cached

    @property
    def subspace_in(self) -> Subspace:
        cached = getattr(self, "_sub_in", None)
        if cached is None:
            cached = self._raw_subspaces()[0].pad_to(self.main_qubits)
            self._sub_in = cached
        return cached

    @property
    def subspace_out(self) -> Subspace:
        cached = getattr(self, "_sub_out", None)
        if cached is None:
            cached = self._raw_subspaces()[1].pad_to(self.main_qubits)
            self._sub_out = cached
        return cached

    @property
    def dim_in(self) -> int:
        return self.subspace_in.dim

    @property
    def dim_out(self) -> int:
        return self.subspace_out.dim

    @property
    def is_vector(self) -> bool:
        return self.dim_in == 1

    def circuit(self) -> Circuit:
        cached = getattr(self, "_circuit", None)
        if cached is None:
            gates, pers, scr = self._parts()
            cached = Circuit(self.main_qubits, pers + scr, tuple(gates))
            self._pers = pers
            self._circuit = cached
        return cached

    @property
    def persistent_ancillas(self) -> int:
        self.circuit()
        return self._pers

    @property
    def ancilla_count(self) -> int:
        return self.circuit().ancilla_qubits

    # -- evaluation ---------------------------------------------------------
    def compute_matrix(self, m: np.ndarray) -> np.ndarray:
        """Column-wise `compute` on a (dim_in, k) matrix."""
        m = np.asarray(m, dtype=complex)
        return np.stack([self.compute(m[:, j]) for j in range(m.shape[1])], axis=1)

    def toarray(self) -> np.ndarray:
        cached = getattr(self, "_array", None)
        if cached is None:
            b = get_budget()
            if self.dim_in > b.max_dim or self.dim_out > b.max_dim:
                raise BudgetExceededError(
                    f"dense matrix {self.dim_out}x{self.dim_in} exceeds budget {b.max_dim}")
            cached = self.compute_matrix(np.eye(self.dim_in, dtype=complex))
            cached.setflags(write=False)
            self._array = cached
        return cached

    def simulate(self, v: np.ndarray) -> np.ndarray:
        """Circuit-path evaluation: embed, run the lowered circuit, project, rescale.

        Accepts a vector of length dim_in or a (dim_in, k) column stack.
        """
        v = np.asarray(v, dtype=complex)
        flat = v.ndim == 1
        if flat:
            v = v[:, None]
        if v.shape[0] != self.dim_in:
            raise ValueError(f"input length {v.shape[0]} != dim_in {self.dim_in}")
        circ = self.circuit()
        total = circ.n_qubits
        if (1 << total) > get_budget().max_amplitudes:
            raise BudgetExceededError(
                f"simulation needs 2^{total} amplitudes, over budget")
        state = np.zeros((1 << total, v.shape[1]), dtype=complex)
        state[self.subspace_in.enumerate_basis(), :] = v
        state = circ.apply(state)
        block = state[self.subspace_out.enumerate_basis(), :] * self.normalization
        out_n = np.linalg.norm(block, axis=0)
        in_n = np.linalg.norm(v, axis=0) * self.normalization
        if np.any(out_n > in_n * (1 + 1e-9) + 1e-12):
            warnings.warn("projected output exceeds the normalization bound; "
                          "the circuit does not match the declared encoding",
                          RuntimeWarning)
        return block[:, 0] if flat else block

    def simulate_norm(self) -> float:
        """Euclidean norm of the encoded vector, from the circuit path.

        Idealized value; physically extracting it costs the query count in
        `ResourceReport.norm_query_estimate`.
        """
        if not self.is_vector:
            raise ValueError("simulate_norm is only defined for vector nodes (dim_in == 1)")
        return float(np.linalg.norm(self.simulate(np.ones(1, dtype=complex))))

    def verify(self, tol: float = 1e-10) -> VerifyReport:
        """Compare circuit and arithmetic paths on every input basis vector."""
        expected = self.toarray()
        got = self.simulate(np.eye(self.dim_in, dtype=complex))
        err = np.abs(got - expected)
        worst = int(np.argmax(err.max(axis=0))) if err.size else 0
        max_err = float(err.max()) if err.size else 0.0
        return VerifyReport(max_err, worst, tol, max_err <= tol)

    def info_efficiency(self) -> float:
        """Spectral norm of the encoded matrix over the normalization (<= 1)."""
        return float(np.linalg.norm(self.toarray(), 2)) / self.normalization

    def resources(self) -> ResourceReport:
        circ = self.circuit()
        eta = None
        b = get_budget()
        if self.dim_in <= b.max_dim and self.dim_out <= b.max_dim:
            eta = self.info_efficiency()
        return ResourceReport(
            main_qubits=circ.main_qubits,
            ancilla_qubits=circ.ancilla_qubits,
            total_qubits=circ.n_qubits,
            gate_counts=circ.gate_counts(),
            normalization=self.normalization,
            info_efficiency=eta,
            assumptions=self.assumptions,
        )

    def encoding_view(self) -> EncodingView:
        return EncodingView(self.toarray(), self.normalization,
                            self.subspace_in, self.subspace_out)

    # -- operator algebra (wired up by the composite module) ----------------
    def adjoint(self) -> "Node":
        from .composites import Adjoint
        return Adjoint(self)

    def __matmul__(self, other):
        from .composites import Product
        if not isinstance(other, Node):
            return NotImplemented
        return Product(self, other)

    def __add__(self, other):
        from .composites import add
        if not isinstance(other, Node):
            return NotImplemented
        return add(self, other)

    def __sub__(self, other):
        from .composites import Scale, add
        if not isinstance(other, Node):
            return NotImplemented
        return add(self, Scale(-1, other))

    def __mul__(self, c):
        from .composites import scale
        if not isinstance(c, numbers.Number):
            return NotImplemented
        return scale(c, self)

    __rmul__ = __mul__

    def __neg__(self):
        from .composites import Scale
        return Scale(-1, self)

    def __and__(self, other):
        from .composites import Tensor
        if not isinstance(other, Node):
            return NotImplemented
        return Tensor(self, other)

    def __or__(self, other):
        from .composites import BlockDiagonal
        if not isinstance(other, Node):
            return NotImplemented
        return BlockDiagonal(self, other)

    def __getitem__(self, key):
        from .composites import sliced
        return sliced(self, key)


class ProxyNode(Node):
    """A node defined by an expansion into other nodes; built once, cached."""

    def _expand(self) -> Node:
        raise NotImplementedError

    @property
    def expansion(self) -> Node:
        cached = getattr(self, "_expansion", None)
        if cached is None:
            cached = self._expand()
            self._expansion = cached
        return cached

    def _raw_subspaces(self):
        e = self.expansion
        return e.subspace_in, e.subspace_out

    @property
    def normalization(self) -> float:
        return self.expansion.normalization

    def compute(self, v):
        return self.expansion.compute(v)

    def adjoint_compute(self, w):
        return self.expansion.adjoint_compute(w)

    def _parts(self):
        e = self.expansion
        circ = e.circuit()
        return list(circ.gates), e.persistent_ancillas, circ.ancilla_qubits - e.persistent_ancillas

    @property
    def exact_forward(self):
        return self.expansion.exact_forward

    @property
    def exact_backward(self):
        return self.expansion.exact_backward

    @property
    def assumptions(self):
        return self.expansion.assumptions


def embed_gates(child: Node, main_map, flag_base: int, scratch_base: int) -> list[Gate]:
    """Relocate a child's circuit into a parent register.

    Child main qubit q goes to main_map[q]; child persistent ancillas go to a
    reserved block at flag_base; child scratch goes to the shared area at
    scratch_base.
    """
    circ = child.circuit()
    p = child.persistent_ancillas
    m = circ.main_qubits
    mm = list(main_map)

    def relabel(q):
        if q < m:
            return mm[q]
        j = q - m
        return flag_base + j if j < p else scratch_base + (j - p)

    return [g.remapped(relabel) for g in circ.gates]
