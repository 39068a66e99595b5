"""Node contract for the block-encoding DAG.

Every operation is an immutable Node exposing a normalization, input/output
subspaces, ancilla accounting, a direct arithmetic rule (`compute`), and a
circuit lowering.  `simulate` runs the lowered circuit and projects back onto
the encoded block; `verify` cross-checks the two paths column by column.

Ancilla register layout of every node's circuit: persistent flags first (they
must be |0> in the accepted output sector and are never reused), then scratch
(compute-uncompute qubits restored to |0> on every basis input, shared by
sequential children in stack fashion).  Composites place their children with
`Layout`, the one implementation of this rule: the composite's own flags,
then each child's flag block in child order (`a` before `b`), then the shared
scratch.

Lowering is structural: each node's `_structure` is a sequence of items
(gates, blocks that are tuples of items spliced in by reference, and phase
sequences) plus its ancilla counts.  `Layout.embed` relabels a child's items,
each distinct gate, block and phase sequence once; the QSVT's d + 1 phase
steps are one `PhaseSequence` that holds its child, the child's adjoint and
its sector marks as blocks, so a solution's items do not grow with the
degree while its gates do.  `resources` counts gates from the
items, each distinct block once and a phase sequence from its per-step
parts, so it builds no `Circuit` and solves no phases; `circuit()` hands the
items to `Circuit`, which keeps them and range-checks each distinct gate
once.  A phase sequence iterates as its parts: its d + 1 RZ gates are bound
on its first simulation, flatten or export.  The simulator's planner walks
it in one pass, step by step until its live set repeats, and runs the rest
as one loop; `occurrences()` serves the counting only.
"""
from __future__ import annotations

import math
import numbers
import os
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .circuits import Circuit, Gate, PhaseSequence, item_counts
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
    within_bound: bool = True  # no simulated column exceeded the normalization bound

    def __str__(self):
        status = "pass" if self.passed else "FAIL"
        bound = "" if self.within_bound else "; output exceeds the normalization bound"
        return (f"verify: {status} (max |simulate - compute| = {self.max_error:.3e} "
                f"at column {self.worst_index}, tolerance {self.tolerance:.1e}{bound})")


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
    `adjoint_compute`, and `_parts` (items plus persistent/scratch ancilla
    counts, where an item is a `Gate`, a shared block, a tuple of items, or a
    `PhaseSequence`),
    or override `_structure` to derive the items from another node's.  Both
    the circuit and the resource report are built from `_structure`, so a
    subclass overrides `_structure`, not `_lower`.  Everything else,
    including caching, lives here.

    `compute` and `adjoint_compute` take a vector of length dim or a (dim, k)
    column stack, act along axis 0 and return the rank they were given, so
    `toarray` is one `compute` of the identity.  Nodes over one inner node
    derive from `Wrapper`, which forwards all of the above to it and reuses
    its `Circuit` object; they override only what they change.
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

    def _parts(self) -> tuple[list, int, int]:
        """(items, persistent ancillas, scratch ancillas) over this node's
        register; no item is an empty block, so a node without gates has no
        items."""
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
    @cached_property
    def _sectors(self) -> tuple[int, Subspace, Subspace]:
        """(main qubits, subspace_in, subspace_out), from one `_raw_subspaces` call."""
        si, so = self._raw_subspaces()
        m = max(si.qubit_count, so.qubit_count)
        return m, si.pad_to(m), so.pad_to(m)

    @cached_property
    def main_qubits(self) -> int:
        return self._sectors[0]

    @cached_property
    def subspace_in(self) -> Subspace:
        return self._sectors[1]

    @cached_property
    def subspace_out(self) -> Subspace:
        return self._sectors[2]

    @property
    def dim_in(self) -> int:
        return self.subspace_in.dim

    @property
    def dim_out(self) -> int:
        return self.subspace_out.dim

    @property
    def is_vector(self) -> bool:
        return self.dim_in == 1

    @cached_property
    def _structure(self) -> tuple[tuple, int, int]:
        """(items, persistent ancillas, all ancillas), from `_parts`."""
        items, pers, scr = self._parts()
        return tuple(items), pers, pers + scr

    def _lower(self) -> Circuit:
        items, _, ancillas = self._structure
        return Circuit(self.main_qubits, ancillas, items)

    @cached_property
    def _lowered(self) -> Circuit:
        return self._lower()

    def circuit(self) -> Circuit:
        return self._lowered

    @property
    def persistent_ancillas(self) -> int:
        return self._structure[1]

    @property
    def ancilla_count(self) -> int:
        return self._structure[2]

    # -- evaluation ---------------------------------------------------------
    @cached_property
    def _array(self) -> np.ndarray:
        b = get_budget()
        if self.dim_in > b.max_dim or self.dim_out > b.max_dim:
            raise BudgetExceededError(
                f"dense matrix {self.dim_out}x{self.dim_in} exceeds budget {b.max_dim}")
        out = self.compute(np.eye(self.dim_in, dtype=complex))
        out.setflags(write=False)
        return out

    def toarray(self) -> np.ndarray:
        return self._array

    def simulate(self, v: np.ndarray) -> np.ndarray:
        """Circuit-path evaluation: embed, run the lowered circuit, project, rescale.

        Accepts a vector of length dim_in or a (dim_in, k) column stack.
        """
        block, bounded = self._simulate(v)
        if not bounded:
            warnings.warn("projected output exceeds the normalization bound; "
                          "the circuit does not match the declared encoding",
                          RuntimeWarning)
        return block

    def _simulate(self, v) -> tuple[np.ndarray, bool]:
        """`simulate` and whether every output column keeps the normalization bound,
        from `Circuit.run` on the labels of `subspace_in`, batch by batch."""
        v = np.asarray(v, dtype=complex)
        flat = v.ndim == 1
        if flat:
            v = v[:, None]
        if v.ndim != 2 or v.shape[0] != self.dim_in:
            raise ValueError(f"input of shape {v.shape} is neither a vector of length "
                             f"{self.dim_in} nor a ({self.dim_in}, k) column stack")
        circ = self.circuit()
        total = circ.n_qubits
        budget = get_budget().max_amplitudes
        if (1 << total) > budget:
            raise BudgetExceededError(
                f"simulation needs 2^{total} amplitudes, over budget")
        rows_in = self.subspace_in.enumerate_basis()
        rows_out = self.subspace_out.enumerate_basis()
        batch = max(1, budget >> total)  # columns per state, so each state keeps the budget
        block = np.zeros((len(rows_out), v.shape[1]), dtype=complex)
        for j in range(0, v.shape[1], batch):
            labels, out = circ.run(rows_in, v[:, j:j + batch])
            if not j:  # every batch runs one plan, so its labels sit in one order
                order = labels.argsort()
                found = order.take(labels.searchsorted(rows_out, sorter=order), mode="clip")
                hit = labels.take(found) == rows_out
            block[hit, j:j + batch] = out.take(found[hit], axis=0)
        block *= self.normalization
        out_n = np.linalg.norm(block, axis=0)
        in_n = np.linalg.norm(v, axis=0) * self.normalization
        bounded = not np.any(out_n > in_n * (1 + 1e-9) + 1e-12)
        return (block[:, 0] if flat else block), bounded

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
        got, bounded = self._simulate(np.eye(self.dim_in, dtype=complex))
        err = np.abs(got - expected)
        worst = int(np.argmax(err.max(axis=0))) if err.size else 0
        max_err = float(err.max()) if err.size else 0.0
        return VerifyReport(max_err, worst, tol, max_err <= tol and bounded, bounded)

    def info_efficiency(self) -> float:
        """Spectral norm of the encoded matrix over the normalization (<= 1)."""
        # the largest singular value, as np.linalg.norm(a, 2) finds it, without its wrapping
        return float(np.linalg.svd(self.toarray(), compute_uv=False)[0]) / self.normalization

    def resources(self) -> ResourceReport:
        """The report of `circuit()`, counted from `_structure` without building it."""
        items, _, ancillas = self._structure
        try:
            eta = self.info_efficiency()
        except BudgetExceededError:  # this node or one below it is past the dense budget
            eta = None
        return ResourceReport(
            main_qubits=self.main_qubits,
            ancilla_qubits=ancillas,
            total_qubits=self.main_qubits + ancillas,
            gate_counts=item_counts(items),
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


class Wrapper(Node):
    """A node over one inner node (`a`) whose subspaces, certificates,
    assumptions, arithmetic and circuit pass through unchanged unless a
    subclass overrides them.  While its structure is the inner node's own
    object, so is its circuit."""

    @property
    def inner(self) -> Node:
        return self.a

    def _raw_subspaces(self):
        return self.inner.subspace_in, self.inner.subspace_out

    @property
    def normalization(self) -> float:
        return self.inner.normalization

    def compute(self, v):
        return self.inner.compute(v)

    def adjoint_compute(self, w):
        return self.inner.adjoint_compute(w)

    @property
    def _structure(self):
        return self.inner._structure

    def _lower(self):
        if self._structure is self.inner._structure:
            return self.inner.circuit()
        return super()._lower()

    @property
    def exact_forward(self):
        return self.inner.exact_forward

    @property
    def exact_backward(self):
        return self.inner.exact_backward

    @property
    def assumptions(self):
        return self.inner.assumptions


class ProxyNode(Wrapper):
    """A node defined by an expansion into other nodes; built once, cached."""

    def _expand(self) -> Node:
        raise NotImplementedError

    @cached_property
    def expansion(self) -> Node:
        return self._expand()

    @property
    def inner(self) -> Node:
        return self.expansion


class Layout:
    """Register layout of a composite over `children`: `main` main qubits,
    then `own` flags of the composite, then the persistent flags of each child
    in child order (`flags[i]` is child i's block), then scratch from
    `scratch_base`, shared by all children."""

    def __init__(self, main: int, own: int, children: tuple[Node, ...]):
        self.children = children
        flags = []
        base = main + own
        for c in children:
            flags.append(range(base, base + c.persistent_ancillas))
            base = flags[-1].stop
        self.flags = tuple(flags)
        self.scratch_base = base
        self.persistent = base - main
        self.child_scratch = max(c.ancilla_count - c.persistent_ancillas for c in children)

    def embed(self, i: int, offset: int = 0,
              controls: tuple[tuple[int, int], ...] = ()) -> list:
        """Child i's items on this register, its main qubit q moved to
        offset + q, with `controls` appended to every gate.  Each distinct
        gate, block and phase sequence is relabelled once and its copy
        repeated in child order; a phase sequence shares its angles."""
        child = self.children[i]
        items, _, ancillas = child._structure
        flags = self.flags[i]
        to = (*range(offset, offset + child.main_qubits), *flags,
              *range(self.scratch_base, self.scratch_base + ancillas - len(flags)))
        new = {}  # id -> relabelled copy; the child keeps every id live meanwhile

        def move(it):
            out = new.get(id(it))
            if out is None:
                out = new[id(it)] = (
                    Gate(it.kind, tuple(to[q] for q in it.targets),
                         tuple((to[q], b) for q, b in it.controls) + controls,
                         it.param, it.table)
                    if isinstance(it, Gate)
                    else it.relabelled(move) if isinstance(it, PhaseSequence)
                    else tuple(map(move, it)))
            return out

        return [move(it) for it in items]
