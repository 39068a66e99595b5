"""Compressed computational-basis subspaces.

A subspace is a tensor list of factors, least significant first.  A factor
either forces one qubit to |0> or is a controlled pair of equal-width
branches selected by its most significant qubit.  Only index sets expressible
this way are constructible; there is no escape hatch for others (for example
the single-qubit span of |1> has no representation).
"""
from __future__ import annotations

import math

import numpy as np

from .circuits import Circuit, Gate


class SubspaceFormatError(ValueError):
    """Bad pattern string or malformed factor structure."""


class SubspaceShapeError(ValueError):
    """Width mismatch between combined subspaces."""


class TruncationUnsupportedError(ValueError):
    """A requested truncation has no representation in this format."""


class ZeroQubit:
    """One qubit forced to |0>."""

    __slots__ = ()
    qubit_count = 1
    dim = 1

    def __eq__(self, other):
        return isinstance(other, ZeroQubit)

    def __hash__(self):
        return hash("ZeroQubit")

    def __repr__(self):
        return "ZeroQubit()"


class Controlled:
    """The top qubit of the block selects which branch the lower qubits are in.
    Immutable; its width and dimension are fixed at construction."""

    __slots__ = ("branch0", "branch1", "qubit_count", "dim")

    def __init__(self, branch0: "Subspace", branch1: "Subspace"):
        if branch0.qubit_count != branch1.qubit_count:
            raise SubspaceShapeError(
                f"controlled branches must have equal width, got "
                f"{branch0.qubit_count} and {branch1.qubit_count}")
        object.__setattr__(self, "branch0", branch0)
        object.__setattr__(self, "branch1", branch1)
        object.__setattr__(self, "qubit_count", 1 + branch0.qubit_count)
        object.__setattr__(self, "dim", branch0.dim + branch1.dim)

    def __setattr__(self, name, value):
        raise AttributeError("Controlled is immutable")

    def __eq__(self, other):
        return (isinstance(other, Controlled)
                and self.branch0 == other.branch0 and self.branch1 == other.branch1)

    def __hash__(self):
        return hash(("Controlled", self.branch0, self.branch1))

    def __repr__(self):
        return f"Controlled({self.branch0!r}, {self.branch1!r})"


def _parse_pattern(pattern: str):
    if not pattern:
        raise SubspaceFormatError("pattern must be nonempty")
    factors = []
    for ch in reversed(pattern):  # leftmost char is the most significant qubit
        if ch == "0":
            factors.append(ZeroQubit())
        elif ch == "#":
            factors.append(Controlled(Subspace(), Subspace()))
        else:
            raise SubspaceFormatError(f"pattern may only contain '0' and '#', got {ch!r}")
    return tuple(factors)


class Subspace:
    """Ordered factor list, least significant first.  Immutable; its width
    (`qubit_count`) and dimension (`dim`) are fixed at construction."""

    __slots__ = ("factors", "_basis", "qubit_count", "dim")

    def __init__(self, factors=()):
        if isinstance(factors, str):
            factors = _parse_pattern(factors)
        else:
            factors = tuple(factors)
            for f in factors:
                if not isinstance(f, (ZeroQubit, Controlled)):
                    raise SubspaceFormatError(f"not a subspace factor: {f!r}")
        object.__setattr__(self, "factors", factors)
        object.__setattr__(self, "_basis", None)
        object.__setattr__(self, "qubit_count", sum(f.qubit_count for f in factors))
        object.__setattr__(self, "dim", math.prod(f.dim for f in factors))

    def __setattr__(self, name, value):
        raise AttributeError("Subspace is immutable")

    @classmethod
    def from_dim(cls, d: int) -> "Subspace":
        """Subspace on ceil(log2 d) qubits with basis exactly [0, d)."""
        if d < 1:
            raise ValueError(f"dimension must be >= 1, got {d}")
        if d == 1:
            return cls()
        if d & (d - 1) == 0:
            k = d.bit_length() - 1
            return cls([Controlled(cls(), cls()) for _ in range(k)])
        k = d.bit_length() - 1  # largest power of two below d
        low = cls.from_dim(1 << k)
        high = cls.from_dim(d - (1 << k)).pad_to(k)
        return cls((Controlled(low, high),))

    @property
    def is_full(self) -> bool:
        return self.dim == 1 << self.qubit_count

    def enumerate_basis(self) -> np.ndarray:
        """Sorted basis indices of the subspace."""
        cached = self._basis
        if cached is None:
            basis = np.zeros(1, dtype=np.int64)
            width = 0
            for f in self.factors:
                fb = _factor_basis(f)
                basis = ((fb << width)[:, None] + basis[None, :]).reshape(-1)
                width += f.qubit_count
            basis.setflags(write=False)
            object.__setattr__(self, "_basis", basis)
            cached = basis
        return cached

    def pad_to(self, m: int) -> "Subspace":
        """Extend to m qubits with forced zeros at the most significant end."""
        extra = m - self.qubit_count
        if extra < 0:
            raise SubspaceShapeError(f"cannot pad {self.qubit_count} qubits down to {m}")
        if extra == 0:
            return self
        return Subspace(self.factors + tuple(ZeroQubit() for _ in range(extra)))

    def __and__(self, other: "Subspace") -> "Subspace":
        """Tensor product; the left operand is the more significant block."""
        if not isinstance(other, Subspace):
            return NotImplemented
        return Subspace(other.factors + self.factors)

    def __or__(self, other: "Subspace") -> "Subspace":
        """Controlled combination: self on top-qubit |0>, other on |1>."""
        if not isinstance(other, Subspace):
            return NotImplemented
        return Subspace((Controlled(self, other),))

    def __eq__(self, other):
        return isinstance(other, Subspace) and self.factors == other.factors

    def __hash__(self):
        return hash(self.factors)

    def __repr__(self):
        inner = ", ".join(repr(f) for f in self.factors)
        return f"Subspace([{inner}])"

    def prefix_truncate(self, k: int) -> "Subspace":
        """Subspace whose basis is the first k entries of enumerate_basis."""
        if not 1 <= k <= self.dim:
            raise ValueError(f"truncation size {k} outside [1, {self.dim}]")
        if k == self.dim:
            return self
        top = self.factors[-1]
        rest = Subspace(self.factors[:-1])
        if isinstance(top, ZeroQubit):
            return Subspace(rest.prefix_truncate(k).factors + (top,))
        low = Subspace(rest.factors + top.branch0.factors)
        d0 = top.branch0.dim * rest.dim
        if k < d0:
            return Subspace(low.prefix_truncate(k).factors + (ZeroQubit(),))
        if k == d0:
            return Subspace(low.factors + (ZeroQubit(),))
        high = Subspace(rest.factors + top.branch1.factors)
        return Subspace((Controlled(low, high.prefix_truncate(k - d0)),))

    def membership_circuit(self) -> Circuit:
        """Circuit setting a flag ancilla to |1> exactly on non-member basis states.

        Register: the subspace qubits, then the flag, then compute-uncompute
        scratch; scratch is restored to |0> on every basis input.
        """
        n = self.qubit_count
        pool = ScratchPool(n + 1)
        gates = membership_flip_gates(self, 0, n, pool)
        return Circuit(n, 1 + pool.peak, tuple(gates))


def _factor_basis(f) -> np.ndarray:
    if isinstance(f, ZeroQubit):
        return np.zeros(1, dtype=np.int64)
    b0 = f.branch0.enumerate_basis()
    b1 = f.branch1.enumerate_basis() + (1 << f.branch0.qubit_count)
    return np.concatenate([b0, b1])


class ScratchPool:
    """LIFO scratch-qubit allocator tracking peak concurrent demand."""

    def __init__(self, base: int):
        self.base = base
        self.next = base
        self.free: list[int] = []
        self.peak = 0

    def alloc(self) -> int:
        if self.free:
            return self.free.pop()
        slot = self.next
        self.next += 1
        self.peak = max(self.peak, self.next - self.base)
        return slot

    def release(self, slot: int):
        self.free.append(slot)


def _constrained(f) -> bool:
    """A factor that needs a scratch bit: a controlled pair whose branches
    are not both full."""
    return isinstance(f, Controlled) and f.dim != 1 << f.qubit_count


def _flip_computed(sub: Subspace, offset: int, target: int, extra_controls, pool, held):
    """Gates flipping `target` exactly on basis states inside `sub` (and all
    extra controls satisfied) that leave their conditions computed: one
    scratch bit per constrained factor, set when the factor's qubits are a
    member, and, recursively, the conditions of the last such factor's second
    branch.  Each slot left set is appended to `held` in allocation order, for
    the caller's reverse replay to restore.  Every other branch network is
    clean, so the scratch peak is that of clean networks everywhere."""
    out: list[Gate] = []
    conds = list(extra_controls)
    last = max((i for i, f in enumerate(sub.factors) if _constrained(f)), default=-1)
    q = offset
    for i, f in enumerate(sub.factors):
        if isinstance(f, ZeroQubit):
            conds.append((q, 0))
        elif _constrained(f):
            w = f.branch0.qubit_count
            s = pool.alloc()
            held.append(s)
            out += _flip_if_member(f.branch0, q, s, ((q + w, 0),), pool)
            if i == last:
                out += _flip_computed(f.branch1, q, s, ((q + w, 1),), pool, held)
            else:
                out += _flip_if_member(f.branch1, q, s, ((q + w, 1),), pool)
            conds.append((s, 1))
        q += f.qubit_count
    out.append(Gate("X", (target,), tuple(conds)))
    return out


def _flip_if_member(sub: Subspace, offset: int, target: int, extra_controls, pool):
    """Gates flipping `target` exactly on basis states inside `sub` (and all
    extra controls satisfied), by compute-copy-uncompute (Bennett 1973): the
    conditions are computed, the flip copies their conjunction onto `target`,
    and the computing gates replayed in reverse (an X network's inverse)
    restore every scratch slot to |0>.  Along the spine of last factors a
    nesting level adds a constant number of gates; uncomputing each bit by
    replaying its branches' whole networks doubled them per level."""
    held: list[int] = []
    out = _flip_computed(sub, offset, target, extra_controls, pool, held)
    out += out[-2::-1]  # the computing gates, reversed
    for s in reversed(held):
        pool.release(s)
    return out


def membership_flip_gates(sub: Subspace, qubit_offset: int, flag: int, pool,
                          zero_qubits=()) -> list[Gate]:
    """Raw gate list for node builders: XOR `flag` with non-membership.

    The subspace qubits start at `qubit_offset`; scratch comes from `pool`.
    `zero_qubits` lists further qubits that must be |0> for membership.
    Along the spine of last constrained factors and second branches, each
    condition is computed once and uncomputed once (`_flip_if_member`), so
    the sector [0, 2^n - 1), all spine, costs 4n - 2 gates on n - 1 scratch
    qubits.
    """
    extra = tuple((q, 0) for q in zero_qubits)
    if sub.is_full and not extra:
        return []
    body = _flip_if_member(sub, qubit_offset, flag, extra, pool)
    if len(body) == 1 and len(body[0].controls) == 1:
        (q, p), = body[0].controls
        return [Gate("X", (flag,), ((q, 1 - p),))]
    return [Gate("X", (flag,))] + body
