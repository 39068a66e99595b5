"""Composite nodes: adjoint, scaling, product, tensor, block diagonal, addition.

Each composite derives its normalization and subspaces structurally, its
direct rule from the children's direct rules, and its circuit by embedding
the children's circuits (persistent flags kept apart, scratch shared).
"""
from __future__ import annotations

import cmath
import math
from dataclasses import replace

import numpy as np

from .circuits import Gate, global_phase, permutation, ry
from .nodes import Node, ProxyNode, Wrapper, embed_gates
from .primitives import ConstantVector, Identity, Permutation, Projection
from .subspaces import ScratchPool, Subspace, membership_flip_gates


class Adjoint(Wrapper):
    """Conjugate transpose: swapped subspaces, reversed and inverted circuit."""

    def __init__(self, a: Node):
        self.a = a
        self.children = (a,)

    def _raw_subspaces(self):
        return self.a.subspace_out, self.a.subspace_in

    def compute(self, v):
        return self.a.adjoint_compute(v)

    def adjoint_compute(self, w):
        return self.a.compute(w)

    def _lower(self):
        return self.a.circuit().adjoint(), self.a.persistent_ancillas

    @property
    def exact_forward(self):
        return self.a.exact_backward

    @property
    def exact_backward(self):
        return self.a.exact_forward

    def adjoint(self):
        return self.a

    def __repr__(self):
        return f"Adjoint({self.a!r})"


class ZeroMatrix(Node):
    """Canonical zero block of a given shape.

    gamma is defined as 1 (it must stay positive); the circuit flips one
    persistent ancilla so every input leaves the accepted output sector.
    """

    def __init__(self, dim_out: int, dim_in: int):
        self._in = Subspace.from_dim(dim_in)
        self._out = Subspace.from_dim(dim_out)

    def _raw_subspaces(self):
        return self._in, self._out

    normalization = 1.0

    def compute(self, v):
        return np.zeros((self._out.dim,) + np.shape(v)[1:], dtype=complex)

    def adjoint_compute(self, w):
        return np.zeros((self._in.dim,) + np.shape(w)[1:], dtype=complex)

    def _parts(self):
        return [Gate("X", (self.main_qubits,))], 1, 0

    def __repr__(self):
        return f"ZeroMatrix({self._out.dim}x{self._in.dim})"


class Scale(Wrapper):
    """Scalar multiple: gamma scales by |c|, the circuit gains arg(c) as a phase."""

    def __init__(self, factor, a: Node):
        factor = complex(factor)
        if factor == 0:
            raise ValueError("zero factor: use scale(), which returns a ZeroMatrix")
        self.factor = factor
        self.a = a
        self.children = (a,)

    @property
    def normalization(self):
        return abs(self.factor) * self.a.normalization

    def compute(self, v):
        return self.factor * self.a.compute(v)

    def adjoint_compute(self, w):
        return self.factor.conjugate() * self.a.adjoint_compute(w)

    def _lower(self):
        circ, pers = super()._lower()
        arg = cmath.phase(self.factor)
        if arg != 0.0:
            circ = replace(circ, gates=circ.gates + (global_phase(arg),))
        return circ, pers

    def __repr__(self):
        return f"Scale({self.factor}, {self.a!r})"


def scale(factor, a: Node) -> Node:
    """c * a; a zero factor collapses to the canonical ZeroMatrix node."""
    if complex(factor) == 0:
        return ZeroMatrix(a.dim_out, a.dim_in)
    return Scale(factor, a)


class _UnitNormalized(Wrapper):
    """Same unitary, block relabeled as A/gamma with normalization exactly 1."""

    def __init__(self, a: Node):
        self.a = a
        self.children = (a,)

    normalization = 1.0

    def compute(self, v):
        return self.a.compute(v) / self.a.normalization

    def adjoint_compute(self, w):
        return self.a.adjoint_compute(w) / self.a.normalization


class Product(Node):
    """Matrix product a @ b: run b, align bases, optionally check the
    intermediate subspace into a fresh flag, then run a.

    The check is skipped when b certifies that it maps its input sector
    exactly into its output sector; `exact=True` forces the skip (recorded as
    an unchecked assumption), `exact=False` forces the check.
    """

    def __init__(self, a: Node, b: Node, exact="auto"):
        if a.dim_in != b.dim_out:
            raise ValueError(
                f"product dimension mismatch: a is {a.dim_out}x{a.dim_in}, "
                f"b is {b.dim_out}x{b.dim_in}")
        self.a = a
        self.b = b
        self.children = (a, b)
        if exact is True:
            self._check = False
            self._forced = not b.exact_forward
        elif exact is False:
            self._check = True
            self._forced = False
        else:
            self._check = not b.exact_forward
            self._forced = False

    def _raw_subspaces(self):
        return self.b.subspace_in, self.a.subspace_out

    @property
    def normalization(self):
        return self.a.normalization * self.b.normalization

    def compute(self, v):
        return self.a.compute(self.b.compute(v))

    def adjoint_compute(self, w):
        return self.b.adjoint_compute(self.a.adjoint_compute(w))

    @property
    def exact_forward(self):
        return self.a.exact_forward and (self.b.exact_forward or self._check)

    @property
    def exact_backward(self):
        return self.b.exact_backward and (self.a.exact_backward or self._check)

    @property
    def assumptions(self):
        out = super().assumptions
        if self._forced:
            out += ("product: intermediate subspace check skipped without a certificate",)
        return out

    def _parts(self):
        a, b = self.a, self.b
        m = self.main_qubits
        own = 1 if self._check else 0
        a_flag_base = m + own
        b_flag_base = a_flag_base + a.persistent_ancillas
        scratch_base = b_flag_base + b.persistent_ancillas

        gates = embed_gates(b, range(b.main_qubits), b_flag_base, scratch_base)

        mid_out = b.subspace_out.pad_to(m)
        mid_in = a.subspace_in.pad_to(m)
        if mid_out != mid_in:
            tbl = _alignment_table(mid_out, mid_in, m)
            if tbl is not None:
                gates.append(permutation(tbl, range(m)))

        memb_scr = 0
        if self._check:
            pool = ScratchPool(scratch_base)
            gates.extend(membership_flip_gates(mid_in, 0, m, pool))
            memb_scr = pool.peak

        gates.extend(embed_gates(a, range(a.main_qubits), a_flag_base, scratch_base))

        pers = own + a.persistent_ancillas + b.persistent_ancillas
        scr_a = a.ancilla_count - a.persistent_ancillas
        scr_b = b.ancilla_count - b.persistent_ancillas
        return gates, pers, max(scr_a, scr_b, memb_scr)

    def __repr__(self):
        return f"({self.a!r} @ {self.b!r})"


def _alignment_table(src: Subspace, dst: Subspace, m: int):
    """Register permutation sending the k-th basis index of src to the k-th of
    dst, complement to complement in increasing order.  None if identity."""
    full = np.arange(1 << m, dtype=np.int64)
    bs = src.enumerate_basis()
    bd = dst.enumerate_basis()
    tbl = full.copy()
    tbl[bs] = bd
    mask = np.ones(1 << m, dtype=bool)
    mask[bs] = False
    cs = full[mask]
    mask[:] = True
    mask[bd] = False
    tbl[cs] = full[mask]
    if np.array_equal(tbl, full):
        return None
    return tbl.tolist()


class Tensor(Node):
    """Kronecker product a (x) b; the left operand is the more significant block."""

    def __init__(self, a: Node, b: Node):
        self.a = a
        self.b = b
        self.children = (a, b)

    def _raw_subspaces(self):
        a, b = self.a, self.b
        return a.subspace_in & b.subspace_in, a.subspace_out & b.subspace_out

    @property
    def normalization(self):
        return self.a.normalization * self.b.normalization

    def compute(self, v):
        return _kron_apply(self.a.compute, self.b.compute,
                           self.a.dim_in, self.b.dim_in, v)

    def adjoint_compute(self, w):
        return _kron_apply(self.a.adjoint_compute, self.b.adjoint_compute,
                           self.a.dim_out, self.b.dim_out, w)

    @property
    def exact_forward(self):
        return self.a.exact_forward and self.b.exact_forward

    @property
    def exact_backward(self):
        return self.a.exact_backward and self.b.exact_backward

    def _parts(self):
        a, b = self.a, self.b
        mb, ma = b.main_qubits, a.main_qubits
        m = ma + mb
        a_flag_base = m
        b_flag_base = m + a.persistent_ancillas
        scratch_base = b_flag_base + b.persistent_ancillas
        gates = embed_gates(b, range(mb), b_flag_base, scratch_base)
        gates += embed_gates(a, range(mb, m), a_flag_base, scratch_base)
        pers = a.persistent_ancillas + b.persistent_ancillas
        scr_a = a.ancilla_count - a.persistent_ancillas
        scr_b = b.ancilla_count - b.persistent_ancillas
        return gates, pers, max(scr_a, scr_b)

    def __repr__(self):
        return f"({self.a!r} & {self.b!r})"


def _kron_apply(fa, fb, na: int, nb: int, v):
    """(A (x) B) v for rules fa, fb acting along axis 0 of an na*nb-row input."""
    v = np.asarray(v, dtype=complex)
    k = math.prod(v.shape[1:])
    y = fb(v.reshape(na, nb, k).transpose(1, 0, 2).reshape(nb, na * k))
    y = y.reshape(-1, na, k).transpose(1, 0, 2).reshape(na, -1)
    return fa(y).reshape((-1,) + v.shape[1:])


class BlockDiagonal(Node):
    """diag(a, b) selected by one new most significant qubit.

    Normalizations are auto-equalized: the smaller-gamma child is physically
    sub-normalized by a controlled RY on a fresh flag ancilla whose |0>
    outcome is part of the accepted output sector.
    """

    def __init__(self, a: Node, b: Node):
        self.a = a
        self.b = b
        self.children = (a, b)

    def _raw_subspaces(self):
        mc = max(self.a.main_qubits, self.b.main_qubits)
        sin = self.a.subspace_in.pad_to(mc) | self.b.subspace_in.pad_to(mc)
        sout = self.a.subspace_out.pad_to(mc) | self.b.subspace_out.pad_to(mc)
        return sin, sout

    @property
    def normalization(self):
        return max(self.a.normalization, self.b.normalization)

    def compute(self, v):
        v = np.asarray(v, dtype=complex)
        na = self.a.dim_in
        return np.concatenate([self.a.compute(v[:na]), self.b.compute(v[na:])])

    def adjoint_compute(self, w):
        w = np.asarray(w, dtype=complex)
        na = self.a.dim_out
        return np.concatenate([self.a.adjoint_compute(w[:na]),
                               self.b.adjoint_compute(w[na:])])

    @property
    def exact_forward(self):
        return (self.a.exact_forward and self.b.exact_forward
                and self.a.normalization == self.b.normalization)

    @property
    def exact_backward(self):
        return (self.a.exact_backward and self.b.exact_backward
                and self.a.normalization == self.b.normalization)

    def _parts(self):
        a, b = self.a, self.b
        selector = max(a.main_qubits, b.main_qubits)
        m = selector + 1
        ga, gb = a.normalization, b.normalization
        subnorm = ga != gb
        own = 1 if subnorm else 0
        a_flag_base = m + own
        b_flag_base = a_flag_base + a.persistent_ancillas
        scratch_base = b_flag_base + b.persistent_ancillas

        gates = []
        if subnorm:
            ratio = min(ga, gb) / max(ga, gb)
            polarity = 0 if ga < gb else 1
            gates.append(ry(2 * math.acos(ratio), m, [(selector, polarity)]))

        gates += [g.with_control(selector, 1)
                  for g in embed_gates(b, range(b.main_qubits), b_flag_base, scratch_base)]
        a_gates = [g.with_control(selector, 1)
                   for g in embed_gates(a, range(a.main_qubits), a_flag_base, scratch_base)]
        if a_gates:
            gates.append(Gate("X", (selector,)))
            gates += a_gates
            gates.append(Gate("X", (selector,)))

        pers = own + a.persistent_ancillas + b.persistent_ancillas
        scr_a = a.ancilla_count - a.persistent_ancillas
        scr_b = b.ancilla_count - b.persistent_ancillas
        return gates, pers, max(scr_a, scr_b)

    def __repr__(self):
        return f"({self.a!r} | {self.b!r})"


class Add(ProxyNode):
    """a + b as the prepare / block-diagonal / unprepare combination.

    Expands to adjoint(prep (x) Id) @ diag(a/ga, b/gb) @ (prep (x) Id) with
    prep loading (sqrt(ga), sqrt(gb)); the normalization is exactly ga + gb.
    """

    def __init__(self, a: Node, b: Node):
        if (a.dim_in, a.dim_out) != (b.dim_in, b.dim_out):
            raise ValueError(
                f"addition needs equal shapes, got {a.dim_out}x{a.dim_in} "
                f"and {b.dim_out}x{b.dim_in}")
        self.a = a
        self.b = b
        self.children = (a, b)

    @property
    def normalization(self):
        return self.a.normalization + self.b.normalization

    def _expand(self):
        a, b = self.a, self.b
        ga, gb = a.normalization, b.normalization
        an = a if ga == 1.0 else _UnitNormalized(a)
        bn = b if gb == 1.0 else _UnitNormalized(b)
        weights = ConstantVector([math.sqrt(ga), math.sqrt(gb)])
        prep_in = weights & Identity(a.subspace_in)
        prep_out = weights & Identity(a.subspace_out)
        return Adjoint(prep_out) @ (BlockDiagonal(an, bn) @ prep_in)

    def __repr__(self):
        return f"({self.a!r} + {self.b!r})"


def add(a: Node, b: Node) -> Node:
    """a + b; adding a canonical ZeroMatrix of the same shape is a no-op."""
    if isinstance(b, ZeroMatrix) and (a.dim_in, a.dim_out) == (b.dim_in, b.dim_out):
        return a
    if isinstance(a, ZeroMatrix) and (a.dim_in, a.dim_out) == (b.dim_in, b.dim_out):
        return b
    return Add(a, b)


def _slice_indices(sl: slice, dim: int) -> list[int]:
    idx = list(range(*sl.indices(dim)))
    if not idx:
        raise ValueError(f"slice {sl} selects nothing from dimension {dim}")
    return idx


def _row_selector(subspace: Subspace, dim: int, sl: slice) -> Node | None:
    """Node S with S[k, i] = 1 iff i == L[k], as projection (plus permutation)."""
    idx = _slice_indices(sl, dim)
    if idx == list(range(dim)):
        return None
    proj = Projection(subspace, keep_out=len(idx), keep_in=dim)
    if idx == list(range(len(idx))):
        return proj
    table = [None] * dim
    for k, i in enumerate(idx):
        table[i] = k
    spare = iter(range(len(idx), dim))
    for i in range(dim):
        if table[i] is None:
            table[i] = next(spare)
    return Product(proj, Permutation(table, subspace))


def sliced(node: Node, key) -> Node:
    """Sub-block selection A[rows, cols]; both indices are slices."""
    if isinstance(key, tuple):
        if len(key) != 2:
            raise TypeError("use at most two slice indices")
        rows, cols = key
    else:
        rows, cols = key, slice(None)
    if not isinstance(rows, slice) or not isinstance(cols, slice):
        raise TypeError("block-encoding indexing supports slices only")
    out = node
    right = _row_selector(node.subspace_in, node.dim_in, cols)
    if right is not None:
        out = Product(out, Adjoint(right))
    left = _row_selector(node.subspace_out, node.dim_out, rows)
    if left is not None:
        out = Product(left, out)
    return out
