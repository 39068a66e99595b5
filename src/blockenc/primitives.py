"""Leaf block encodings: bespoke circuits paired with direct array rules."""
from __future__ import annotations

import cmath
import math

import numpy as np

from .circuits import Gate, global_phase, h, permutation, phase, ry, swap
from .nodes import Node
from .subspaces import Subspace


def _as_subspace(subspace=None, dim=None) -> Subspace:
    if (subspace is None) == (dim is None):
        raise ValueError("give either a subspace or a dimension")
    if subspace is not None:
        if isinstance(subspace, int):
            return Subspace.from_dim(subspace)
        return subspace
    return Subspace.from_dim(dim)


class Identity(Node):
    """gamma = 1, empty circuit, equal input and output subspaces."""

    def __init__(self, subspace=None, dim=None):
        self._s = _as_subspace(subspace, dim)

    def _raw_subspaces(self):
        return self._s, self._s

    normalization = 1.0

    def compute(self, v):
        return np.asarray(v, dtype=complex)

    adjoint_compute = compute

    def _parts(self):
        return [], 0, 0

    exact_forward = True
    exact_backward = True

    def __repr__(self):
        return f"Identity(dim={self._s.dim})"


class Increment(Node):
    """|k> -> |k + 1 mod 2^n> on the full n-qubit space."""

    def __init__(self, bits: int):
        if bits < 1:
            raise ValueError("bits must be >= 1")
        self.bits = bits
        self._s = Subspace("#" * bits)

    def _raw_subspaces(self):
        return self._s, self._s

    normalization = 1.0

    def compute(self, v):
        return np.roll(np.asarray(v, dtype=complex), 1, axis=0)

    def adjoint_compute(self, w):
        return np.roll(np.asarray(w, dtype=complex), -1, axis=0)

    def _parts(self):
        return list(_increment_gates(range(self.bits))), 0, 0

    exact_forward = True
    exact_backward = True

    def __repr__(self):
        return f"Increment(bits={self.bits})"


def _increment_gates(qubits, controls=()):
    """Carry-ripple +1 on the given qubits (ascending significance)."""
    qs = list(qubits)
    gates = []
    for j in range(len(qs) - 1, 0, -1):
        ctrls = tuple((qs[i], 1) for i in range(j)) + tuple(controls)
        gates.append(Gate("X", (qs[j],), ctrls))
    gates.append(Gate("X", (qs[0],), tuple(controls)))
    return gates


class ConstantIntegerAddition(Node):
    """|b> -> |b + c mod 2^n>; evaluated directly as a cyclic roll."""

    def __init__(self, bits: int, constant: int):
        if bits < 1:
            raise ValueError("bits must be >= 1")
        self.bits = bits
        self.constant = int(constant)
        self._s = Subspace("#" * bits)

    def _raw_subspaces(self):
        return self._s, self._s

    normalization = 1.0

    def compute(self, v):
        return np.roll(np.asarray(v, dtype=complex), self.constant, axis=0)

    def adjoint_compute(self, w):
        return np.roll(np.asarray(w, dtype=complex), -self.constant, axis=0)

    def _parts(self):
        c = self.constant % (1 << self.bits)
        gates = []
        for j in range(self.bits):
            if (c >> j) & 1:
                gates.extend(_increment_gates(range(j, self.bits)))
        return gates, 0, 0

    exact_forward = True
    exact_backward = True

    def __repr__(self):
        return f"ConstantIntegerAddition(bits={self.bits}, constant={self.constant})"


class IntegerAddition(Node):
    """|a>_s |b>_t -> |a>_s |b + a mod 2^t>_t, source block more significant."""

    def __init__(self, source_bits: int, target_bits: int):
        if source_bits < 1 or target_bits < 1:
            raise ValueError("register sizes must be >= 1")
        self.source_bits = source_bits
        self.target_bits = target_bits
        self._s = Subspace("#" * (source_bits + target_bits))

    def _raw_subspaces(self):
        return self._s, self._s

    normalization = 1.0

    def _sources(self, shift: int) -> np.ndarray:
        """Row a*T + b of the result reads row a*T + (b + shift*a mod T)."""
        t = 1 << self.target_bits
        a, b = np.divmod(np.arange(t << self.source_bits), t)
        return a * t + (b + shift * a) % t

    def compute(self, v):
        return np.asarray(v, dtype=complex)[self._sources(-1)]

    def adjoint_compute(self, w):
        return np.asarray(w, dtype=complex)[self._sources(1)]

    def _parts(self):
        t = self.target_bits
        gates = []
        for j in range(min(self.source_bits, t)):
            # source bit j adds 2^j to the target register
            gates.extend(_increment_gates(range(j, t), controls=((t + j, 1),)))
        return gates, 0, 0

    exact_forward = True
    exact_backward = True

    def __repr__(self):
        return f"IntegerAddition(source_bits={self.source_bits}, target_bits={self.target_bits})"


class QFT(Node):
    """Discrete Fourier transform block: entries omega^(jk) / sqrt(2^n)."""

    def __init__(self, bits: int):
        if bits < 1:
            raise ValueError("bits must be >= 1")
        self.bits = bits
        self._s = Subspace("#" * bits)

    def _raw_subspaces(self):
        return self._s, self._s

    normalization = 1.0

    def compute(self, v):
        v = np.asarray(v, dtype=complex)
        return np.fft.ifft(v, axis=0) * math.sqrt(len(v))

    def adjoint_compute(self, w):
        w = np.asarray(w, dtype=complex)
        return np.fft.fft(w, axis=0) / math.sqrt(len(w))

    def _parts(self):
        n = self.bits
        gates = []
        for q in range(n - 1, -1, -1):
            gates.append(h(q))
            for p in range(q - 1, -1, -1):
                gates.append(phase(math.pi / (1 << (q - p)), q, [(p, 1)]))
        for q in range(n // 2):
            gates.append(swap(q, n - 1 - q))
        return gates, 0, 0

    exact_forward = True
    exact_backward = True

    def __repr__(self):
        return f"QFT(bits={self.bits})"


class ConstantVector(Node):
    """Encodes a fixed vector as a single-column block; gamma is its 2-norm.

    The circuit is a tree of (multi-)controlled Y rotations splitting the
    amplitude mass top-down, a final diagonal of controlled global phases for
    complex entries, and a plain H wherever a split is exactly even.
    """

    def __init__(self, entries):
        v = np.asarray(entries, dtype=complex).reshape(-1)
        if v.size < 1 or not np.any(v):
            raise ValueError("entries must be a nonzero vector")
        self.entries = v
        self._gamma = float(np.linalg.norm(v))
        self._out = Subspace.from_dim(v.size)

    def _raw_subspaces(self):
        return Subspace(), self._out

    @property
    def normalization(self):
        return self._gamma

    def compute(self, v):
        # entries times the single input row, broadcast over any columns
        v = np.asarray(v, dtype=complex)
        return self.entries.reshape((-1,) + (1,) * (v.ndim - 1)) * v[:1]

    def adjoint_compute(self, w):
        # vecdot conjugates its first argument: <entries, column> per column
        return np.vecdot(self.entries, np.asarray(w, dtype=complex).T)[None]

    def _parts(self):
        k = self._out.qubit_count
        amps = np.zeros(1 << k, dtype=complex)
        amps[: self.entries.size] = self.entries / self._gamma
        gates = []
        weights = np.abs(amps) ** 2
        for q in range(k - 1, -1, -1):
            # weight of each (prefix, bit q) branch = mass of its subtree
            w = weights.reshape(1 << (k - 1 - q), 2, 1 << q).sum(axis=2)
            for prefix in range(w.shape[0]):
                w0, w1 = w[prefix]
                if w1 <= 0.0:
                    continue
                controls = [(q + 1 + i, (prefix >> i) & 1) for i in range(k - 1 - q)]
                if w0 == w1:
                    gates.append(h(q, controls))
                else:
                    theta = 2 * math.atan2(math.sqrt(w1), math.sqrt(w0))
                    gates.append(ry(theta, q, controls))
        for idx in range(amps.size):
            if abs(amps[idx]) > 0:
                arg = cmath.phase(amps[idx])
                if arg != 0.0:
                    controls = [(i, (idx >> i) & 1) for i in range(k)]
                    gates.append(global_phase(arg, controls))
        return gates, 0, 0

    exact_forward = True  # prepared amplitudes outside the block are exactly zero
    exact_backward = False

    def __repr__(self):
        return f"ConstantVector(len={self.entries.size})"


class Permutation(Node):
    """Relabels basis indices; a single PermutationGate in the circuit.

    With a subspace the table acts on that subspace's enumerated basis and the
    complement is mapped to itself in increasing order.
    """

    def __init__(self, table, subspace: Subspace | None = None):
        table = [int(t) for t in table]
        if sorted(table) != list(range(len(table))):
            raise ValueError("table must be a bijection on [0, len(table))")
        if subspace is None:
            if len(table) & (len(table) - 1):
                raise ValueError("without a subspace the table must cover a power-of-two space")
            subspace = Subspace.from_dim(len(table))
        elif subspace.dim != len(table):
            raise ValueError("table length must equal the subspace dimension")
        self.table = tuple(table)
        self._s = subspace

    def _raw_subspaces(self):
        return self._s, self._s

    normalization = 1.0

    def compute(self, v):
        v = np.asarray(v, dtype=complex)
        out = np.empty_like(v)
        out[np.asarray(self.table)] = v
        return out

    def adjoint_compute(self, w):
        return np.asarray(w, dtype=complex)[np.asarray(self.table)]

    def _parts(self):
        m = self._s.qubit_count
        return [permutation(register_table(self._s, self.table), range(m))], 0, 0

    exact_forward = True
    exact_backward = True

    def __repr__(self):
        return f"Permutation(dim={len(self.table)})"


def register_table(subspace: Subspace, block_table) -> list[int]:
    """Extend a permutation of a subspace's basis to the whole register.

    Basis index k maps to basis index block_table[k]; complement indices map
    to complement indices in increasing order (the identity).
    """
    m = subspace.qubit_count
    basis = subspace.enumerate_basis()
    full = np.arange(1 << m, dtype=np.int64)
    full[basis] = basis[np.asarray(block_table, dtype=np.int64)]
    return full.tolist()


class Projection(Node):
    """Selects the leading block of a parent subspace: the [I 0; 0 0] pattern.

    Encodes the keep_out x keep_in prefix selector with an empty circuit;
    both subspaces are prefix truncations of the parent.
    """

    def __init__(self, parent: Subspace, keep_out: int, keep_in: int):
        if not (1 <= keep_out <= parent.dim and 1 <= keep_in <= parent.dim):
            raise ValueError("kept dimensions must lie in [1, parent dim]")
        self.parent = parent
        self.keep_out = keep_out
        self.keep_in = keep_in
        self._in = parent.prefix_truncate(keep_in)
        self._outs = parent.prefix_truncate(keep_out)

    def _raw_subspaces(self):
        return self._in, self._outs

    normalization = 1.0

    @staticmethod
    def _prefix(v, rows: int) -> np.ndarray:
        v = np.asarray(v, dtype=complex)
        out = np.zeros((rows,) + v.shape[1:], dtype=complex)
        out[:min(rows, len(v))] = v[:rows]
        return out

    def compute(self, v):
        return self._prefix(v, self.keep_out)

    def adjoint_compute(self, w):
        return self._prefix(w, self.keep_in)

    def _parts(self):
        return [], 0, 0

    @property
    def exact_forward(self):
        return self.keep_in <= self.keep_out

    @property
    def exact_backward(self):
        return self.keep_out <= self.keep_in

    def __repr__(self):
        return f"Projection({self.keep_out}x{self.keep_in} of dim {self.parent.dim})"
