"""Gate-level circuit IR with a compiled statevector simulator.

Qubit 0 is the least significant bit of a basis index; amplitude arrays are
little-endian throughout.  Circuits are immutable; simulation never mutates
its input state.  A gate tuple may repeat one `Gate` object (lowering builds
each repeated part once); `adjoint` inverts, and `gate_counts` and
`t_count_estimate` count, each distinct object once.

Lowering works on items: an item is a `Gate` or a block, a tuple of gates
spliced in by reference, so a sequence that repeats a block d times holds d
references to one tuple.  `flatten`, `inverted` and `item_counts` act on
items, each distinct gate and block once.  `Circuit` takes items too: it
flattens them once into its gate tuple and range-checks each distinct item
once (a block by each of its distinct gates), so its check never walks the
flat tuple of a sequence of blocks.

`Circuit.apply` runs a program compiled from the gate list on first use and
cached on the circuit, so it lives exactly as long as the `Circuit`.  The
program keeps the state under a layout, a map from each qubit to a bit of
the storage index:

- before each gate that is not classical, the layout changes so that the
  gate's controls sit on the top bits and its target on the bit below them
  (a kernel right after another keeps a layout that already fits it).  The
  gate then acts on one contiguous block,
  `state.reshape(2^c, 2, -1)[values of its c controls]`: H and RY by one
  real 2x2 matmul on the float64 view, Y and RX by one complex matmul, Z, S,
  T, Phase and RZ by in-place scalar multiplies of the two halves, and a
  global phase by one in-place multiply of `state.reshape(2^c, -1)[...]`;
- each maximal run of classical gates (X, Swap, Permutation, any controls)
  becomes one index array `perm`, applied as `state[perm]`, that also moves
  the state from the layout before the run to the one after it.  It is
  built by bit arithmetic on `arange(2^n)`.  Two kernels with no run between
  them get a gather of their own if their layouts differ, and a last gather
  restores the logical order.  Repeated gate objects share their steps, so
  the QSVT sequence, which repeats a few runs d times, keeps a few arrays.
"""
from __future__ import annotations

import cmath
import math
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from itertools import groupby
from typing import NamedTuple

import numpy as np

PI = math.pi

_H = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
_Y = np.array([[0, -1j], [1j, 0]])

# The 2x2 matrix of each one-qubit kind that moves amplitude between the two
# halves; H and RY are real, and their matrices have a real dtype.
_MATRIX_1Q = {
    "Y": lambda t: _Y,
    "H": lambda t: _H,
    "RX": lambda t: np.array(
        [[math.cos(t / 2), -1j * math.sin(t / 2)],
         [-1j * math.sin(t / 2), math.cos(t / 2)]]),
    "RY": lambda t: np.array(
        [[math.cos(t / 2), -math.sin(t / 2)],
         [math.sin(t / 2), math.cos(t / 2)]]),
}

# The two diagonal entries of each diagonal one-qubit kind.
_DIAGONAL_1Q = {
    "Z": lambda t: (1, -1),
    "S": lambda t: (1, 1j),
    "T": lambda t: (1, cmath.exp(1j * PI / 4)),
    "Phase": lambda t: (1, cmath.exp(1j * t)),
    "RZ": lambda t: (cmath.exp(-1j * t / 2), cmath.exp(1j * t / 2)),
}

_SELF_INVERSE = frozenset({"X", "Y", "Z", "H", "Swap"})
_NEGATE_PARAM = frozenset({"Phase", "RX", "RY", "RZ", "GlobalPhase"})
KINDS = frozenset(_MATRIX_1Q) | frozenset(_DIAGONAL_1Q) | {"X", "GlobalPhase", "Swap", "Permutation"}


class UnsupportedGateError(ValueError):
    """Raised when an export or lowering cannot handle a gate."""


@dataclass(frozen=True)
class Gate:
    """One gate: a kind, target qubits, and (qubit, polarity) controls."""

    kind: str
    targets: tuple[int, ...] = ()
    controls: tuple[tuple[int, int], ...] = ()
    param: float | None = None
    table: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        if isinstance(self.param, (complex, np.complexfloating)):
            raise ValueError(f"gate parameter must be real, got {self.param!r}")
        used = list(self.targets) + [q for q, _ in self.controls]
        if len(set(used)) != len(used):
            raise ValueError("gate targets and controls must be pairwise distinct qubits")
        if self.kind == "Permutation":
            if self.table is None:
                raise ValueError("Permutation gate needs a table")
            n = len(self.table)
            if n != 1 << len(self.targets) or sorted(self.table) != list(range(n)):
                raise ValueError("Permutation table must be a bijection on the target block")

    def inverse(self) -> "Gate":
        if self.kind in _SELF_INVERSE:
            return self
        if self.kind == "S":
            return Gate("Phase", self.targets, self.controls, -PI / 2)
        if self.kind == "T":
            return Gate("Phase", self.targets, self.controls, -PI / 4)
        if self.kind in _NEGATE_PARAM:
            return Gate(self.kind, self.targets, self.controls, -self.param)
        if self.kind == "Permutation":
            inv = [0] * len(self.table)
            for i, j in enumerate(self.table):
                inv[j] = i
            return Gate("Permutation", self.targets, self.controls, table=tuple(inv))
        raise AssertionError(self.kind)

    def count_key(self) -> str:
        n = len(self.controls)
        prefix = "C" * n if n <= 2 else f"C{n}"
        return prefix + self.kind


# Short constructors; tests and builders use these.
def x(q, controls=()):
    return Gate("X", (q,), tuple(controls))


def h(q, controls=()):
    return Gate("H", (q,), tuple(controls))


def phase(theta, q, controls=()):
    return Gate("Phase", (q,), tuple(controls), float(theta))


def ry(theta, q, controls=()):
    return Gate("RY", (q,), tuple(controls), float(theta))


def rz(theta, q, controls=()):
    return Gate("RZ", (q,), tuple(controls), float(theta))


def global_phase(theta, controls=()):
    return Gate("GlobalPhase", (), tuple(controls), float(theta))


def swap(q0, q1, controls=()):
    return Gate("Swap", (q0, q1), tuple(controls))


def permutation(table, targets, controls=()):
    return Gate("Permutation", tuple(targets), tuple(controls), table=tuple(int(t) for t in table))


@dataclass(frozen=True)
class Circuit:
    """An ordered gate list over main + ancilla qubits (ancillas on top).

    `gates` may be given as items (gates and blocks); it is stored flattened.
    Each distinct gate and block is range-checked once, and the first gate
    that fails is the first in the flattened order."""

    main_qubits: int
    ancilla_qubits: int = 0
    gates: tuple[Gate, ...] = field(default_factory=tuple)

    def __post_init__(self):
        items = tuple(self.gates)
        gates = flatten(items)
        object.__setattr__(self, "gates", gates)
        total = self.main_qubits + self.ancilla_qubits
        distinct = {id(it): it for it in items}.values()
        if gates is not items:  # some items are blocks
            distinct = _block_gates(distinct)
        for g in distinct:
            for q in list(g.targets) + [q for q, _ in g.controls]:
                if not 0 <= q < total:
                    raise ValueError(f"gate {g} references qubit {q} outside register of {total}")

    @property
    def n_qubits(self) -> int:
        return self.main_qubits + self.ancilla_qubits

    def adjoint(self) -> "Circuit":
        return Circuit(self.main_qubits, self.ancilla_qubits, tuple(inverted(self.gates)))

    def concat(self, other: "Circuit") -> "Circuit":
        if (other.main_qubits, other.ancilla_qubits) != (self.main_qubits, self.ancilla_qubits):
            raise ValueError("can only concatenate circuits over the same register")
        return Circuit(self.main_qubits, self.ancilla_qubits, self.gates + other.gates)

    def gate_counts(self, lower_permutations: bool = False) -> dict[str, int]:
        return _tally(_occurrences(self.gates), lower_permutations)

    def apply(self, state):
        """Apply the gate sequence to a statevector (or column-stacked matrix)."""
        st = np.array(state, dtype=complex, order="C")  # kernels update views of it
        flat = st.ndim == 1
        if flat:
            st = st[:, None]
        if st.shape[0] != 1 << self.n_qubits:
            raise ValueError(
                f"state has {st.shape[0]} amplitudes, circuit needs {1 << self.n_qubits}")
        for step in self._program:
            st = np.take(st, step, axis=0) if isinstance(step, np.ndarray) else step.run(st)
        return st[:, 0] if flat else st

    @cached_property
    def _program(self) -> tuple:
        return _compile(self.gates, self.n_qubits)

    def unitary(self) -> np.ndarray:
        """Dense matrix of the circuit (built column-by-column, one pass)."""
        dim = 1 << self.n_qubits
        return self.apply(np.eye(dim, dtype=complex))

    def export_text(self, lower_permutations: bool = False) -> str:
        return export_text(self, lower_permutations)


def _occurrences(gates):
    """(object, occurrences) for each distinct object, in order of first occurrence."""
    first = dict(zip(map(id, gates), gates))
    if len(first) == len(gates):  # nothing repeats, as in most small circuits
        return [(g, 1) for g in gates]
    times = Counter(map(id, gates))
    return [(first[i], n) for i, n in times.items()]


def _tally(pairs, lower_permutations: bool = False) -> dict[str, int]:
    """Gate counts by `Gate.count_key` of (gate, occurrences) pairs."""
    counts = {}
    for g, n in pairs:
        lowered = (lower_permutation_gate(g) if lower_permutations and g.kind == "Permutation"
                   else (g,))
        for lg in lowered:
            key = lg.count_key()
            counts[key] = counts.get(key, 0) + n
    return counts


def flatten(items) -> tuple[Gate, ...]:
    """The gate tuple of a sequence of gates and blocks; a tuple without
    blocks is its own."""
    if all(isinstance(it, Gate) for it in items):
        return tuple(items)
    gates = []
    for it in items:
        if isinstance(it, Gate):
            gates.append(it)
        else:
            gates.extend(it)
    return tuple(gates)


def _block_gates(items):
    """Each distinct gate of distinct gates and blocks once, in order of first
    occurrence in their flattened sequence."""
    gates = {}
    for it in items:
        if isinstance(it, Gate):
            gates[id(it)] = it
        else:
            gates.update(zip(map(id, it), it))
    return gates.values()


def inverted(items) -> list:
    """The inverse of a sequence of gates and blocks: the items in reverse
    order, a gate replaced by its inverse and a block by the reversed tuple of
    its gates' inverses.  Each distinct gate and block is inverted once, so
    whatever the sequence repeats, its inverse repeats too."""
    new = {}  # id -> inverse; `items` keeps every id live meanwhile

    def inverse(it):
        out = new.get(id(it))
        if out is None:
            out = new[id(it)] = (it.inverse() if isinstance(it, Gate)
                                 else tuple(map(inverse, reversed(it))))
        return out

    return [inverse(it) for it in reversed(items)]


def item_counts(items) -> dict[str, int]:
    """`Circuit.gate_counts` of the flattened items, in the same key order,
    with each distinct block counted once and weighted by its occurrences."""
    pairs = []
    for it, n in _occurrences(items):
        if isinstance(it, Gate):
            pairs.append((it, n))
        else:
            pairs.extend((g, k * n) for g, k in _occurrences(it))
    return _tally(pairs)


# Gates that only move amplitudes.
_CLASSICAL = frozenset({"X", "Swap", "Permutation"})


class _Matrix(NamedTuple):
    """A 2x2 matrix on one contiguous `(2, L)` block of the state.

    A real matrix acts on the float64 view, whose rows hold real and
    imaginary parts side by side, so it runs as one real matmul."""

    shape: tuple
    block: int
    matrix: np.ndarray

    def run(self, st):
        v = st if self.matrix.dtype == complex else st.view(np.float64)
        if self.shape[0] == 1:  # no controls: the product is the new state, not copied back
            return (self.matrix @ v.reshape(2, -1)).view(complex).reshape(st.shape)
        v = v.reshape(self.shape)[self.block]
        v[...] = self.matrix @ v
        return st


class _Scale(NamedTuple):
    """In-place scalar multiplies of contiguous blocks: a diagonal gate's two
    halves, or the one block of a (controlled) global phase."""

    shape: tuple
    factors: tuple  # (index into st.reshape(shape), factor) pairs

    def run(self, st):
        v = st.reshape(self.shape)
        for index, factor in self.factors:
            v[index] *= factor
        return st


def _fits(order, g):
    """Whether layout `order` (the qubit at each storage bit, lowest first)
    has g's controls on its top bits and g's target just below them."""
    n, c = len(order), len(g.controls)
    below = n - c - len(g.targets)
    return (order[below:n - c] == g.targets
            and set(order[n - c:]) == {q for q, _ in g.controls})


def _layout(g, n):
    """The layout a gate gets when the current one does not fit it: the other
    qubits in ascending order, then its target, then its controls."""
    top = g.targets + tuple(q for q, _ in g.controls)
    return tuple(q for q in range(n) if q not in top) + top


def _kernel(g, order):
    """The kernel of a gate that is not classical, on a layout that fits it."""
    n, c = len(order), len(g.controls)
    block = sum(p << order.index(q) for q, p in g.controls) >> (n - c)
    if g.kind == "GlobalPhase":
        return _Scale((1 << c, -1), ((block, cmath.exp(1j * g.param)),))
    if g.kind in _DIAGONAL_1Q:
        return _Scale((1 << c, 2, -1), tuple(((block, i), f) for i, f in
                                             enumerate(_DIAGONAL_1Q[g.kind](g.param)) if f != 1))
    return _Matrix((1 << c, 2, -1), block, _MATRIX_1Q[g.kind](g.param))


def _source(g, x):
    """For classical gate g and basis indices x, the index each one's
    amplitude comes from: g^-1 elementwise, by bit arithmetic."""
    if g.kind == "X":
        moved = x ^ (1 << g.targets[0])
    else:  # target block j (target i is bit i of j) moves to block table[j]
        table = (0, 2, 1, 3) if g.kind == "Swap" else g.table
        placed = [0] * len(table)  # placed[table[j]]: the bits of block j on the targets
        for j, k in enumerate(table):
            placed[k] = sum(((j >> i) & 1) << q for i, q in enumerate(g.targets))
        block = 0
        for i, q in enumerate(g.targets):
            block = block | (((x >> q) & 1) << i)
        moved = (x & ~sum(1 << q for q in g.targets)) | np.array(placed)[block]
    if not g.controls:
        return moved
    mask = value = 0
    for q, p in g.controls:
        mask, value = mask | 1 << q, value | p << q
    return np.where((x & mask) == value, moved, x)


def _spread(index, order):
    """`index` (an arange) with bit b of each entry moved to bit order[b]."""
    n = len(order)
    return index.reshape((2,) * n).transpose([n - 1 - q for q in reversed(order)]).ravel()


def _compile(gates, n):
    """The simulation program of a gate list: index arrays and block kernels.

    `order[b]` is the qubit at storage bit b.  After a run the layout
    becomes the next gate's own, folded into the run's gather; between two
    kernels it changes, by a gather of its own, only if the second does not
    fit it.
    """
    identity = tuple(range(n))
    index = np.arange(1 << n)
    gathers = {}  # (layout before, ids of a run's gates, layout after) -> index array
    kernels = {}  # (id of a gate, layout) -> its kernel
    layouts = {}  # id of a gate -> the layout it moves to

    def gather(before, run, after):
        key = (before, tuple(map(id, run)), after)
        x = gathers.get(key)
        if x is None:
            x = _spread(index, after)  # the logical index at each storage index
            for g in reversed(run):
                x = _source(g, x)
            if before != identity:  # the storage index of each logical one
                x = _spread(index, [before.index(q) for q in identity])[x]
            gathers[key] = x
        return x

    program = []
    order, run = identity, ()
    for classical, group in groupby(gates, key=lambda g: g.kind in _CLASSICAL):
        if classical:
            run = tuple(group)
            continue
        for g in group:
            if run or not _fits(order, g):
                new = layouts.get(id(g))
                if new is None:
                    new = layouts[id(g)] = _layout(g, n)
                program.append(gather(order, run, new))
                order, run = new, ()
            step = kernels.get((id(g), order))
            if step is None:
                step = kernels[id(g), order] = _kernel(g, order)
            program.append(step)
    if run or order != identity:
        program.append(gather(order, run, identity))
    return tuple(program)


def lower_permutation_gate(g: Gate) -> list[Gate]:
    """Expand a PermutationGate into CX conjugations around multi-controlled X.

    One network per transposition; cycles are processed in order of their
    smallest moved index, and each cycle (c0 c1 ... ck) with c0 minimal emits
    the transpositions (c0,c1), (c0,c2), ..., (c0,ck).
    """
    if g.kind != "Permutation":
        raise ValueError("not a permutation gate")
    table, targets = g.table, g.targets
    nq = len(targets)
    seen = [False] * len(table)
    gates: list[Gate] = []
    for start in range(len(table)):
        if seen[start] or table[start] == start:
            seen[start] = True
            continue
        cycle = [start]
        seen[start] = True
        nxt = table[start]
        while nxt != start:
            cycle.append(nxt)
            seen[nxt] = True
            nxt = table[nxt]
        for other in cycle[1:]:
            gates.extend(_transposition_gates(start, other, nq, targets, g.controls))
    return gates


def _transposition_gates(a, b, nq, targets, extra_controls):
    diff = a ^ b
    t = (diff & -diff).bit_length() - 1
    a_t = (a >> t) & 1
    ladder = [
        Gate("X", (targets[j],), ((targets[t], a_t),))
        for j in range(nq)
        if j != t and (diff >> j) & 1
    ]
    core_controls = tuple((targets[i], (b >> i) & 1) for i in range(nq) if i != t)
    core = Gate("X", (targets[t],), core_controls + tuple(extra_controls))
    return ladder + [core] + ladder[::-1]


def t_count_estimate(circuit: Circuit) -> dict[str, int]:
    """Rough T-cost of the lowered circuit.

    Fixed cost model: Toffoli = 7 T; an X with n >= 2 controls costs (2n - 3)
    Toffolis plus n - 2 clean scratch qubits.  These are documented constants
    of this estimator, not tight syntheses.
    """
    t = 0
    scratch = 0
    for g, times in _occurrences(circuit.gates):
        lowered = lower_permutation_gate(g) if g.kind == "Permutation" else [g]
        for lg in lowered:
            n = len(lg.controls)
            if lg.kind == "T":
                t += times
            elif lg.kind == "X" and n >= 2:
                t += (2 * n - 3) * 7 * times
                scratch = max(scratch, n - 2)
    return {"t": t, "scratch": scratch}


_QASM_NAMES = {
    "X": "x", "Y": "y", "Z": "z", "H": "h", "S": "s", "T": "t",
    "Phase": "p", "RX": "rx", "RY": "ry", "RZ": "rz",
    "Swap": "swap", "GlobalPhase": "gphase",
}


def export_text(circuit: Circuit, lower_permutations: bool = False) -> str:
    """OpenQASM-3-compatible textual export (export only, no import path)."""
    lines = ["OPENQASM 3.0;", 'include "stdgates.inc";',
             f"qubit[{circuit.main_qubits}] q;"]
    if circuit.ancilla_qubits:
        lines.append(f"qubit[{circuit.ancilla_qubits}] anc;")

    def ref(q):
        if q < circuit.main_qubits:
            return f"q[{q}]"
        return f"anc[{q - circuit.main_qubits}]"

    def emit(g: Gate) -> list[str]:
        if g.kind == "Permutation":
            if not lower_permutations:
                raise UnsupportedGateError(
                    "PermutationGate has no direct text form; export with lowering enabled")
            return [line for lg in lower_permutation_gate(g) for line in emit(lg)]
        name = _QASM_NAMES[g.kind]
        if g.param is not None:
            name += f"({g.param!r})"
        ctrls = list(g.controls)
        args = [ref(q) for q, _ in ctrls] + [ref(q) for q in g.targets]
        if g.kind == "X" and ctrls and all(p == 1 for _, p in ctrls) and len(ctrls) <= 2:
            name = "cx" if len(ctrls) == 1 else "ccx"
        else:
            name = "".join("ctrl @ " if p else "negctrl @ " for _, p in ctrls) + name
        return [f"{name} {', '.join(args)};" if args else f"{name};"]

    # each distinct gate object is formatted once and its text repeated
    text = {id(g): "".join(line + "\n" for line in emit(g))
            for g, _ in _occurrences(circuit.gates)}
    return "\n".join(lines) + "\n" + "".join(text[id(g)] for g in circuit.gates)
