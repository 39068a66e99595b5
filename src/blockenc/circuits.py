"""Gate-level circuit IR with a statevector simulator of the live rows.

Qubit 0 is the least significant bit of a basis index; amplitude arrays are
little-endian throughout.  Circuits are immutable; simulation never mutates
its input state.  A gate sequence may repeat one `Gate` object (lowering
builds each repeated part once); `adjoint` inverts, and `gate_counts` and
`t_count_estimate` count, each distinct object once.

Lowering works on items.  An item is a `Gate`, a block (a tuple of items
spliced in by reference, so a sequence that repeats a block d times holds d
references to one tuple) or a `PhaseSequence`, the d + 1 phase steps of a
singular value transformation as one item.  A phase sequence iterates as its
parts, like a block; the first flatten or export that iterates it binds its
d + 1 RZ gates, once, and a simulation reads its angles without binding
them.  `flatten`, `inverted` and `item_counts`
act on items, each distinct gate and block once, and count a phase sequence
from its per-step parts, without its angles.  `Circuit` keeps its items: its
`gates` is a read-only view whose length is counted from them, so no gate
tuple is built unless one is asked for, and it range-checks each distinct
gate once.

`Circuit.run` simulates only the rows that can be nonzero (the state
sparsity of Jaques & Haener): row i of its compact state holds the amplitude
of basis label `labels[i]`, and it runs the plan of that live set.  The
circuit keeps the last plan it built, so repeated calls on one live set
build it once.  `Circuit.apply` runs the nonzero rows of a full state and
scatters the result into a zeroed 2^n output.  A plan walks the items,
carrying the array of live labels:

- a classical gate (X, Swap, Permutation, any controls) relabels the array
  while the plan is built and leaves no step to run;
- a one-qubit matrix gate first appends, at amplitude 0, each partner
  x ^ 2^t of a live x under its controls that is not live, then runs as one
  gather, 2x2 product and scatter of the (2, k) positions of its pairs: H
  and RY as a real product on the real and imaginary parts side by side;
- a diagonal gate or a global phase multiplies the rows at its positions in
  place.

Rows are never dropped, so the compact state has the length of the last
live array.  A plan is one walk: a gate is planned where it occurs, however
often its object repeats, and a block's items are walked in its place.  Only
a phase sequence's loop plans a repeat once.

A phase sequence is planned once.  Its live set is first saturated: its
two blocks are walked in turn on the labels alone, with no step built,
until a period adds no label, and the labels found are appended at
amplitude 0.  A step's mark, flip, RZ, flip and unmark map each label back
to itself, so every odd step then starts from the same live set.  The
steps are then walked one by one until an odd step starts on a live array
equal to the one the last odd step started on, which is at step 3 once the
set is saturated; from there each pair of steps repeats the same plan steps
with new angles, and one loop step runs steps 1 to d.  The loop cuts the
fixed part between two RZs in the middle, and each turn, from the middle of
one block through an RZ to the middle of the next, is composed once, entry
by entry, into a row-sparse product on the L live rows: r source rows and
coefficients per row, the coefficients linear in the step's two RZ factors
and computed for a block of steps at a time.  A turn is fused only if r is
at most the number of plan steps it replaces; otherwise its steps run as
they are, the RZ as one multiply by the step's factors.  So the plan's time
and arrays grow with the distinct parts, not with the degree.
"""
from __future__ import annotations

import cmath
import math
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
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

# The number of targets of each kind but Permutation, whose table sets it.
_ARITY = {**dict.fromkeys((*_MATRIX_1Q, *_DIAGONAL_1Q, "X"), 1), "Swap": 2, "GlobalPhase": 0}

_SELF_INVERSE = frozenset({"X", "Y", "Z", "H", "Swap"})
_NEGATE_PARAM = frozenset({"Phase", "RX", "RY", "RZ", "GlobalPhase"})
KINDS = frozenset(_ARITY) | {"Permutation"}


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
        n = len(self.targets)
        if self.kind not in KINDS:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        if _ARITY.get(self.kind, n) != n:
            raise ValueError(f"{self.kind} gate needs {_ARITY[self.kind]} target(s), got {n}")
        if isinstance(self.param, (complex, np.complexfloating)):
            raise ValueError(f"gate parameter must be real, got {self.param!r}")
        if self.controls or n > 1:  # a lone target has no qubit to clash with
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


class PhaseSequence:
    """The d + 1 phase steps of a singular value transformation as one item.

    Step k runs `blocks[k % 2]` (from step 1 on), then the mark of
    `marks[k % 2]`, `flip`, an RZ by the angle of step k on the qubit and
    controls of `rotation` (an RZ without an angle), `flip` again and the
    unmark.  Only the RZ differs between steps, so the sequence is counted,
    relabelled and inverted by its parts, without its angles.  Iterating it
    yields its parts in order, so it flattens and exports like a block; the
    first iteration calls `angles` and binds one RZ `Gate` per step, once.
    The simulator plans it from its parts and `angles`, binding no gate."""

    def __init__(self, blocks, marks, flip, rotation, angles, degree):
        self.blocks = blocks  # (block of the even steps, block of the odd steps)
        self.marks = marks  # ((mark, unmark) of the even steps, of the odd steps)
        self.flip = flip
        self.rotation = rotation
        self.angles = angles  # () -> the RZ angle of each step
        self.degree = degree

    @cached_property
    def rotations(self) -> tuple[Gate, ...]:
        r = self.rotation
        return tuple(Gate(r.kind, r.targets, r.controls, t) for t in self.angles())

    def __iter__(self):
        """The items of the flattened sequence in order, with one RZ per step."""
        for k, rz in enumerate(self.rotations):
            mark, unmark = self.marks[k % 2]
            if k:
                yield self.blocks[k % 2]
            yield mark
            yield self.flip
            yield rz
            yield self.flip
            yield unmark

    def occurrences(self):
        """(part, occurrences) in order of first occurrence, with `rotation`
        standing for the d + 1 RZ gates."""
        d = self.degree
        even, odd = d // 2 + 1, (d + 1) // 2  # steps of each parity
        (mark0, unmark0), (mark1, unmark1) = self.marks
        out = [(mark0, even), (self.flip, 2 * (d + 1)), (self.rotation, d + 1), (unmark0, even)]
        if d:
            out += [(self.blocks[1], odd), (mark1, odd), (unmark1, odd)]
        if d > 1:
            out.append((self.blocks[0], d // 2))
        return out

    def relabelled(self, move) -> "PhaseSequence":
        """The sequence with `move` applied to each part; the angles are shared."""
        return PhaseSequence(tuple(map(move, self.blocks)),
                             tuple(tuple(map(move, m)) for m in self.marks),
                             move(self.flip), move(self.rotation), self.angles, self.degree)

    def inverted(self, inverse) -> "PhaseSequence":
        """The inverse sequence, with `inverse` applied to each part.  Its step
        j undoes step d - j, whose unmark becomes its mark, after undoing the
        block of step d - j + 1; its angles are reversed and negated."""
        d = self.degree
        marks = tuple((inverse(self.marks[(d - p) % 2][1]), inverse(self.marks[(d - p) % 2][0]))
                      for p in (0, 1))
        blocks = tuple(inverse(self.blocks[(d + 1 - p) % 2]) for p in (0, 1))
        return PhaseSequence(blocks, marks, inverse(self.flip), self.rotation,
                             lambda: [-t for t in reversed(self.angles())], d)


class Gates(Sequence):
    """The gates of a sequence of items, read-only.

    Its length is counted from the items; iteration streams the gates one at
    a time, and indexing and slicing flatten the items on each call.  It
    equals a tuple of the same gates in the same order."""

    __slots__ = ("_items", "_len")

    def __init__(self, items, length: int):
        self._items, self._len = items, length

    def __len__(self):
        return self._len

    def __iter__(self):
        return _stream(self._items)

    def __reversed__(self):
        return reversed(flatten(self._items))

    def __getitem__(self, i):
        return flatten(self._items)[i]

    def index(self, *args):
        return flatten(self._items).index(*args)

    def count(self, g):
        return flatten(self._items).count(g)

    def __eq__(self, other):
        if isinstance(other, Gates) and other._items is self._items:
            return True
        if not isinstance(other, (tuple, Gates)):
            return NotImplemented
        return len(self) == len(other) and all(a is b or a == b for a, b in zip(self, other))

    def __hash__(self):
        return hash(flatten(self._items))

    def __repr__(self):
        return repr(flatten(self._items))


@dataclass(frozen=True)
class Circuit:
    """An ordered gate sequence over main + ancilla qubits (ancillas on top).

    `gates` is given as items (gates, blocks and phase sequences).  The
    circuit keeps the items, which the simulator walks, and reads them back
    as a `Gates` view.  Each distinct gate is range-checked once, and the
    first gate that fails is the first in the flattened order."""

    main_qubits: int
    ancilla_qubits: int = 0
    gates: Sequence[Gate] = field(default_factory=tuple)

    def __post_init__(self):
        given = self.gates
        items = given._items if isinstance(given, Gates) else tuple(given)
        pairs = _gate_occurrences(items)
        object.__setattr__(self, "gates", Gates(items, sum(n for _, n in pairs)))
        object.__setattr__(self, "_items", items)
        object.__setattr__(self, "_last_plan", None)  # (bytes of an input live set, its plan)
        total = self.main_qubits + self.ancilla_qubits
        for g in {id(g): g for g, _ in pairs}.values():
            for q in list(g.targets) + [q for q, _ in g.controls]:
                if not 0 <= q < total:
                    raise ValueError(f"gate {g} references qubit {q} outside register of {total}")

    @property
    def n_qubits(self) -> int:
        return self.main_qubits + self.ancilla_qubits

    def adjoint(self) -> "Circuit":
        return Circuit(self.main_qubits, self.ancilla_qubits, tuple(inverted(self._items)))

    def concat(self, other: "Circuit") -> "Circuit":
        if (other.main_qubits, other.ancilla_qubits) != (self.main_qubits, self.ancilla_qubits):
            raise ValueError("can only concatenate circuits over the same register")
        return Circuit(self.main_qubits, self.ancilla_qubits, self._items + other._items)

    def gate_counts(self, lower_permutations: bool = False) -> dict[str, int]:
        return _tally(_gate_occurrences(self._items), lower_permutations)

    def apply(self, state):
        """Apply the gate sequence to a statevector (or column-stacked matrix):
        `run` on the input's nonzero rows, scattered into a zeroed output."""
        st = np.asarray(state)
        flat = st.ndim == 1
        if flat:
            st = st[:, None]
        dim = 1 << self.n_qubits
        if st.shape[0] != dim:
            raise ValueError(f"state has {st.shape[0]} amplitudes, circuit needs {dim}")
        live = st.any(axis=1).nonzero()[0]
        labels, block = self.run(live, st.take(live, axis=0))
        out = np.zeros(st.shape, dtype=complex)
        out[labels] = block
        return out[:, 0] if flat else out

    def run(self, labels, block):
        """Apply the gate sequence to a compact state: row i of the (n, k)
        `block` holds the amplitude of basis label `labels[i]`, the labels
        distinct, >= 0 and below 2^n_qubits (else a ValueError), and every
        other amplitude is 0.  Returns (labels_out, block_out) in the same
        form; `labels_out` belongs to the circuit's plan and must not be
        written."""
        labels, block = np.asarray(labels), np.asarray(block)
        if labels.size and labels.dtype.kind not in "iu":
            # a float would be truncated and an int past 64 bits overflow
            dim = 1 << self.n_qubits
            bad = [x for x in labels.flat
                   if not isinstance(x, (int, np.integer)) or not 0 <= x < dim]
            if bad:
                raise ValueError(f"run takes integer labels below 2^n_qubits = {dim}, "
                                 f"got {bad[0]}")
        labels = labels.astype(np.intp, copy=False)
        if block.ndim != 2 or labels.shape != block.shape[:1]:
            raise ValueError(f"run takes n labels and an (n, k) block, "
                             f"got shapes {labels.shape} and {block.shape}")
        plan = self._plan(labels)
        c = np.zeros((len(plan.live_out), block.shape[1]), dtype=complex)
        c[:len(labels)] = block
        # a row of the compact state as one item, so the steps move whole rows
        rows = c.view(f"V{c.itemsize * c.shape[1]}").reshape(-1)
        for step in chain.from_iterable(plan.steps):
            step.run(c, rows)
        return plan.live_out, c

    def _plan(self, live) -> _Plan:
        """The plan of input live set `live`.  The circuit keeps the last plan
        it built, so calls repeated on one live set build it once."""
        key = live.tobytes()
        last = self._last_plan
        if last is not None and last[0] == key:
            return last[1]
        _check_labels(live, 1 << self.n_qubits)
        live = live.copy()  # the plan keeps it, and the caller may write theirs
        planner = _Planner(self.n_qubits, live)
        plan = _Plan(live, planner.walk(self._items), planner.live)
        object.__setattr__(self, "_last_plan", (key, plan))
        return plan

    def unitary(self) -> np.ndarray:
        """Dense matrix of the circuit (built column-by-column, one pass)."""
        dim = 1 << self.n_qubits
        return self.apply(np.eye(dim, dtype=complex))

    def export_text(self, lower_permutations: bool = False) -> str:
        return export_text(self, lower_permutations)


def _check_labels(labels, dim):
    """Raise a ValueError at a label given twice, below 0 or not below `dim`;
    increasing labels, as `apply` and `Node._simulate` pass, need no sort."""
    if len(labels) > 1 and np.count_nonzero(labels[1:] <= labels[:-1]):
        labels = np.sort(labels)
        twice = np.flatnonzero(labels[1:] == labels[:-1])
        if len(twice):
            raise ValueError(f"run takes distinct labels, got {labels[twice[0]]} twice")
    if len(labels) and labels[0] < 0:
        raise ValueError(f"run takes labels >= 0, got {labels[0]}")
    if len(labels) and labels[-1] >= dim:
        raise ValueError(f"run takes labels below 2^n_qubits = {dim}, got {labels[-1]}")


def _occurrences(items):
    """(object, occurrences) for each distinct object, in order of first occurrence."""
    first = dict(zip(map(id, items), items))
    if len(first) == len(items):  # nothing repeats, as in most small circuits
        return [(it, 1) for it in items]
    times = Counter(map(id, items))
    return [(first[i], n) for i, n in times.items()]


def _gate_occurrences(items, times=1):
    """(gate, occurrences) pairs of a sequence of items (or of a phase
    sequence), in order of first occurrence in the flattened sequence.  A
    distinct block is expanded once for each distinct block or sequence that
    holds it, so one gate may come in several pairs; a phase sequence's
    `rotation` stands for its d + 1 RZ gates."""
    parts = items.occurrences() if isinstance(items, PhaseSequence) else _occurrences(items)
    if times == 1 and all(isinstance(it, Gate) for it, _ in parts):
        return parts  # no blocks, as in most small circuits
    out = []
    for it, n in parts:
        if isinstance(it, Gate):
            out.append((it, n * times))
        else:
            out += _gate_occurrences(it, n * times)
    return out


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


def _stream(items):
    """The gates of a sequence of items, one at a time."""
    for it in items:
        if isinstance(it, Gate):
            yield it
        else:
            yield from _stream(it)


def flatten(items) -> tuple[Gate, ...]:
    """The gate tuple of a sequence of items; a tuple of gates is its own."""
    if all(isinstance(it, Gate) for it in items):
        return tuple(items)
    return tuple(_stream(items))


def inverted(items) -> list:
    """The inverse of a sequence of items: the items in reverse order, a gate
    replaced by its inverse, a block by the reversed tuple of its items'
    inverses and a phase sequence by its inverse sequence.  Each distinct
    gate and block is inverted once, so whatever the sequence repeats, its
    inverse repeats too."""
    new = {}  # id -> inverse; `items` keeps every id live meanwhile

    def inverse(it):
        out = new.get(id(it))
        if out is None:
            out = new[id(it)] = (it.inverse() if isinstance(it, Gate)
                                 else it.inverted(inverse) if isinstance(it, PhaseSequence)
                                 else tuple(map(inverse, reversed(it))))
        return out

    return [inverse(it) for it in reversed(items)]


def item_counts(items) -> dict[str, int]:
    """`Circuit.gate_counts` of the items, in the same key order, with each
    distinct block counted once and weighted by its occurrences."""
    return _tally(_gate_occurrences(items))


# Gates that only move amplitudes.
_CLASSICAL = frozenset({"X", "Swap", "Permutation"})

_ALL = slice(None)  # the positions of every row of the compact state

# The bytes of fused-turn coefficients that a loop computes in one product,
# into one buffer.  Blocks of 128 KiB ran the loops of the Laplace N=3, 4
# and 6 solutions 18%, 13% and 17% faster than one product a step, and at
# N=7, where a block is one step, 5% slower (2-vCPU x86-64, OpenBLAS on one
# thread).  Blocks of 256 KiB ran N=7 20% faster but raised the peak memory
# of an N=3, 4 job by 0.2 MB.
_BLOCK_BYTES = 1 << 17


class _Pairs(NamedTuple):
    """A 2x2 matrix on the amplitude pairs of the compact state at positions
    `pairs[0]` (target bit 0) and `pairs[1]` (target bit 1).

    It gathers whole rows, then views them as real numbers for a real matrix
    (real and imaginary parts side by side), so H and RY run as one real
    product, or as complex numbers for the others."""

    pairs: np.ndarray  # (2, pairs) positions
    matrix: np.ndarray

    def run(self, c, rows):
        w = rows[self.pairs]
        v = w.view(self.matrix.dtype)
        rows[self.pairs] = np.dot(self.matrix, v).view(rows.dtype)


class _Scale(NamedTuple):
    """An in-place multiply of the compact state's rows at `positions`, or of
    all of them when `positions` is `_ALL`."""

    positions: object
    factor: complex

    def run(self, c, rows):
        if self.positions is _ALL:
            c *= self.factor
        else:
            w = rows[self.positions]
            v = w.view(complex)
            v *= self.factor
            rows[self.positions] = w


class _Turn(NamedTuple):
    """The fixed steps `before`, a phase step's RZ and the fixed steps
    `after`, on the first n rows of the compact state.  The RZ is one
    multiply of each row by the entry of its factors (1, the factor of
    target bit 0, that of target bit 1) that its class picks: 0 where the
    rotation's controls fail, else 1 + the target bit."""

    before: tuple
    classes: np.ndarray  # (n, 1)
    after: tuple

    def arguments(self, factors):
        """The argument of the bound turn for each row of `factors`."""
        return iter(factors)

    def bind(self, c, rows):
        """The function that runs the turn on compact state `c` (and its
        `rows`) for one phase step."""
        before, classes, after, live = self.before, self.classes, self.after, c[:len(self.classes)]

        def run(factors):
            for step in before:
                step.run(c, rows)
            np.multiply(live, factors.take(classes), out=live)
            for step in after:
                step.run(c, rows)
        return run


class _FusedTurn(NamedTuple):
    """A `_Turn` as one row-sparse product: row i becomes the sum over j of
    coef[j, i] times row sources[j, i].  The coefficients of a phase step
    are its factors at `used` dotted with `parts`, the coefficients of each
    factor (1, the RZ factor of target bit 0, of target bit 1) in use."""

    sources: np.ndarray  # (r, n)
    parts: np.ndarray  # (factors in use, r * n)
    used: list  # the factors in use

    def arguments(self, factors):
        """The (r, n, 1) coefficients of each row of `factors`, computed a
        block of rows at a time into one buffer of at most `_BLOCK_BYTES`:
        a row's coefficients hold until the next block is computed."""
        shape = (-1, *self.sources.shape, 1)
        step = max(1, _BLOCK_BYTES // (16 * self.sources.size))
        block = np.empty((min(step, len(factors)), self.sources.size), dtype=complex)
        factors = factors[:, self.used]
        for at in range(0, len(factors), step):
            rows = factors[at:at + step]
            yield from np.dot(rows, self.parts, out=block[:len(rows)]).reshape(shape)

    def bind(self, c, rows):
        take, add, sources = c.take, np.add.reduce, self.sources
        live = c[:sources.shape[1]]

        def run(coefficients):
            g = take(sources, axis=0)
            g *= coefficients
            add(g, 0, None, live)
        return run


class _Loop(NamedTuple):
    """The phase steps of a phase sequence once its live set has saturated,
    from an odd step on.  It runs `head`, the first odd segment up to its
    cut, then each phase step but the last as the turn of its parity (the
    rest of its segment, its RZ and the next segment up to its cut), with
    its row of `factors`, and `last`, the rest of the last phase step."""

    head: tuple
    turns: tuple  # (turn of the even steps, of the odd steps)
    factors: tuple  # (factors of the even turns, of the odd turns)
    last: tuple

    def run(self, c, rows):
        for step in self.head:
            step.run(c, rows)
        even, odd = (turn.bind(c, rows) for turn in self.turns)
        even_args, odd_args = (t.arguments(f) for t, f in zip(self.turns, self.factors))
        for b, a in zip(even_args, odd_args):  # reads odd_args only while even_args lasts
            odd(a)
            even(b)
        for a in odd_args:  # the last step, if odd
            odd(a)
        for step in self.last:
            step.run(c, rows)


def _turn(before, classes, after):
    """The `_Turn` of `before`, an RZ with `classes` and `after`, fused into
    a `_FusedTurn` if its steps are all `_Pairs` and `_Scale` and no row
    needs more entries than the steps it replaces.  The product is composed
    on its rows, row i as entries of source row src[j, i] with coefficients
    val[j, i], one per factor (of 1, then after the RZ of each class of
    rows), so no n x n array is built."""
    turn = _Turn(before, classes, after)
    steps = before + after
    if not all(type(s) in (_Pairs, _Scale) for s in steps):
        return turn
    n = len(classes)
    present = np.bincount(classes[:, 0], minlength=3).nonzero()[0]
    most = len(steps) + np.count_nonzero(present)  # the RZ is a step per class but 0
    src, val = _composed(before, np.arange(n)[None], np.ones((1, n, 1), dtype=complex), most)
    if src is not None:  # each entry moves to the factor of its row's class
        val = val * (classes == present)
        src, val = _composed(after, src, val, most)
    if src is None:
        return turn
    src, val = _padded(src, val)
    if len(src) > most:
        return turn
    used = val.any(axis=(0, 1)).nonzero()[0]
    parts = np.ascontiguousarray(val[..., used].transpose(2, 0, 1)).reshape(len(used), -1)
    return _FusedTurn(src, parts, list(present[used]))


def _composed(steps, src, val, most):
    """The rows (src, val) of an operator after `steps` run on them, or
    (None, None) once a row has more than `most` entries.  A `_Pairs`
    doubles the entries of each row; they are merged once a row has more
    than 4, which keeps the arrays small."""
    n = src.shape[1]
    for s in steps:
        if type(s) is _Scale:
            f = np.ones((n, 1), dtype=complex)
            f[s.positions] = s.factor
            val = val * f
        else:  # row i becomes keep[i] row i + gain[i] row partner[i]
            (low, high), m = s.pairs, s.matrix
            partner = np.arange(n)
            partner[low], partner[high] = high, low
            keep = np.ones((n, 1), dtype=complex)
            keep[low], keep[high] = m[0, 0], m[1, 1]
            gain = np.zeros((n, 1), dtype=complex)
            gain[low], gain[high] = m[0, 1], m[1, 0]
            src = np.concatenate((src, src.take(partner, axis=1)))
            val = np.concatenate((val * keep, val.take(partner, axis=1) * gain))
            if len(src) > 4:
                src, val = _padded(src, val)
                if len(src) > most:
                    return None, None
    return src, val


def _padded(src, val):
    """The rows (src, val) with the entries of one source summed, zero sums
    dropped and each row's entries first, padded to the longest row by
    entries that read their own row, times 0."""
    n, parts = src.shape[1], val.shape[2]
    at = (np.arange(n) * n + src).ravel()  # row, then source
    order = at.argsort(kind="stable")
    at = at.take(order)
    first = np.concatenate(([True], at[1:] != at[:-1])).nonzero()[0]
    total = np.add.reduceat(val.reshape(-1, parts).take(order, axis=0), first)
    nonzero = total[:, 0] != 0
    for j in range(1, parts):
        nonzero |= total[:, j] != 0
    keep = nonzero.nonzero()[0]
    at, total = at.take(first.take(keep)), total.take(keep, axis=0)
    row = at // n
    counts = np.bincount(row, minlength=n)
    r = int(counts.max())
    slot = np.arange(len(row)) - np.repeat(np.cumsum(counts) - counts, counts)
    out_src = np.tile(np.arange(n), (r, 1))
    out_val = np.zeros((r, n, parts), dtype=complex)
    where = slot * n + row
    out_src.put(where, at % n)
    entry = f"V{total.itemsize * parts}"  # an entry's coefficients as one item
    out_val.reshape(-1, parts).view(entry).put(where, total.view(entry))
    return out_src, out_val


class _Plan(NamedTuple):
    """The steps of a circuit on one input live set: the compact state holds
    the amplitude of basis label `live_in[i]`, then `live_out[i]`, at row i."""

    live_in: np.ndarray
    steps: list  # one tuple of steps per gate or phase sequence that has any
    live_out: np.ndarray


def _condition(controls):
    """(mask, value): a basis label x meets the controls iff x & mask == value."""
    mask = value = 0
    for q, p in controls:
        mask, value = mask | 1 << q, value | p << q
    return mask, value


def _image(g, x):
    """For classical gate g, where each basis label in x goes, by bit arithmetic."""
    targets = g.targets
    if g.kind == "X":
        flip = 1 << targets[0]
    else:  # target block j (target i is bit i of j) moves to block table[j]
        table = (0, 2, 1, 3) if g.kind == "Swap" else g.table
        low, k = targets[0], len(targets)
        if targets == tuple(range(low, low + k)):  # the block is one field of bits
            block = (x >> low) & ((1 << k) - 1)
            flips = [(j ^ t) << low for j, t in enumerate(table)]
        else:
            block = (x >> low) & 1
            for i, q in enumerate(targets[1:], 1):
                block |= ((x >> q) & 1) << i
            flips = [sum(((j ^ t) >> i & 1) << q for i, q in enumerate(targets))
                     for j, t in enumerate(table)]
        flip = np.array(flips)[block]  # the target bits each label flips
    if g.controls:
        mask, value = _condition(g.controls)
        flip = ((x & mask) == value) * flip
    return x ^ flip


class _Planner:
    """Builds the plan of a sequence of items on one input live set.

    `live[i]` is the basis label whose amplitude the compact state holds at
    row i, and `pos` the dense inverse, valid for live labels once refreshed.
    Every entry of `pos` stays below the length of `live`, so an entry p of
    a label x that is not live fails `live[p] == x`.  Rows
    are never dropped: a matrix gate appends the partners it needs at
    amplitude 0, so the row count only grows and the compact state of the
    whole plan has the length of its last live array.  A classical gate only
    relabels `live` and leaves no step.

    A plan is one walk: a gate is planned where it occurs, however often its
    object repeats, and a block's items are walked in its place.  Only a
    phase sequence plans a repeat once: `sequence`, after `close` appends
    the labels its steps will reach, runs its repeated steps as one loop."""

    def __init__(self, n, live):
        self.dim = 1 << n
        self.live = live
        self.pos = np.zeros(self.dim, dtype=np.intp)
        self.stale = True  # pos not refreshed for `live`

    def walk(self, items):
        """One tuple of steps per gate or phase sequence that has any, a
        block's items walked in its place."""
        steps = []
        for it in items:
            if isinstance(it, (Gate, PhaseSequence)):
                s = self.gate(it) if isinstance(it, Gate) else self.sequence(it)
                if s:
                    steps.append(s)
            else:
                steps += self.walk(it)
        return steps

    def refresh(self):
        if self.stale:
            self.pos[self.live] = np.arange(len(self.live))
            self.stale = False

    def gate(self, g):
        kind = g.kind
        if kind in _CLASSICAL:
            self.live, self.stale = _image(g, self.live), True
            return ()
        mask, value = _condition(g.controls)
        if kind == "GlobalPhase":
            where = self.where(mask, value)
            return (_Scale(where, cmath.exp(1j * g.param)),) if where is _ALL or len(where) else ()
        bit = 1 << g.targets[0]
        if kind in _DIAGONAL_1Q:
            return self.diagonal(mask, value, bit, _DIAGONAL_1Q[kind](g.param))
        pairs = self.pairs(mask, value, bit)
        return (_Pairs(pairs, _MATRIX_1Q[kind](g.param)),) if pairs.shape[1] else ()

    def diagonal(self, mask, value, bit, factors):
        """A multiply on each target value whose factor is not 1."""
        steps = ()
        for half, f in enumerate(factors):
            if f != 1:
                where = self.where(mask | bit, value | half * bit)
                if len(where):
                    steps += (_Scale(where, f),)
        return steps

    def sequence(self, ps):
        """The steps of a phase sequence.  Between the RZs of steps k - 1 and
        k runs the segment of parity k % 2 (flip, unmark, block, mark, flip).
        Once `close` has appended the labels the steps will reach, the
        steps are walked one by one until a period, an odd segment and an
        even one, starts and ends on equal live arrays, which is at step 3
        unless the labels did not close within the sequence's periods.
        From there each period repeats the same steps with new angles, so one
        `_Loop` runs that period and the rest, and the plan grows with the
        distinct parts, not with the degree."""
        d = ps.degree
        (mark0, unmark0), (mark1, unmark1) = ps.marks
        segments = ((ps.flip, unmark1, ps.blocks[0], mark0, ps.flip),
                    (ps.flip, unmark0, ps.blocks[1], mark1, ps.flip))
        rz = _condition(ps.rotation.controls) + (1 << ps.rotation.targets[0],)
        half = 0.5 * np.asarray(ps.angles(), dtype=float)
        factors = np.stack((np.ones(d + 1), np.exp(-1j * half), np.exp(1j * half)), axis=1)
        if d > 2 and len(self.live) < self.dim:
            self.close(ps)
        steps = list(self.walk((mark0, ps.flip)))
        steps.append(self.diagonal(*rz, factors[0, 1:]))
        start = None  # (live, steps so far) at the start of the last odd segment
        last = [None, None]  # (steps, live) of the last segment of each parity
        for k in range(1, d + 1):
            p = k % 2
            if p:
                if start is not None and np.array_equal(self.live, start[0]):
                    del steps[start[1]:]
                    steps.append((self.loop(last, factors[k - 2:], rz),))
                    break
                start = self.live, len(steps)
            seg = tuple(chain.from_iterable(self.walk(segments[p])))
            last[p] = seg, self.live
            steps += (seg, self.diagonal(*rz, factors[k, 1:]))
        steps += self.walk((ps.flip, ps.marks[d % 2][1]))
        return tuple(chain.from_iterable(steps))

    def loop(self, last, factors, rz):
        """The `_Loop` of the phase steps with `factors` from the period of
        `last`, the last segment of each parity.  Each segment is cut in the
        middle: a block encoding's circuit mostly undoes its start at its
        end, so from the middle of one block through an RZ to the middle of
        the next, few rows mix.  It leaves the planner after the last step."""
        mask, value, bit = rz
        head, tail, classes = [], [], []
        for seg, live in last:
            # 0 where the rotation's controls fail, else 1 + the target bit
            classes.append(np.where((live & mask) == value, 1 + (live & bit != 0), 0)[:, None])
            cut = len(seg) // 2
            head.append(seg[:cut])
            tail.append(seg[cut:])
        turns = tuple(_turn(tail[p], classes[p], head[1 - p]) for p in (0, 1))
        p = len(factors) % 2  # the parity of the last step, as the first is odd
        self.live, self.stale = last[p][1], True
        return _Loop(head[1], turns, (factors[1:-1:2], factors[:-1:2]),
                     tail[p] + self.diagonal(*rz, factors[-1, 1:]))

    def where(self, mask, value):
        """The positions of the live labels x with x & mask == value."""
        return ((self.live & mask) == value).nonzero()[0] if mask else _ALL

    def pairs(self, mask, value, bit):
        """The (2, k) positions of the live pairs x, x | bit under the
        controls, after appending the partners that are not live."""
        if len(self.live) < self.dim:
            self.add_partners(mask, value, bit)
        self.refresh()
        low = self.where(mask | bit, value)
        return np.concatenate((low, self.pos[self.live[low] | bit])).reshape(2, -1)

    def add_partners(self, mask, value, bit):
        """Append, after the live rows, each label x ^ bit that is not live
        for a live x under the controls."""
        self.refresh()
        live = self.live
        x = (live[(live & mask) == value] if mask else live) ^ bit
        self.append(x[live[self.pos[x]] != x])

    def append(self, new):
        """Append labels that are not live, as rows at amplitude 0."""
        if len(new):
            m = len(self.live)
            self.live = np.concatenate((self.live, new))
            self.pos[new] = np.arange(m, m + len(new))

    def close(self, ps):
        """Append, at amplitude 0, the labels that the phase steps of `ps`
        will reach: walk `blocks[1]` then `blocks[0]` on the labels alone
        (`spread`) until a period adds no label, at most once per period of
        the sequence.  Lowering builds `blocks[0]` as the inverse of
        `blocks[1]`, and a step's mark, flip, RZ, flip and unmark map each
        label to itself, so each period returns every label to its row and
        every odd step starts from the live set of the sequence's start: the
        walk of `sequence` finds its period at step 3.  A label appended in
        vain is a row of zeros, and one missed is appended by that walk."""
        for _ in range(ps.degree // 2):
            m = len(self.live)
            self.spread(ps.blocks[::-1])
            if len(self.live) == m:
                break

    def spread(self, items):
        """Walk `items` on the live labels alone: a classical gate relabels
        them, a one-qubit matrix gate appends the partners it needs, and a
        diagonal gate or a phase does nothing.  A phase sequence is walked
        by its blocks alone, closed by `close` and ended on the parity of
        its last block, as its marks, flips and RZs map each label back to
        itself."""
        for it in items:
            if isinstance(it, PhaseSequence):
                self.close(it)
                if it.degree % 2:
                    self.spread(it.blocks[1:])
            elif not isinstance(it, Gate):
                self.spread(it)
            elif it.kind in _CLASSICAL:
                self.gate(it)
            elif it.kind in _MATRIX_1Q and len(self.live) < self.dim:
                self.add_partners(*_condition(it.controls), 1 << it.targets[0])


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
    for g, times in _gate_occurrences(circuit._items):
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

    text = {}  # id of a gate, block or phase sequence -> its text, formatted once

    def text_of(it):
        out = text.get(id(it))
        if out is None:
            out = text[id(it)] = (
                "".join(line + "\n" for line in emit(it)) if isinstance(it, Gate)
                else "".join(map(text_of, it)))
        return out

    return "\n".join(lines) + "\n" + "".join(map(text_of, circuit._items))
