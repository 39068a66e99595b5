"""Gate-level circuit IR with a compiled statevector simulator.

Qubit 0 is the least significant bit of a basis index; amplitude arrays are
little-endian throughout.  Circuits are immutable; simulation never mutates
its input state.  A gate tuple may repeat one `Gate` object (lowering builds
each repeated part once); `Circuit` range-checks, and `gate_counts` and
`t_count_estimate` count, each distinct object once.

`Circuit.apply` runs a program compiled from the gate list on first use and
cached on the circuit, so it lives exactly as long as the `Circuit`:

- each maximal run of classical gates (X, Swap, Permutation, any controls)
  becomes one index array `perm`, applied as `state[perm]`.  It is built by
  pushing `arange(2^n)` through the run once, and equal runs within the
  circuit (the QSVT sequence repeats a few of them d times) share one array;
- every other gate updates the state in place through basic-indexed views of
  the state reshaped to `(2,) * n + (columns,)`: controls fix their axes to
  an integer and the target axis selects the 0/1 slices, so a gate with c
  controls touches 2^(n-c) amplitudes and builds no index masks.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from itertools import groupby
from typing import NamedTuple

import numpy as np

PI = math.pi

# Gate kinds with a fixed 2x2 matrix.
_SIMPLE_1Q = {
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
    "H": np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2),
    "S": np.array([[1, 0], [0, 1j]], dtype=complex),
    "T": np.array([[1, 0], [0, np.exp(1j * PI / 4)]], dtype=complex),
}

_PARAM_1Q = {
    "Phase": lambda t: np.array([[1, 0], [0, np.exp(1j * t)]], dtype=complex),
    "RX": lambda t: np.array(
        [[math.cos(t / 2), -1j * math.sin(t / 2)],
         [-1j * math.sin(t / 2), math.cos(t / 2)]], dtype=complex),
    "RY": lambda t: np.array(
        [[math.cos(t / 2), -math.sin(t / 2)],
         [math.sin(t / 2), math.cos(t / 2)]], dtype=complex),
    "RZ": lambda t: np.array(
        [[np.exp(-1j * t / 2), 0], [0, np.exp(1j * t / 2)]], dtype=complex),
}

_SELF_INVERSE = frozenset({"X", "Y", "Z", "H", "Swap"})
_NEGATE_PARAM = frozenset({"Phase", "RX", "RY", "RZ", "GlobalPhase"})
KINDS = frozenset(_SIMPLE_1Q) | frozenset(_PARAM_1Q) | {"GlobalPhase", "Swap", "Permutation"}


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
    """An ordered gate list over main + ancilla qubits (ancillas on top)."""

    main_qubits: int
    ancilla_qubits: int = 0
    gates: tuple[Gate, ...] = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "gates", tuple(self.gates))
        total = self.main_qubits + self.ancilla_qubits
        for g in {id(g): g for g in self.gates}.values():
            for q in list(g.targets) + [q for q, _ in g.controls]:
                if not 0 <= q < total:
                    raise ValueError(f"gate {g} references qubit {q} outside register of {total}")

    @property
    def n_qubits(self) -> int:
        return self.main_qubits + self.ancilla_qubits

    def adjoint(self) -> "Circuit":
        return Circuit(self.main_qubits, self.ancilla_qubits,
                       tuple(g.inverse() for g in reversed(self.gates)))

    def concat(self, other: "Circuit") -> "Circuit":
        if (other.main_qubits, other.ancilla_qubits) != (self.main_qubits, self.ancilla_qubits):
            raise ValueError("can only concatenate circuits over the same register")
        return Circuit(self.main_qubits, self.ancilla_qubits, self.gates + other.gates)

    def gate_counts(self, lower_permutations: bool = False) -> dict[str, int]:
        counts = {}
        for g, n in _occurrences(self.gates):
            lowered = (lower_permutation_gate(g) if lower_permutations and g.kind == "Permutation"
                       else (g,))
            for lg in lowered:
                key = lg.count_key()
                counts[key] = counts.get(key, 0) + n
        return counts

    def apply(self, state):
        """Apply the gate sequence to a statevector (or column-stacked matrix)."""
        st = np.array(state, dtype=complex)
        flat = st.ndim == 1
        if flat:
            st = st[:, None]
        if st.shape[0] != 1 << self.n_qubits:
            raise ValueError(
                f"state has {st.shape[0]} amplitudes, circuit needs {1 << self.n_qubits}")
        shape = (2,) * self.n_qubits + (st.shape[1],)
        for step in self._program:
            if isinstance(step, np.ndarray):
                st = np.take(st, step, axis=0)
            else:
                step.run(st.reshape(shape))
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
    """(gate, occurrences) for each distinct gate object, in order of first occurrence."""
    first = dict(zip(map(id, gates), gates))
    if len(first) == len(gates):  # nothing repeats, as in most small circuits
        return [(g, 1) for g in gates]
    times = Counter(map(id, gates))
    return [(first[i], n) for i, n in times.items()]


# Gates that only move amplitudes; X and Swap as permutation tables of their targets.
_CLASSICAL = frozenset({"X", "Swap", "Permutation"})
_MOVE_TABLES = {"X": (1, 0), "Swap": (0, 2, 1, 3)}


class _OneQubit(NamedTuple):
    """A 2x2 matrix applied to the target's 0 and 1 slices."""

    index0: tuple
    index1: tuple
    matrix: np.ndarray

    def run(self, v):
        a, b = v[self.index0], v[self.index1]
        (m00, m01), (m10, m11) = self.matrix
        new_a = m00 * a + m01 * b
        b[...] = m10 * a + m11 * b
        a[...] = new_a


class _Phase(NamedTuple):
    """A (controlled) global phase."""

    index: tuple
    factor: complex

    def run(self, v):
        block = v[self.index]
        block *= self.factor


def _index(n, bits):
    """Basic index into a `(2,) * n + ...` view fixing qubit q to b for each
    (q, b) in bits."""
    idx = [slice(None)] * n
    for q, b in bits:
        idx[n - 1 - q] = b
    return tuple(idx)


def _move(v, g, n):
    """Apply classical gate g in place to v of shape `(2,) * n + ...`.

    Target block j (target i is bit i of j) moves to block table[j].
    """
    table = _MOVE_TABLES.get(g.kind, g.table)

    def block(j):
        return _index(n, g.controls + tuple((q, (j >> i) & 1) for i, q in enumerate(g.targets)))

    moved = {j: v[block(j)].copy() for j, k in enumerate(table) if j != k}
    for j, src in moved.items():
        v[block(table[j])] = src


def _step(g, n):
    """The view kernel of one gate that is not classical."""
    if g.kind == "GlobalPhase":
        return _Phase(_index(n, g.controls), np.exp(1j * g.param))
    m = _SIMPLE_1Q[g.kind] if g.kind in _SIMPLE_1Q else _PARAM_1Q[g.kind](g.param)
    t = g.targets[0]
    return _OneQubit(_index(n, g.controls + ((t, 0),)), _index(n, g.controls + ((t, 1),)), m)


def _gather(run, n):
    """Index array of a classical run: `arange(2^n)` pushed through its gates."""
    perm = np.arange(1 << n)
    for g in run:
        _move(perm.reshape((2,) * n), g, n)
    return perm


def _compile(gates, n):
    """The simulation program of a gate list: gather arrays and view kernels.

    Equal gates, and equal runs of classical gates, share one step: the QSVT
    sequence repeats the same few blocks d times.
    """
    program = []
    shared = {}  # a gate, or a run of classical gates -> its step
    for classical, group in groupby(gates, key=lambda g: g.kind in _CLASSICAL):
        for key in [tuple(group)] if classical else group:
            step = shared.get(key)
            if step is None:
                step = shared[key] = _gather(key, n) if classical else _step(key, n)
            program.append(step)
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
