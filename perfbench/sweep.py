"""Kernel sweep: microseconds per gate of `Circuit.apply`, per gate kind and
register size, on synthetic circuits built from the `blockenc.circuits`
constructors.

Bytes moved are computed, not measured: a gate reads and writes every
amplitude it can change, 16 bytes each (complex128, one column).  The
fraction of amplitudes a kind can change is listed in CHANGED.
"""
from __future__ import annotations

import statistics
import time

import numpy as np

from blockenc.circuits import Circuit, global_phase, h, permutation, phase, ry, rz, swap, x

THETA = 0.3
PERM3 = tuple((i + 3) % 8 for i in range(8))  # an 8-cycle: no fixed point


def _controls(t, n, k):
    return [((t + j) % n, 1) for j in range(1, k + 1)]


# kind -> builder of one gate with target t on an n-qubit register
KINDS = {
    "X": lambda t, n: x(t),
    "CX": lambda t, n: x(t, _controls(t, n, 1)),
    "C3X": lambda t, n: x(t, _controls(t, n, 3)),
    "H": lambda t, n: h(t),
    "RZ": lambda t, n: rz(THETA, t),
    "CRY": lambda t, n: ry(THETA, t, _controls(t, n, 1)),
    "Phase": lambda t, n: phase(THETA, t),
    "CGlobalPhase": lambda t, n: global_phase(THETA, _controls(t, n, 1)),
    "Swap": lambda t, n: swap(t, (t + 1) % n),
    "Perm3": lambda t, n: permutation(PERM3, [t, (t + 1) % n, (t + 2) % n]),
}

# share of the 2^n amplitudes each kind can change
CHANGED = {"X": 1.0, "CX": 0.5, "C3X": 0.125, "H": 1.0, "RZ": 1.0, "CRY": 0.5,
           "Phase": 0.5, "CGlobalPhase": 0.5, "Swap": 0.5, "Perm3": 1.0}

REPS = 3


def gates_per_circuit(n: int) -> int:
    """Enough gates that the per-call overhead of apply is small, few enough
    that a 20-qubit cell takes a fraction of a second."""
    return max(4, min(256, 2 ** (20 - n)))


def _median_time(circ, state):
    circ.apply(state)  # warm-up: first-touch page faults and allocator growth
    times = []
    for _ in range(REPS):
        t0 = time.perf_counter()
        out = circ.apply(state)
        times.append(time.perf_counter() - t0)
    return statistics.median(times), out


def measure(kind: str, n: int, rec: dict) -> list[str]:
    """Time one (kind, n) cell into rec; return the problems found."""
    count = gates_per_circuit(n)
    build = KINDS[kind]
    circ = Circuit(n, 0, tuple(build(i % n, n) for i in range(count)))
    state = np.full(1 << n, 2.0 ** (-n / 2), dtype=complex)
    t_empty, _ = _median_time(Circuit(n, 0, ()), state)
    t_full, out = _median_time(circ, state)
    rec["us_per_gate"] = (t_full - t_empty) / count * 1e6
    rec["bytes_per_gate_computed"] = 2 * 16 * CHANGED[kind] * 2 ** n
    norm = float(np.linalg.norm(out))
    return [] if abs(norm - 1.0) <= 1e-9 else [f"apply changed the state norm to {norm!r}"]
