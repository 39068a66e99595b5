import math

import numpy as np
import pytest

from blockenc.circuits import (
    Circuit,
    Gate,
    UnsupportedGateError,
    global_phase,
    h,
    lower_permutation_gate,
    permutation,
    phase,
    ry,
    rz,
    swap,
    t_count_estimate,
    x,
)

RNG = np.random.default_rng(2024)


def random_circuit(rng, n_qubits, n_gates, with_permutation=False):
    gates = []
    kinds = ["X", "Y", "Z", "H", "S", "T", "Phase", "RX", "RY", "RZ", "Swap",
             "GlobalPhase"]
    if with_permutation:
        kinds.append("Permutation")
    for _ in range(n_gates):
        kind = kinds[rng.integers(len(kinds))]
        qubits = list(rng.permutation(n_qubits))
        param = float(rng.uniform(-np.pi, np.pi))
        if kind == "Swap":
            if n_qubits < 2:
                continue
            targets, rest = tuple(qubits[:2]), qubits[2:]
        elif kind == "GlobalPhase":
            targets, rest = (), qubits
        elif kind == "Permutation":
            k = int(rng.integers(1, min(3, n_qubits) + 1))
            targets, rest = tuple(qubits[:k]), qubits[k:]
        else:
            targets, rest = (qubits[0],), qubits[1:]
        n_ctrl = int(rng.integers(0, len(rest) + 1))
        controls = tuple((q, int(rng.integers(2))) for q in rest[:n_ctrl])
        if kind == "Permutation":
            table = tuple(int(v) for v in rng.permutation(1 << len(targets)))
            gates.append(Gate(kind, targets, controls, table=table))
        elif kind in ("Phase", "RX", "RY", "RZ", "GlobalPhase"):
            gates.append(Gate(kind, targets, controls, param))
        else:
            gates.append(Gate(kind, targets, controls))
    return Circuit(n_qubits, 0, tuple(gates))


class TestApply:
    def test_x_flips(self):
        circ = Circuit(1, 0, (x(0),))
        out = circ.apply(np.array([1, 0], dtype=complex))
        assert np.allclose(out, [0, 1])

    def test_increment_session(self):
        circ = Circuit(2, 0, (x(1, [(0, 1)]), x(0)))
        out = circ.apply(np.array([0, 1, 0, 0], dtype=complex))
        assert np.array_equal(out, np.array([0, 0, 1, 0], dtype=complex))

    def test_hadamard_conjugated_cnot_matrix(self):
        circ = Circuit(2, 0, (h(1), x(0, [(1, 1)]), h(1)))
        want = 0.5 * np.array(
            [[1, 1, 1, -1], [1, 1, -1, 1], [1, -1, 1, 1], [-1, 1, 1, 1]],
            dtype=complex)
        assert np.max(np.abs(circ.unitary() - want)) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            Circuit(2, 0, ()).apply(np.zeros(5, dtype=complex))

    def test_norm_preserved(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            circ = random_circuit(rng, 3, 12, with_permutation=True)
            v = rng.standard_normal(8) + 1j * rng.standard_normal(8)
            v /= np.linalg.norm(v)
            out = circ.apply(v)
            assert abs(np.linalg.norm(out) - 1) < 1e-12


# 2x2 matrices written out independently of blockenc.circuits
_C, _S = math.cos, math.sin
REFERENCE_1Q = {
    "X": lambda t: [[0, 1], [1, 0]],
    "Y": lambda t: [[0, -1j], [1j, 0]],
    "Z": lambda t: [[1, 0], [0, -1]],
    "H": lambda t: [[2 ** -0.5, 2 ** -0.5], [2 ** -0.5, -2 ** -0.5]],
    "S": lambda t: [[1, 0], [0, 1j]],
    "T": lambda t: [[1, 0], [0, complex(_C(math.pi / 4), _S(math.pi / 4))]],
    "Phase": lambda t: [[1, 0], [0, complex(_C(t), _S(t))]],
    "RX": lambda t: [[_C(t / 2), -1j * _S(t / 2)], [-1j * _S(t / 2), _C(t / 2)]],
    "RY": lambda t: [[_C(t / 2), -_S(t / 2)], [_S(t / 2), _C(t / 2)]],
    "RZ": lambda t: [[complex(_C(t / 2), -_S(t / 2)), 0], [0, complex(_C(t / 2), _S(t / 2))]],
}


def reference_gate_matrix(g, n):
    """Dense 2^n x 2^n matrix of one gate, filled one basis column at a time."""
    dim = 1 << n
    m = np.zeros((dim, dim), dtype=complex)
    for b in range(dim):
        if any((b >> q) & 1 != p for q, p in g.controls):
            m[b, b] = 1
        elif g.kind == "GlobalPhase":
            m[b, b] = complex(_C(g.param), _S(g.param))
        elif g.kind in REFERENCE_1Q:
            t = g.targets[0]
            u = REFERENCE_1Q[g.kind](g.param)
            for out_bit in (0, 1):
                row = (b & ~(1 << t)) | (out_bit << t)
                m[row, b] = u[out_bit][(b >> t) & 1]
        else:
            if g.kind == "Swap":
                targets, table = g.targets, (0, 2, 1, 3)
            else:
                targets, table = g.targets, g.table
            block = sum(((b >> q) & 1) << i for i, q in enumerate(targets))
            row = b
            for i, q in enumerate(targets):
                row = (row & ~(1 << q)) | (((table[block] >> i) & 1) << q)
            m[row, b] = 1
    return m


def reference_apply(circ, states):
    for g in circ.gates:
        states = reference_gate_matrix(g, circ.n_qubits) @ states
    return states


def random_states(rng, n, cols):
    v = rng.standard_normal((1 << n, cols)) + 1j * rng.standard_normal((1 << n, cols))
    return v / np.linalg.norm(v, axis=0)


def repeated_run_circuit():
    """The same classical run four times, interleaved with rotations and
    controlled global phases, on 3 main qubits and 1 ancilla."""
    run = [x(0), x(2, [(1, 0)]), swap(0, 3, [(2, 1)]),
           permutation([2, 0, 3, 1], [1, 3], [(0, 0)]), x(1, [(0, 1), (3, 0)])]
    gates = []
    for k in range(4):
        gates += run + [ry(0.3 + k, 1, [(2, 0)]), rz(-0.7 * k, 3),
                        global_phase(0.4, [(0, 1), (1, 0)]), Gate("Y", (2,), ((3, 0),))]
    return Circuit(3, 1, tuple(gates))


class TestReference:
    """`Circuit.apply` against dense matrices built independently, gate by gate."""

    def test_random_circuits_multi_column(self):
        rng = np.random.default_rng(21)
        for _ in range(40):
            n = int(rng.integers(1, 6))
            circ = random_circuit(rng, n, 30, with_permutation=True)
            states = random_states(rng, n, 3)
            before = states.copy()
            want = reference_apply(circ, states)
            got = circ.apply(states)
            assert np.max(np.abs(got - want)) <= 1e-12
            assert np.array_equal(states, before)
            assert np.array_equal(circ.apply(states), got)  # from the cached program
            # the view kernels must also update Fortran-ordered and flat inputs
            assert np.max(np.abs(circ.apply(np.asfortranarray(states)) - want)) <= 1e-12
            assert np.max(np.abs(circ.apply(states[:, 0]) - want[:, 0])) <= 1e-12

    def test_long_classical_runs(self):
        """Runs of a dozen or more X/Swap/Permutation gates, each fused into one
        gather, between RY, RZ and controlled global phases."""
        rng = np.random.default_rng(25)
        for _ in range(10):
            n = int(rng.integers(2, 6))
            gates = []
            for k in range(4):
                gates += [g for g in random_circuit(rng, n, 60, with_permutation=True).gates
                          if g.kind in ("X", "Swap", "Permutation")]
                gates += [ry(0.2 * k + 0.1, k % n, [((k + 1) % n, k % 2)]), rz(1.3 - k, 0),
                          global_phase(0.5 * k, [(n - 1, 0)])]
            circ = Circuit(n, 0, tuple(gates))
            states = random_states(rng, n, 2)
            assert np.max(np.abs(circ.apply(states) - reference_apply(circ, states))) <= 1e-12

    def test_repeated_classical_run(self):
        circ = repeated_run_circuit()
        states = random_states(np.random.default_rng(24), 4, 5)
        assert np.max(np.abs(circ.apply(states) - reference_apply(circ, states))) <= 1e-12
        gathers = [s for s in circ._program if isinstance(s, np.ndarray)]
        assert len(gathers) == 4 and all(s is gathers[0] for s in gathers)


class TestUnitarity:
    def test_random_circuits(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            n = int(rng.integers(1, 5))
            circ = random_circuit(rng, n, 10, with_permutation=True)
            m = circ.unitary()
            assert np.max(np.abs(m.conj().T @ m - np.eye(1 << n))) <= 1e-10

    def test_controls_leave_violating_states_alone(self):
        rng = np.random.default_rng(12)
        for _ in range(30):
            n = int(rng.integers(2, 5))
            circ = random_circuit(rng, n, 6)
            # columns whose basis state violates the first gate's controls
            g = circ.gates[0] if circ.gates else None
            if g is None or not g.controls:
                continue
            single = Circuit(n, 0, (g,))
            ms = single.unitary()
            for b in range(1 << n):
                if any(((b >> q) & 1) != p for q, p in g.controls):
                    col = np.zeros(1 << n)
                    col[b] = 1
                    assert np.allclose(ms[:, b], col, atol=1e-12)


class TestAdjoint:
    def test_empty(self):
        assert Circuit(2, 0, ()).adjoint().gates == ()

    def test_rz_negates(self):
        circ = Circuit(1, 0, (rz(0.3, 0),))
        assert circ.adjoint().gates == (rz(-0.3, 0),)

    def test_s_t_become_phases(self):
        circ = Circuit(1, 0, (Gate("S", (0,)), Gate("T", (0,))))
        adj = circ.adjoint()
        assert adj.gates == (phase(-math.pi / 4, 0), phase(-math.pi / 2, 0))

    def test_double_adjoint_same_gate_list(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            circ = random_circuit(rng, 3, 10, with_permutation=True)
            # S and T invert to Phase gates, so skip circuits that use them
            if any(g.kind in ("S", "T") for g in circ.gates):
                assert np.max(np.abs(circ.adjoint().adjoint().unitary()
                                     - circ.unitary())) < 1e-12
            else:
                assert circ.adjoint().adjoint().gates == circ.gates

    def test_adjoint_inverts(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            circ = random_circuit(rng, 3, 10, with_permutation=True)
            m = circ.adjoint().unitary() @ circ.unitary()
            assert np.max(np.abs(m - np.eye(8))) <= 1e-10


class TestCounts:
    def test_empty(self):
        assert Circuit(2, 0, ()).gate_counts() == {}

    def test_increment_golden(self):
        circ = Circuit(2, 0, (x(1, [(0, 1)]), x(0)))
        assert circ.gate_counts() == {"CX": 1, "X": 1}

    def test_concat_additivity(self):
        rng = np.random.default_rng(15)
        circ = random_circuit(rng, 3, 9, with_permutation=True)
        double = circ.concat(circ)
        assert double.gate_counts() == {k: 2 * v for k, v in circ.gate_counts().items()}

    def test_lowered_counts_expand_permutations(self):
        g = permutation([1, 0, 2, 3], [0, 1])
        circ = Circuit(2, 0, (g,))
        raw = circ.gate_counts()
        low = circ.gate_counts(lower_permutations=True)
        assert raw == {"Permutation": 1}
        assert "Permutation" not in low and sum(low.values()) >= 1


class TestPhases:
    def test_global_phase_scales_everything(self):
        circ = Circuit(2, 0, (global_phase(0.7),))
        v = np.array([1, 2, 3, 4], dtype=complex)
        assert np.allclose(circ.apply(v), np.exp(0.7j) * v)

    def test_phase_rz_differ_by_global_phase(self):
        theta = 1.234
        mp = Circuit(1, 0, (phase(theta, 0),)).unitary()
        mz = Circuit(1, 0, (rz(theta, 0),)).unitary()
        assert np.max(np.abs(mp - np.exp(1j * theta / 2) * mz)) < 1e-12


class TestPermutationLowering:
    def test_round_trip_random_3q(self):
        rng = np.random.default_rng(16)
        for _ in range(20):
            table = tuple(int(v) for v in rng.permutation(8))
            g = permutation(table, [0, 1, 2])
            direct = Circuit(3, 0, (g,)).unitary()
            lowered = Circuit(3, 0, tuple(lower_permutation_gate(g))).unitary()
            assert np.max(np.abs(direct - lowered)) < 1e-12

    def test_controlled_permutation_lowering(self):
        rng = np.random.default_rng(17)
        table = tuple(int(v) for v in rng.permutation(4))
        g = permutation(table, [0, 1], controls=[(2, 1)])
        direct = Circuit(3, 0, (g,)).unitary()
        lowered = Circuit(3, 0, tuple(lower_permutation_gate(g))).unitary()
        assert np.max(np.abs(direct - lowered)) < 1e-12


class TestExport:
    def test_empty_single_qubit(self):
        text = Circuit(1, 0, ()).export_text()
        assert text.splitlines() == ["OPENQASM 3.0;", 'include "stdgates.inc";',
                                     "qubit[1] q;"]

    def test_increment_lines(self):
        circ = Circuit(2, 0, (x(1, [(0, 1)]), x(0)))
        lines = circ.export_text().splitlines()[3:]
        assert lines == ["cx q[0], q[1];", "x q[0];"]

    def test_permutation_needs_lowering(self):
        circ = Circuit(2, 0, (permutation([1, 0, 2, 3], [0, 1]),))
        with pytest.raises(UnsupportedGateError):
            circ.export_text()
        text = circ.export_text(lower_permutations=True)
        assert "OPENQASM" in text and "x" in text

    def test_modifiers_and_ancillas(self):
        circ = Circuit(1, 1, (ry(0.5, 0, [(1, 0)]), swap(0, 1)))
        text = circ.export_text()
        assert "qubit[1] anc;" in text
        assert "negctrl @ ry(0.5) anc[0], q[0];" in text
        assert "swap q[0], anc[0];" in text


def test_t_count_estimate_constants():
    toffoli = Circuit(3, 0, (x(2, [(0, 1), (1, 1)]),))
    assert t_count_estimate(toffoli) == {"t": 7, "scratch": 0}
    mcx4 = Circuit(5, 0, (x(4, [(0, 1), (1, 1), (2, 1), (3, 1)]),))
    assert t_count_estimate(mcx4) == {"t": 7 * 5, "scratch": 2}
