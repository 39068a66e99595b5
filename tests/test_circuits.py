import math

import numpy as np
import pytest

from blockenc.circuits import (
    _ALL,
    KINDS,
    Circuit,
    Gate,
    UnsupportedGateError,
    _FusedTurn,
    _Pairs,
    _Scale,
    _Turn,
    _turn,
    flatten,
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
PARAM_KINDS = ("Phase", "RX", "RY", "RZ", "GlobalPhase")


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
        elif kind in PARAM_KINDS:
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


def repeated_run_circuit(repeats=4):
    """The same classical run (the same gate objects) repeated, interleaved
    with rotations and controlled global phases, on 3 main qubits and 1 ancilla."""
    run = [x(0), x(2, [(1, 0)]), swap(0, 3, [(2, 1)]),
           permutation([2, 0, 3, 1], [1, 3], [(0, 0)]), x(1, [(0, 1), (3, 0)])]
    gates = []
    for k in range(repeats):
        gates += run + [ry(0.3 + k, 1, [(2, 0)]), rz(-0.7 * k, 3),
                        global_phase(0.4, [(0, 1), (1, 0)]), Gate("Y", (2,), ((3, 0),))]
    return Circuit(3, 1, tuple(gates))


def only_plan(circ):
    """The plan cached on `circ`."""
    return circ._last_plan[1]


def assert_matches_reference(circ, cols=3, seed=0):
    """`apply` within 1e-12 of the reference on C-ordered, Fortran-ordered and
    flat inputs, leaving each input unchanged."""
    states = random_states(np.random.default_rng(seed), circ.n_qubits, cols)
    want = reference_apply(circ, states)
    for given, expected in [(states, want), (np.asfortranarray(states), want),
                            (states[:, 0].copy(), want[:, 0])]:
        before = given.copy()
        got = circ.apply(given)
        assert got.shape == expected.shape
        assert np.max(np.abs(got - expected)) <= 1e-12
        assert np.array_equal(given, before)


def assert_matches_reference_on(circ, state):
    """`apply` of one given input within 1e-12 of the reference, leaving it unchanged."""
    before = state.copy()
    got = circ.apply(state)
    assert got.shape == state.shape
    assert np.max(np.abs(got - reference_apply(circ, state)), initial=0) <= 1e-12
    assert np.array_equal(state, before)


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
            assert np.array_equal(circ.apply(states), got)  # from the cached plan
            # apply must also take Fortran-ordered and flat inputs
            assert np.max(np.abs(circ.apply(np.asfortranarray(states)) - want)) <= 1e-12
            assert np.max(np.abs(circ.apply(states[:, 0]) - want[:, 0])) <= 1e-12

    def test_run_is_apply_on_the_output_labels(self):
        """`run` on labels in any order, against `apply` of the full state
        that holds the same rows; the output is 0 off the output labels."""
        rng = np.random.default_rng(22)
        for _ in range(40):
            n = int(rng.integers(1, 6))
            circ = random_circuit(rng, n, 30, with_permutation=True)
            states = random_states(rng, n, 3)
            labels = rng.permutation(1 << n)[:int(rng.integers(1, (1 << n) + 1))]
            full = np.zeros_like(states)
            full[labels] = states[labels]
            want = circ.apply(full)
            block = states[labels]
            before = block.copy()
            out_labels, got = circ.run(labels, block)
            assert np.array_equal(block, before)
            assert len(set(out_labels)) == len(out_labels) >= len(labels)
            assert np.max(np.abs(got - want[out_labels])) <= 1e-12
            assert not np.delete(want, out_labels, axis=0).any()
            order = np.sort(labels)  # the live set `apply` runs, so the same plan
            out_labels, got = circ.run(order, states[order])
            assert np.array_equal(got, want[out_labels])

    def test_long_classical_runs(self):
        """Runs of a dozen or more X/Swap/Permutation gates, which only
        relabel the live rows, between RY, RZ and controlled global phases."""
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
        states = random_states(np.random.default_rng(24), 4, 5)
        for repeats in (4, 8):
            circ = repeated_run_circuit(repeats)
            assert np.max(np.abs(circ.apply(states) - reference_apply(circ, states))) <= 1e-12

    def test_repeated_blocks_and_gates(self):
        """One block tuple three times at the top level and once inside
        another block, and one gate object repeated among them: the walk
        plans each occurrence where it comes, on whole and partial live sets."""
        g = ry(0.9, 2, [(0, 1)])
        inner = (h(1), x(0, [(1, 0)]), g, global_phase(0.3, [(2, 1)]), swap(0, 2))
        outer = (rz(0.4, 1), inner, g, permutation([1, 3, 0, 2], [0, 2]))
        circ = Circuit(2, 1, (inner, g, inner, outer, x(1), inner, g))
        assert len(circ.gates) == 4 * len(inner) + 6
        states = random_states(np.random.default_rng(26), 3, 3)
        assert_matches_reference(circ)
        for rows in ([0], [2, 5], [1, 3, 4, 6]):
            state = np.zeros_like(states)
            state[rows] = states[rows]
            assert_matches_reference_on(circ, state)

    def test_kernels_back_to_back_on_different_qubits(self):
        """No classical gate in between; each kernel is one step on the
        compact state (RZ one per half) and nothing else runs."""
        gates = (h(0), ry(0.3, 2, [(0, 1)]), rz(0.4, 3), Gate("RX", (1,), ((3, 0), (2, 1)), 0.7),
                 Gate("Y", (0,)), phase(0.2, 2, [(1, 0)]), h(3, [(0, 0)]), Gate("T", (1,)),
                 global_phase(0.9, [(2, 1)]), ry(-1.1, 0, [(3, 1), (1, 0), (2, 1)]))
        circ = Circuit(3, 1, gates)
        assert_matches_reference(circ)
        assert sum(map(len, only_plan(circ).steps)) == len(gates) + 1

    @pytest.mark.parametrize("last", [ry(0.5, 1, [(2, 0)]), x(1, [(2, 0)])],
                             ids=["kernel", "gather"])
    def test_circuit_ends_on_a_kernel_or_a_gather(self, last):
        circ = Circuit(3, 0, (h(2), x(0), rz(0.3, 0, [(1, 1)]), swap(0, 2), last))
        assert_matches_reference(circ)

    @pytest.mark.parametrize("kind", sorted(KINDS - {"GlobalPhase"}))
    def test_every_kind_with_controls_of_both_polarities(self, kind):
        """Real (H, RY), complex (Y, RX), diagonal and classical kinds, each with
        0 to 3 controls of random polarity on random qubits of 5."""
        rng = np.random.default_rng(sorted(KINDS).index(kind))
        width = {"Swap": 2, "Permutation": 3}.get(kind, 1)
        for n_ctrl in range(4):
            for _ in range(3):
                qubits = [int(q) for q in rng.permutation(5)]
                targets, controls = qubits[:width], qubits[width:width + n_ctrl]
                g = Gate(kind, tuple(targets), tuple((q, int(rng.integers(2))) for q in controls),
                         float(rng.uniform(-np.pi, np.pi)) if kind in PARAM_KINDS else None,
                         tuple(int(t) for t in rng.permutation(8)) if kind == "Permutation" else None)
                assert_matches_reference(Circuit(4, 1, (h(qubits[-1]), g)))
                assert_matches_reference(Circuit(4, 1, (g,)))

    def test_global_phase_with_zero_to_three_controls(self):
        rng = np.random.default_rng(31)
        for n_ctrl in range(4):
            qubits = [int(q) for q in rng.permutation(4)]
            controls = tuple((q, int(rng.integers(2))) for q in qubits[:n_ctrl])
            gates = (ry(0.4, qubits[-1]), global_phase(1.3, controls), x(qubits[0]),
                     global_phase(-0.6, controls[::-1]))
            assert_matches_reference(Circuit(3, 1, gates))

    def test_repeated_gate_on_two_layouts(self):
        """One phase object occurs three times, the second time after an X
        has relabelled the live rows."""
        g = global_phase(0.7, [(4, 0), (3, 1)])
        circ = Circuit(5, 0, (ry(0.3, 3, [(4, 1)]), g, x(0), g, Gate("S", (1,), ((3, 1), (4, 0))), g))
        assert_matches_reference(circ)

    @pytest.mark.parametrize("main, ancillas, gates", [
        (0, 0, ()),
        (0, 0, (global_phase(0.7),)),
        (1, 0, (h(0),)),
        (1, 0, (x(0), ry(0.3, 0), global_phase(0.2, [(0, 1)]), phase(0.5, 0))),
        (0, 1, (h(0), global_phase(0.2, [(0, 0)]))),
        (2, 2, (h(3), x(0, [(3, 1)]), ry(0.3, 2, [(0, 1), (3, 0)]), swap(1, 2))),
    ])
    def test_small_registers_and_ancillas(self, main, ancillas, gates):
        assert_matches_reference(Circuit(main, ancillas, gates))

    def test_inputs_with_one_to_k_nonzero_rows(self):
        """Sparse inputs: the plan starts from their nonzero rows and adds
        each partner a matrix gate needs."""
        rng = np.random.default_rng(41)
        for _ in range(40):
            n = int(rng.integers(1, 6))
            circ = random_circuit(rng, n, 30, with_permutation=True)
            for k in range(1, min(4, 1 << n) + 1):
                states = random_states(rng, n, 3)
                rows = rng.permutation(1 << n)[:k]
                sparse = np.zeros_like(states)
                sparse[rows] = states[rows]
                sparse[rows[0], 1:] = 0  # the columns need not share their rows
                before = sparse.copy()
                got = circ.apply(sparse)
                assert np.max(np.abs(got - reference_apply(circ, sparse))) <= 1e-12
                assert np.array_equal(sparse, before)
                assert np.max(np.abs(circ.apply(sparse[:, 2]) - got[:, 2])) <= 1e-12

    @pytest.mark.parametrize("kind", ["H", "RY", "Y", "RX"])
    def test_controlled_kernel_whose_partner_rows_are_not_live(self, kind):
        """Rows 0b0100 and 0b0111 meet the controls (qubit 2 set); their
        partners on qubit 1 start at zero, and row 0b0001 fails the controls
        and must not gain a partner."""
        g = Gate(kind, (1,), ((2, 1),), None if kind in ("H", "Y") else 0.9)
        for gates in [(g,), (x(3, [(0, 1)]), g, g, Gate("S", (1,), ((2, 1),)), g),
                      (g, x(1, [(2, 1)]), global_phase(0.3, [(1, 1)]), g)]:
            circ = Circuit(4, 0, gates)
            state = np.zeros((16, 2), dtype=complex)
            state[0b0100, 0] = 0.6
            state[0b0111, 0] = 0.8j
            state[0b0001, 1] = 1
            assert_matches_reference_on(circ, state)
            assert len(only_plan(circ).live_out) == 5

    def test_all_zero_and_full_support_inputs(self):
        rng = np.random.default_rng(43)
        for _ in range(10):
            circ = random_circuit(rng, 4, 20, with_permutation=True)
            for state in (np.zeros((16, 3), dtype=complex), np.zeros(16),
                          random_states(rng, 4, 3), np.ones(16)):
                assert_matches_reference_on(circ, state)
            assert not circ.apply(np.zeros(16)).any()

    @pytest.mark.parametrize("gates, rows", [
        ((h(0), rz(0.4, 1), ry(0.3, 1, [(0, 1)])), range(4)),
        ((h(0), x(1), ry(0.3, 1, [(0, 1)])), range(4)),
        ((h(0), h(1)), [0]),
        ((h(0), x(1)), [0, 2]),
    ], ids=["whole", "whole-relabelled", "filled", "filled-relabelled"])
    def test_every_row_live(self, gates, rows):
        """The whole register live at the start or at the end, in label order
        or moved; the output is never the input."""
        circ = Circuit(2, 0, gates)
        state = np.zeros((4, 2), dtype=complex)
        state[list(rows)] = np.random.default_rng(44).normal(size=(len(rows), 2))
        for given in (state, np.asfortranarray(state), state[:, 1].copy()):
            assert_matches_reference_on(circ, given)
            got = circ.apply(given)
            assert not np.shares_memory(got, given)
            got[:] = 7  # the output is the caller's to keep
            assert_matches_reference_on(circ, given)

    def test_the_last_plan_is_kept(self):
        circ = Circuit(2, 0, (h(0), ry(0.3, 1, [(0, 1)])))
        first, second = np.eye(4)[:, :1], np.eye(4)[:, 1:2]
        circ.apply(first)
        plan = only_plan(circ)
        circ.apply(2 * first)
        assert only_plan(circ) is plan  # the same live set reuses the plan
        assert_matches_reference_on(circ, second)
        assert only_plan(circ) is not plan and list(only_plan(circ).live_in) == [1]
        assert_matches_reference_on(circ, first)  # rebuilt, still right


class TestFusedTurn:
    """`_turn` fuses fixed steps, an RZ by row classes and fixed steps into one
    row-sparse product when no row needs more entries than the steps it
    replaces; otherwise the turn runs its steps."""

    EVEN, ODD = np.arange(0, 8, 2), np.arange(1, 8, 2)

    @staticmethod
    def assert_fused_runs_as_its_steps(fused, steps, seed):
        # two rows past the turn's eight, which join the live set later and
        # are 0 until then
        rng = np.random.default_rng(seed)
        factors = np.array([1, *np.exp([-0.35j, 0.35j])])
        for cols in (1, 3):
            c = np.zeros((10, cols), dtype=complex)
            c[:8] = rng.standard_normal((8, cols)) + 1j * rng.standard_normal((8, cols))
            want = c.copy()
            steps.bind(want, want.view(f"V{want.itemsize * cols}").reshape(-1))(factors)
            run = fused.bind(c, c.view(f"V{c.itemsize * cols}").reshape(-1))
            run(next(fused.arguments(factors[None])))
            assert np.max(np.abs(c - want)) <= 1e-14

    def test_a_turn_whose_ends_undo_each_other_is_fused(self):
        # RY and a phase, an RZ on two classes, then the phase and the RY
        # undone: each row reaches at most two rows
        angle = 0.7
        m = np.array([[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]])
        before = (_Pairs(np.stack((self.EVEN, self.ODD)), m), _Scale(np.array([2, 5]), -1j))
        after = (_Scale(np.array([2, 5]), 1j),
                 _Pairs(np.stack((self.EVEN, self.ODD)), m.T), _Scale(_ALL, np.exp(0.4j)))
        classes = np.array([[1], [2], [0], [1], [2], [2], [0], [1]])
        fused = _turn(before, classes, after)
        assert isinstance(fused, _FusedTurn) and fused.sources.shape == (2, 8)
        self.assert_fused_runs_as_its_steps(fused, _Turn(before, classes, after), 0)

    def test_a_turn_with_too_many_entries_a_row_runs_its_steps(self):
        # two matrices on different bits around an RZ on no row: a row
        # reaches four rows, more than the two steps
        m = np.array([[0.6, -0.8], [0.8, 0.6]])
        before = (_Pairs(np.stack((self.EVEN, self.ODD)), m),)
        after = (_Pairs(np.array([[0, 1, 4, 5], [2, 3, 6, 7]]), m),)
        classes = np.zeros((8, 1), dtype=np.intp)
        assert isinstance(_turn(before, classes, after), _Turn)
        # with two more steps each row may take four entries
        longer = after + (_Scale(np.array([3]), -1), _Scale(np.array([0, 6]), 1j))
        fused = _turn(before, classes, longer)
        assert isinstance(fused, _FusedTurn) and fused.sources.shape == (4, 8)
        self.assert_fused_runs_as_its_steps(fused, _Turn(before, classes, longer), 1)


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


class TestValidation:
    """A gate tuple may repeat one `Gate` object; `Circuit` range-checks each
    distinct object once, so these pin that no bad gate slips through."""

    @pytest.mark.parametrize("kind, targets, controls, table, match", [
        ("CNOT", (0,), (), None, "unknown gate kind"),
        ("Swap", (1, 1), (), None, "pairwise distinct"),
        ("X", (0,), ((0, 1),), None, "pairwise distinct"),
        ("X", (0,), ((1, 1), (1, 0)), None, "pairwise distinct"),
        ("Permutation", (0,), (), None, "needs a table"),
        ("Permutation", (0,), (), (0, 0), "bijection"),
        ("Permutation", (0,), (), (1, 0, 2, 3), "bijection"),
        ("Permutation", (0, 1), (), (0, 1, 2), "bijection"),
        ("Permutation", (0,), (), (1, 2), "bijection"),
    ])
    def test_gate_rejects(self, kind, targets, controls, table, match):
        with pytest.raises(ValueError, match=match):
            Gate(kind, targets, controls, table=table)

    @pytest.mark.parametrize("labels, block", [
        ([0, 1], np.zeros((3, 1))), ([0, 1], np.zeros(2)), ([[0, 1]], np.zeros((2, 1)))])
    def test_run_rejects_shapes(self, labels, block):
        with pytest.raises(ValueError, match=r"n labels and an \(n, k\) block"):
            Circuit(2, 0, (h(0),)).run(labels, block)

    @pytest.mark.parametrize("labels", [[1, 1], [3, 0, 2, 0]])
    def test_run_rejects_a_label_given_twice(self, labels):
        with pytest.raises(ValueError, match=r"distinct labels, got [01] twice"):
            Circuit(2, 0, (h(0),)).run(labels, np.ones((len(labels), 1)))

    @pytest.mark.parametrize("labels", [[-1], [2, -3, 0]])
    def test_run_rejects_a_negative_label(self, labels):
        with pytest.raises(ValueError, match=r"labels >= 0, got -"):
            Circuit(2, 0, (h(0),)).run(labels, np.ones((len(labels), 1)))

    @pytest.mark.parametrize("labels", [[4], [0, 7, 2]])
    def test_run_rejects_a_label_past_the_register(self, labels):
        with pytest.raises(ValueError, match=r"labels below 2\^n_qubits = 4, got [47]"):
            Circuit(2, 0, (h(0),)).run(labels, np.ones((len(labels), 1)))

    def test_run_rejects_a_label_that_is_not_an_integer(self):
        # a cast would truncate it and run label 1
        with pytest.raises(ValueError, match=r"integer labels below 2\^n_qubits = 4, got 1.7"):
            Circuit(2, 0, (h(0),)).run([1.7], np.ones((1, 1)))

    def test_run_rejects_a_label_past_64_bits(self):
        # a cast would end in a bare OverflowError
        with pytest.raises(ValueError, match=f"integer labels below 2\\^n_qubits = 4, got {2**70}"):
            Circuit(2, 0, (h(0),)).run([0, 2**70], np.ones((2, 1)))

    def test_run_takes_an_empty_label_list(self):
        labels, block = Circuit(2, 0, (h(0),)).run([], np.ones((0, 1)))
        assert labels.shape == (0,) and block.shape == (0, 1)

    @pytest.mark.parametrize("kind, arity", [
        *((k, 1) for k in ("X", "Y", "Z", "H", "S", "T", "Phase", "RX", "RY", "RZ")),
        ("Swap", 2), ("GlobalPhase", 0),
    ])
    def test_gate_needs_its_number_of_targets(self, kind, arity):
        # a Swap on one qubit would read one input into two rows; an X on two
        # would act on the first and export both
        param = 0.5 if kind in ("Phase", "RX", "RY", "RZ", "GlobalPhase") else None
        assert len(Gate(kind, tuple(range(arity)), param=param).targets) == arity
        for n in {0, 1, 2, 3} - {arity}:
            with pytest.raises(ValueError, match=f"needs {arity} target"):
                Gate(kind, tuple(range(n)), param=param)

    @pytest.mark.parametrize("kind, targets, param", [
        ("RZ", (0,), 1j), ("GlobalPhase", (), -0.5j), ("Phase", (0,), np.complex64(0.5j)),
    ])
    def test_gate_rejects_complex_parameter(self, kind, targets, param):
        # a complex angle would make the circuit non-unitary (norm e^0.5 on |0>)
        with pytest.raises(ValueError, match="must be real"):
            Gate(kind, targets, param=param)

    @pytest.mark.parametrize("gate", [x(2), x(0, [(3, 1)]), x(-1), swap(0, 5),
                                      permutation([1, 0], [4]), global_phase(0.1, [(2, 0)])])
    def test_circuit_rejects_qubit_outside_register(self, gate):
        with pytest.raises(ValueError, match="outside register of 2"):
            Circuit(1, 1, (gate,))

    def test_repeated_bad_gate(self):
        bad = x(0, [(2, 1)])
        with pytest.raises(ValueError, match="references qubit 2"):
            Circuit(2, 0, (bad, bad, bad))

    def test_bad_gate_after_repeated_good_gate(self):
        good = x(0, [(1, 1)])
        with pytest.raises(ValueError, match="references qubit 3"):
            Circuit(2, 0, (good, good, h(1), good, swap(1, 3), good))

    def test_bad_gate_inside_a_repeated_block(self):
        block = (h(0), x(1, [(0, 1)]), x(0, [(4, 1)]))
        with pytest.raises(ValueError, match="references qubit 4 outside register of 3"):
            Circuit(2, 1, (h(1), block, x(0), block, block))

    def test_first_bad_gate_in_flattened_order_is_named(self):
        block = (h(0), swap(0, 5))
        items = (h(1), block, x(0, [(7, 1)]), block)
        with pytest.raises(ValueError, match="references qubit 5"):
            Circuit(2, 0, items)
        with pytest.raises(ValueError, match="references qubit 5"):
            Circuit(2, 0, flatten(items))

    def test_items_are_stored_flattened(self):
        block = (h(0), x(1, [(0, 1)]))
        items = [x(0), block, h(1), block]
        circ = Circuit(2, 0, items)
        assert circ.gates == (items[0], *block, items[2], *block)
        assert all(a is b for a, b in zip(circ.gates, flatten(items), strict=True))

    def test_gates_read_the_items_as_their_flat_tuple(self):
        block = (h(0), x(1, [(0, 1)]))
        items = (x(0), block, rz(0.3, 1), block)
        circ = Circuit(2, 0, items)
        flat = flatten(items)
        assert circ._items is items  # kept, not flattened
        assert len(circ.gates) == len(flat) == 6
        assert circ.gates == flat and flat == circ.gates and circ.gates != flat[:-1]
        assert circ.gates[1] is flat[1] and circ.gates[-2:] == flat[-2:]
        assert list(reversed(circ.gates)) == list(reversed(flat))
        assert circ.gates.index(flat[3]) == 3 and circ.gates.count(block[0]) == 2
        assert hash(circ.gates) == hash(flat) and repr(circ.gates) == repr(flat)
        assert Circuit(2, 0, circ.gates) == circ and Circuit(2, 0, flat) == circ
        assert circ.concat(circ).gates == flat + flat


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


def per_occurrence_counts(gates, lower_permutations=False):
    """Gate counts taken one occurrence at a time, in first-occurrence key order."""
    counts = {}
    for g in gates:
        expand = lower_permutations and g.kind == "Permutation"
        for lg in lower_permutation_gate(g) if expand else [g]:
            counts[lg.count_key()] = counts.get(lg.count_key(), 0) + 1
    return counts


class TestCountsOverRepeatedObjects:
    # one object per part, repeated by reference the way lowering repeats them,
    # plus an equal gate that is a separate object
    perm = permutation([3, 0, 6, 1, 2, 7, 4, 5], [0, 1, 2], controls=[(3, 1)])
    toffoli = x(2, [(0, 1), (1, 1)])
    t = Gate("T", (0,))
    gates = (h(3), perm, toffoli, t, perm, t, toffoli, perm, rz(0.3, 1), perm.inverse(),
             toffoli, h(3), x(2, [(0, 1), (1, 1)]), Gate("T", (0,)), t)

    def test_counts_equal_a_count_per_occurrence(self):
        circ = Circuit(4, 0, self.gates)
        for lower in (False, True):
            got = circ.gate_counts(lower_permutations=lower)
            want = per_occurrence_counts(self.gates, lower)
            assert list(got.items()) == list(want.items())  # key order too
        assert circ.gate_counts()["CPermutation"] == 4

    def test_t_count_equals_a_sum_per_occurrence(self):
        circ = Circuit(4, 0, self.gates)
        each = [t_count_estimate(Circuit(4, 0, (g,))) for g in self.gates]
        want = {"t": sum(e["t"] for e in each), "scratch": max(e["scratch"] for e in each)}
        assert t_count_estimate(circ) == want
        assert want == {"t": 4 + 4 * 7 + 4 * 105, "scratch": 1}  # T, Toffoli, permutation


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

    def test_repeated_objects_export_as_each_occurrence(self):
        # one object per part, repeated by reference the way lowering repeats them
        perm = permutation([3, 0, 6, 1, 2, 7, 4, 5], [0, 1, 2], controls=[(3, 1)])
        toffoli = x(2, [(0, 1), (1, 1)])
        turn = rz(0.3, 1, [(3, 0)])
        plain = (h(3), toffoli, turn, toffoli, x(2, [(0, 1), (1, 1)]), turn, h(3), turn)
        mixed = (perm, toffoli, turn, perm, perm.inverse(), turn, toffoli, perm)
        for gates, lower in ((plain, False), (plain, True), (mixed, True)):
            got = Circuit(4, 0, gates).export_text(lower_permutations=lower)
            want = Circuit(4, 0, ()).export_text() + "".join(
                Circuit(4, 0, (g,)).export_text(lower).split("\n", 3)[3] for g in gates)
            assert got == want
        with pytest.raises(UnsupportedGateError):
            Circuit(4, 0, mixed).export_text()


def test_t_count_estimate_constants():
    toffoli = Circuit(3, 0, (x(2, [(0, 1), (1, 1)]),))
    assert t_count_estimate(toffoli) == {"t": 7, "scratch": 0}
    mcx4 = Circuit(5, 0, (x(4, [(0, 1), (1, 1), (2, 1), (3, 1)]),))
    assert t_count_estimate(mcx4) == {"t": 7 * 5, "scratch": 2}
