import collections
import os
import subprocess
import sys

import numpy as np
import pytest

import blockenc as be
from blockenc.circuits import Circuit
from blockenc.nodes import Budget, BudgetExceededError, Node, get_budget, set_budget
from blockenc.subspaces import Subspace

from corpus import build_corpus


def power_iteration_norm(m, iters=500, seed=3):
    """Spectral norm by power iteration on m^H m, independent of np.linalg.norm."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(m.shape[1]) + 1j * rng.standard_normal(m.shape[1])
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(iters):
        w = m.conj().T @ (m @ v)
        lam = np.linalg.norm(w)
        if lam == 0:
            return 0.0
        v = w / lam
    return float(np.sqrt(lam))


class TestCompute:
    def test_increment_basis_shift(self):
        inc = be.Increment(2)
        out = inc.compute(np.array([0, 1, 0, 0], dtype=complex))
        assert np.array_equal(out, np.array([0, 0, 1, 0], dtype=complex))

    def test_identity_passthrough(self):
        rng = np.random.default_rng(0)
        v = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        assert np.array_equal(be.Identity(dim=6).compute(v), v)

    def test_add_is_sum_of_computes(self):
        rng = np.random.default_rng(1)
        a = be.QFT(2)
        b = 0.3 * be.Increment(2)
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        got = (a + b).compute(v)
        assert np.max(np.abs(got - (a.compute(v) + b.compute(v)))) < 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            be.Increment(2).simulate(np.ones(3, dtype=complex))


class TestSimulate:
    def test_increment_exact(self):
        inc = be.Increment(2)
        e1 = np.array([0, 1, 0, 0], dtype=complex)
        assert np.array_equal(inc.simulate(e1), np.array([0, 0, 1, 0], dtype=complex))

    def test_identity(self):
        rng = np.random.default_rng(2)
        v = rng.standard_normal(8) + 0j
        assert np.allclose(be.Identity(dim=8).simulate(v), v)

    def test_all_ones_first_column(self):
        node = be.Identity(dim=2) + be.Permutation([1, 0])
        out = node.simulate(np.array([1, 0], dtype=complex))
        assert np.max(np.abs(out - np.array([1, 1]))) < 1e-12

    @pytest.mark.parametrize("shape", [(), (4, 2, 2), (4, 1, 1), (3, 2)])
    def test_rejects_inputs_that_are_not_a_vector_or_a_stack(self, shape):
        with pytest.raises(ValueError, match=r"vector of length 4 nor a \(4, k\) column stack"):
            be.Increment(2).simulate(np.zeros(shape))

    def test_zero_columns(self):
        node = be.ConstantVector([0.6, 0.8j]) & be.Increment(1)
        assert node.simulate(np.zeros((node.dim_in, 0))).shape == (node.dim_out, 0)
        dim = 1 << node.circuit().n_qubits
        assert node.circuit().apply(np.zeros((dim, 0))).shape == (dim, 0)


class TestSimulateOnLabels:
    """`simulate`, `verify` and `simulate_norm` run `Circuit.run` on the
    input labels and never build a full state through `Circuit.apply`."""

    @pytest.mark.parametrize("seed", range(4))
    def test_corpus_without_apply(self, monkeypatch, seed):
        def refuse(circ, state):
            raise AssertionError("Circuit.apply called")

        monkeypatch.setattr(Circuit, "apply", refuse)
        rng = np.random.default_rng(seed)
        pool, made = build_corpus(seed)
        for node, _ in pool + made:
            assert node.verify().passed
            v = random_stack(rng, node.dim_in, 2)
            assert np.max(np.abs(node.simulate(v) - node.compute(v))) <= 1e-10
            if node.is_vector:
                want = np.linalg.norm(node.toarray())
                assert abs(node.simulate_norm() - want) <= 1e-10 * max(want, 1)


class TestToArray:
    def test_increment_matrix(self):
        want = np.array([[0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]],
                        dtype=complex)
        assert np.array_equal(be.Increment(2).toarray(), want)

    def test_identity(self):
        assert np.array_equal(be.Identity(dim=3).toarray(), np.eye(3, dtype=complex))

    def test_constant_vector_column(self):
        v = np.array([0.3, -0.4, 0.5j])
        cv = be.ConstantVector(v)
        assert cv.toarray().shape == (3, 1)
        assert np.array_equal(cv.toarray().ravel(), v.astype(complex))


class TestVerify:
    def test_increment(self):
        rep = be.Increment(2).verify()
        assert rep.passed and rep.max_error == 0.0

    def test_identity(self):
        assert be.Identity(dim=5).verify().passed

    def test_product_of_primitives(self):
        node = (be.QFT(2) @ be.Increment(2) @ be.ConstantIntegerAddition(2, 3)
                @ be.Permutation([2, 0, 3, 1]) @ be.QFT(2).adjoint())
        rep = node.verify(1e-10)
        assert rep.passed, rep

    def test_output_past_the_normalization_bound_fails(self):
        node = Doubler()
        with pytest.warns(RuntimeWarning, match="normalization bound"):
            node.simulate(np.ones(2))
        rep = node.verify(1e-10)
        assert rep.max_error < 1e-12  # both paths agree on 2 I
        assert not rep.passed and not rep.within_bound
        assert "exceeds the normalization bound" in str(rep)


class DoublingCircuit(Circuit):
    """Multiplies the state by 2, which no circuit of valid gates does."""

    def run(self, labels, block):
        labels_out, out = super().run(labels, block)
        return labels_out, 2 * out


class Doubler(Node):
    """Declares 2 I at normalization 1, which no unitary circuit encodes; its
    lowering is a circuit that doubles the state, so the circuit and
    arithmetic paths agree while the bound is broken."""

    def _raw_subspaces(self):
        return Subspace.from_dim(2), Subspace.from_dim(2)

    @property
    def normalization(self):
        return 1.0

    def compute(self, v):
        return 2 * np.asarray(v, dtype=complex)

    adjoint_compute = compute

    def _lower(self):
        return DoublingCircuit(self.main_qubits)


class TestResources:
    def test_increment_report(self):
        rep = be.Increment(2).resources()
        assert rep.main_qubits == 2 and rep.ancilla_qubits == 0
        assert rep.normalization == 1.0
        assert rep.gate_counts == {"X": 1, "CX": 1}

    def test_all_ones_normalization_and_efficiency(self):
        node = be.Identity(dim=2) + be.Permutation([1, 0])
        rep = node.resources()
        assert rep.normalization == 2.0
        assert abs(rep.info_efficiency - 1.0) < 1e-9

    def test_tensor_normalization_structural(self):
        rng = np.random.default_rng(4)
        a = be.ConstantVector(rng.standard_normal(4))
        b = 2.5 * be.Increment(1)
        t = a & b
        assert t.normalization == a.normalization * b.normalization
        assert t.normalization >= np.linalg.norm(t.toarray(), 2) - 1e-9

    def test_gate_counts_match_emitted_circuit(self):
        node = (be.Identity(dim=2) + be.Permutation([1, 0])) @ be.QFT(1)
        assert node.resources().gate_counts == node.circuit().gate_counts()
        assert node.resources().ancilla_qubits == node.circuit().ancilla_qubits


class TestInfoEfficiency:
    def test_identity(self):
        assert abs(be.Identity(dim=4).info_efficiency() - 1.0) < 1e-12

    def test_all_ones_power_iteration_oracle(self):
        node = be.Identity(dim=2) + be.Permutation([1, 0])
        norm = power_iteration_norm(node.toarray())
        assert abs(norm - 2.0) < 1e-9
        assert abs(node.info_efficiency() - norm / node.normalization) < 1e-9

    def test_sum_of_equal_terms(self):
        a = be.Increment(2)
        node = a + a
        assert abs(node.info_efficiency() - 1.0) < 1e-9


    @pytest.mark.parametrize("seed", range(4))
    def test_is_the_spectral_norm_bit_for_bit(self, seed):
        pool, made = build_corpus(seed)
        for node, _ in pool + made:
            want = float(np.linalg.norm(node.toarray(), 2)) / node.normalization
            assert node.info_efficiency() == want


class TestSimulateNorm:
    def test_pythagorean(self):
        assert abs(be.ConstantVector([3.0, 4.0]).simulate_norm() - 5.0) < 1e-10

    def test_unit_vector(self):
        v = np.array([0.5, 0.5, 0.5, 0.5])
        assert abs(be.ConstantVector(v).simulate_norm() - 1.0) < 1e-10

    def test_rejects_matrices(self):
        with pytest.raises(ValueError):
            be.Increment(2).simulate_norm()


def random_stack(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def batch_nodes():
    """Every node of several corpora, plus the node types no corpus draws."""
    nodes = []
    for seed in (0, 1, 2, 3, 77):
        pool, made = build_corpus(seed)
        nodes += [node for node, _ in pool + made]
    a = 0.6 * be.Increment(2) + 0.3 * be.Identity(dim=4)
    nodes += [be.ZeroMatrix(3, 5), be.ZeroMatrix(3, 5) & be.QFT(2),
              be.IntegerAddition(2, 2), be.Projection(be.Subspace.from_dim(6), 5, 3),
              be.Pseudoinverse(a, condition=3.0, tolerance=0.05)]
    return nodes


class TestBatchCompute:
    @pytest.mark.parametrize("adjoint", [False, True])
    def test_stack_equals_columns(self, adjoint):
        rng = np.random.default_rng(6)
        for node in batch_nodes():
            rule = node.adjoint_compute if adjoint else node.compute
            dim_in, dim_out = node.dim_in, node.dim_out
            if adjoint:
                dim_in, dim_out = dim_out, dim_in
            stack = random_stack(rng, dim_in, 3)
            got = rule(stack)
            assert got.shape == (dim_out, 3), node
            for j in range(3):
                col = rule(stack[:, j])
                assert col.shape == (dim_out,), node
                assert np.max(np.abs(got[:, j] - col)) < 1e-12, node

    def test_toarray_is_one_compute_of_the_identity(self):
        node = be.Increment(2) & be.ConstantVector([1.0, 2.0, 2.0])
        assert np.array_equal(node.toarray(), node.compute(np.eye(node.dim_in)))


class TestAdjointness:
    def test_pairing_identity(self):
        rng = np.random.default_rng(5)
        _, composites = build_corpus(seed=77, primitives=5, composites=8)
        for node, _ in composites:
            v = rng.standard_normal(node.dim_in) + 1j * rng.standard_normal(node.dim_in)
            w = rng.standard_normal(node.dim_out) + 1j * rng.standard_normal(node.dim_out)
            lhs = np.vdot(w, node.compute(v))
            rhs = np.vdot(node.adjoint_compute(w), v)
            assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))

    def test_pairing_on_stacks(self):
        rng = np.random.default_rng(8)
        for node in batch_nodes():
            v = random_stack(rng, node.dim_in, 3)
            w = random_stack(rng, node.dim_out, 4)
            lhs = w.conj().T @ node.compute(v)
            rhs = node.adjoint_compute(w).conj().T @ v
            assert np.max(np.abs(lhs - rhs)) < 1e-10 * max(1.0, np.max(np.abs(lhs))), node


class TestCachesAndBudget:
    def test_accessors_are_stable(self):
        node = be.Increment(2) + be.QFT(2)
        assert node.circuit() is node.circuit()
        assert np.array_equal(node.toarray(), node.toarray())
        assert node.resources() == node.resources()
        assert node.subspace_in is node.subspace_in

    def test_each_node_derives_its_subspaces_once(self, monkeypatch):
        # main_qubits, subspace_in and subspace_out share one derivation
        calls, alive = collections.Counter(), []

        def subclasses(cls):
            for c in cls.__subclasses__():
                yield c
                yield from subclasses(c)

        for cls in set(subclasses(Node)):
            raw = vars(cls).get("_raw_subspaces")
            if raw is not None:
                def counted(node, raw=raw):
                    calls[id(node)] += 1
                    alive.append(node)  # so that no id is reused
                    return raw(node)
                monkeypatch.setattr(cls, "_raw_subspaces", counted)
        child = 0.6 * be.Increment(2) + 0.3 * be.Identity(dim=4)
        made = [n for seed in range(4) for n, _ in sum(build_corpus(seed), [])]
        made.append(be.SingularValueTransform(child, be.TargetPolynomial.chebyshev([0, 0.4, 0, 0.3])))
        for node in made:
            assert node.verify(1e-7).passed
            node.resources()
            assert node.subspace_in.qubit_count == node.subspace_out.qubit_count == node.main_qubits
        assert all(calls[id(n)] == 1 for n in made)
        assert set(calls.values()) == {1}

    def test_budget_guards(self):
        node = be.Increment(3)
        old = get_budget()
        try:
            set_budget(Budget(max_amplitudes=4, max_dim=2))
            with pytest.raises(BudgetExceededError):
                node.toarray()
            with pytest.raises(BudgetExceededError):
                node.simulate(np.zeros(8, dtype=complex))
        finally:
            set_budget(old)
        # a refused evaluation is not cached
        assert np.array_equal(node.toarray(), np.roll(np.eye(8), 1, axis=0))

    def test_verify_keeps_each_simulated_state_within_the_budget(self, monkeypatch):
        # 4 qubits and 8 columns: one state of all columns would hold 128 amplitudes
        node = be.Increment(bits=3) + be.Identity(dim=8)
        want = node.verify()
        shapes = []
        run = Circuit.run

        def recording_run(circ, labels, block):
            labels_out, out = run(circ, labels, block)
            shapes.append(np.shape(out))
            return labels_out, out

        monkeypatch.setattr(Circuit, "run", recording_run)
        old = get_budget()
        try:
            set_budget(Budget(max_amplitudes=16))
            got = node.verify()
        finally:
            set_budget(old)
        assert node.circuit().n_qubits == 4
        assert shapes and all(np.prod(s) <= 16 for s in shapes)
        assert sum(s[1] for s in shapes) == 8
        assert got == want

    def test_resources_of_a_small_node_over_a_large_operand(self):
        # 4x4 slice of a transform whose operand is 8192 wide: the report is
        # complete except eta, which needs that operand's dense matrix
        node = be.SingularValueTransform(be.Identity(dim=4) & be.Identity(dim=2**11),
                                         be.TargetPolynomial.chebyshev([0, 0.5]))[:4, :4]
        assert (node.dim_out, node.dim_in) == (4, 4)
        rep = node.resources()
        assert rep.info_efficiency is None
        assert (rep.main_qubits, rep.ancilla_qubits, rep.total_qubits) == (13, 3, 16)
        assert rep.gate_counts == {"H": 2, "CX": 4, "RZ": 2, "CGlobalPhase": 2}
        assert rep.normalization == 1.0

    def test_env_parsing(self, monkeypatch):
        monkeypatch.setenv("BE_BUDGET", "1024,64")
        b = Budget.from_env()
        assert b.max_amplitudes == 1024 and b.max_dim == 64

    @pytest.mark.parametrize("raw", ["abc", "1024,x", "1,2,3", "0", "1024,-1"])
    def test_bad_env_value_is_a_clear_error(self, monkeypatch, raw):
        monkeypatch.setenv("BE_BUDGET", raw)
        with pytest.raises(ValueError, match=r"BE_BUDGET.*<max_amplitudes>\[,<max_dim>\]"):
            Budget.from_env()

    def test_bad_env_value_does_not_break_import(self):
        src = os.path.dirname(os.path.dirname(be.__file__))
        code = ("import blockenc\n"
                "try:\n"
                "    blockenc.get_budget()\n"
                "except ValueError as exc:\n"
                "    print(exc)\n")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=dict(os.environ, BE_BUDGET="abc", PYTHONPATH=src),
                              timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert "BE_BUDGET='abc'" in proc.stdout


class TestNormQueryFormula:
    def test_spot_value(self):
        rep = be.Increment(2).resources()
        assert rep.norm_query_estimate(0.1, 0.01, eta=0.5) == 93

    def test_uses_report_eta(self):
        rep = be.Identity(dim=2).resources()
        assert rep.norm_query_estimate(0.1, 0.01) == 47


class TestFiveQubitCoverage:
    def test_every_node_type_verifies_at_width_five(self):
        rng = np.random.default_rng(55)
        v32 = rng.standard_normal(32) + 1j * rng.standard_normal(32)
        table = [int(t) for t in rng.permutation(32)]
        nodes = [
            be.Identity(dim=32),
            be.Increment(5),
            be.ConstantIntegerAddition(5, 11),
            be.IntegerAddition(2, 3),
            be.QFT(5),
            be.ConstantVector(v32),
            be.Permutation(table),
            be.Projection(be.Subspace.from_dim(32), 29, 31),
            be.Increment(5).adjoint(),
            (0.5 - 1j) * be.QFT(5),
            be.Increment(5) @ be.ConstantIntegerAddition(5, 7),
            be.Increment(2) & be.QFT(3),
            be.Increment(4) | be.QFT(4),
            be.Increment(5) + be.ConstantIntegerAddition(5, 2),
            be.Increment(5)[:30, :31],
        ]
        for node in nodes:
            assert max(c.main_qubits for c in (node, *node.children)) <= 6
            assert node.verify(1e-9).passed, type(node).__name__


class TestEncodingView:
    def test_view_fields(self):
        node = 2.0 * be.Increment(2)
        view = node.encoding_view()
        assert view.normalization == 2.0
        assert view.subspace_in == node.subspace_in
        assert view.normalization >= np.linalg.norm(view.matrix, 2) - 1e-9
