import numpy as np
import pytest

import blockenc as be
from blockenc.composites import Product, ZeroMatrix

from corpus import build_corpus, shift_matrix


def pauli_x_node():
    return be.Permutation([1, 0])


class TestAdjoint:
    def test_identity(self):
        node = be.Identity(dim=4).adjoint()
        assert np.array_equal(node.toarray(), np.eye(4))

    def test_increment_transpose(self):
        want = shift_matrix(4).T
        assert np.array_equal(be.Increment(2).adjoint().toarray(), want)

    def test_double_adjoint_unwraps(self):
        a = be.QFT(2)
        assert a.adjoint().adjoint() is a

    def test_random_composites(self):
        _, composites = build_corpus(seed=11, primitives=5, composites=10)
        for node, mat in composites:
            got = node.adjoint().toarray()
            assert np.max(np.abs(got - mat.conj().T)) < 1e-9


class TestScale:
    def test_unit_scalar(self):
        a = be.Increment(2)
        assert np.max(np.abs((1 * a).toarray() - a.toarray())) == 0.0

    def test_laplace_prefactor(self):
        ident, shift = be.Identity(dim=8), be.Increment(3)
        inner = (2 * ident - shift.adjoint() - shift)
        node = 2 ** 3 * inner
        assert node.normalization == 8 * inner.normalization == 32.0

    def test_imaginary_scalar(self):
        node = 1j * be.Identity(dim=2)
        assert np.max(np.abs(node.toarray() - 1j * np.eye(2))) < 1e-12
        assert node.normalization == 1.0
        assert abs(node.info_efficiency() - be.Identity(dim=2).info_efficiency()) < 1e-12
        assert node.verify().passed

    def test_zero_scalar_collapses(self):
        z = 0 * be.Increment(2)
        assert isinstance(z, ZeroMatrix)
        assert z.normalization == 1.0
        assert np.max(np.abs(z.toarray())) == 0.0
        assert z.verify().passed
        assert z.circuit().ancilla_qubits == 1


class TestProduct:
    def test_identity_absorbs(self):
        a = be.QFT(2)
        node = be.Identity(dim=4) @ a
        assert np.max(np.abs(node.toarray() - a.toarray())) < 1e-12

    def test_shift_squared(self):
        node = be.Increment(2) @ be.Increment(2)
        assert np.array_equal(node.toarray(), shift_matrix(4, 2))

    def test_random_pairs_against_oracle(self):
        count = 0
        seed = 0
        while count < 100:
            seed += 1
            prims, composites = build_corpus(seed=1000 + seed, primitives=5, composites=6)
            for node, mat in composites:
                if isinstance(node, Product):
                    count += 1
                    assert np.max(np.abs(node.toarray() - mat)) < 1e-10
                    assert node.verify(1e-10).passed

    def test_membership_flag_case(self):
        # ConstantVector backward is leaky, so cv @ adjoint(cv) needs the check
        rng = np.random.default_rng(12)
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        cv = be.ConstantVector(v)
        node = Product(cv, cv.adjoint())
        want = np.outer(v, v.conj())
        assert node.circuit().ancilla_qubits >= 1
        assert np.max(np.abs(node.toarray() - want)) < 1e-10
        assert node.verify(1e-10).passed

    def test_forced_skip_is_recorded_and_wrong(self):
        rng = np.random.default_rng(13)
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        cv = be.ConstantVector(v)
        checked = Product(cv, cv.adjoint())
        forced = Product(cv, cv.adjoint(), exact=True)
        assert any("skipped" in a for a in forced.resources().assumptions)
        assert checked.resources().assumptions == ()
        assert checked.verify(1e-10).passed
        assert not forced.verify(1e-10).passed

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            be.Increment(2) @ be.Increment(1)

    def test_width_padding_is_silent(self):
        # 1-qubit node against a 3-qubit node with matching block dimensions
        cv = be.ConstantVector([0.6, 0.8])
        wide = be.Projection(be.Subspace.from_dim(8), 2, 2)
        node = wide @ cv
        assert np.max(np.abs(node.toarray().ravel() - np.array([0.6, 0.8]))) < 1e-12
        assert node.verify().passed


class TestTensor:
    def test_scalar_identity_neutral(self):
        a = be.Increment(2)
        node = a & be.Identity(dim=1)
        assert np.max(np.abs(node.toarray() - a.toarray())) < 1e-12

    def test_three_fold_constant_vector(self):
        vec2d = be.ConstantVector(0.5 * np.ones(2))
        node = vec2d & vec2d & vec2d
        assert np.array_equal(node.toarray().ravel(), np.full(8, 0.125, dtype=complex))
        assert node.normalization == vec2d.normalization ** 3

    def test_kron_oracle(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            va = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            a = be.ConstantVector(va)
            b = be.Increment(1)
            node = a & b
            assert np.max(np.abs(node.toarray() - np.kron(va[:, None], b.toarray()))) < 1e-10
            assert node.verify().passed


class TestBlockDiagonal:
    def test_identity_pair(self):
        node = be.Identity(dim=2) | be.Identity(dim=2)
        assert np.array_equal(node.toarray(), np.eye(4))

    def test_off_diagonal_blocks_vanish(self):
        rng = np.random.default_rng(15)
        a = be.ConstantVector(rng.standard_normal(2))
        b = be.QFT(1)
        node = a | b
        m = node.toarray()
        assert np.max(np.abs(m[:2, 1:])) < 1e-12  # a is a column
        assert np.max(np.abs(m[2:, :1])) < 1e-12
        assert node.verify().passed

    def test_gamma_is_max_and_bounds_norm(self):
        a = 3 * be.Identity(dim=2)
        b = be.Permutation([1, 0])
        node = a | b
        assert node.normalization == 3.0
        assert node.normalization >= np.linalg.norm(node.toarray(), 2) - 1e-9
        want = np.zeros((4, 4), dtype=complex)
        want[:2, :2] = 3 * np.eye(2)
        want[2:, 2:] = [[0, 1], [1, 0]]
        assert np.max(np.abs(node.toarray() - want)) < 1e-12
        assert node.verify().passed


class TestAdd:
    def test_all_ones_example(self):
        node = be.Identity(dim=2) + pauli_x_node()
        assert node.normalization == 2.0
        assert np.max(np.abs(node.toarray() - np.ones((2, 2)))) < 1e-12
        unitary = node.circuit().unitary()
        want = 0.5 * np.array([[1, 1, 1, -1], [1, 1, -1, 1],
                               [1, -1, 1, 1], [-1, 1, 1, 1]], dtype=complex)
        ratio = unitary[0, 0] / want[0, 0]
        assert abs(abs(ratio) - 1) < 1e-10
        assert np.max(np.abs(unitary - ratio * want)) < 1e-10

    def test_adding_zero_returns_operand(self):
        a = be.QFT(2)
        node = a + 0 * be.Increment(2)
        assert node is a
        assert node.normalization == a.normalization

    def test_sum_oracle_and_gamma_additivity(self):
        rng = np.random.default_rng(16)
        for _ in range(10):
            a = complex(rng.standard_normal(), rng.standard_normal()) * be.Increment(2)
            b = complex(rng.standard_normal(), rng.standard_normal()) * be.QFT(2)
            node = a + b
            assert node.normalization == a.normalization + b.normalization
            assert np.max(np.abs(node.toarray() - (a.toarray() + b.toarray()))) < 1e-10
            assert node.verify(1e-9).passed

    def test_subtraction(self):
        a, b = be.Increment(2), be.QFT(2)
        node = a - b
        assert np.max(np.abs(node.toarray() - (a.toarray() - b.toarray()))) < 1e-10

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            be.Increment(2) + be.Increment(1)


class TestSharedCircuits:
    """Wrappers lower to their inner node's own circuit object."""

    def flagged(self):
        # the sub-normalization flag of the block diagonal is a persistent ancilla
        return be.Identity(dim=2) | be.Scale(0.5, be.Identity(dim=2))

    def test_add_shares_its_expansion(self):
        node = be.Increment(2) + be.QFT(2)
        assert node.circuit() is node.expansion.circuit()

    def test_pseudoinverse_shares_its_expansion(self):
        node = be.Pseudoinverse(self.flagged(), condition=2.0, tolerance=0.05)
        assert node.circuit() is node.expansion.circuit()
        assert node.circuit() is node.expansion.a.circuit()

    def test_positive_scale_shares_its_operand(self):
        x = self.flagged()
        assert be.Scale(2.0, x).circuit() is x.circuit()

    def test_complex_scale_appends_its_phase(self):
        x = self.flagged()
        circ = be.Scale(-1j, x).circuit()
        assert circ.gates[:-1] == x.circuit().gates
        assert circ.gates[-1].kind == "GlobalPhase"
        assert circ.ancilla_qubits == x.circuit().ancilla_qubits

    def test_persistent_ancillas_pass_through(self):
        x = self.flagged()
        assert x.persistent_ancillas == 1
        assert x.adjoint().persistent_ancillas == 1
        assert be.Scale(1j, x).persistent_ancillas == 1
        node = x + x
        assert node.persistent_ancillas == node.expansion.persistent_ancillas


class TestSlicing:
    def test_numpy_slice_oracle(self):
        rng = np.random.default_rng(17)
        base = be.QFT(2) + 0.5 * be.Increment(2)
        mat = base.toarray()
        for rows, cols in [(slice(None, 3), slice(None)),
                           (slice(None), slice(1, 4)),
                           (slice(None, None, 2), slice(None, 3)),
                           (slice(3, None, -1), slice(None)),
                           (slice(None, -1), slice(None, -1))]:
            node = base[rows, cols]
            assert np.max(np.abs(node.toarray() - mat[rows, cols])) < 1e-10, (rows, cols)
            assert node.verify(1e-9).passed

    def test_vector_slice(self):
        v = np.arange(1, 9, dtype=float)
        node = be.ConstantVector(v)[:-1]
        assert np.max(np.abs(node.toarray().ravel() - v[:-1])) < 1e-12

    def test_only_slices_allowed(self):
        with pytest.raises(TypeError):
            be.Increment(2)[1, :]

    def test_empty_slice_rejected(self):
        with pytest.raises(ValueError):
            be.Increment(2)[2:2, :]


class TestAlgebraProperties:
    def test_gamma_homomorphisms(self):
        _, composites = build_corpus(seed=21, primitives=6, composites=14)
        from blockenc.composites import Add, Adjoint, BlockDiagonal, Scale, Tensor
        for node, mat in composites:
            if isinstance(node, Product):
                assert node.normalization == node.a.normalization * node.b.normalization
            elif isinstance(node, Tensor):
                assert node.normalization == node.a.normalization * node.b.normalization
            elif isinstance(node, Add):
                assert node.normalization == node.a.normalization + node.b.normalization
            elif isinstance(node, BlockDiagonal):
                assert node.normalization == max(node.a.normalization, node.b.normalization)
            elif isinstance(node, Scale):
                assert node.normalization == abs(node.factor) * node.a.normalization
            elif isinstance(node, Adjoint):
                assert node.normalization == node.a.normalization
            assert node.normalization >= np.linalg.norm(mat, 2) - 1e-9

    def test_matrix_homomorphisms_and_verify(self):
        _, composites = build_corpus(seed=22, primitives=6, composites=14)
        for node, mat in composites:
            assert np.max(np.abs(node.toarray() - mat)) < 1e-10
            assert node.verify(1e-9).passed

    def test_eta_invariant_under_scaling(self):
        node = be.Identity(dim=2) + pauli_x_node()
        eta = node.info_efficiency()
        assert abs((0.7 * node).info_efficiency() - eta) < 1e-12
        assert abs(((-2j) * node).info_efficiency() - eta) < 1e-12

    def test_product_associativity_at_matrix_level(self):
        a, b, c = be.QFT(2), be.Increment(2), be.ConstantIntegerAddition(2, 3)
        left = ((a @ b) @ c).toarray()
        right = (a @ (b @ c)).toarray()
        assert np.max(np.abs(left - right)) < 1e-9
