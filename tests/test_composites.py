import math

import numpy as np
import pytest

import blockenc as be
from blockenc.circuits import Gate, flatten, ry, t_count_estimate
from blockenc.composites import Product, ZeroMatrix
from blockenc.nodes import Layout, ProxyNode
from blockenc.qsvt import SingularValueTransform, TargetPolynomial

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


def reference_block_diagonal_parts(self):
    """`BlockDiagonal._parts` before a ran on selector |0>: a was controlled
    on selector |1> between two uncontrolled X gates on the selector."""
    a, b = self.a, self.b
    selector = max(a.main_qubits, b.main_qubits)
    m = selector + 1
    ga, gb = a.normalization, b.normalization
    subnorm = ga != gb
    lay = Layout(m, int(subnorm), self.children)

    gates = []
    if subnorm:
        ratio = min(ga, gb) / max(ga, gb)
        polarity = 0 if ga < gb else 1
        gates.append(ry(2 * math.acos(ratio), m, [(selector, polarity)]))

    gates += lay.embed(1, controls=((selector, 1),))
    a_gates = lay.embed(0, controls=((selector, 1),))
    if a_gates:
        gates.append(Gate("X", (selector,)))
        gates += a_gates
        gates.append(Gate("X", (selector,)))
    return gates, lay.persistent, lay.child_scratch


def block_diagonals(node):
    """Every BlockDiagonal of the DAG below `node`, expansions included."""
    seen, stack = set(), [node]
    while stack:
        n = stack.pop()
        if id(n) in seen:
            continue
        seen.add(id(n))
        if isinstance(n, be.BlockDiagonal):
            yield n
        stack.extend(n.children)
        if isinstance(n, ProxyNode):
            stack.append(n.expansion)


def corpus_nodes(seed):
    pool, made = build_corpus(seed)
    return [node for node, _ in pool + made]


class TestBlockDiagonalSelector:
    """a runs on selector |0> with no X on the selector; the circuit path is
    the one of the X-sandwiched reference, bit for bit."""

    CASES = {
        "subnormalized": lambda: be.Increment(2) | 0.5 * be.QFT(2),
        "subnormalized_b": lambda: 3 * be.Permutation([2, 0, 3, 1]) | be.Increment(2)[:3, :3],
        "a_without_gates": lambda: be.Identity(dim=4) | be.Increment(2),
        "b_without_gates": lambda: be.Increment(2) | be.Identity(dim=3),
        "nested": lambda: (be.Increment(1) | be.QFT(1)) | (be.Increment(2) | be.Identity(dim=4)),
        "svt_child": lambda: (SingularValueTransform(
            be.Increment(2)[:3, :3], TargetPolynomial.chebyshev([0, 0.4, 0, 0.3]))
            | be.Increment(2)),
        "add": lambda: be.Increment(2)[:3, :3] + 2j * be.QFT(2)[1:, :3],
    }

    @staticmethod
    def pairs(build, monkeypatch):
        """(node, reference node) pairs from two fresh builds of the list `build()`."""
        nodes = build()
        with monkeypatch.context() as m:
            m.setattr(be.BlockDiagonal, "_parts", reference_block_diagonal_parts)
            refs = build()
            for ref in refs:
                ref.circuit()  # lower every node while the reference is in place
        return list(zip(nodes, refs, strict=True))

    @staticmethod
    def assert_no_selector_flip(node):
        for bd in block_diagonals(node):
            selector = max(bd.a.main_qubits, bd.b.main_qubits)
            assert not any(g.kind == "X" and g.targets == (selector,) and not g.controls
                           for g in flatten(bd._structure[0]))

    @staticmethod
    def assert_no_dearer(node, ref):
        circ, rc = node.circuit(), ref.circuit()
        assert len(circ.gates) <= len(rc.gates) and circ.n_qubits == rc.n_qubits
        t, rt = t_count_estimate(circ), t_count_estimate(rc)
        assert t["t"] <= rt["t"] and t["scratch"] <= rt["scratch"]

    @pytest.mark.parametrize("case", CASES)
    def test_hand_built(self, case, monkeypatch):
        (node, ref), = self.pairs(lambda: [self.CASES[case]()], monkeypatch)
        assert next(block_diagonals(node), None) is not None
        self.assert_no_selector_flip(node)
        self.assert_no_dearer(node, ref)
        eye = np.eye(node.dim_in, dtype=complex)
        (got, bounded), (want, ref_bounded) = node._simulate(eye), ref._simulate(eye)
        assert got.tobytes() == want.tobytes() and bounded == ref_bounded
        assert node.verify(1e-8).passed  # the SVT's phases are solved to 1e-8
        assert node.circuit().n_qubits <= 8
        assert np.max(np.abs(node.circuit().unitary() - ref.circuit().unitary())) <= 1e-12

    @pytest.mark.parametrize("first", range(0, 300, 50))
    def test_corpus(self, first, monkeypatch):
        for seed in range(first, first + 50):
            for node, ref in self.pairs(lambda: corpus_nodes(seed), monkeypatch):
                self.assert_no_selector_flip(node)
                self.assert_no_dearer(node, ref)


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


class TestRegisterLayout:
    """Exact placement: main qubits, own flags, each child's flags in child
    order (a before b), then scratch shared by the children.  Verify and gate
    counts cannot tell swapped flag blocks apart; these gate tuples can."""

    @staticmethod
    def checked():
        # 2 main qubits; flag on local qubit 2, membership scratch on local 3
        return Product(be.Identity(dim=3), be.Identity(dim=3), exact=False)

    @staticmethod
    def layout(node):
        circ = node.circuit()
        return ((circ.main_qubits, circ.ancilla_qubits, node.persistent_ancillas),
                [(g.kind, g.targets, g.controls) for g in circ.gates])

    @staticmethod
    def member(flag, scratch, extra=()):
        """The checked node's gates with its flag and scratch relabelled."""
        return [("X", (flag,), extra),
                ("X", (scratch,), ((1, 0),) + extra),
                ("X", (scratch,), ((1, 1), (0, 0)) + extra),
                ("X", (flag,), ((scratch, 1),) + extra),
                ("X", (scratch,), ((1, 1), (0, 0)) + extra),
                ("X", (scratch,), ((1, 0),) + extra)]

    def test_checked_product(self):
        # own check flag 2, a's flag 3, b's flag 4, shared scratch 5
        sizes, gates = self.layout(Product(self.checked(), ZeroMatrix(3, 3)))
        assert sizes == (2, 4, 3)
        assert gates == [("X", (4,), ())] + self.member(2, 5) + self.member(3, 5)

    def test_subnormalized_block_diagonal(self):
        # selector 2, own sub-normalization flag 3, a's flag 4, b's flag 5, scratch 6
        sizes, gates = self.layout(be.BlockDiagonal(self.checked(), 2 * ZeroMatrix(3, 3)))
        assert sizes == (3, 4, 3)
        assert gates == ([("RY", (3,), ((2, 0),)), ("X", (5,), ((2, 1),))]
                         + self.member(4, 6, ((2, 0),)))

    def test_tensor(self):
        # b on main 0-1, a on main 2-3; a's flag 4, b's flag 5, scratch 6
        sizes, gates = self.layout(be.Tensor(self.checked(), ZeroMatrix(3, 3)))
        assert sizes == (4, 3, 2)
        assert gates == [("X", (5,), ()), ("X", (4,), ()),
                         ("X", (6,), ((3, 0),)), ("X", (6,), ((3, 1), (2, 0))),
                         ("X", (4,), ((6, 1),)), ("X", (6,), ((3, 1), (2, 0))),
                         ("X", (6,), ((3, 0),))]

    def test_singular_value_transform(self):
        # own LCU flag 2, child's flag 3, rotation qubit 4 (which is also
        # where the child's scratch starts), membership scratch 5
        node = be.SingularValueTransform(self.checked(), be.TargetPolynomial.chebyshev([0, 0.5]))
        sizes, gates = self.layout(node)
        assert sizes == (2, 4, 2)
        assert gates[:5] == [("H", (2,), ()), ("X", (4,), ()), ("X", (5,), ((1, 0),)),
                             ("X", (5,), ((1, 1), (0, 0))), ("X", (4,), ((3, 0), (5, 1)))]
        assert gates[16:22] == self.member(3, 4)

    def test_even_transform_over_rectangular_child(self):
        # 2x4 child: its input and output sectors differ, so the phase steps
        # alternate two marks.  LCU flag 2, child's flag 3, rotation qubit 4;
        # only the input mark needs membership scratch, on 5
        node = be.SingularValueTransform(self.checked()[:2, :],
                                         be.TargetPolynomial.chebyshev([0.2, 0, 0.3, 0, 0.2]))
        sizes, gates = self.layout(node)
        assert sizes == (2, 4, 2)
        mark_in = [("X", (4,), ()), ("X", (5,), ((1, 0),)), ("X", (5,), ((1, 1), (0, 0))),
                   ("X", (4,), ((3, 0), (5, 1))), ("X", (5,), ((1, 1), (0, 0))),
                   ("X", (5,), ((1, 0),))]
        mark_out = [("X", (4,), ()), ("X", (4,), ((3, 0), (1, 0)))]
        rotate = [("X", (4,), ((2, 1),)), ("RZ", (4,), ()), ("X", (4,), ((2, 1),))]
        step_in = mark_in + rotate + mark_in[::-1]
        step_out = mark_out + rotate + mark_out[::-1]
        fwd = self.member(3, 4)
        assert gates == ([("H", (2,), ())]
                         + step_in + fwd + step_out + fwd[::-1]
                         + step_in + fwd + step_out + fwd[::-1]
                         + step_in + [("H", (2,), ())])
        assert len(gates) == 85


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

    def test_full_and_prefix_slices_need_no_index_list(self):
        dim = 2 ** 40  # a list of its indices would not fit in memory
        node = be.Increment(bits=40)
        assert node[:, :] is node
        inner = node[:-1, :-1]
        assert (inner.dim_out, inner.dim_in) == (dim - 1, dim - 1)

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
