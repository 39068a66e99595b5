import math

import numpy as np
import pytest

import blockenc as be
from blockenc.qsvt import (
    PhaseSolverError,
    SingularValueTransform,
    TargetPolynomial,
    _cheb_series,
    realized_poly,
    solve_phases,
)


def direct_qsp_oracle(phases, xv):
    """Independent 2x2 product for the scalar phase model."""
    m = np.diag([np.exp(1j * phases[0]), np.exp(-1j * phases[0])])
    c = math.sqrt(max(0.0, 1 - xv * xv))
    w = np.array([[xv, 1j * c], [1j * c, xv]])
    for p in phases[1:]:
        m = m @ w @ np.diag([np.exp(1j * p), np.exp(-1j * p)])
    return m[0, 0].real


def bounded_random_target(rng, degree, scale=0.8):
    coefs = rng.standard_normal(degree + 1)
    coefs[(1 - degree % 2)::2] = 0
    xs = np.linspace(-1, 1, 2001)
    sup = np.max(np.abs(np.polynomial.chebyshev.chebval(xs, coefs)))
    return TargetPolynomial.chebyshev(coefs * scale / sup)


def random_dense_block(rng, n_terms=3):
    """A generic 4x4 encoded matrix as a weighted sum of 2-qubit permutations."""
    node = None
    for _ in range(n_terms):
        c = complex(rng.standard_normal(), 0.0)
        table = [int(t) for t in rng.permutation(4)]
        term = c * be.Permutation(table)
        node = term if node is None else node + term
    return node


class TestRealizedPoly:
    def test_zero_phases_are_chebyshev(self):
        xs = np.linspace(-1, 1, 200)
        for d in range(11):
            got = realized_poly([0.0] * (d + 1), xs)
            assert np.max(np.abs(got - np.cos(d * np.arccos(xs)))) <= 1e-12

    def test_degree_zero_constant_one(self):
        assert realized_poly([0.0], 0.37) == pytest.approx(1.0, abs=1e-15)

    def test_matches_direct_product_oracle(self):
        rng = np.random.default_rng(31)
        phases = rng.uniform(-np.pi, np.pi, 7)
        for xv in rng.uniform(-1, 1, 100):
            assert abs(realized_poly(phases, xv) - direct_qsp_oracle(phases, xv)) < 1e-12

    def test_domain_check(self):
        with pytest.raises(ValueError):
            realized_poly([0.0, 0.0], 1.5)


class TestTargetPolynomial:
    def test_parity_detection_and_violation(self):
        t = TargetPolynomial.chebyshev([0.0, 0.5, 0.0, 0.3])
        assert t.parity == "odd" and t.degree == 3
        with pytest.raises(ValueError):
            TargetPolynomial.chebyshev([0.2, 0.5, 0.0, 0.3])

    def test_unit_bound_enforced(self):
        with pytest.raises(ValueError):
            TargetPolynomial.chebyshev([0.0, 1.7])

    def test_trailing_zeros_trimmed(self):
        t = TargetPolynomial.chebyshev([0.3, 0.0, 0.2, 0.0, 0.0])
        assert t.degree == 2 and t.parity == "even"


class TestSolvePhases:
    def test_pure_chebyshev_t3(self):
        pv = solve_phases(TargetPolynomial.chebyshev([0, 0, 0, 1.0]))
        assert np.max(np.abs(np.asarray(pv.phases))) < 1e-12
        assert pv.residual <= 1e-10

    def test_linear_target(self):
        pv = solve_phases(TargetPolynomial.chebyshev([0, 1.0]))
        assert pv.degree == 1
        assert pv.residual <= 1e-12

    def test_scaled_t3_sampled(self):
        pv = solve_phases(TargetPolynomial.chebyshev([0, 0, 0, 0.9]))
        xs = np.linspace(-1, 1, 50)
        assert np.max(np.abs(realized_poly(pv, xs) - 0.9 * np.cos(3 * np.arccos(xs)))) < 1e-7

    def test_random_targets_up_to_degree_30(self):
        rng = np.random.default_rng(32)
        for degree in (2, 5, 9, 14, 21, 30):
            t = bounded_random_target(rng, degree)
            pv = solve_phases(t, 1e-8)
            assert pv.residual <= 1e-6
            xs = np.linspace(-1, 1, 301)
            assert np.max(np.abs(realized_poly(pv, xs) - t(xs))) <= 1e-6

    def test_realized_stays_bounded_and_has_parity(self):
        rng = np.random.default_rng(33)
        t = bounded_random_target(rng, 7)
        pv = solve_phases(t)
        xs = np.linspace(-1, 1, 501)
        vals = realized_poly(pv, xs)
        assert np.max(np.abs(vals)) <= 1 + 1e-8
        assert np.max(np.abs(vals + vals[::-1])) < 1e-6  # odd parity

    def test_margin_precondition(self):
        with pytest.raises(ValueError):
            solve_phases(TargetPolynomial.chebyshev([0, 0.6, 0, 0.39995]))

    def test_budget_exhaustion_reports_residual(self):
        rng = np.random.default_rng(34)
        t = bounded_random_target(rng, 21)
        with pytest.raises(PhaseSolverError) as err:
            solve_phases(t, tol=1e-14, max_iterations=1)
        assert err.value.residual is not None and err.value.residual > 1e-14

    def test_deterministic(self):
        rng = np.random.default_rng(35)
        t = bounded_random_target(rng, 9)
        assert solve_phases(t).phases == solve_phases(t).phases

    def test_cache_returns_the_same_result_and_is_bounded(self):
        rng = np.random.default_rng(36)
        t = bounded_random_target(rng, 9)
        hits = solve_phases.cache_info().hits
        assert solve_phases(t) is solve_phases(t)
        assert solve_phases.cache_info().hits == hits + 1
        for amp in np.linspace(0.1, 0.9, 100):
            solve_phases(TargetPolynomial.chebyshev([0, 0, 0, amp]))
        info = solve_phases.cache_info()
        assert info.maxsize == 64 and info.currsize == 64


class TestSingularValueTransformNode:
    def test_linear_target_reproduces_block(self):
        a = be.Identity(dim=2) + be.Permutation([1, 0])  # gamma 2
        node = SingularValueTransform(a, TargetPolynomial.chebyshev([0, 1.0]))
        want = a.toarray() / a.normalization
        got = node.toarray() / node.normalization * node.normalization  # matrix itself
        assert np.max(np.abs(node.toarray() - want)) < 1e-9
        assert got.shape == want.shape

    def test_even_target_on_unitary_block(self):
        a = be.Increment(2)
        node = SingularValueTransform(a, TargetPolynomial.chebyshev([0, 0, 0.8]))
        # all singular values are 1, so the transform is 0.8*T_2(1)*I = 0.8*I
        assert np.max(np.abs(node.toarray() - 0.8 * np.eye(4))) < 1e-8
        assert node.subspace_in == node.subspace_out

    def test_plain_t2_gives_identity_pattern(self):
        a = be.Increment(2)
        node = SingularValueTransform(a, TargetPolynomial.chebyshev([0, 0, 1.0]))
        assert np.max(np.abs(node.toarray() - np.eye(4))) < 1e-8
        assert node.verify(10 * max(node.phase_residual, 1e-12)).passed

    def test_circuit_matches_svd_path_on_random_blocks(self):
        rng = np.random.default_rng(36)
        for parity_coefs in ([0, 0.5 * 0.6, 0, -0.5 * 0.8], [0.4, 0, 0.3]):
            a = random_dense_block(rng)
            t = TargetPolynomial.chebyshev(parity_coefs)
            node = SingularValueTransform(a, t)
            tol = 10 * max(node.phase_residual, 1e-13)
            rep = node.verify(tol)
            assert rep.passed, rep

    def test_rectangular_block(self):
        v = np.array([0.6, 0.0, 0.8, 0.0])
        a = be.ConstantVector(v)
        node = SingularValueTransform(a, TargetPolynomial.chebyshev([0, 1.0]))
        assert np.max(np.abs(node.toarray().ravel() - v)) < 1e-9
        assert node.verify(10 * max(node.phase_residual, 1e-12)).passed

    def test_svd_oracle_cross_check(self):
        rng = np.random.default_rng(37)
        a = random_dense_block(rng)
        t = TargetPolynomial.chebyshev([0, 0.2, 0, 0.5 * 0.6])
        node = SingularValueTransform(a, t)
        block = a.toarray() / a.normalization
        u, s, vh = np.linalg.svd(block)
        want = (u[:, : len(s)] * t(s)) @ vh[: len(s), :]
        assert np.max(np.abs(node.toarray() - want)) < 1e-12


class TestChebyshevSeriesHelper:
    def test_matches_numpy_interpolation(self):
        fn = lambda x: np.exp(x) * np.sin(3 * x)
        mine = _cheb_series(fn, 64)
        ref = np.polynomial.chebyshev.chebinterpolate(fn, 64)
        assert np.max(np.abs(mine - ref)) < 1e-12


class TestPseudoinverse:
    def test_identity(self):
        node = be.Pseudoinverse(be.Identity(dim=2), condition=1.0, tolerance=0.01)
        assert np.max(np.abs(node.toarray() - np.eye(2))) < 0.01

    def test_diagonal_block(self):
        a = be.Identity(dim=1) | be.Scale(0.5, be.Identity(dim=1))
        node = be.Pseudoinverse(a, condition=2.0, tolerance=0.01)
        want = np.diag([1.0, 2.0])
        rel = np.linalg.norm(node.toarray() - want, 2) / np.linalg.norm(want, 2)
        assert rel <= 0.01
        assert abs(node.normalization - 2 / node.delta) < 1e-9

    def test_moore_penrose_identities(self):
        a = be.Identity(dim=1) | be.Scale(0.5, be.Identity(dim=1))
        eps = 0.01
        node = be.Pseudoinverse(a, condition=2.0, tolerance=eps)
        am = a.toarray()
        xm = node.toarray()
        assert np.linalg.norm(am @ xm @ am - am, 2) <= 3 * eps * np.linalg.norm(am, 2)
        assert np.linalg.norm(xm @ am @ xm - xm, 2) <= 3 * eps * np.linalg.norm(xm, 2)

    def test_non_hermitian_block(self):
        a = 0.6 * be.Increment(2) + 0.3 * be.Identity(dim=4)
        eps = 0.02
        node = be.Pseudoinverse(a, condition=3.0, tolerance=eps)
        am = a.toarray()
        want = np.linalg.inv(am)
        rel = np.linalg.norm(node.toarray() - want, 2) / np.linalg.norm(want, 2)
        assert rel <= eps

    def test_rectangular_block(self):
        v = np.array([0.8, 0.0, 0.6, 0.0])
        a = be.ConstantVector(v)   # 4x1 column, pseudoinverse is 1x4
        node = be.Pseudoinverse(a, condition=1.0, tolerance=0.02)
        want = np.linalg.pinv(v[:, None])
        assert node.toarray().shape == (1, 4)
        assert np.max(np.abs(node.toarray() - want)) <= 0.02

    def test_parameter_validation(self):
        a = be.Identity(dim=2)
        with pytest.raises(ValueError):
            be.Pseudoinverse(a, condition=0.5, tolerance=0.01)
        with pytest.raises(ValueError):
            be.Pseudoinverse(a, condition=2.0, tolerance=1.5)

    def test_delta_override(self):
        a = be.Identity(dim=2)
        node = be.Pseudoinverse(a, condition=1.0, tolerance=0.05, delta=1.0)
        assert node.delta == 1.0
        assert np.max(np.abs(node.toarray() - np.eye(2))) < 0.05

    def test_budget_failure_needs_delta(self):
        old = be.get_budget()
        try:
            be.set_budget(be.Budget(max_amplitudes=1 << 20, max_dim=2))
            with pytest.raises(ValueError, match="delta"):
                be.Pseudoinverse(be.Increment(2), condition=2.0, tolerance=0.1)
        finally:
            be.set_budget(old)
