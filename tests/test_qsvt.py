import hashlib
import math
import os
import subprocess
import sys
import tracemalloc
from itertools import chain

import numpy as np
import pytest

import blockenc as be
from blockenc import circuits, graphs, qsvt
from blockenc.circuits import Circuit, Gate, PhaseSequence, _FusedTurn, _Loop, _Turn, flatten
from blockenc.nodes import ProxyNode
from blockenc.qsvt import (
    _LEAF,
    PhaseSolverError,
    SingularValueTransform,
    TargetPolynomial,
    _chebyshev_at_nodes,
    _inverse_target,
    _node_top_row,
    _nodes,
    _row_at_nodes,
    _symmetric_compose,
    _symmetric_full,
    _top_row,
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


def random_coefficients(rng, degree, scale=0.8):
    """Random coefficients of one parity, scaled to a 2,001-point sup of
    `scale`: the true sup can be above it."""
    coefs = rng.standard_normal(degree + 1)
    coefs[(1 - degree % 2)::2] = 0
    xs = np.linspace(-1, 1, 2001)
    sup = np.max(np.abs(np.polynomial.chebyshev.chebval(xs, coefs)))
    return coefs * scale / sup


def bounded_random_target(rng, degree, scale=0.8):
    return TargetPolynomial.chebyshev(random_coefficients(rng, degree, scale))


def unchecked(c):
    """The target `TargetPolynomial.chebyshev` builds from c, without its
    unit check."""
    c = np.asarray(c, dtype=float)
    return TargetPolynomial(tuple(c), "odd" if (len(c) - 1) % 2 else "even")


def fine_sup(c, m=1 << 22):
    """(low, high) around max |p| over [-1, 1], from the largest |p| at the
    m + 1 Chebyshev extrema by one real FFT: low less a slack of
    1e-10 sum |c|, over twice the radix-2 FFT error bound at m = 2^22, and
    high that value times sec(d pi / 2m) (Ehlich & Zeller) plus the slack."""
    c = np.asarray(c, dtype=float)
    d = len(c) - 1
    top = float(np.max(np.abs(np.fft.rfft(c, 2 * m).real)))
    slack = 1e-10 * float(np.sum(np.abs(c)))
    return top - slack, top / math.cos(d * math.pi / (2 * m)) + slack


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
        long_phases = np.random.default_rng(38).uniform(-np.pi, np.pi, 3001)
        xs = np.random.default_rng(39).uniform(-1, 1, 10)
        want = [direct_qsp_oracle(long_phases, xv) for xv in xs]
        assert np.max(np.abs(realized_poly(long_phases, xs) - want)) < 1e-12

    def test_domain_check(self):
        with pytest.raises(ValueError):
            realized_poly([0.0, 0.0], 1.5)


class TestTargetPolynomial:
    def test_parity_detection_and_violation(self):
        t = TargetPolynomial.chebyshev([0.0, 0.5, 0.0, 0.3])
        assert t.parity == "odd" and t.degree == 3
        with pytest.raises(ValueError):
            TargetPolynomial.chebyshev([0.2, 0.5, 0.0, 0.3])

    def test_non_finite_coefficients_rejected(self):
        for c in ([0.0, math.nan], [0.0, math.inf, 0.0, 0.1], [-math.inf]):
            with pytest.raises(ValueError, match="not finite"):
                TargetPolynomial.chebyshev(c)

    def test_unit_bound_enforced(self):
        with pytest.raises(ValueError):
            TargetPolynomial.chebyshev([0.0, 1.7])

    def test_empty_coefficients_rejected(self):
        for parity in (None, "even", "odd"):
            with pytest.raises(ValueError, match="at least one coefficient"):
                TargetPolynomial.chebyshev([], parity)

    def test_sup_values_come_from_one_fft(self, monkeypatch):
        calls, lengths = [], []
        call = TargetPolynomial.__call__
        monkeypatch.setattr(TargetPolynomial, "__call__",
                            lambda self, x: calls.append(1) or call(self, x))
        rfft = np.fft.rfft
        monkeypatch.setattr(np.fft, "rfft", lambda c, n: lengths.append(n) or rfft(c, n))
        # sum |c| = 0.8 decides the unit check and the rescale without an FFT
        t = TargetPolynomial.chebyshev([0.0, 0.5, 0.0, 0.3])
        assert SingularValueTransform(be.Increment(2), t)._rescale == 1.0
        assert lengths == []
        want = float(np.max(np.abs(rfft(t.coefficients, 32).real)))  # M = 16 extrema
        assert t.sup_norm() == t.sup_norm() == want <= t.sup_bound
        assert lengths == [32]
        # sum |c| = 1.1 needs the extrema: one FFT serves both checks and both values
        lengths.clear()
        t = TargetPolynomial.chebyshev([0.0, 0.6, 0.0, -0.5])
        assert SingularValueTransform(be.Increment(2), t)._rescale == 1.0
        assert t.sup_norm() < t.sup_bound < 1 - qsvt._MARGIN
        assert lengths == [32]
        assert len(calls) == 0
        same = TargetPolynomial(t.coefficients, t.parity)
        assert same == t and hash(same) == hash(t)

    def test_sup_bound_is_a_certified_upper_bound(self):
        # max |p| over the 400,001 points cos(linspace(0, pi)), by a length
        # 800,000 real FFT spot-checked against chebval (up to the rounding
        # of x, times slopes up to d^2); the bound lies between it (and the
        # sampled sups) and sec(pi/8) times it plus a slack under 1e-14 (d+1)^2 L
        rng = np.random.default_rng(42)
        degrees = [int(d) for d in rng.integers(0, 301, 40)] + [0, 1, 2, 3, 255, 256, 257, 300]
        targets = [unchecked(random_coefficients(rng, d, 1.0)) for d in degrees + [1001, 2048, 4000]]
        targets += [TargetPolynomial.chebyshev([0.0] * d + [1.0])
                    for d in (0, 1, 2, 3, 64, 256, 300, 4000)]
        # one sign throughout, peaks at x = 1 and -1, where Clenshaw's
        # partial sums are largest and the extrema and the samples meet
        for d in (301, 2048, 4001):
            same = np.zeros(d + 1)
            same[d % 2::2] = 1 / (d // 2 + 1)
            targets.append(TargetPolynomial.chebyshev(same))
        targets += [_inverse_target(*args) for args, _ in TestInverseTarget.FITS]
        xs = np.cos(np.linspace(0, np.pi, 400001))
        u = 2.0 ** -53
        for t in targets:
            c = np.asarray(t.coefficients)
            fine = np.fft.rfft(c, 800000).real
            l1 = float(np.sum(np.abs(c)))
            spot = np.polynomial.chebyshev.chebval(xs[::997], c)
            assert np.max(np.abs(fine[::997] - spot)) <= 1e-15 * (t.degree + 1) ** 2 * l1
            # the two error terms of the slack, against exact sums at the
            # extrema x = 1 and -1 (k = 0 and M): Clenshaw's and the FFT's
            m = 1 << (4 * t.degree - 1).bit_length() if t.degree else 1
            extrema = np.fft.rfft(c, 2 * m).real
            for x, k, signs in ((1.0, 0, 1.0), (-1.0, m, (-1.0) ** np.arange(len(c)))):
                exact = math.fsum(c * signs)
                err = abs(float(np.polynomial.chebyshev.chebval(x, c)) - exact)
                assert err <= 4 * (t.degree + 1) ** 2 * u * l1, t.degree
                err = abs(extrema[k] - exact)
                assert err <= 7 * math.log2(2 * m) * math.sqrt(2 * m) * u * l1, t.degree
            fine_max = float(np.max(np.abs(fine)))
            sample_4001 = float(np.max(np.abs(
                np.polynomial.chebyshev.chebval(np.linspace(-1, 1, 4001), c))))
            assert max(fine_max, t.sup_norm(), sample_4001) <= t.sup_bound, t.degree
            # and sup_norm is a value of p at some extrema, up to the FFT's rounding
            assert t.sup_norm() <= fine_max + 1e-14 * (t.degree + 1) ** 2 * l1, t.degree
            assert (t.sup_bound <= fine_max / math.cos(math.pi / 8)
                    + 1e-14 * (t.degree + 1) ** 2 * l1), t.degree

    def test_near_the_margin_the_certificate_decides(self):
        # targets whose first bound cannot decide: 2,001-point sups from 0.93
        # to just above 1, and the two fits whose bound is above the margin.
        # Wherever the sup's interval at 2^22 + 1 extrema lies on one side of
        # a level, the unit check, the transform's rescale and the solver's
        # margin check decide that side
        bases = [random_coefficients(np.random.default_rng(seed), 121, 1.0)
                 for seed in range(38, 46)]
        bases += [np.asarray(_inverse_target(*args).coefficients)
                  for args, _ in TestInverseTarget.FITS[-2:]]
        reference = [fine_sup(c) for c in bases]
        cases = [(i, s) for i in range(8) for s in (0.93, 0.998, 0.9995, 1.0, 1 + 2e-9)]
        cases += [(8, 1.0), (9, 1.0)]
        unit, margin = 1 + 1e-9, 1 - qsvt._MARGIN
        decided = refined = 0
        for i, s in cases:
            c = bases[i] * s
            low, high = (s * v for v in reference[i])
            t = unchecked(c)
            if low > unit:
                with pytest.raises(ValueError, match="unit bound: sup >= "):
                    TargetPolynomial.chebyshev(c)
            elif high <= unit:
                assert TargetPolynomial.chebyshev(c) == t
            if low <= margin < high or low <= unit < high:
                continue  # the reference cannot tell
            decided += 1
            refined += t.sup_norm() <= margin < t.sup_bound
            above = low > margin
            node = SingularValueTransform(be.Increment(2), t)
            assert node._rescale == ((1 - qsvt._MARGIN) / t.sup_bound if above else 1.0)
            # no iteration: the margin check raises ValueError, else the residual is too big
            with pytest.raises(ValueError if above else PhaseSolverError):
                solve_phases.__wrapped__(t, max_iterations=0)
            if above:  # the rescaled target passes the margin check
                with pytest.raises(PhaseSolverError):
                    solve_phases.__wrapped__(t.scaled(node._rescale), max_iterations=0)
        assert decided == len(cases)  # the reference tells at both levels
        assert refined >= 20  # the first FFT cannot decide these at the margin

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
        targets = [bounded_random_target(rng, degree) for degree in (2, 5, 9, 14, 21, 30)]
        # near-margin targets from their own rng, so the cases above stay the same
        near = np.random.default_rng(38)
        targets += [bounded_random_target(near, degree, 0.998) for degree in (51, 121)]
        for t in targets:
            pv = solve_phases(t, 1e-8)
            assert pv.residual <= 1e-8
            xs = np.linspace(-1, 1, 301)
            assert np.max(np.abs(realized_poly(pv, xs) - t(xs))) <= 1e-6

    def test_solver_memory_is_linear_in_the_degree(self):
        # O(d): a k x k Jacobian would take 1.5 MB at degree 879 (k = 440) and
        # 24 MB at degree 3519, the N=5 Laplace size
        for args, degree, limit in (((0.00961, 0.01, 2500), 879, 0.5 * 2**20),
                                    ((0.0024, 0.01, 20000), 3519, 2 * 2**20)):
            target = _inverse_target(*args)
            assert target.degree == degree
            tracemalloc.start()
            try:
                pv = solve_phases.__wrapped__(target)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert pv.residual <= 1e-8
            assert peak < limit, (degree, peak)

    def test_half_length_recurrence_matches_the_full_sequence(self):
        rng = np.random.default_rng(40)
        xs = np.concatenate([[-1.0, 0.0, 1.0], rng.uniform(-1, 1, 40)])
        for d in list(range(1, 10)) + [3000, 3001]:
            half = rng.uniform(-np.pi, np.pi, d // 2 + 1)
            full = np.empty(d + 1)
            full[: d // 2 + 1] = half
            full[d - d // 2:] = half[::-1]
            top = _symmetric_compose(*_top_row(full[: d // 2 + 1], xs), full, xs)
            for got, want in zip(top, _top_row(full, xs)):
                assert np.max(np.abs(got - want)) < 1e-13, d

    def test_first_step_is_the_closed_form_newton_step(self):
        rng = np.random.default_rng(41)
        for d in (7, 8):
            t = bounded_random_target(rng, d, 0.5)
            k = (d + 2) // 2
            xs = np.cos((2 * np.arange(1, k + 1) - 1) * np.pi / (4 * k))
            # Newton's first step from zero, with the Jacobian summed over all d + 1 phases
            full = _symmetric_full(np.zeros(k), d)
            big_a, big_b = _top_row(full, xs)
            j0 = np.zeros((k, k))
            for j in range(d + 1):
                a, b = _top_row(full[: j + 1], xs)
                j0[:, min(j, d - j)] -= ((abs(a) ** 2 - abs(b) ** 2) * big_a
                                         + 2 * a * b * big_b.conj()).imag
            step = -np.linalg.solve(j0, big_a.real - t(xs))
            # a tolerance the first step meets stops the solver right after it
            tol = 0.9 * float(np.max(np.abs(t(xs))))
            pv = solve_phases.__wrapped__(t, tol, max_iterations=1)
            assert np.max(np.abs(np.asarray(pv.phases) - _symmetric_full(step, d))) < 1e-12

    def test_degree_879_solve_needs_no_linear_solve(self, monkeypatch):
        # the zero-phase Jacobian is a DCT, so no step factors a k x k matrix
        target = _inverse_target(0.00961, 0.01, 2500)
        calls, passes = [], []
        solve = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", lambda *a: calls.append(1) or solve(*a))
        monkeypatch.setattr(qsvt, "_node_top_row",
                            lambda *a: passes.append(1) or _node_top_row(*a))
        pv = solve_phases.__wrapped__(target)
        assert pv.residual <= 1.41e-9
        assert len(calls) == 0
        assert len(passes) <= 12

    def test_failing_solve_stops_ten_passes_after_its_last_best(self, monkeypatch):
        # a feasible target and a tolerance below the rounding of any pass
        target = bounded_random_target(np.random.default_rng(24), 121, 0.9)
        coefficients = np.asarray(target.coefficients)
        errors = []

        def counted(full, k):
            # the target at the nodes as the solver evaluates it, so the best matches exactly
            top = _node_top_row(full, k)
            fx = _chebyshev_at_nodes(coefficients, k)
            errors.append(float(np.max(np.abs(top[0].real - fx))))
            return top

        monkeypatch.setattr(qsvt, "_node_top_row", counted)
        with pytest.raises(PhaseSolverError) as err:
            solve_phases.__wrapped__(target, 1e-20)
        best = err.value.residual
        assert best is not None and best > 1e-20
        assert min(errors) == best
        assert len(errors) == 51 and len(errors) - errors.index(best) - 1 == 10

    def test_degree_3519_solve_never_runs_the_pointwise_recurrence(self, monkeypatch):
        target = _inverse_target(0.0024, 0.01, 20000)
        calls = []
        monkeypatch.setattr(qsvt, "_top_row", lambda *a: calls.append(1) or _top_row(*a))
        pv = solve_phases.__wrapped__(target)
        assert pv.residual <= 1e-8
        assert len(calls) == 0

    def test_degree_13389_solve_converges_in_small_memory(self, monkeypatch):
        # the N=6 Laplace size
        target = _inverse_target(0.0006023, 0.01, 40000)
        assert target.degree == 13389
        passes = []
        monkeypatch.setattr(qsvt, "_node_top_row",
                            lambda *a: passes.append(1) or _node_top_row(*a))
        tracemalloc.start()
        try:
            pv = solve_phases.__wrapped__(target)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert pv.residual <= 1e-10
        assert len(passes) <= 12
        assert peak < 8 * 2**20, peak

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


class TestProductTree:
    """The solver's evaluator: steps padded with pi/2 pairs to a power-of-two
    count of `_LEAF`-step blocks, one merge per tree level, the last step of
    an odd count applied to the root, one FFT to the Chebyshev nodes."""

    @pytest.mark.parametrize("steps", sorted(
        set(range(5 * _LEAF + 1))  # every length up to five leaves
        # each power-of-two block count, one step short and one over
        | {_LEAF * 2 ** j + s for j in range(3, 8) for s in (-1, 0, 1)}
        # lengths far below the next power of two, odd and even
        | {7 * _LEAF, 11 * _LEAF + 5, 23 * _LEAF + 9}))
    def test_node_values_match_the_recurrence_on_every_tree_shape(self, steps):
        rng = np.random.default_rng(steps)
        for scale in (np.pi, 0.1):
            phases = rng.uniform(-scale, scale, steps + 1)
            for k in {(steps + 2) // 2, steps + 1}:  # at most 2k - 1 steps
                got = _row_at_nodes(phases, k)
                for g, w in zip(got, _top_row(phases, _nodes(k))):
                    assert np.max(np.abs(g - w)) < 1e-9, (steps, scale, k)
                assert np.max(np.abs(abs(got[0]) ** 2 + abs(got[1]) ** 2 - 1)) <= 1e-13

    def test_the_caches_of_the_tree_are_bounded(self):
        caches = (qsvt._merge_signs, qsvt._node_arrays, qsvt._node_twiddles)
        rng = np.random.default_rng(43)
        for degree in (101, 3001):
            solve_phases.__wrapped__(bounded_random_target(rng, degree, 0.5))
            for cache in caches:
                info = cache.cache_info()
                assert isinstance(info.maxsize, int), cache
                assert 0 < info.currsize <= info.maxsize, (cache, info)

    @pytest.mark.parametrize("d", [3000, 3001])
    def test_symmetric_sequence_at_the_nodes(self, d):
        rng = np.random.default_rng(d)
        k = (d + 2) // 2
        for scale in (np.pi, 0.1):
            full = _symmetric_full(rng.uniform(-scale, scale, k), d)
            got = _node_top_row(full, k)
            for g, w in zip(got, _top_row(full, _nodes(k))):
                assert np.max(np.abs(g - w)) < 1e-9, (d, scale)
            assert np.max(np.abs(abs(got[0]) ** 2 + abs(got[1]) ** 2 - 1)) <= 1e-13

    def test_chebyshev_series_at_the_nodes(self):
        rng = np.random.default_rng(42)
        for d, k in ((0, 1), (7, 4), (8, 5), (3001, 1501)):
            c = rng.standard_normal(d + 1)
            want = np.polynomial.chebyshev.chebval(_nodes(k), c)
            assert np.max(np.abs(_chebyshev_at_nodes(c, k) - want)) < 1e-12 * np.sum(np.abs(c))


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

    def test_a_target_rescaled_by_its_bound_solves(self):
        # a 2,001-point sup of 1: scaled by its sample, it read one ulp above
        # the margin and the solver refused it
        node = SingularValueTransform(be.Increment(2), TargetPolynomial.chebyshev(
            [0, 0.8765173794565629, 0, 0.12311377913146865]))
        assert node.normalization > 1
        assert node.verify(1e-8).passed

    def test_near_unit_targets_are_rescaled_within_the_margin(self):
        # odd targets of degree 3-59 with a 2,001-point sup of 0.9995-1: the
        # unit check rejects the 4 whose sup is above 1, and none of the
        # others stalls or fails the solver's margin check
        rng = np.random.default_rng(0)
        xs = np.linspace(-1, 1, 2001)
        rejected, stalls = [], 0
        for draw in range(200):
            d = 2 * int(rng.integers(1, 30)) + 1
            c = np.zeros(d + 1)
            j = np.arange(1, d + 1, 2)
            c[j] = rng.normal(size=len(j)) / j ** 2
            c *= rng.uniform(0.9995, 1) / np.max(np.abs(np.polynomial.chebyshev.chebval(xs, c)))
            try:
                target = TargetPolynomial.chebyshev(c)
            except ValueError as err:
                assert "unit bound: sup >= 1.000" in str(err)
                rejected.append(draw)
                continue
            try:
                SingularValueTransform(be.Increment(2), target).phase_vector
            except PhaseSolverError:
                stalls += 1
        assert rejected == [25, 35, 81, 178]
        assert stalls == 0

    def test_the_seed_5_battery_rejects_exactly_its_infeasible_targets(self):
        # 180 targets of 2,001-point sups 0.5-0.998, degrees 2-501, 3 of
        # each: the 6 whose sup is above 1 once stalled in the solver, and
        # the 2 whose sup is in (0.999, 1] are rescaled and solve
        rng = np.random.default_rng(5)
        rejected, built = [], []
        for sup in (0.5, 0.8, 0.95, 0.99, 0.998):
            for degree in (2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 255, 501):
                for _ in range(3):
                    c = random_coefficients(rng, degree, sup)
                    try:
                        built.append(TargetPolynomial.chebyshev(c))
                    except ValueError as err:
                        assert "unit bound: sup >= 1.0" in str(err)
                        rejected.append((sup, degree))
        assert rejected == [(0.95, 501), (0.99, 89), (0.99, 255), (0.998, 255),
                            (0.998, 501), (0.998, 501)]
        assert len(built) == 174
        rescaled = [node for node in (SingularValueTransform(be.Increment(2), t) for t in built)
                    if node._rescale < 1]
        assert [node.target.degree for node in rescaled] == [501, 255]
        assert all(node.phase_residual <= 1e-8 for node in rescaled)

    def test_the_budget_caps_the_refinement(self):
        # sup 0.9939: the first bound (1.033) cannot tell, and the M = 128
        # extrema that can are over this budget, so the target counts as
        # exceeding: the unit check rejects it and the transform rescales it
        c = (0.0, 0.72, 0.0, -0.6)
        assert TargetPolynomial.chebyshev(c).sup_bound > 1
        old = be.get_budget()
        try:
            be.set_budget(be.Budget(max_amplitudes=64))
            with pytest.raises(ValueError, match="cannot certify sup <= 1.000000001"):
                TargetPolynomial.chebyshev(c)
            target = TargetPolynomial(c, "odd")
            node = SingularValueTransform(be.Increment(2), target)
            assert node._rescale == (1 - qsvt._MARGIN) / target.sup_bound < 1
            with pytest.raises(ValueError, match="cannot certify sup <= 0.999"):
                solve_phases.__wrapped__(target)
        finally:
            be.set_budget(old)
        assert SingularValueTransform(be.Increment(2), TargetPolynomial(c, "odd"))._rescale == 1.0

    def test_a_rejection_names_the_lower_bound_that_proves_it(self):
        with pytest.raises(ValueError, match=r"unit bound: sup >= 1\.1$"):
            TargetPolynomial.chebyshev([0.0, 0.8, 0.0, 0.3])
        with pytest.raises(ValueError, match=r"\(sup >= 1\.1\); rescale the target first"):
            solve_phases.__wrapped__(TargetPolynomial((0.0, 0.8, 0.0, 0.3), "odd"))

    @pytest.mark.parametrize("table", [1 << 11, 1])
    def test_target_at_singular_values_is_clenshaws(self, monkeypatch, table):
        # baby-step/giant-step against `chebval`, at values in [0, 1], on
        # both parities and on the Laplace N=4 and N=5 inverse targets
        # (degrees 879 and 3,509), in chunks of the default power tables and
        # of the least ones (4 len(c) entries, 83 and 167 angles at N=4 and
        # N=5); 1e-13 is about 450 units of rounding at |p| <= 1
        monkeypatch.setattr(qsvt, "_TABLE", table)
        chunks = []
        powers = qsvt._powers
        monkeypatch.setattr(qsvt, "_powers", lambda x, n: chunks.append(len(x)) or powers(x, n))
        s = np.concatenate([np.random.default_rng(38).random(400), [0.0, 1.0]])
        for t in (TargetPolynomial.chebyshev([0, 0.2, 0, 0.5 * 0.6]),
                  TargetPolynomial.chebyshev([0.4, 0, 0.3]), laplace_solution(4)[0]._target,
                  _inverse_target(*TestInverseTarget.FITS[2][0])):
            chunks.clear()
            assert np.max(np.abs(qsvt._at_singular_values(t, s) - t(s))) <= 1e-13
            if table == 1 or t.degree > 3:
                assert len(chunks) > 2  # more than one chunk, two power tables each
            # a singular value past 1 by rounding is read at 1
            assert qsvt._at_singular_values(t, np.array([1 + 1e-15])) == qsvt._at_singular_values(
                t, np.array([1.0]))


def _cheb_series(fn, n: int) -> np.ndarray:
    """Chebyshev coefficients up to degree n from extrema samples (DCT-I)."""
    k = np.arange(n + 1)
    xs = np.cos(math.pi * k / n)
    vals = np.asarray(fn(xs), dtype=float)
    ext = np.concatenate([vals, vals[-2:0:-1]])
    f = np.fft.rfft(ext).real[: n + 1] / n
    f[0] /= 2
    f[n] /= 2
    return f


class TestChebyshevSeriesHelper:
    def test_matches_numpy_interpolation(self):
        fn = lambda x: np.exp(x) * np.sin(3 * x)
        mine = _cheb_series(fn, 64)
        ref = np.polynomial.chebyshev.chebinterpolate(fn, 64)
        assert np.max(np.abs(mine - ref)) < 1e-12


def largest_at_extrema(target):
    """Largest |p| at the M + 1 Chebyshev extrema cos(k pi / M), M the
    least power of two >= 4d, from one real FFT."""
    m = 1 << (4 * target.degree - 1).bit_length() if target.degree else 1
    return float(np.max(np.abs(np.fft.rfft(target.coefficients, 2 * m).real)))


def sampled_window_series(delta, eps, cap):
    """The window series delta (1 - (1 - x^2)^b) / (2x) by a DCT of 2^k >= 2 cap
    extrema samples, its even coefficients zeroed: the fit's coefficients
    before the closed form."""
    b = qsvt._window_exponent(delta, eps)

    def f(xs):
        with np.errstate(divide="ignore", invalid="ignore"):
            window = 1.0 - np.exp(b * np.log1p(-np.minimum(xs * xs, 1.0)))
        safe = np.where(np.abs(xs) < 1e-300, 1.0, xs)
        return np.where(np.abs(xs) < 1e-300, 0.0, 0.5 * delta * window / safe)

    coefs = _cheb_series(f, 1 << max(10, (2 * cap - 1).bit_length()))
    coefs[0::2] = 0.0
    return coefs


def inverse_target_oracle(delta, eps, cap):
    """`_inverse_target` with the plain search: the closed-form coefficients
    up to the cap, the partial sum gains every term, zero coefficients
    included, each odd degree is checked on the whole grid by the Chebyshev
    recurrence, and the target is built without the unit check, as the
    fit's is."""
    coefs = np.zeros(cap + 1)
    coefs[1::2] = qsvt._window_series(delta, qsvt._window_exponent(delta, eps), (cap + 1) // 2)
    grid = np.linspace(delta, 1.0, 2001)
    want = 0.5 * delta / grid
    t_j, t_next = np.ones_like(grid), grid
    partial = np.zeros_like(grid)
    for j in range(cap + 1):
        partial = partial + coefs[j] * t_j
        if j % 2 == 1 and np.max(np.abs(partial - want)) <= eps / 2:
            break
        t_j, t_next = t_next, t_next * 2 * grid - t_j
    return TargetPolynomial(tuple(coefs[: j + 1]), "odd")


class TestInverseTarget:
    # (delta, eps, cap) of the Laplace pseudoinverses at N=3..6, then a fit
    # whose transform rescales it, then one whose bound (1.03) is above the
    # margin but whose sup (0.983) is not
    FITS = [((0.0380602337443566, 0.01, 606), 223),
            ((0.009607359798384753, 0.01, 2471), 879),
            ((0.0024076366639015807, 0.01, 9931), 3509),
            ((0.0006022718974138171, 0.01, 39769), 13389),
            ((0.0096, 1e-4, 4406), 1825),
            ((0.0380602337443566, 3e-4, 999), 403)]

    @pytest.mark.parametrize("args, degree", FITS)
    def test_same_fit_as_a_full_check_at_every_degree(self, args, degree, monkeypatch):
        sizes = []
        chebval = np.polynomial.chebyshev.chebval
        monkeypatch.setattr(np.polynomial.chebyshev, "chebval",
                            lambda x, c: sizes.append(np.size(x)) or chebval(x, c))
        target = _inverse_target.__wrapped__(*args)
        if args[1] == 0.01:  # the Laplace fits: the bound decides, nothing is sampled
            assert not [k for k in sizes if k >= 2001]
        monkeypatch.undo()
        want = inverse_target_oracle(*args)
        assert target.degree == want.degree == degree
        assert target.coefficients == want.coefficients
        # only the 1e-4 fit is rescaled by its transform
        rescale = SingularValueTransform(be.Increment(2), target)._rescale
        assert (rescale < 1) == (args[1] == 1e-4)
        # the default sup is the largest |p| at the extrema of the bound's FFT
        assert target.sup_norm() == largest_at_extrema(target) <= target.sup_bound

    @pytest.mark.parametrize("args, limit", [(args, 1e-16) for args, _ in FITS]
                             + [((0.000150590651897951, 0.01, 159122), 1e-15)])  # Laplace N=7
    def test_closed_form_matches_the_sampled_series(self, args, limit):
        ref = sampled_window_series(*args)
        odd = qsvt._window_series(args[0], qsvt._window_exponent(*args[:2]), len(ref) // 2)
        assert np.max(np.abs(odd - ref[1::2])) <= limit

    def test_closed_form_of_short_windows(self):
        # delta (1 - (1 - x^2)^b) / (2x) = (delta/2) sum_k C(b, k) (-1)^(k+1) x^(2k-1)
        for b in (1, 2, 3, 6):
            power = np.zeros(2 * b)
            for k in range(1, b + 1):
                power[2 * k - 1] = 0.35 * math.comb(b, k) * (-1) ** (k + 1)
            want = np.polynomial.chebyshev.poly2cheb(power)[1::2]
            assert np.max(np.abs(qsvt._window_series(0.7, b, b + 2)[:b] - want)) <= 1e-15

    def test_each_coefficient_is_the_same_for_every_count(self):
        b = qsvt._window_exponent(0.0024076366639015807, 0.01)
        full = qsvt._window_series(0.0024076366639015807, b, 5000)
        for count in (1, 2, 1755, 2489):
            assert np.array_equal(qsvt._window_series(0.0024076366639015807, b, count),
                                  full[:count])
        # the series ends at degree 2b - 1
        assert np.array_equal(qsvt._window_series(0.5, 3, 5)[3:], [0.0, 0.0])

    def test_central_binomial_is_exact_or_within_two_ulps(self):
        for b in (1, 2, 63, 64, 65, 100, 1000, 4133):
            exact = math.comb(2 * b, b) / 4 ** b
            assert abs(qsvt._central_binomial(b) - exact) <= 2 * math.ulp(exact)

    @pytest.mark.parametrize("n, degree", [(7, 53551), (8, 137343)])
    def test_laplace_degrees_at_n7_and_n8(self, n, degree):
        a_inv, _ = laplace_solution(n)
        assert a_inv.degree == degree and a_inv.expansion.a._rescale == 1.0

    @pytest.mark.parametrize("fit, limit", [(FITS[0], 0.28e6), (FITS[1], 0.50e6),
                                            (FITS[2], 2.00e6)])
    def test_fit_memory_follows_the_degree(self, fit, limit):
        tracemalloc.start()
        try:
            target = _inverse_target.__wrapped__(*fit[0])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert target.degree == fit[1]
        assert peak <= limit, peak

    def test_unitary_block_fits_degree_1_at_any_condition(self):
        for condition in (1e5, 1e12):
            tracemalloc.start()
            try:
                node = be.Pseudoinverse(be.Increment(bits=2), condition=condition, tolerance=0.05)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert node.delta == 1.0 and node.degree == 1
            assert peak < 2**20, (condition, peak)

    def test_out_of_reach_fits_stop_at_the_cap_or_the_budget(self):
        # delta = 1e-150 needs a degree near 1e151: the cap of condition 2
        # ends the search, and the amplitude budget ends that of condition 1e12
        old = be.get_budget()
        try:
            be.set_budget(be.Budget(max_amplitudes=1 << 12))
            tracemalloc.start()
            try:
                for condition, error in ((2, PhaseSolverError), (1e12, be.BudgetExceededError)):
                    cap = math.ceil(4 * condition * math.log(4.0 / 0.05))
                    with pytest.raises(error):
                        _inverse_target.__wrapped__(1e-150, 0.05, cap)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        finally:
            be.set_budget(old)
        assert peak < 2**20

    def test_fits_out_of_reach_at_delta_compute_no_coefficient(self, monkeypatch):
        # each |c_{2j+1}| < delta, so below the cap of condition 2 and within
        # the default budget of condition 1e12 no partial sum comes near the
        # target 1/2 at x = 1e-150; each raises what the search would
        calls = []
        series = qsvt._window_series
        monkeypatch.setattr(qsvt, "_window_series", lambda *a: calls.append(a) or series(*a))
        old = be.get_budget()
        try:
            be.set_budget(be.Budget())
            most = be.get_budget().max_amplitudes
            for condition, error, message in (
                    (2, PhaseSolverError, "no odd degree within the budget {} "
                                          "reaches accuracy 2.50e-02"),
                    (1e12, be.BudgetExceededError,
                     f"the inverse fit needs more than {most} odd coefficients "
                     f"(degree {2 * most - 1}), over the amplitude budget")):
                cap = math.ceil(4 * condition * math.log(4.0 / 0.05))
                tracemalloc.start()
                try:
                    with pytest.raises(error) as info:
                        _inverse_target.__wrapped__(1e-150, 0.05, cap)
                    _, peak = tracemalloc.get_traced_memory()
                finally:
                    tracemalloc.stop()
                assert str(info.value) == message.format(cap)
                assert peak < 2**20, (condition, peak)
        finally:
            be.set_budget(old)
        assert calls == []

    @pytest.mark.parametrize("args", [args for args, _ in FITS]
                             + [(0.000150590651897951, 0.01, 159122)])  # Laplace N=7
    def test_each_fit_computes_one_bound(self, args, monkeypatch):
        # a fit computes none; its transform computes one, for its rescale,
        # cached on the target, and refines it only where it cannot decide
        calls = []
        bounds = qsvt._sup_bounds
        monkeypatch.setattr(qsvt, "_sup_bounds", lambda c, m: calls.append(m) or bounds(c, m))
        target = _inverse_target.__wrapped__(*args)
        assert calls == []
        SingularValueTransform(be.Increment(2), target)
        m = 1 << (4 * target.degree - 1).bit_length()
        # the one fit whose bound is above the margin but whose sup is not
        assert calls == ([m, 8 * m] if args == self.FITS[-1][0] else [m])
        assert target.sup_bound == bounds(target.coefficients, m)[2]

    def test_pseudoinverse_never_samples_its_target(self, monkeypatch):
        sizes = []
        chebval = np.polynomial.chebyshev.chebval
        monkeypatch.setattr(np.polynomial.chebyshev, "chebval",
                            lambda x, c: sizes.append(np.size(x)) or chebval(x, c))
        _inverse_target.cache_clear()
        a_inv, _ = laplace_solution(4)
        assert a_inv.degree == 879 and a_inv.expansion.a._rescale == 1.0
        target = a_inv._target
        assert target.sup_norm() == largest_at_extrema(target) <= target.sup_bound
        assert sizes == []


class TestPseudoinverse:
    def test_identity(self):
        node = be.Pseudoinverse(be.Identity(dim=2), condition=1.0, tolerance=0.01)
        assert np.max(np.abs(node.toarray() - np.eye(2))) < 0.01

    def test_zero_block_has_no_singular_value(self):
        with pytest.raises(ValueError, match="no nonzero singular value"):
            be.Pseudoinverse(be.ZeroMatrix(2, 2), condition=2, tolerance=0.05)

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
        # delta^2 underflows to 0 at 1e-300, and ln(4/eps) / delta^2 overflows at 1e-160
        for delta in (1e-300, 1e-160):
            with pytest.raises(ValueError, match="too small"):
                be.Pseudoinverse(be.Increment(bits=2), condition=2.0, tolerance=0.05, delta=delta)

    def test_delta_override(self):
        a = be.Identity(dim=2)
        node = be.Pseudoinverse(a, condition=1.0, tolerance=0.05, delta=1.0)
        assert node.delta == 1.0
        assert np.max(np.abs(node.toarray() - np.eye(2))) < 0.05

    def test_phases_are_solved_on_first_simulate_flatten_or_export(self):
        # counting, lowering and inverting need no angles; the gates do
        a = be.Identity(dim=4) + 0.5 * be.Increment(2)
        uses = (lambda x: x.simulate(np.ones(1)), lambda x: x.circuit().gates[0],
                lambda x: x.circuit().export_text())
        for use in uses:
            solve_phases.cache_clear()
            x = be.Pseudoinverse(a, condition=3.0, tolerance=0.05) @ be.ConstantVector([1, 2, 3, 4])
            x.toarray()
            x.resources()
            circ = x.circuit()
            assert len(circ.gates) == sum(circ.gate_counts().values()) == len(circ.adjoint().gates)
            assert solve_phases.cache_info().misses == 0
            use(x)
            assert solve_phases.cache_info().misses == 1

    def test_graph_round_trip_reuses_the_fitted_target(self):
        a_inv, solution = laplace_solution(3)
        doc = graphs.document(solution)
        hits = _inverse_target.cache_info().hits
        rebuilt = graphs.parse_document(doc).a
        assert _inverse_target.cache_info().hits == hits + 1
        assert isinstance(rebuilt, be.Pseudoinverse)
        assert rebuilt._target == a_inv._target

    def test_budget_failure_needs_delta(self):
        old = be.get_budget()
        try:
            be.set_budget(be.Budget(max_amplitudes=1 << 20, max_dim=2))
            with pytest.raises(ValueError, match="delta"):
                be.Pseudoinverse(be.Increment(2), condition=2.0, tolerance=0.1)
        finally:
            be.set_budget(old)

    def test_lowering_builds_each_repeated_part_once(self):
        # Laplace N=4 solution, 42,245 gates.  The phase steps are one item
        # that repeats the two sector marks and the child and its adjoint by
        # reference, so under 1,000 distinct gate objects exist once the RZs
        # are bound; a Gate per occurrence would trace ~25 MB
        a_inv, solution = laplace_solution(4)
        assert a_inv.phase_residual <= 1e-8  # solve outside the traced window
        tracemalloc.start()
        try:
            circ = solution.circuit()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(circ.gates) == 42245
        assert len({id(g) for g in circ.gates}) < 1000
        assert peak < 3 * 2**16  # 106 KiB measured: the items, no gate tuple


class TestLaplaceSimulation:
    # `simulate` of the N=3 solution (12 qubits, 8,514 gates) on the input 1,
    # recorded when every 2x2 kernel still ran on strided views of the state
    N3_GOLDEN = [0.054505074929518144, 0.09345434461789699, 0.11683604729476316,
                 0.12463664204477154, 0.11683604729476312, 0.09345434461789717,
                 0.05450507492951828]

    def test_n3_solution_matches_the_recorded_output(self):
        _, solution = laplace_solution(3)
        first = solution.simulate(np.ones(1, dtype=complex))
        assert np.max(np.abs(first - self.N3_GOLDEN)) <= 1e-12
        assert np.array_equal(solution.simulate(np.ones(1, dtype=complex)), first)  # cached plan

    def test_n3_solution_simulates_without_apply(self, monkeypatch):
        def refuse(circ, state):
            raise AssertionError("Circuit.apply called")

        monkeypatch.setattr(Circuit, "apply", refuse)
        _, solution = laplace_solution(3)
        assert np.max(np.abs(solution.simulate(np.ones(1)) - self.N3_GOLDEN)) <= 1e-12
        assert abs(solution.simulate_norm() - np.linalg.norm(self.N3_GOLDEN)) <= 1e-12
        assert solution.verify().passed

    def test_index_arrays_do_not_grow_with_the_degree(self):
        # one register at two tolerances, so two degrees (N=3: 223 and 353,
        # N=4: 879 and 1,395): after a few phase steps the live set stops
        # growing and one loop runs the rest, so the plan keeps the same
        # index arrays whatever the degree, none longer than the live set of
        # 2^(N+4) rows
        for n, most in ((3, 55), (4, 88)):
            counts = []
            for tolerance in (0.01, 0.001):
                a_inv, solution = laplace_solution(n, tolerance)
                solution.simulate(np.ones(1, dtype=complex))
                plan = solution.circuit()._last_plan[1]
                arrays = {id(a): a for s in plan_steps(plan) for a in s
                          if isinstance(a, np.ndarray) and a.dtype.kind == "i"}
                assert max(max(a.shape) for a in arrays.values()) <= len(plan.live_out)
                assert len(plan.live_out) <= 2 ** (n + 4)
                counts.append((a_inv.degree, len(arrays)))
            (low, first), (high, second) = counts
            assert low < high and first == second <= most

    def test_plan_steps_do_not_grow_with_the_degree(self):
        counts = []
        for tolerance in (0.01, 0.001):
            a_inv, solution = laplace_solution(3, tolerance)
            solution.simulate_norm()
            plan = solution.circuit()._last_plan[1]
            loops = [s for s in plan_steps(plan) if isinstance(s, _Loop)]
            assert len(loops) == 1
            assert all(isinstance(t, _FusedTurn) for t in loops[0].turns)
            counts.append((a_inv.degree, len(plan_steps(plan))))
        assert counts[0][0] == 223 and counts[1][0] == 353
        assert counts[0][1] == counts[1][1]

    def test_n4_at_tolerance_1e_4_meets_it(self):
        # the fit's sup is above 1, so its transform rescales it; a rescale
        # by a sample that misses the peak left it above 1, and the solve stalled
        a_inv, solution = laplace_solution(4, 1e-4)
        assert a_inv.expansion.a._rescale < 1
        want = np.linalg.norm(np.linalg.solve(a_inv.a.toarray(), solution.b.toarray().ravel()))
        assert abs(solution.simulate_norm() - want) <= 1e-4 * want

    @pytest.mark.parametrize("tolerance, rescale", [(1e-4, 0.9078), (1e-6, 0.7755),
                                                    (1e-8, 0.6645)])
    def test_n6_tight_fits_are_rescaled_and_solve(self, tolerance, rescale):
        # their 2,001-point sample read 0.30, under the trigger, but their
        # sup is 1.04-1.42: unscaled, the solve stalled
        a_inv, _ = laplace_solution(6, tolerance)
        assert a_inv.expansion.a._rescale == pytest.approx(rescale, abs=1e-4)
        assert a_inv.phase_residual <= 1e-8

    def test_n5_gates_are_counted_without_a_gate_tuple(self):
        # the flat tuple alone would take 4.2 MB
        solution = laplace_solution(5)[1]
        tracemalloc.start()
        try:
            n = len(solution.circuit().gates)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert n == 203588
        assert peak < 2**20

    def test_n5_simulate_norm_matches_the_arithmetic_path(self):
        # 16 qubits and 203,588 gates, of which at most 512 rows are ever live
        solution = laplace_solution(5)[1]
        want = np.linalg.norm(solution.toarray())
        assert abs(solution.simulate_norm() - want) <= 1e-10 * want


def gate_digest(gates):
    """SHA-256 of a gate tuple, angles rounded to 4 decimals (every angle of
    the N=3 solution lies over 2e-6 from a rounding boundary), so the last
    bits of the solved phases may differ between platforms."""
    h = hashlib.sha256()
    for g in gates:
        p = None if g.param is None else round(g.param, 4) + 0.0
        h.update(repr((g.kind, g.targets, g.controls, p, g.table)).encode())
    return h.hexdigest()


def lowered_nodes(node):
    """Every node of the DAG below `node`, expansions included, that has a
    lowered circuit cached on it."""
    seen, stack, out = set(), [node], []
    while stack:
        n = stack.pop()
        if id(n) in seen:
            continue
        seen.add(id(n))
        if "_lowered" in vars(n):
            out.append(n)
        stack.extend(n.children)
        if isinstance(n, ProxyNode):
            stack.append(n.expansion)
    return out


class TestStructuralLowering:
    """Lowering and counting from items: gates and shared blocks."""

    # the N=3 solution's gate tuple and the N=4 solution's 42,245 gates (every
    # angle lies over 1e-8 from a rounding boundary), recorded with
    # compute-copy-uncompute sector marks and block diagonals that run their
    # first block on selector |0>
    N3_DIGEST = "e52bebfc7e9cdb821e6b4e2358ef5f170620a25b9617d9a20f12dcddcfb6fd3b"
    N4_DIGEST = "30a1e0e352984cbf4870802464cf4798ca2ce67e2d082fc910d5d9d3494f56d8"

    @staticmethod
    def svt(child):
        return SingularValueTransform(child, TargetPolynomial.chebyshev([0, 0.4, 0, 0.3]))

    @staticmethod
    def assert_report_is_the_circuits(node):
        rep = node.resources()
        circ = node.circuit()
        assert list(rep.gate_counts.items()) == list(circ.gate_counts().items())
        assert (rep.main_qubits, rep.ancilla_qubits, rep.total_qubits) == (
            circ.main_qubits, circ.ancilla_qubits, circ.n_qubits)

    def test_resources_build_no_circuit(self):
        _, solution = laplace_solution(3)
        rep = solution.resources()
        assert lowered_nodes(solution) == []
        assert sum(rep.gate_counts.values()) == 8514 and rep.total_qubits == 12

    def test_n3_gate_tuple_is_unchanged(self):
        circ = laplace_solution(3)[1].circuit()
        assert gate_digest(circ.gates) == self.N3_DIGEST
        assert len({id(g) for g in circ.gates}) == 271

    def test_n4_gate_tuple_is_unchanged(self):
        circ = laplace_solution(4)[1].circuit()
        assert len(circ.gates) == 42245
        assert gate_digest(circ.gates) == self.N4_DIGEST
        assert len({id(g) for g in circ.gates}) == 936

    @pytest.mark.parametrize("n", range(3, 9))
    def test_laplace_sector_marks_are_linear_in_n(self, n):
        # each nesting level of the sector [0, 2^N - 1) doubled its mark
        # while a factor's bit was uncomputed by replaying its branches: 62
        # gates at N=5, now 18 on the same N - 1 scratch qubits
        svt = laplace_solution(n)[0].expansion.a
        (seq,) = [it for it in svt._structure[0] if isinstance(it, PhaseSequence)]
        rot = seq.rotation.targets[0]
        for mark, unmark in seq.marks:
            scratch = {q for g in mark for q in (*g.targets, *(c for c, _ in g.controls))
                       if q > rot}
            assert len(mark) <= 4 * n - 2 and len(scratch) <= n - 1
            assert unmark == mark[::-1]

    def test_structure_of_the_qsvt_does_not_grow_with_the_degree(self):
        # one register at two tolerances, so two degrees: the phase steps are
        # one item, whatever their number
        counts = []
        for tolerance in (0.01, 0.001):
            a_inv, solution = laplace_solution(3, tolerance)
            counts.append((a_inv.degree, len(a_inv.expansion.a._structure[0]),
                           len(solution._structure[0])))
        (low, *first), (high, *second) = counts
        assert low < high and first == second

    def test_estimate_of_a_read_back_graph_solves_no_phases(self):
        _, solution = laplace_solution(3)
        rebuilt = graphs.parse_document(graphs.document(solution))
        solve_phases.cache_clear()
        rep = rebuilt.resources()
        assert solve_phases.cache_info().misses == 0
        assert sum(rep.gate_counts.values()) == 8514
        assert list(rep.gate_counts.items()) == list(rebuilt.circuit().gate_counts().items())
        assert solve_phases.cache_info().misses == 0

    @pytest.mark.parametrize("coefficients", [[0.5], [0, 0.5], [0.2, 0, 0.3], [0, 0.4, 0, 0.3],
                                              [0.1, 0, 0.2, 0, 0.3]])
    def test_phase_sequence_of_each_small_degree(self, coefficients):
        # degree 0 has no block, degree 1 no even-step block
        child = 0.6 * be.Increment(2) + 0.3 * be.Identity(dim=4)
        svt = SingularValueTransform(child, TargetPolynomial.chebyshev(coefficients))
        for node in (svt, svt.adjoint(), svt & be.Increment(1)):
            self.assert_report_is_the_circuits(node)
        circ = svt.circuit()
        assert svt.adjoint().circuit().gates == tuple(g.inverse() for g in reversed(circ.gates))
        assert svt.verify(10 * svt.normalization * svt.phase_residual + 1e-10).passed

    def test_svt_of_an_svt_keeps_the_inner_sequence_in_its_blocks(self):
        inner = self.svt(0.6 * be.Increment(2) + 0.3 * be.Identity(dim=4))
        outer = SingularValueTransform(inner, TargetPolynomial.chebyshev([0, 0.5, 0, 0.3]))
        (_, steps, *_), _, _ = outer._structure
        assert any(isinstance(it, PhaseSequence) for it in steps.blocks[1])
        for node in (outer, outer.adjoint()):
            self.assert_report_is_the_circuits(node)
        circ = outer.circuit()
        assert outer.adjoint().circuit().gates == tuple(g.inverse() for g in reversed(circ.gates))
        assert outer.verify(1e-7).passed

    def test_report_counts_the_circuit_of_the_solution(self):
        _, solution = laplace_solution(3)
        for node in (solution, solution.adjoint(), be.Scale(1j, solution)):
            self.assert_report_is_the_circuits(node)

    def test_report_counts_the_circuit_of_composites_over_an_svt(self):
        svt = self.svt(0.6 * be.Increment(2) + 0.3 * be.Identity(dim=4))
        flagged = be.Scale(0.5, be.Identity(dim=4))
        for node in (svt & be.Increment(1), svt | flagged, flagged | svt):
            self.assert_report_is_the_circuits(node)
        # the blocks of the SVT gain the selector control
        assert (svt | flagged).verify(10 * svt.normalization * svt.phase_residual).passed

    def test_svt_of_a_child_without_gates_keeps_no_empty_block(self):
        svt = self.svt(be.Identity(dim=4))  # empty child and marks of a full subspace
        assert all(isinstance(it, Gate) or it for it in svt._structure[0])
        for node in (svt, be.Identity(dim=4) | svt, svt | be.Identity(dim=4)):
            self.assert_report_is_the_circuits(node)

    def test_circuit_from_items_is_the_circuit_from_their_flat_tuple(self):
        for n, length in ((3, 8514), (4, 42245)):
            _, solution = laplace_solution(n)
            items, _, ancillas = solution._structure
            assert any(not isinstance(it, Gate) for it in items)  # blocks, as the QSVT shares them
            from_items = Circuit(solution.main_qubits, ancillas, items)
            from_flat = Circuit(solution.main_qubits, ancillas, flatten(items))
            assert len(from_items.gates) == length
            assert all(a is b for a, b in zip(from_items.gates, from_flat.gates, strict=True))
            assert solution.circuit().gates == from_items.gates
            # the planner's walk over items, blocks and phase sequences, whose
            # saturated steps run as one loop, simulates as its walk over the
            # flat gates, up to the summation order of the fused turns
            x = np.zeros(1 << from_items.n_qubits, dtype=complex)
            x[solution.subspace_in.enumerate_basis()] = 1
            assert np.max(np.abs(from_items.apply(x) - from_flat.apply(x))) <= 1e-12

    def test_circuit_adjoint_inverts_each_object_once(self):
        _, solution = laplace_solution(3)
        circ = solution.circuit()
        adj = circ.adjoint()
        assert adj.gates == tuple(g.inverse() for g in reversed(circ.gates))
        assert len({id(g) for g in adj.gates}) == len({id(g) for g in circ.gates})
        assert solution.adjoint().circuit().gates == adj.gates


def plan_steps(plan):
    """Every step of a plan, with the steps of each loop and of its turns."""
    out = []

    def visit(step):
        out.append(step)
        if isinstance(step, _Loop):
            for s in chain(step.head, step.turns, step.last):
                visit(s)
        elif isinstance(step, _Turn):
            for s in chain(step.before, step.after):
                visit(s)

    for s in chain.from_iterable(plan.steps):
        visit(s)
    return out


class TestPhaseLoop:
    """A circuit of items, whose phase sequences the planner runs as one loop
    once their live set saturates, against the circuit of the same gates
    flattened, whose plan knows no phase sequence."""

    CHILD = staticmethod(lambda: 0.6 * be.Increment(2) + 0.3 * be.Identity(dim=4))
    SMALL = [[0.5], [0, 0.5], [0.2, 0, 0.3], [0, 0.4, 0, 0.3], [0.1, 0, 0.2, 0, 0.3]]
    ODD = [0, 0.3, 0, -0.2, 0, 0.1, 0, 0.15, 0, -0.1, 0, 0.1]  # degree 11
    EVEN = [0.1, 0, 0.3, 0, -0.2, 0, 0.1, 0, 0.1, 0, -0.1]  # degree 10

    @staticmethod
    def inputs(circ, node, rng, whole=True):
        """Three unit columns on every row (if `whole`), and three on the
        node's input rows, one of which has a single nonzero row."""
        dim = 1 << circ.n_qubits
        rows = node.subspace_in.enumerate_basis()
        partial = np.zeros((dim, 3), dtype=complex)
        shape = (len(rows), 3)
        partial[rows] = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        partial[rows[1:], 2] = 0
        states = [partial]
        if whole:
            states.append(rng.standard_normal((dim, 3)) + 1j * rng.standard_normal((dim, 3)))
        return [x / np.linalg.norm(x, axis=0) for x in states]

    @staticmethod
    def both_circuits(node):
        """The circuit of the node's items and that of its flattened gates."""
        items, _, ancillas = node._structure
        return (Circuit(node.main_qubits, ancillas, items),
                Circuit(node.main_qubits, ancillas, flatten(items)))

    @staticmethod
    def steps_looped(plan):
        """The number of phase steps that each loop of a plan runs: one per
        turn, and the last step."""
        return [len(s.factors[0]) + len(s.factors[1]) + 1
                for s in plan_steps(plan) if isinstance(s, _Loop)]

    def assert_loop_matches_flat(self, node, whole=True):
        """The circuit of items within 1e-12 of its flattened circuit on
        whole and partial live sets; the number of loops its plans hold."""
        from_items, from_flat = self.both_circuits(node)
        loops = 0
        for x in self.inputs(from_items, node, np.random.default_rng(0), whole):
            assert np.max(np.abs(from_items.apply(x) - from_flat.apply(x))) <= 1e-12
            loops += sum(isinstance(s, _Loop) for s in plan_steps(from_items._last_plan[1]))
        return loops

    def test_laplace_solution(self):
        # every row of the N=4 register live would take the flat circuit
        # 42,245 full-state gates
        assert self.assert_loop_matches_flat(laplace_solution(3)[1]) == 2
        assert self.assert_loop_matches_flat(laplace_solution(4)[1], whole=False) == 1

    @pytest.mark.parametrize("coefficients", SMALL + [ODD, EVEN])
    def test_svt_and_its_adjoint(self, coefficients):
        svt = SingularValueTransform(self.CHILD(), TargetPolynomial.chebyshev(coefficients))
        for node in (svt, svt.adjoint()):
            self.assert_loop_matches_flat(node)

    @pytest.mark.parametrize("coefficients", [[0, 0.4, 0, 0.3], ODD])
    def test_svt_with_a_controlled_rotation(self, coefficients):
        # as a selected term, every gate of the SVT (its RZ too) gains the
        # selector control
        svt = SingularValueTransform(self.CHILD(), TargetPolynomial.chebyshev(coefficients))
        flagged = be.Scale(0.5, be.Identity(dim=4))
        for node in (svt & be.Increment(1), svt | flagged, flagged | svt):
            self.assert_loop_matches_flat(node)
        items = chain.from_iterable(it if isinstance(it, tuple) else (it,)
                                    for it in (svt | flagged)._structure[0])
        assert any(isinstance(it, PhaseSequence) and it.rotation.controls for it in items)

    def test_svt_of_an_svt(self):
        inner = SingularValueTransform(self.CHILD(), TargetPolynomial.chebyshev(self.ODD))
        outer = SingularValueTransform(inner, TargetPolynomial.chebyshev([0, 0.5, 0, 0.3, 0, 0.1]))
        for node in (outer, outer.adjoint()):
            assert self.assert_loop_matches_flat(node)

    @pytest.mark.parametrize("coefficients", [[0.2, 0, 0.3, 0, 0.2], [0, 0.4, 0, 0.3], ODD, EVEN])
    @pytest.mark.parametrize("rows, cols", [(slice(None, 2), slice(None)),
                                            (slice(1, 4), slice(2, None))])
    def test_svt_over_a_sliced_child(self, coefficients, rows, cols):
        # the child's input and output sectors differ, so the two parities
        # mark different sectors
        child = self.CHILD()[rows, cols]
        assert child.subspace_in != child.subspace_out
        svt = SingularValueTransform(child, TargetPolynomial.chebyshev(coefficients))
        for node in (svt, svt.adjoint()):
            self.assert_loop_matches_flat(node)

    def test_the_loop_runs_on_whole_and_partial_live_sets(self):
        svt = SingularValueTransform(self.CHILD()[:2, :], TargetPolynomial.chebyshev(self.ODD))
        assert self.assert_loop_matches_flat(svt) == 2

    def test_a_loop_of_unfused_turns(self, monkeypatch):
        # a turn that mixes too many rows runs its steps; here every turn does
        monkeypatch.setattr(circuits, "_turn", _Turn)
        for coefficients in (self.ODD, self.EVEN):
            svt = SingularValueTransform(self.CHILD()[:2, :],
                                         TargetPolynomial.chebyshev(coefficients))
            assert self.assert_loop_matches_flat(svt) == 2

    def test_the_laplace_loop_runs_every_step_but_the_first(self):
        # the live set is saturated before step 0, so the walk finds its
        # period at step 3 and the loop runs steps 1..d
        for n in (3, 4):
            a_inv, solution = laplace_solution(n)
            solution.simulate_norm()
            assert self.steps_looped(solution.circuit()._last_plan[1]) == [a_inv.degree]

    @pytest.mark.parametrize("coefficients", [ODD, EVEN])
    @pytest.mark.parametrize("rows, cols", [(slice(None, 2), slice(None)),
                                            (slice(1, 4), slice(2, None))])
    def test_the_svt_loop_runs_every_step_but_the_first(self, coefficients, rows, cols):
        svt = SingularValueTransform(self.CHILD()[rows, cols],
                                     TargetPolynomial.chebyshev(coefficients))
        for node in (svt, svt.adjoint()):
            circ = self.both_circuits(node)[0]
            for x in self.inputs(circ, node, np.random.default_rng(1)):
                circ.apply(x)
                assert self.steps_looped(circ._last_plan[1]) == [len(coefficients) - 1]

    @pytest.mark.parametrize("coefficients", [[0, 0.4, 0, 0.3], [0.1, 0, 0.2, 0, 0.3],
                                              [0, 0.3, 0, 0.2, 0, 0.1]])
    def test_a_live_set_that_never_repeats(self, coefficients):
        # one input row of a 16-point grid spreads by a point per block, so
        # within degree 3-5 no live set repeats and no loop forms
        child = 0.6 * be.Increment(4) + 0.3 * be.Identity(dim=16)
        svt = SingularValueTransform(child, TargetPolynomial.chebyshev(coefficients))
        for node in (svt, svt.adjoint()):
            from_items, from_flat = self.both_circuits(node)
            x = np.zeros(1 << from_items.n_qubits, dtype=complex)
            x[node.subspace_in.enumerate_basis()[0]] = 1
            assert np.max(np.abs(from_items.apply(x) - from_flat.apply(x))) <= 1e-12
            assert self.steps_looped(from_items._last_plan[1]) == []

    @pytest.mark.parametrize("rows, cols", [(slice(None), slice(None)),
                                            (slice(1, 4), slice(2, None))])
    def test_the_loop_of_an_svt_of_an_svt_runs_every_step_but_the_first(self, rows, cols):
        # the outer saturation walks each inner sequence by its two blocks
        inner = SingularValueTransform(self.CHILD()[rows, cols],
                                       TargetPolynomial.chebyshev(self.ODD))
        outer = SingularValueTransform(inner, TargetPolynomial.chebyshev([0, 0.5, 0, 0.3, 0, 0.1]))
        for node in (outer, outer.adjoint()):
            circ = self.both_circuits(node)[0]
            for x in self.inputs(circ, node, np.random.default_rng(2)):
                circ.apply(x)
                looped = self.steps_looped(circ._last_plan[1])
                assert looped[0] == 5 and set(looped[1:]) == {len(self.ODD) - 1}

    def test_simulation_imports_no_masked_arrays(self):
        # numpy's set routines import numpy.ma on first use, which costs
        # more than a whole N=3 plan in a fresh interpreter
        code = ("import functools, sys, numpy as np, blockenc as be\n"
                "n = 3\n"
                "shift = be.Increment(bits=n)\n"
                "a = 2 ** n * (2 * be.Identity(dim=2 ** n) - shift.adjoint() - shift)[:-1, :-1]\n"
                "rhs = functools.reduce(lambda u, v: u & v, [be.ConstantVector([0.5, 0.5])] * n)\n"
                "x = be.Pseudoinverse(a, condition=float(np.linalg.cond(a.toarray(), 2)),\n"
                "                     tolerance=0.01) @ rhs[:-1]\n"
                "x.simulate_norm()\n"
                "print('numpy.ma' in sys.modules)\n")
        src = os.path.dirname(os.path.dirname(os.path.abspath(be.__file__)))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=src), timeout=120, check=True)
        assert proc.stdout == "False\n"


def laplace_solution(n, tolerance=0.01):
    """(pseudoinverse, solution) of the 1D Laplace system of `be demo laplace`."""
    ident = be.Identity(dim=2 ** n)
    shift = be.Increment(bits=n)
    a = 2 ** n * (2 * ident - shift.adjoint() - shift)[:-1, :-1]
    rhs = be.ConstantVector(0.5 * np.ones(2))
    for _ in range(n - 1):
        rhs = rhs & be.ConstantVector(0.5 * np.ones(2))
    a_inv = be.Pseudoinverse(a, condition=float(np.linalg.cond(a.toarray(), 2)),
                             tolerance=tolerance)
    return a_inv, a_inv @ rhs[:-1]
