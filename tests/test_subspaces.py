import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from blockenc.circuits import Circuit, Gate, t_count_estimate
from blockenc.subspaces import (
    Controlled,
    ScratchPool,
    Subspace,
    SubspaceFormatError,
    SubspaceShapeError,
    ZeroQubit,
    membership_flip_gates,
)


def contains(sub, x):
    """Independent recursive membership check against the factor structure."""
    for f in sub.factors:
        w = f.qubit_count
        local = x & ((1 << w) - 1)
        x >>= w
        if isinstance(f, ZeroQubit):
            if local != 0:
                return False
        else:
            top = local >> (w - 1)
            branch = f.branch1 if top else f.branch0
            if not contains(branch, local & ((1 << (w - 1)) - 1)):
                return False
    return x == 0


def brute_basis(sub):
    return [x for x in range(1 << sub.qubit_count) if contains(sub, x)]


def subspace_strategy(max_qubits=4):
    def fixup(children):
        lo, hi = children
        # equalize widths by zero-padding the narrower branch
        w = max(lo.qubit_count, hi.qubit_count)
        return Subspace((Controlled(lo.pad_to(w), hi.pad_to(w)),))

    base = st.sampled_from([Subspace(), Subspace("0"), Subspace("#"), Subspace("00"),
                            Subspace("0#"), Subspace("#0"), Subspace("##")])
    extended = st.recursive(
        base,
        lambda inner: st.one_of(
            st.tuples(inner, inner).map(lambda ab: ab[0] & ab[1]),
            st.tuples(inner, inner).map(fixup),
        ),
        max_leaves=4,
    )
    return extended.filter(lambda s: s.qubit_count <= max_qubits)


class TestStringConstructor:
    def test_zero_hash(self):
        assert list(Subspace("0#").enumerate_basis()) == [0, 1]

    def test_single_zero(self):
        s = Subspace("0")
        assert s.dim == 1 and s.qubit_count == 1
        assert list(s.enumerate_basis()) == [0]

    def test_full_two_qubits(self):
        assert list(Subspace("##").enumerate_basis()) == [0, 1, 2, 3]

    def test_bad_character(self):
        with pytest.raises(SubspaceFormatError):
            Subspace("0x")

    def test_empty_pattern(self):
        with pytest.raises(SubspaceFormatError):
            Subspace("")


class TestControlledOr:
    def test_example(self):
        s = Subspace("00") | Subspace("0#")
        # branch0 is {|000>}, branch1 adds the control bit: {|100>, |101>}
        assert brute_basis(s) == [0, 4, 5]
        assert list(s.enumerate_basis()) == [0, 4, 5]

    def test_empty_branches_give_free_qubit(self):
        s = Subspace() | Subspace()
        assert list(s.enumerate_basis()) == [0, 1]

    def test_worked_four_qubit_example(self):
        s = (Subspace("00") | Subspace("0#")) & Subspace("0")
        assert list(s.enumerate_basis()) == [0, 8, 10]

    def test_width_mismatch(self):
        with pytest.raises(SubspaceShapeError):
            Subspace("0") | Subspace("00")


class TestTensor:
    def test_forced_pair(self):
        s = Subspace("0") & Subspace("0")
        assert s == Subspace("00")
        assert list(s.enumerate_basis()) == [0]

    def test_left_operand_more_significant(self):
        assert list((Subspace("#") & Subspace("0")).enumerate_basis()) == [0, 2]

    def test_internal_format_matches_nesting(self):
        s = (Subspace("00") | Subspace("0#")) & Subspace("0")
        want = Subspace([
            ZeroQubit(),
            Controlled(
                Subspace([ZeroQubit(), ZeroQubit()]),
                Subspace([Controlled(Subspace(), Subspace()), ZeroQubit()]),
            ),
        ])
        assert s == want


class TestFromDim:
    def test_power_of_two(self):
        assert Subspace.from_dim(4) == Subspace("##")

    def test_one(self):
        s = Subspace.from_dim(1)
        assert s.qubit_count == 0 and s.dim == 1

    def test_seven(self):
        s = Subspace.from_dim(7)
        assert s.qubit_count == 3
        assert list(s.enumerate_basis()) == list(range(7))

    def test_all_dims_up_to_256(self):
        for d in range(1, 257):
            s = Subspace.from_dim(d)
            assert list(s.enumerate_basis()) == list(range(d))
            assert s.qubit_count == max(0, (d - 1).bit_length())

    def test_domain_error(self):
        with pytest.raises(ValueError):
            Subspace.from_dim(0)


class TestEnumerate:
    def test_from_dim_five_brute_force(self):
        s = Subspace.from_dim(5)
        assert brute_basis(s) == [0, 1, 2, 3, 4]

    @settings(max_examples=60, deadline=None)
    @given(subspace_strategy())
    def test_matches_brute_force(self, s):
        got = list(s.enumerate_basis())
        assert got == brute_basis(s)
        assert len(got) == s.dim
        assert all(b > a for a, b in zip(got, got[1:]))
        if got:
            assert got[-1] < (1 << s.qubit_count)

    @settings(max_examples=30, deadline=None)
    @given(subspace_strategy(3), subspace_strategy(2))
    def test_tensor_formula(self, a, b):
        want = sorted((i << b.qubit_count) + j
                      for i in a.enumerate_basis() for j in b.enumerate_basis())
        assert list((a & b).enumerate_basis()) == want

    @settings(max_examples=30, deadline=None)
    @given(subspace_strategy(3), subspace_strategy(3))
    def test_or_formula(self, low, high):
        w = max(low.qubit_count, high.qubit_count)
        low, high = low.pad_to(w), high.pad_to(w)
        want = sorted(set(int(x) for x in low.enumerate_basis())
                      | {int(x) + (1 << w) for x in high.enumerate_basis()})
        assert list((low | high).enumerate_basis()) == want


class TestPrefixTruncate:
    def test_full_space_prefix(self):
        assert Subspace.from_dim(8).prefix_truncate(7) == Subspace.from_dim(7)

    def test_identity_truncation(self):
        s = (Subspace("00") | Subspace("0#")) & Subspace("0")
        assert s.prefix_truncate(s.dim) == s

    def test_worked_example_first_two(self):
        s = (Subspace("00") | Subspace("0#")) & Subspace("0")
        assert list(s.prefix_truncate(2).enumerate_basis()) == [0, 8]

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            Subspace("##").prefix_truncate(5)
        with pytest.raises(ValueError):
            Subspace("##").prefix_truncate(0)

    @settings(max_examples=60, deadline=None)
    @given(subspace_strategy(), st.data())
    def test_prefix_property(self, s, data):
        k = data.draw(st.integers(1, s.dim))
        t = s.prefix_truncate(k)
        assert t.qubit_count == s.qubit_count
        assert list(t.enumerate_basis()) == list(s.enumerate_basis())[:k]


class TestMembershipCircuit:
    def _check(self, s):
        circ = s.membership_circuit()
        n = s.qubit_count
        members = set(int(b) for b in s.enumerate_basis())
        dim = 1 << circ.n_qubits
        basis_states = np.eye(dim, dtype=complex)[:, : 1 << n]
        out = circ.apply(basis_states)
        for b in range(1 << n):
            nz = np.flatnonzero(np.abs(out[:, b]) > 1e-12)
            assert len(nz) == 1
            final = int(nz[0])
            assert abs(abs(out[final, b]) - 1.0) < 1e-12
            assert final & ((1 << n) - 1) == b, "data register must be preserved"
            flag = (final >> n) & 1
            assert flag == (0 if b in members else 1)
            assert final >> (n + 1) == 0, "scratch must be restored to zero"

    def test_single_zero_is_one_controlled_not(self):
        circ = Subspace("0").membership_circuit()
        assert len(circ.gates) == 1
        (g,) = circ.gates
        assert g.kind == "X" and g.controls == ((0, 1),)
        self._check(Subspace("0"))

    def test_full_space_is_empty(self):
        assert Subspace("##").membership_circuit().gates == ()

    def test_worked_example(self):
        self._check((Subspace("00") | Subspace("0#")) & Subspace("0"))

    @settings(max_examples=30, deadline=None)
    @given(subspace_strategy())
    def test_random_subspaces(self, s):
        self._check(s)


class TestEquality:
    def test_free_qubit_factors_compare_equal(self):
        assert Controlled(Subspace(), Subspace()) == Controlled(Subspace(), Subspace())
        assert Subspace("#") == Subspace("#")

    @settings(max_examples=30, deadline=None)
    @given(subspace_strategy(), subspace_strategy(), subspace_strategy())
    def test_equivalence_relation(self, a, b, c):
        assert a == a
        assert (a == b) == (b == a)
        if a == b and b == c:
            assert a == c
        if a == b:
            assert hash(a) == hash(b)

    def test_pad_preserves_basis(self):
        s = Subspace.from_dim(5)
        assert list(s.pad_to(6).enumerate_basis()) == list(s.enumerate_basis())
        assert s.pad_to(s.qubit_count) is s


def built_subspaces(max_qubits=8):
    """Subspaces made by every constructor: from_dim, pad_to, prefix_truncate,
    `&` and `|` (the narrower side padded)."""
    def either(ab):
        a, b = ab
        w = max(a.qubit_count, b.qubit_count)
        return a.pad_to(w) | b.pad_to(w)

    def truncate(sd):
        s, frac = sd
        return s.prefix_truncate(max(1, round(frac * s.dim)))

    extended = st.recursive(
        st.integers(1, 12).map(Subspace.from_dim),
        lambda inner: st.one_of(
            st.tuples(inner, inner).map(lambda ab: ab[0] & ab[1]),
            st.tuples(inner, inner).map(either),
            st.tuples(inner, st.integers(0, 2)).map(lambda sk: sk[0].pad_to(sk[0].qubit_count + sk[1])),
            st.tuples(inner, st.floats(0, 1)).map(truncate),
        ),
        max_leaves=5,
    )
    return extended.filter(lambda s: s.qubit_count <= max_qubits)


def reference_size(x):
    """(qubit count, dimension) of a subspace or factor, by recursion."""
    if isinstance(x, ZeroQubit):
        return 1, 1
    if isinstance(x, Controlled):
        (w, d0), (_, d1) = reference_size(x.branch0), reference_size(x.branch1)
        return 1 + w, d0 + d1
    sizes = [reference_size(f) for f in x.factors]
    return sum(w for w, _ in sizes), math.prod(d for _, d in sizes)


def walk(sub):
    yield sub
    for f in sub.factors:
        yield f
        if isinstance(f, Controlled):
            yield from walk(f.branch0)
            yield from walk(f.branch1)


class TestStoredSizes:
    @settings(max_examples=80, deadline=None)
    @given(built_subspaces())
    def test_sizes_match_a_recursive_reference(self, s):
        for x in walk(s):
            assert (x.qubit_count, x.dim) == reference_size(x)
        assert len(s.enumerate_basis()) == s.dim

    @settings(max_examples=20, deadline=None)
    @given(built_subspaces())
    def test_assignment_still_raises(self, s):
        for x in walk(s):
            for name in ("qubit_count", "dim"):
                with pytest.raises(AttributeError):
                    setattr(x, name, 0)
            assert (x.qubit_count, x.dim) == reference_size(x)
        with pytest.raises(AttributeError):
            s.factors = ()


def test_scratch_pool_reuse():
    pool = ScratchPool(10)
    a = pool.alloc()
    pool.release(a)
    b = pool.alloc()
    assert a == b == 10
    assert pool.peak == 1


def reference_flip_if_member(sub, offset, target, extra_controls, pool):
    """The membership recursion before compute-copy-uncompute: each factor's
    scratch bit is computed from its branches' whole clean networks and
    uncomputed by replaying them, so each nesting level doubles the gates."""
    out = []
    conds = list(extra_controls)
    computed = []
    q = offset
    for f in sub.factors:
        if isinstance(f, ZeroQubit):
            conds.append((q, 0))
            q += 1
            continue
        if f.dim == 1 << f.qubit_count:
            q += f.qubit_count
            continue
        w = f.branch0.qubit_count
        s = pool.alloc()
        cg = (reference_flip_if_member(f.branch0, q, s, ((q + w, 0),), pool)
              + reference_flip_if_member(f.branch1, q, s, ((q + w, 1),), pool))
        out.extend(cg)
        computed.append((s, cg))
        conds.append((s, 1))
        q += f.qubit_count
    out.append(Gate("X", (target,), tuple(conds)))
    for s, cg in reversed(computed):
        out.extend(reversed(cg))
        pool.release(s)
    return out


def reference_membership_flip_gates(sub, qubit_offset, flag, pool, zero_qubits=()):
    extra = tuple((q, 0) for q in zero_qubits)
    if sub.is_full and not extra:
        return []
    body = reference_flip_if_member(sub, qubit_offset, flag, extra, pool)
    if len(body) == 1 and len(body[0].controls) == 1:
        (q, p), = body[0].controls
        return [Gate("X", (flag,), ((q, 1 - p),))]
    return [Gate("X", (flag,))] + body


def run_classical(gates, state):
    """The basis state an X network maps `state` to."""
    for g in gates:
        assert g.kind == "X"
        if all((state >> q) & 1 == v for q, v in g.controls):
            state ^= 1 << g.targets[0]
    return state


class TestMembershipNetworkSize:
    """Mark networks with forced-zero flags: their truth table, and their
    size against the doubling recursion."""

    @staticmethod
    def marks(sub, zeros, builder):
        """(gates, scratch peak) of a mark over `sub` on qubits 0.., `zeros`
        forced-zero flags after it, then the flag and the scratch."""
        n = sub.qubit_count
        flag = n + zeros
        pool = ScratchPool(flag + 1)
        return builder(sub, 0, flag, pool, tuple(range(n, flag))), pool.peak

    @pytest.mark.parametrize("n", range(2, 11))
    def test_prefix_of_all_but_the_last_is_linear(self, n):
        # 2^(n+1) - 2 gates before, one doubling per nesting level
        circ = Subspace.from_dim(2**n - 1).membership_circuit()
        assert len(circ.gates) <= 4 * n - 2
        assert circ.ancilla_qubits - 1 <= n - 1
        for x in range(1 << n):
            out = run_classical(circ.gates, x)
            assert out == x | ((x == 2**n - 1) << n)

    @settings(max_examples=150, deadline=None)
    @given(subspace_strategy(), st.integers(0, 2))
    def test_truth_table_with_zero_flags(self, s, zeros):
        gates, _ = self.marks(s, zeros, membership_flip_gates)
        n = s.qubit_count
        flag = n + zeros
        members = set(int(b) for b in s.enumerate_basis())
        for x in range(1 << flag):
            for set_flag in (0, 1):
                before = x | (set_flag << flag)
                after = run_classical(gates, before)
                outside = (x & ((1 << n) - 1)) not in members or x >> n != 0
                assert after == before ^ (outside << flag)

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(subspace_strategy(), built_subspaces(6)), st.integers(0, 2))
    def test_never_larger_than_the_doubling_recursion(self, s, zeros):
        got, got_peak = self.marks(s, zeros, membership_flip_gates)
        ref, ref_peak = self.marks(s, zeros, reference_membership_flip_gates)
        assert len(got) <= len(ref)
        assert got_peak <= ref_peak
        width = s.qubit_count + zeros + 1
        cost = t_count_estimate(Circuit(width, got_peak, tuple(got)))
        ref_cost = t_count_estimate(Circuit(width, ref_peak, tuple(ref)))
        assert cost["t"] <= ref_cost["t"] and cost["scratch"] <= ref_cost["scratch"]
