import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bruhat_satake import weyl

KINDS = [weyl.type_a(1), weyl.type_a(2), weyl.type_a(3), weyl.type_c(1), weyl.type_c(2), weyl.type_c(3)]


def random_word_element(kind, indices):
    gens = weyl.simple_reflections(kind)
    w = weyl.identity(kind)
    for i in indices:
        w = w * gens[i % len(gens)]
    return w


@pytest.mark.parametrize("kind", KINDS)
def test_simple_reflections_are_involutions(kind):
    for s in weyl.simple_reflections(kind):
        assert (s * s).is_identity()
        assert weyl.length(s) == 1


@pytest.mark.parametrize("kind", KINDS)
def test_enumeration_count(kind):
    elements = weyl.all_elements(kind)
    assert len(elements) == weyl.order(kind)
    assert len({w.perm for w in elements}) == len(elements)


@pytest.mark.parametrize("kind", KINDS)
def test_parabolic_subgroup_count(kind):
    n = kind.n
    expected = math.factorial(n) ** 2 if kind.family is weyl.Family.TYPE_A else math.factorial(n)
    assert len(weyl.parabolic_elements(kind)) == expected


def test_validation_rejects_bad_perms():
    with pytest.raises(ValueError):
        weyl.WeylElement(weyl.type_a(1), (1, 1))
    # (1 2) alone does not commute with the type C pairing of 1 and 3
    with pytest.raises(ValueError):
        weyl.WeylElement(weyl.type_c(2), (2, 1, 3, 4))


@pytest.mark.parametrize("kind", [weyl.type_c(2), weyl.type_c(3)])
def test_type_c_centralizes_pairing(kind):
    n = kind.n
    for w in weyl.all_elements(kind):
        for i in range(1, 2 * n + 1):
            assert w(weyl.iota(i, n)) == weyl.iota(w(i), n)


@given(st.sampled_from(KINDS), st.lists(st.integers(0, 10), max_size=12))
@settings(max_examples=60, deadline=None)
def test_group_axioms(kind, indices):
    w = random_word_element(kind, indices)
    assert (w * w.inverse()).is_identity()
    assert (w.inverse() * w).is_identity()
    v = random_word_element(kind, indices[::-1])
    assert ((w * v).inverse()).perm == (v.inverse() * w.inverse()).perm


@given(st.sampled_from(KINDS), st.lists(st.integers(0, 10), max_size=10), st.lists(st.integers(0, 10), max_size=10))
@settings(max_examples=60, deadline=None)
def test_length_subadditive_and_parity(kind, left, right):
    u = random_word_element(kind, left)
    v = random_word_element(kind, right)
    lu, lv, luv = weyl.length(u), weyl.length(v), weyl.length(u * v)
    assert luv <= lu + lv
    assert (luv - lu - lv) % 2 == 0


@pytest.mark.parametrize("kind", KINDS)
def test_longest_element(kind):
    w0 = weyl.longest_element(kind)
    assert (w0 * w0).is_identity()
    assert weyl.length(w0) == max(weyl.length(w) for w in weyl.all_elements(kind))
    if kind.family is weyl.Family.TYPE_A:
        m = 2 * kind.n
        assert w0.perm == tuple(m + 1 - i for i in range(1, m + 1))
    else:
        assert w0.perm == tuple(weyl.iota(i, kind.n) for i in range(1, 2 * kind.n + 1))


@pytest.mark.parametrize("kind", KINDS)
def test_sigma_properties(kind):
    n = kind.n
    for k in range(n + 1):
        s = weyl.sigma(kind, k)
        assert (s * s).is_identity()
        assert weyl.tau(s) == k
    with pytest.raises(ValueError):
        weyl.sigma(kind, n + 1)


@pytest.mark.parametrize("kind", KINDS)
def test_double_cosets_against_partition_oracle(kind):
    reps = weyl.double_cosets(kind)
    assert len(reps) == kind.n + 1
    parts = weyl.double_coset_partition(kind)
    assert len(parts) == kind.n + 1
    # the partition covers W exactly
    assert sum(len(p) for p in parts) == weyl.order(kind)
    # each representative lies in its own block, tau separates the blocks
    for block in parts:
        taus = {weyl.tau(weyl.WeylElement(kind, perm)) for perm in block}
        assert len(taus) == 1
    by_tau = {next(iter({weyl.tau(weyl.WeylElement(kind, p)) for p in block})): block for block in parts}
    for k, rep in enumerate(reps):
        assert rep.perm in by_tau[k]


@pytest.mark.parametrize("kind", KINDS[:4])
def test_canonical_rep_constant_on_cosets(kind):
    for block in weyl.double_coset_partition(kind):
        reps = {weyl.canonical_rep(weyl.WeylElement(kind, perm)).perm for perm in block}
        assert len(reps) == 1
        assert weyl.canonical_rep(weyl.WeylElement(kind, next(iter(block)))).perm in reps


@pytest.mark.parametrize("kind", KINDS)
def test_tau_is_coset_invariant(kind):
    par = weyl.parabolic_elements(kind)
    for w in weyl.all_elements(kind)[:40]:
        t = weyl.tau(w)
        for u in par[:6]:
            for v in par[:6]:
                assert weyl.tau(u * w * v) == t


@pytest.mark.parametrize("kind", KINDS)
def test_subsets_j(kind):
    n = kind.n
    subs = weyl.all_subsets_j(kind)
    expected = math.comb(2 * n, n) if kind.family is weyl.Family.TYPE_A else 2**n
    assert len(subs) == expected
    assert len({s.members for s in subs}) == expected
    for J in subs:
        w = weyl.w_j(J)
        assert (w * w).is_identity()
        assert w.apply_to_set(frozenset(range(1, n + 1))) == J.members


def test_subset_j_type_c_validation():
    with pytest.raises(ValueError):
        weyl.subset_j(weyl.type_c(2), {1, 3})  # 3 pairs with 1, cannot take both
    weyl.subset_j(weyl.type_c(2), {1, 4})  # picking one of each pair is fine


def test_tau_literal_values():
    # the n = 2 type A permutation swapping 1 <-> 3, 2 <-> 4 moves both of {1, 2} out
    kind = weyl.type_a(2)
    w = weyl.from_cycles(kind, [(1, 3), (2, 4)])
    assert weyl.tau(w) == 2
    assert weyl.tau(weyl.identity(kind)) == 0


def test_enumeration_guard_refuses_before_any_bfs():
    for kind in (weyl.type_a(5), weyl.type_c(8)):
        assert weyl.order(kind) > weyl.WEYL_ORDER_GUARD
        with pytest.raises(ValueError):
            weyl.all_elements(kind)
        with pytest.raises(ValueError):
            weyl.parabolic_elements(kind)
    # the largest groups the sweeps use stay under the guard
    assert weyl.order(weyl.type_a(4)) <= weyl.WEYL_ORDER_GUARD
    assert weyl.order(weyl.type_c(7)) <= weyl.WEYL_ORDER_GUARD
