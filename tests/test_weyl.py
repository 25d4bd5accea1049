import functools
import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bruhat_satake import roots, weyl
from oracles import parabolic_elements, w_j, weyl_inverse

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
    assert len(parabolic_elements(kind)) == expected


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
    assert (w * weyl_inverse(w)).is_identity()
    assert (weyl_inverse(w) * w).is_identity()
    v = random_word_element(kind, indices[::-1])
    assert weyl_inverse(w * v).perm == (weyl_inverse(v) * weyl_inverse(w)).perm


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


@pytest.mark.parametrize("kind", KINDS)
def test_double_coset_size_is_the_size_of_each_block(kind):
    # for every element, not only the sigma_k: the orbit-stabilizer count
    # that weyl cosets sums against |W|
    sizes = [weyl.double_coset_size(rep) for rep in weyl.double_cosets(kind)]
    assert sum(sizes) == weyl.order(kind)
    for block in weyl.double_coset_partition(kind):
        assert {weyl.double_coset_size(weyl.WeylElement(kind, perm)) for perm in block} == {len(block)}


@pytest.mark.parametrize("kind", KINDS[:4])
def test_sigma_of_tau_is_constant_on_cosets(kind):
    for block in weyl.double_coset_partition(kind):
        reps = {weyl.sigma(kind, weyl.tau(weyl.WeylElement(kind, perm))).perm for perm in block}
        assert len(reps) == 1
        assert weyl.sigma(kind, weyl.tau(weyl.WeylElement(kind, next(iter(block))))).perm in reps


@pytest.mark.parametrize("kind", KINDS)
def test_tau_is_coset_invariant(kind):
    par = parabolic_elements(kind)
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
        w = w_j(J)
        assert (w * w).is_identity()
        assert frozenset(map(w, range(1, n + 1))) == J.members


def test_w_j_literal():
    # the moved docstring example: {1, 2} is swapped, in order, with {3, 4}
    assert w_j(weyl.SubsetJ(weyl.type_a(2), frozenset({3, 4}))).perm == (3, 4, 1, 2)


def test_subset_j_type_c_validation():
    with pytest.raises(ValueError):
        weyl.SubsetJ(weyl.type_c(2), frozenset({1, 3}))  # 3 pairs with 1, cannot take both
    weyl.SubsetJ(weyl.type_c(2), frozenset({1, 4}))  # picking one of each pair is fine


@pytest.mark.parametrize("kind", [weyl.type_a(2), weyl.type_c(2)])
def test_subset_j_refuses_outside_members_and_wrong_counts(kind):
    for members in ({0, 1}, {1, 5}, {-1, 2}):  # a member outside {1..4}
        with pytest.raises(ValueError, match=r"^members must lie in \{1,...,2n\}$"):
            weyl.SubsetJ(kind, frozenset(members))
    for members in (set(), {1}, {1, 2, 3}):  # n = 2 members are needed
        with pytest.raises(ValueError, match="^J must have exactly n members$"):
            weyl.SubsetJ(kind, frozenset(members))


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
            parabolic_elements(kind)
    # a huge n is refused by |W| >= 2^n, without computing |W|
    with pytest.raises(ValueError, match="WEYL_ORDER_GUARD"):
        weyl.check_order(weyl.type_a(10**9))
    # the largest groups the sweeps use stay under the guard
    assert weyl.order(weyl.type_a(4)) <= weyl.WEYL_ORDER_GUARD
    assert weyl.order(weyl.type_c(7)) <= weyl.WEYL_ORDER_GUARD


UP_TO_4 = [weyl.GroupKind(family, n) for family in weyl.Family for n in range(1, 5)]


def every_element(kind):
    """Every one-line permutation in W, enumerated without the Cayley graph:
    all of S_{2n} in type A, the signed permutations w(i + n) = iota(w(i)) in C."""
    n = kind.n
    if kind.family is weyl.Family.TYPE_A:
        yield from itertools.permutations(range(1, 2 * n + 1))
        return
    for perm in itertools.permutations(range(1, n + 1)):
        for flips in itertools.product((0, n), repeat=n):
            top = [p + f for p, f in zip(perm, flips)]
            yield tuple(top + [weyl.iota(x, n) for x in top])


def inversions(seq):
    return sum(a > b for a, b in itertools.combinations(seq, 2))


def test_walk_keeps_first_discoveries_in_generator_major_order():
    # Z/6 under +2 and +3: 2 and 3 are one step away, 4 = 2 + 2 and
    # 5 = 3 + 2 two steps, and 1 = 5 + 2 three
    levels = weyl.walk(0, lambda frontier: ([(x + 2) % 6 for x in frontier], [(x + 3) % 6 for x in frontier]))
    assert levels == {0: 0, 2: 1, 3: 1, 4: 2, 5: 2, 1: 3}
    assert list(levels) == [0, 2, 3, 4, 5, 1]
    assert weyl.walk("x", lambda frontier: [frontier]) == {"x": 0}
    # words of length <= 2: "ba" is reached before "ab", because "a" is
    # appended to the whole frontier ["a", "b"] before "b" is
    words = weyl.walk("", lambda frontier: [[w + c for w in frontier if len(w) < 2] for c in "ab"])
    assert words == {"": 0, "a": 1, "b": 1, "aa": 2, "ba": 2, "ab": 2, "bb": 2}
    assert list(words) == ["", "a", "b", "aa", "ba", "ab", "bb"]


@pytest.mark.parametrize("kind", UP_TO_4)
def test_walk_is_a_breadth_first_tree_of_w(kind):
    refl = weyl.simple_reflections(kind)
    levels = weyl.walk(weyl.identity(kind).perm, weyl.right_images([s.perm for s in refl]))
    # every element of W appears, once
    assert len(levels) == weyl.order(kind) and set(levels) == set(every_element(kind))
    # levels never decrease in discovery order
    order = list(levels.values())
    assert order == sorted(order)
    for perm, level in levels.items():
        w = weyl.WeylElement(kind, perm)
        neighbours = [levels[(w * s).perm] for s in refl]
        # one step moves at most one level, and every w but the identity has
        # a w s one level lower
        assert all(abs(other - level) <= 1 for other in neighbours)
        assert (level == 0) == w.is_identity()
        assert level == 0 or level - 1 in neighbours
        # the level is the closed-form length
        assert level == closed_form_length(kind, perm)


def closed_form_length(kind, perm):
    """The inversion count in type A; half the inversions of the signed
    permutation, after the reordering h, plus its negated entries in type C."""
    n = kind.n
    if kind.family is weyl.Family.TYPE_A:
        return inversions(perm)

    def h(x):  # the order of roots.is_positive: i <= n first, then 2n, ..., n + 1
        return x if x <= n else 3 * n + 1 - x

    conj = [h(perm[h(i) - 1]) for i in range(1, 2 * n + 1)]  # h is an involution
    twice = inversions(conj) + sum(conj[j] > n for j in range(n))
    assert twice % 2 == 0
    return twice // 2


@pytest.mark.parametrize("kind", UP_TO_4)
def test_length_matches_the_closed_form(kind):
    for perm in every_element(kind):
        assert weyl.length(weyl.WeylElement(kind, perm)) == closed_form_length(kind, perm)


def test_length_table_is_read_only():
    # flagfq builds its Weyl lifts over the same cached table
    kind = weyl.type_c(2)
    table = weyl.length_table(kind)
    with pytest.raises(TypeError):
        table[weyl.identity(kind).perm] = 5
    assert table[weyl.identity(kind).perm] == 0


# ------------------------------------------------------- permutation kernels
# Oracles: the per-entry definitions i -> u(v(i)) and WeylElement products


def kind_id(kind):
    return f"{kind.family.value}{kind.n}"


def compose_per_entry(u, v):
    return tuple(u[v[i] - 1] for i in range(len(v)))


@pytest.mark.parametrize("kind", [k for k in UP_TO_4 if k.n <= 2], ids=kind_id)
def test_compose_matches_the_per_entry_definition_on_all_pairs(kind):
    perms = list(every_element(kind))
    for u, v in itertools.product(perms, repeat=2):
        assert weyl.compose(u, v) == compose_per_entry(u, v)


@pytest.mark.parametrize("kind", UP_TO_4, ids=kind_id)
def test_compose_matches_the_per_entry_definition_on_sampled_pairs(kind):
    perms = list(every_element(kind))
    sample = perms[:: max(1, len(perms) // 10)]
    for u in perms:
        for v in sample:
            assert weyl.compose(u, v) == compose_per_entry(u, v)


@pytest.mark.parametrize("kind", UP_TO_4, ids=kind_id)
def test_walk_images_are_weyl_element_products(kind):
    perms = list(every_element(kind))
    frontier = perms[:: max(1, len(perms) // 200)]
    elements = [weyl.WeylElement(kind, perm) for perm in frontier]
    for gens in (weyl.simple_reflections(kind), weyl.parabolic_mark(kind)):
        perms_of = [s.perm for s in gens]
        right = list(weyl.right_images(perms_of)(frontier))
        assert right == [[(w * s).perm for w in elements] for s in gens]
        both = list(weyl.two_sided_images(perms_of)(frontier))
        assert both[0::2] == right
        assert both[1::2] == [[(s * w).perm for w in elements] for s in gens]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_type_c_accepts_exactly_the_perms_centralizing_iota(n):
    kind = weyl.type_c(n)
    signed = set(every_element(kind))
    for perm in itertools.permutations(range(1, 2 * n + 1)):
        if perm in signed:
            assert weyl.WeylElement(kind, perm).perm == perm
        else:
            with pytest.raises(ValueError, match="centralize iota"):
                weyl.WeylElement(kind, perm)
    assert len(signed) == weyl.order(kind)


def test_equal_kinds_built_apart_share_one_hash_and_one_cache_entry():
    a, b = weyl.GroupKind(weyl.Family.TYPE_C, 3), weyl.GroupKind(weyl.Family.TYPE_C, 3)
    assert a is not b and a == b and hash(a) == hash(b)
    assert {a: 1}[b] == 1
    probe = functools.lru_cache(maxsize=None)(lambda kind: object())
    assert probe(a) is probe(b)
    assert probe.cache_info().currsize == 1
    assert roots._pair_tables(a) is roots._pair_tables(b)
    # the other family and the other rank are other keys
    assert len({a, weyl.type_a(3), weyl.type_c(2), weyl.type_c(3)}) == 3


def test_kinds_have_no_order():
    # an order on kinds compared Family enums, which have none, across families
    with pytest.raises(TypeError):
        weyl.type_a(1) < weyl.type_a(2)
    with pytest.raises(TypeError):
        sorted([weyl.type_c(1), weyl.type_a(2)])


def test_products_of_mismatched_kinds_still_raise():
    with pytest.raises(ValueError, match="different kinds"):
        weyl.identity(weyl.type_a(2)) * weyl.identity(weyl.type_c(2))
    with pytest.raises(ValueError, match="different kinds"):
        weyl.identity(weyl.type_c(2)) * weyl.identity(weyl.type_c(3))
    # an equal kind built apart is the same kind
    u = weyl.WeylElement(weyl.GroupKind(weyl.Family.TYPE_A, 1), (2, 1))
    v = weyl.WeylElement(weyl.GroupKind(weyl.Family.TYPE_A, 1), (2, 1))
    assert (u * v).is_identity()


def test_bijection_check_reads_the_kind_it_is_given():
    for perm in ((1, 2, 3), (1,), (2, 2), (0, 1), (1, 3)):
        with pytest.raises(ValueError, match="bijection"):
            weyl.WeylElement(weyl.type_a(1), perm)
    assert weyl.WeylElement(weyl.type_c(2), (3, 2, 1, 4)).perm == (3, 2, 1, 4)
