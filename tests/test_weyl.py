import functools
import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bruhat_satake import roots, weyl
import oracles
from oracles import parabolic_elements, right_images, two_sided_images, w_j, weyl_inverse

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


@pytest.mark.parametrize("family", list(weyl.Family), ids=lambda f: f.value)
def test_the_mark_is_every_simple_reflection_but_the_nth(family):
    # I = S - {s_n} in both families: s_n is the middle reflection of type A
    # and the last of type C
    for n in range(1, 9):
        kind = weyl.GroupKind(family, n)
        refl = [s.perm for s in weyl.simple_reflections(kind)]
        assert [s.perm for s in weyl.parabolic_mark(kind)] == refl[: n - 1] + refl[n:]
        assert len(refl) == (2 * n - 1 if family is weyl.Family.TYPE_A else n)


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
    assert len(set(subs)) == expected
    for J in subs:
        w = w_j(kind, J)
        assert (w * w).is_identity()
        assert frozenset(map(w, range(1, n + 1))) == J


def test_w_j_literal():
    # the moved docstring example: {1, 2} is swapped, in order, with {3, 4}
    assert w_j(weyl.type_a(2), frozenset({3, 4})).perm == (3, 4, 1, 2)


FRAME_KINDS = [weyl.GroupKind(family, n) for family in weyl.Family for n in range(1, 6)]


@pytest.mark.parametrize("kind", FRAME_KINDS, ids=lambda k: f"{k.family.value}{k.n}")
def test_every_frame_is_an_admissible_n_subset(kind):
    n = kind.n
    for J in weyl.all_subsets_j(kind):
        assert isinstance(J, frozenset) and len(J) == n and J <= set(range(1, 2 * n + 1))
        if kind.family is weyl.Family.TYPE_C:  # the lower part fixes the upper part
            lower = J & set(range(1, n + 1))
            assert J - lower == {j for j in range(n + 1, 2 * n + 1) if j - n not in lower}


@pytest.mark.parametrize("kind", FRAME_KINDS, ids=lambda k: f"{k.family.value}{k.n}")
def test_frames_strictly_increase_by_sorted_tuple_and_are_all_there(kind):
    n = kind.n
    keys = [tuple(sorted(J)) for J in weyl.all_subsets_j(kind)]
    assert all(x < y for x, y in zip(keys, keys[1:]))
    # as many as there are admissible n-subsets: with the strict order, every one of them
    assert len(keys) == (math.comb(2 * n, n) if kind.family is weyl.Family.TYPE_A else 2**n)


def test_tau_literal_values():
    # the n = 2 type A permutation swapping 1 <-> 3, 2 <-> 4 moves both of {1, 2} out
    kind = weyl.type_a(2)
    w = weyl.from_cycles(kind, [(1, 3), (2, 4)])
    assert weyl.tau(w) == 2
    assert weyl.tau(weyl.identity(kind)) == 0


def test_enumeration_guard_refuses_before_any_bfs(monkeypatch):
    def built(self):
        raise AssertionError("an element was built before the guard")

    for kind in (weyl.type_a(5), weyl.type_c(8)):
        assert weyl.order(kind) > weyl.WEYL_ORDER_GUARD
        with monkeypatch.context() as patch:
            patch.setattr(weyl.WeylElement, "__post_init__", built)
            with pytest.raises(ValueError, match="WEYL_ORDER_GUARD"):
                weyl.length_table(kind)
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
    levels = weyl.walk(weyl.identity(kind).perm, right_images([s.perm for s in refl]))
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


TABLE_KINDS = [weyl.type_a(n) for n in range(1, 5)] + [weyl.type_c(n) for n in range(1, 7)]


@pytest.mark.parametrize("kind", TABLE_KINDS, ids=lambda k: f"{k.family.value}{k.n}")
def test_length_table_equals_the_breadth_first_walk(kind, monkeypatch):
    want = oracles.length_table(kind)
    # a cold table (the uncached builder) runs no walk and builds no element
    # but the identity and the simple reflections it starts from
    built, post_init = [], weyl.WeylElement.__post_init__

    def counting_post_init(self):
        built.append(self.perm)
        post_init(self)

    def forbidden(*args):
        raise AssertionError("length_table walked W")

    monkeypatch.setattr(weyl, "walk", forbidden)
    monkeypatch.setattr(weyl.WeylElement, "__post_init__", counting_post_init)
    table = weyl.length_table.__wrapped__(kind)
    monkeypatch.undo()
    gens = [s.perm for s in weyl.simple_reflections(kind)]
    assert sorted(built) == sorted([weyl.identity(kind).perm, *gens])
    assert table == want and weyl.length_table(kind) == want
    # the identity first, lengths never decrease, and each w != e comes after
    # some w s one shorter
    perms = list(table)
    assert perms[0] == weyl.identity(kind).perm
    assert list(table.values()) == sorted(table.values())
    position = {perm: i for i, perm in enumerate(perms)}
    for i, perm in enumerate(perms[1:], start=1):
        shorter = [weyl.compose(perm, s) for s in gens]
        assert any(table[ws] == table[perm] - 1 and position[ws] < i for ws in shorter)


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
        right = list(right_images(perms_of)(frontier))
        assert right == [[(w * s).perm for w in elements] for s in gens]
        both = list(two_sided_images(perms_of)(frontier))
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


# ------------------------------------------------- cosets and the sorted order
# Oracle: the two-sided walk over all of W


@pytest.mark.parametrize("kind", UP_TO_4, ids=kind_id)
def test_double_coset_partition_equals_the_two_sided_walk(kind):
    # the same blocks in the same order: sorted by their least perm
    assert weyl.double_coset_partition(kind) == oracles.double_coset_partition(kind)


@pytest.mark.parametrize("kind", UP_TO_4, ids=kind_id)
def test_double_coset_partition_reads_no_representative(kind, monkeypatch):
    # criterion 1 compares the partition with the sigma_k, so it may not read them
    def forbidden(*args):
        raise AssertionError("the partition read the representatives")

    for name in ("tau", "sigma", "double_cosets", "double_coset_size"):
        monkeypatch.setattr(weyl, name, forbidden)
    assert weyl.double_coset_partition(kind) == oracles.double_coset_partition(kind)


@pytest.mark.parametrize("kind", UP_TO_4, ids=kind_id)
def test_double_coset_partition_walks_right_cosets_and_builds_no_element(kind, monkeypatch):
    n = kind.n
    weyl.length_table(kind)  # a cold table builds the identity and the simple reflections
    reached, built = [], []
    walk, post_init = weyl.walk, weyl.WeylElement.__post_init__

    def counting_walk(start, images):
        return walk(start, lambda frontier: (reached.extend(frontier), images(frontier))[1])

    def counting_post_init(self):
        built.append(self.perm)
        post_init(self)

    monkeypatch.setattr(weyl, "walk", counting_walk)
    monkeypatch.setattr(weyl.WeylElement, "__post_init__", counting_post_init)
    blocks = weyl.double_coset_partition(kind)
    cosets = math.comb(2 * n, n) if kind.family is weyl.Family.TYPE_A else 2**n
    # every right coset w W_I is one subset w({1..n}), reached once
    assert len(reached) == len(set(reached)) <= cosets
    assert all(len(subset) == n for subset in reached)
    # the only elements built are the simple reflections that the mark is cut from
    assert sorted(built) == sorted(s.perm for s in weyl.simple_reflections(kind))
    assert sum(map(len, blocks)) == weyl.order(kind)


@pytest.mark.parametrize("kind", KINDS)
def test_all_elements_is_a_fresh_list_in_length_then_perm_order(kind):
    table = weyl.length_table(kind)
    first = weyl.all_elements(kind)
    assert [w.perm for w in first] == sorted(table, key=lambda perm: (table[perm], perm))
    expected = [w.perm for w in first]
    first.reverse()
    first.append(weyl.identity(kind))
    second = weyl.all_elements(kind)
    assert second is not first and [w.perm for w in second] == expected
    assert all(u is not v for u, v in zip(weyl.all_elements(kind), second))
