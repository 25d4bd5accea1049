import itertools
import random

import pytest

from bruhat_satake import roots, weyl
from bruhat_satake.roots import (
    all_roots,
    cell_dim_by_roots,
    in_n_i,
    in_nbar_i,
    in_phi_i,
    is_positive,
    root,
)
from oracles import w_j, weyl_action

KINDS = [weyl.type_a(1), weyl.type_a(2), weyl.type_a(3), weyl.type_c(1), weyl.type_c(2), weyl.type_c(3)]
ORACLE_KINDS = [weyl.type_a(n) for n in range(1, 5)] + [weyl.type_c(n) for n in range(1, 5)]


def negative(kind, r):
    a, b = r
    return root(kind, b, a)


def split(kind):
    """Phi+, Phi-, Phi_I, N_I and Nbar_I as sets of canonical pairs."""
    every = all_roots(kind)
    pos = frozenset(r for r in every if is_positive(kind, r))
    return (
        pos,
        every - pos,
        frozenset(r for r in every if in_phi_i(kind, r)),
        frozenset(r for r in every if in_n_i(kind, r)),
        frozenset(r for r in every if in_nbar_i(kind, r)),
    )


# ----------------------------------------------------- the textbook oracle


def unit(kind, x):
    """e_x in Z^{2n} (type A); in type C e_i in Z^n, with e_{n+i} = -e_i."""
    n = kind.n
    if kind.family is weyl.Family.TYPE_A:
        return tuple(int(j == x) for j in range(1, 2 * n + 1))
    i, sign = (x, 1) if x <= n else (x - n, -1)
    return tuple(sign * int(j == i) for j in range(1, n + 1))


def vector(kind, r):
    a, b = r
    return tuple(u - v for u, v in zip(unit(kind, a), unit(kind, b)))


def plus(u, v):
    return tuple(x + y for x, y in zip(u, v))


def textbook(kind):
    """Phi, Phi+, Phi_I, N_I and -N_I of the Siegel parabolic, as vectors."""
    n = kind.n
    type_a = kind.family is weyl.Family.TYPE_A
    dim = 2 * n if type_a else n

    def e(i, c=1):
        return tuple(c * int(j == i) for j in range(1, dim + 1))

    pairs = list(itertools.combinations(range(1, dim + 1), 2))
    if type_a:
        pos = {plus(e(i), e(j, -1)) for i, j in pairs}
        n_i = {plus(e(i), e(j, -1)) for i in range(1, n + 1) for j in range(n + 1, 2 * n + 1)}
    else:
        n_i = {plus(e(i), e(j)) for i, j in pairs} | {e(i, 2) for i in range(1, n + 1)}
        pos = n_i | {plus(e(i), e(j, -1)) for i, j in pairs}
    neg = {tuple(-x for x in v) for v in pos}
    nbar_i = {tuple(-x for x in v) for v in n_i}
    return pos | neg, pos, (pos | neg) - n_i - nbar_i, n_i, nbar_i


def signed_permutation(kind, w, v):
    """w acting on a root vector, linearly, by e_x -> e_{w(x)} on its coordinates x."""
    out = (0,) * len(v)
    for x, c in enumerate(v, start=1):
        out = plus(out, tuple(c * u for u in unit(kind, w(x))))
    return out


@pytest.mark.parametrize("kind", ORACLE_KINDS, ids=lambda k: f"{k.family.value}{k.n}")
def test_pairs_match_the_textbook_root_system(kind):
    phi, pos, levi, n_i, nbar_i = textbook(kind)
    every = all_roots(kind)
    vectors = {r: vector(kind, r) for r in every}
    assert len(set(vectors.values())) == len(every)
    assert set(vectors.values()) == phi
    assert {vectors[r] for r in every if is_positive(kind, r)} == pos
    assert {vectors[r] for r in every if in_phi_i(kind, r)} == levi
    assert {vectors[r] for r in every if in_n_i(kind, r)} == n_i
    assert {vectors[r] for r in every if in_nbar_i(kind, r)} == nbar_i
    # every ordered pair canonicalizes to the pair of its vector
    for a, b in itertools.permutations(range(1, kind.ambient + 1), 2):
        assert vectors[root(kind, a, b)] == vector(kind, (a, b))
    elements = weyl.all_elements(kind)
    for w in elements[:: max(1, len(elements) // 400)]:
        for r in every:
            assert vectors[weyl_action(w, r)] == signed_permutation(kind, w, vectors[r])


def test_root_refuses_an_invalid_pair():
    for a, b in ((1, 1), (0, 2), (1, 5)):
        with pytest.raises(ValueError):
            root(weyl.type_c(2), a, b)


# ------------------------------------------------------------- properties


@pytest.mark.parametrize("kind", KINDS)
def test_root_counts(kind):
    n = kind.n
    expected = 2 * n * (2 * n - 1) if kind.family is weyl.Family.TYPE_A else 2 * n * n
    pos, neg, _, _, _ = split(kind)
    assert len(all_roots(kind)) == expected
    assert len(pos) == len(neg) == expected // 2
    assert pos | neg == all_roots(kind)
    assert not pos & neg


@pytest.mark.parametrize("kind", KINDS)
def test_negation_is_an_involution_swapping_signs(kind):
    for r in all_roots(kind):
        assert negative(kind, r) in all_roots(kind)
        assert negative(kind, negative(kind, r)) == r
        assert is_positive(kind, r) != is_positive(kind, negative(kind, r))


@pytest.mark.parametrize("kind", KINDS[:4])
def test_weyl_action_is_a_root_permutation(kind):
    for w in weyl.all_elements(kind):
        image = {weyl_action(w, r) for r in all_roots(kind)}
        assert image == all_roots(kind)


@pytest.mark.parametrize("kind", KINDS[:4])
def test_weyl_action_is_compatible_with_products(kind):
    elements = weyl.all_elements(kind)[:12]
    sample = sorted(all_roots(kind))[::3]
    for u, v in itertools.product(elements[:6], elements[6:12] or elements):
        for r in sample:
            assert weyl_action(u * v, r) == weyl_action(u, weyl_action(v, r))


@pytest.mark.parametrize("kind", KINDS)
def test_length_equals_inversion_count(kind):
    # geometric length: roots made negative; independent of the Cayley BFS
    pos = split(kind)[0]
    for w in weyl.all_elements(kind)[:120]:
        inversions = sum(1 for r in pos if not is_positive(kind, weyl_action(w, r)))
        assert weyl.length(w) == inversions


@pytest.mark.parametrize("kind", KINDS)
def test_parabolic_split(kind):
    pos, neg, phi_i, n_i, nbar_i = split(kind)
    assert phi_i | n_i | nbar_i == all_roots(kind)
    assert not (phi_i & n_i or phi_i & nbar_i or n_i & nbar_i)
    assert n_i == pos - phi_i and nbar_i == neg - phi_i
    assert len(n_i) == len(nbar_i) == roots.cell_dim_formula(kind, kind.n)
    assert {negative(kind, r) for r in n_i} == nbar_i
    assert {negative(kind, r) for r in phi_i} == phi_i


@pytest.mark.parametrize("kind", KINDS[:4])
def test_dim_functions_match_setwise_definitions(kind):
    # oracle: direct set arithmetic on canonical pairs, no pair or hit tables
    pos, neg, phi_i, n_i, nbar_i = split(kind)
    upper = pos | phi_i
    lower = neg | phi_i
    for w in weyl.all_elements(kind):
        img_lo = frozenset(weyl_action(w, r) for r in lower)
        img_up = frozenset(weyl_action(w, r) for r in upper)
        assert cell_dim_by_roots(w) == len(upper - img_lo)
        assert roots.unipotent_intersection_dim(w) == len(img_lo & nbar_i)
        assert roots.standard_unipotent_intersection_dim(w) == len(img_up & n_i)


@pytest.mark.parametrize("kind", ORACLE_KINDS, ids=lambda k: f"{k.family.value}{k.n}")
def test_pair_counts_match_counts_over_canonical_pairs(kind):
    # every (source, target) table pair the dimension functions count with,
    # against weyl_action on canonical pairs; all of W for n <= 2, a sample above
    pos, neg, phi_i, n_i, nbar_i = split(kind)
    upper, lower = pos | phi_i, neg | phi_i
    tables = roots._pair_tables(kind)
    for name, roots_of in (("upper_pairs", upper), ("lower_pairs", lower)):
        xs, ys = tables[name]
        assert sorted(zip(xs, ys)) == list(zip(xs, ys))
        assert sorted((a + 1, b + 1) for a, b in zip(xs, ys)) == sorted(roots_of)
    assert tables["upper_size"] == len(upper)
    if kind.n == 1:  # one pair: e_2 - e_1 in A1, -2e_1 in C1
        assert tables["lower_pairs"] == (b"\x01", b"\x00")
    counted = {("lower_pairs", "upper_hits"): (lower, upper), ("lower_pairs", "nbar_hits"): (lower, nbar_i),
               ("upper_pairs", "n_hits"): (upper, n_i)}
    elements = weyl.all_elements(kind)
    for w in elements[:: 1 if kind.n <= 2 else 37]:
        for (source, target), (src, dst) in counted.items():
            assert roots._moved_into(tables, w.perm, source, target) == sum(weyl_action(w, r) in dst for r in src)


# ------------------------------------------ the per-pair oracle of the counts


def per_pair_tables(kind):
    """The count tables as the plain comprehension reads them: source sets
    as 0-based index pairs, target sets as (2n+1) x (2n+1) 0/1 matrices
    (row and column 0 padding), from the predicates alone."""
    span = range(kind.ambient + 1)

    def upper(r):
        return is_positive(kind, r) or in_phi_i(kind, r)

    def lower(r):
        return not is_positive(kind, r) or in_phi_i(kind, r)

    def pairs(pred):
        return tuple((a - 1, b - 1) for a, b in sorted(filter(pred, all_roots(kind))))

    def hits(pred):
        return tuple(tuple(int(a != b and 0 not in (a, b) and pred((a, b))) for b in span) for a in span)

    return {
        "lower_pairs": pairs(lower),
        "upper_pairs": pairs(upper),
        "upper_hits": hits(upper),
        "n_hits": hits(lambda r: in_n_i(kind, r)),
        "nbar_hits": hits(lambda r: in_nbar_i(kind, r)),
    }


def per_pair_count(tables, w, pairs, hits):
    """How many roots of ``pairs`` w moves into ``hits``, one pair at a time."""
    p, target = w.perm, tables[hits]
    return sum([target[p[a]][p[b]] for a, b in tables[pairs]])


def assert_counts_match_the_oracle(kind, elements, subsets, w0=None):
    """The counted dimensions against the per-pair comprehension: every
    (pairs, hits) use, at each element and at each J's w_J, and
    ``schubert_cell_dim`` (which finds w_0 by enumerating W) when w0 is given."""
    oracle = per_pair_tables(kind)
    size = len(oracle["upper_pairs"])
    for w in elements:
        assert cell_dim_by_roots(w) == size - per_pair_count(oracle, w, "lower_pairs", "upper_hits")
        assert roots.unipotent_intersection_dim(w) == per_pair_count(oracle, w, "lower_pairs", "nbar_hits")
        assert roots.standard_unipotent_intersection_dim(w) == per_pair_count(oracle, w, "upper_pairs", "n_hits")
        if w0 is not None:
            assert roots.schubert_cell_dim(w) == size - per_pair_count(oracle, w * w0, "lower_pairs", "upper_hits")
    for w in (w_j(kind, J) for J in subsets):
        assert roots.standard_unipotent_intersection_dim(w) == per_pair_count(oracle, w, "upper_pairs", "n_hits")


BYTE_KINDS = [weyl.type_a(n) for n in range(1, 5)] + [weyl.type_c(n) for n in range(1, 7)]


@pytest.mark.parametrize("kind", BYTE_KINDS, ids=lambda k: f"{k.family.value}{k.n}")
def test_byte_counts_match_the_per_pair_comprehension_on_all_of_w(kind):
    assert roots._pair_tables(kind)["byte_width"] is not None  # 2n+1 <= 16: the byte kernel
    assert_counts_match_the_oracle(kind, weyl.all_elements(kind), weyl.all_subsets_j(kind), weyl.longest_element(kind))


def random_element(kind, rng):
    """A uniform element of W built from its one-line form, without enumerating W."""
    n = kind.n
    if kind.family is weyl.Family.TYPE_A:
        return weyl.WeylElement(kind, tuple(rng.sample(range(1, 2 * n + 1), 2 * n)))
    top = [x + n * rng.randrange(2) for x in rng.sample(range(1, n + 1), n)]
    return weyl.WeylElement(kind, tuple(top) + tuple(weyl.iota(x, n) for x in top))


@pytest.mark.parametrize("kind", [weyl.type_a(7), weyl.type_a(8), weyl.type_c(7), weyl.type_c(8), weyl.type_c(9)],
                         ids=lambda k: f"{k.family.value}{k.n}")
def test_counts_past_the_enumerated_range_match_the_oracle(kind):
    # the path follows the kind alone: codes x * (2n+1) + y fit a byte up to n = 7
    assert (roots._pair_tables(kind)["byte_width"] is None) == (2 * kind.n + 1 > 16)
    rng = random.Random(kind.n)
    elements = [random_element(kind, rng) for _ in range(300)]
    subsets = weyl.all_subsets_j(kind)
    assert_counts_match_the_oracle(kind, elements, subsets[:: max(1, len(subsets) // 100)])


@pytest.mark.parametrize("kind", KINDS)
def test_unipotent_dim_equals_cell_dim_everywhere(kind):
    w0 = weyl.longest_element(kind)
    for w in weyl.all_elements(kind):
        d = cell_dim_by_roots(w)
        assert roots.unipotent_intersection_dim(w) == d
        assert roots.standard_unipotent_intersection_dim(w) == d
        assert roots.schubert_cell_dim(w) == cell_dim_by_roots(w * w0)


@pytest.mark.parametrize("kind", KINDS)
def test_canonical_rep_cell_dims_closed_form(kind):
    n = kind.n
    for k, rep in enumerate(weyl.double_cosets(kind)):
        want = k * (2 * n - k) if kind.family is weyl.Family.TYPE_A else k * (2 * n - k + 1) // 2
        assert roots.cell_dim_formula(kind, k) == want
        assert roots.schubert_cell_dim(rep) == want


@pytest.mark.parametrize("kind", KINDS)
def test_cell_dim_constant_on_double_cosets(kind):
    for block in weyl.double_coset_partition(kind):
        dims = {roots.schubert_cell_dim(weyl.WeylElement(kind, perm)) for perm in block}
        assert len(dims) == 1


@pytest.mark.parametrize("kind", KINDS)
def test_frame_pairing_rank_identity(kind):
    # the rank of the J-frame pairing, #( roots(N_I) cap w_J(roots(P_I)) )
    w0 = weyl.longest_element(kind)
    for J in weyl.all_subsets_j(kind):
        w = w_j(kind, J)
        assert roots.standard_unipotent_intersection_dim(w) == roots.schubert_cell_dim(w * w0)
    # J = {1..n} gives w_J = identity and the full rank dim N_I
    base = w_j(kind, frozenset(range(1, kind.n + 1)))
    assert base.is_identity()
    assert roots.standard_unipotent_intersection_dim(base) == roots.cell_dim_formula(kind, kind.n)
