import itertools

import numpy as np
import pytest

from bruhat_satake import flagfq, roots, weyl

SMALL = [
    (weyl.type_a(1), 2),
    (weyl.type_a(1), 3),
    (weyl.type_c(1), 2),
    (weyl.type_c(1), 3),
    (weyl.type_a(2), 2),
    (weyl.type_c(2), 2),
    (weyl.type_c(2), 3),
]


def brute_subspaces(kind, q):
    """All n-dimensional subspaces of F_q^{2n} by scanning every row span,
    isotropic ones only in type C.  Exponential; keep the inputs tiny."""
    n = kind.n
    seen = set()
    out = []
    vectors = list(itertools.product(range(q), repeat=2 * n))
    for rows in itertools.combinations(vectors, n):
        try:
            sub = flagfq.subspace_from_rows(np.array(rows, dtype=np.int64), q)
        except ValueError:  # rank-deficient row set
            continue
        if sub.mat.tobytes() in seen:
            continue
        if kind.family is weyl.Family.TYPE_C and not flagfq.is_isotropic(sub, n):
            continue
        seen.add(sub.mat.tobytes())
        out.append(sub)
    return out


@pytest.mark.parametrize("q", [2, 3, 5])
def test_order_formulas(q):
    assert flagfq.gl_order(1, q) == q - 1
    assert flagfq.gl_order(2, q) == (q**2 - 1) * (q**2 - q)
    assert flagfq.sp_order(1, q) == flagfq.gl_order(2, q) // (q - 1)  # Sp_2 = SL_2
    assert flagfq.flag_size(weyl.type_a(1), q) == q + 1
    assert flagfq.flag_size(weyl.type_c(1), q) == q + 1
    assert flagfq.flag_size(weyl.type_a(2), q) == flagfq.gaussian_binomial(4, 2, q)


@pytest.mark.parametrize(
    "kind,q",
    [(weyl.type_a(1), 2), (weyl.type_a(1), 3), (weyl.type_a(2), 2), (weyl.type_c(1), 2), (weyl.type_c(2), 2), (weyl.type_c(2), 3)],
)
def test_group_closure_matches_order(kind, q):
    mats = flagfq._group_matrices(kind, q)
    assert mats.shape[0] == flagfq.group_order(kind, q)
    for mat in mats[:25]:
        assert flagfq.is_in_group(kind, mat, q)


@pytest.mark.parametrize("kind,q", SMALL)
def test_borel_and_parabolic_closures(kind, q):
    assert flagfq._borel_matrices(kind, q).shape[0] == flagfq.borel_order(kind, q)
    assert flagfq._parabolic_matrices(kind, q).shape[0] == flagfq.parabolic_order(kind, q)


@pytest.mark.parametrize("kind,q", [(weyl.type_a(1), 2), (weyl.type_a(1), 3), (weyl.type_c(2), 2)])
def test_enumerate_flag_against_brute_force(kind, q):
    points = flagfq.enumerate_flag(kind, q)
    brute = brute_subspaces(kind, q)
    assert {p.mat.tobytes() for p in points} == {p.mat.tobytes() for p in brute}


@pytest.mark.parametrize("kind,q", SMALL)
def test_flag_count(kind, q):
    assert len(flagfq.enumerate_flag(kind, q)) == flagfq.flag_size(kind, q)


@pytest.mark.parametrize("kind,q", SMALL)
def test_action_is_a_group_action(kind, q):
    points = flagfq.enumerate_flag(kind, q)
    gens = flagfq.group_generators(kind, q)
    rng = np.random.default_rng(0)
    for _ in range(20):
        U = points[rng.integers(len(points))]
        g = gens[rng.integers(len(gens))]
        h = gens[rng.integers(len(gens))]
        gh = (g @ h) % q
        assert flagfq.is_in_group(kind, gh, q)
        assert flagfq.act(gh, U) == flagfq.act(g, flagfq.act(h, U))
        if kind.family is weyl.Family.TYPE_C:
            assert flagfq.is_isotropic(flagfq.act(g, U), kind.n)


def test_census_literals():
    assert flagfq.cell_census(weyl.type_a(2), 2) == {0: 1, 1: 18, 2: 16}
    assert flagfq.cell_census(weyl.type_c(2), 2) == {0: 1, 1: 6, 2: 8}
    assert flagfq.cell_census(weyl.type_a(1), 3) == {0: 1, 1: 3}


@pytest.mark.parametrize("kind,q", SMALL)
def test_census_open_cell_and_total(kind, q):
    census = flagfq.cell_census(kind, q)
    assert sum(census.values()) == flagfq.flag_size(kind, q)
    assert census[kind.n] == q ** roots.cell_dim_formula(kind, kind.n)
    assert census[0] == 1  # the base point alone
    # brute tau recount straight from the rank definition
    points = flagfq.enumerate_flag(kind, q)
    recount = {}
    for U in points:
        t = flagfq.tau_of_point(U)
        recount[t] = recount.get(t, 0) + 1
    assert recount == census


@pytest.mark.parametrize("kind,q", SMALL)
def test_tau_of_base_point_and_invariance(kind, q):
    base = flagfq.base_point(kind, q)
    assert flagfq.tau_of_point(base) == 0
    par = flagfq._parabolic_matrices(kind, q)
    rng = np.random.default_rng(1)
    points = flagfq.enumerate_flag(kind, q)
    for _ in range(15):
        U = points[rng.integers(len(points))]
        g = par[rng.integers(par.shape[0])]
        assert flagfq.tau_of_point(flagfq.act(g, U)) == flagfq.tau_of_point(U)


@pytest.mark.parametrize("kind,q", [(weyl.type_a(1), 2), (weyl.type_a(1), 3), (weyl.type_c(1), 2), (weyl.type_c(1), 3), (weyl.type_c(2), 2)])
def test_closure_order_check(kind, q):
    res = flagfq.closure_order_check(kind, q)
    assert res["ok"]
    assert res["points"] == flagfq.flag_size(kind, q)


@pytest.mark.parametrize("kind,q", [(weyl.type_a(1), 2), (weyl.type_a(1), 3), (weyl.type_c(1), 2), (weyl.type_c(2), 2)])
def test_cover_lemma_small(kind, q):
    res = flagfq.cover_lemma_check(kind, q)
    assert res["ok"], res


@pytest.mark.parametrize("kind,q", [(weyl.type_a(1), 2), (weyl.type_c(1), 3), (weyl.type_c(2), 2), (weyl.type_a(2), 2)])
def test_finding_j_small(kind, q):
    res = flagfq.finding_j_check(kind, q)
    assert res["ok"], res


def test_guard_rejects_oversized_inputs():
    with pytest.raises(ValueError):
        flagfq.enumerate_flag(weyl.type_a(3), 5)
    with pytest.raises(ValueError):
        flagfq._group_matrices(weyl.type_a(2), 5)


@pytest.mark.parametrize("kind,q", [(weyl.type_a(2), 2), (weyl.type_c(2), 2), (weyl.type_c(2), 3)])
def test_weyl_matrices_lift_the_group(kind, q):
    # every lift lies in the group and realizes w on the torus-fixed points
    base = flagfq.base_point(kind, q)
    for w in weyl.all_elements(kind):
        assert flagfq.is_in_group(kind, flagfq.weyl_matrix(w, q), q)
    for w in weyl.all_elements(kind)[:12]:
        for v in weyl.all_elements(kind)[:8]:
            left = flagfq.act(flagfq.weyl_matrix(w, q), flagfq.act(flagfq.weyl_matrix(v, q), base))
            right = flagfq.act(flagfq.weyl_matrix(w * v, q), base)
            assert left == right  # the torus ambiguity of lifts fixes the base point
    for w in weyl.all_elements(kind):
        fixed = flagfq.act(flagfq.weyl_matrix(w, q), base)
        assert flagfq.tau_of_point(fixed) == weyl.tau(w)


def test_weyl_matrix_refuses_a_lift_outside_the_group(monkeypatch):
    kind, q = weyl.type_a(1), 2
    w = weyl.identity(kind)
    monkeypatch.setattr(flagfq, "_weyl_matrix_table", lambda kind, q: {w.perm: np.zeros((2, 2), dtype=np.int64)})
    with pytest.raises(ValueError):
        flagfq.weyl_matrix(w, q)


def test_weyl_matrix_guard_refuses_before_any_enumeration(monkeypatch):
    # |W(A_5)| = 10! = 3,628,800 lifts: refused by the closed-form order
    # before any kernel call or WeylElement construction
    w = weyl.identity(weyl.type_a(5))

    def enumeration_started(*args, **kwargs):
        raise AssertionError("enumeration started")

    for name in ("rank_mod", "rref_mod", "matmul_mod"):
        monkeypatch.setattr(flagfq.kernels, name, enumeration_started)
    monkeypatch.setattr(weyl.WeylElement, "__post_init__", enumeration_started)
    with pytest.raises(ValueError, match="exceeds the guard"):
        flagfq.weyl_matrix(w, 2)


@pytest.mark.parametrize("kind,q", [(weyl.type_a(2), 2), (weyl.type_c(2), 2), (weyl.type_a(2), 3)])
def test_plucker_duality(kind, q):
    # s_{J^c}(U) != 0 exactly when U meets the frame of J trivially
    points = flagfq.enumerate_flag(kind, q)
    for U in points[:: max(1, len(points) // 15)]:
        coords = flagfq.plucker(U)
        for J in weyl.all_subsets_j(kind):
            comp = tuple(sorted(set(range(1, 2 * kind.n + 1)) - J.members))
            assert (coords[comp] % q != 0) == flagfq.meets_trivially(U, J)


def test_plucker_three_term_relation():
    # Grassmannian Gr(2, 4) over F_3: s12 s34 - s13 s24 + s14 s23 = 0
    kind, q = weyl.type_a(2), 3
    for U in flagfq.enumerate_flag(kind, q):
        s = flagfq.plucker(U)
        lhs = s[(1, 2)] * s[(3, 4)] - s[(1, 3)] * s[(2, 4)] + s[(1, 4)] * s[(2, 3)]
        assert lhs % q == 0
