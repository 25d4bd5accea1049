import itertools
import tracemalloc

import numpy as np
import pytest

from bruhat_satake import flagfq, kernels, roots, weyl
from oracles import act, is_isotropic

SMALL = [
    (weyl.type_a(1), 2),
    (weyl.type_a(1), 3),
    (weyl.type_c(1), 2),
    (weyl.type_c(1), 3),
    (weyl.type_a(2), 2),
    (weyl.type_c(2), 2),
    (weyl.type_c(2), 3),
]


def symplectic(n):
    """The Gram matrix [[0, I], [-I, 0]] of the symplectic form on F_q^{2n}."""
    eye, zero = np.eye(n, dtype=np.int64), np.zeros((n, n), dtype=np.int64)
    return np.block([[zero, eye], [-eye, zero]])


def reference_flag(kind, q):
    """Row tuples of every point: pivot patterns in lexicographic order, then
    the free entries (i, j), read row by row, in lexicographic order."""
    n = kind.n
    out = []
    for pivots in itertools.combinations(range(2 * n), n):
        free = [(i, j) for i in range(n) for j in range(pivots[i] + 1, 2 * n) if j not in pivots]
        for values in itertools.product(range(q), repeat=len(free)):
            mat = np.zeros((n, 2 * n), dtype=np.int64)
            mat[range(n), pivots] = 1
            for (i, j), v in zip(free, values):
                mat[i, j] = v
            if kind.family is weyl.Family.TYPE_C and (mat @ symplectic(n) @ mat.T % q).any():
                continue
            out.append(tuple(map(tuple, mat.tolist())))
    return out


def reference_closure(gens, q):
    """Breadth-first closure, one matrix at a time: for each generator, the
    frontier's products in frontier order, keeping first occurrences."""
    start = np.eye(gens[0].shape[0], dtype=np.int64)
    order, seen, frontier = [start], {start.tobytes()}, [start]
    while frontier:
        new = []
        for g in gens:
            for x in frontier:
                y = (x @ g) % q
                if y.tobytes() not in seen:
                    seen.add(y.tobytes())
                    order.append(y)
                    new.append(y)
        frontier = new
    return np.stack(order)


def int8_keys(mats):
    """The int8 bytes of each matrix in row-major order, as Python bytes."""
    arr = np.ascontiguousarray(mats, dtype=np.int8).reshape(len(mats), -1)
    return arr.view(np.dtype((np.void, arr.shape[1]))).ravel().tolist()


def reference_cover_lemma_check(kind, q):
    """``cover_lemma_check`` on Python sets of int8 byte keys, one left
    factor at a time: ``dict.fromkeys`` deduplicates the product sets,
    ``issuperset`` tests the inclusions and a set union collects the cover."""
    G = flagfq._group_matrices(kind, q)
    # the closures are byte stacks; the oracle multiplies in int64
    P = flagfq._parabolic_matrices(kind, q).astype(np.int64)
    B = flagfq._borel_matrices(kind, q).astype(np.int64)
    Pbar, Bbar = P.transpose(0, 2, 1) % q, B.transpose(0, 2, 1) % q

    def product_keys(left):  # x outer, y in P inner
        return (int8_keys((x @ P) % q) for x in left)

    def product_stack(left):
        keys = dict.fromkeys(itertools.chain.from_iterable(product_keys(left)))
        return np.frombuffer(b"".join(keys), dtype=np.int8).reshape(len(keys), *P.shape[1:]).astype(np.int64)

    def within(left, target):
        return all(target.issuperset(keys) for keys in product_keys(left))

    pbar_p = product_stack(Pbar)
    w0 = flagfq.weyl_matrix(weyl.longest_element(kind), q)
    p_w0_p = product_stack((P @ w0) % q)
    covered = set()
    lower = upper = True
    for w in weyl.all_elements(kind):
        wm = flagfq.weyl_matrix(w, q)
        target_lower = set(int8_keys((wm @ pbar_p) % q))
        covered |= target_lower
        lower = within((Bbar @ wm) % q, target_lower) and lower
        upper = within((B @ wm) % q, set(int8_keys((wm @ w0 @ p_w0_p) % q))) and upper
    covers = covered == set(int8_keys(G))
    return {
        "group_order": G.shape[0],
        "lower_inclusions": lower,
        "upper_inclusions": upper,
        "translates_cover_group": covers,
        "ok": lower and upper and covers,
    }


def codes(mats, q):
    """Each matrix's entries, row-major, as the base-q digits of a Python int."""
    return [sum(int(x) * q**k for k, x in enumerate(mat.flat)) for mat in mats]


def brute_subspaces(kind, q):
    """All n-dimensional subspaces of F_q^{2n} by scanning every row span,
    isotropic ones only in type C.  Exponential; keep the inputs tiny."""
    n = kind.n
    seen = set()
    out = []
    vectors = list(itertools.product(range(q), repeat=2 * n))
    for rows in itertools.combinations(vectors, n):
        try:
            sub = flagfq.subspace_from_rows(rows, q)
        except ValueError:  # rank-deficient row set
            continue
        if sub in seen:
            continue
        mat = np.array(sub, dtype=np.int64)
        if kind.family is weyl.Family.TYPE_C and (mat @ symplectic(n) @ mat.T % q).any():
            continue
        seen.add(sub)
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
    assert len(set(points)) == len(points) and set(points) == set(brute)


@pytest.mark.parametrize("kind,q", SMALL + [(weyl.type_c(3), 2)])
def test_enumerate_flag_order(kind, q):
    assert flagfq.enumerate_flag(kind, q) == reference_flag(kind, q)


@pytest.mark.parametrize("kind,q", [(weyl.type_c(2), 3), (weyl.type_a(2), 2)])
def test_is_isotropic_matches_the_gram_matrix(kind, q):
    n = kind.n
    rng = np.random.default_rng(6)
    for _ in range(200):
        rows = rng.integers(0, q, size=(rng.integers(1, n + 2), 2 * n))
        U = tuple(map(tuple, rows.tolist()))
        assert is_isotropic(U, n, q) == (not (rows @ symplectic(n) @ rows.T % q).any())


@pytest.mark.parametrize(
    "gens,q",
    [
        (flagfq.parabolic_generators(weyl.type_c(2), 2), 2),
        (flagfq.borel_generators(weyl.type_a(2), 3), 3),
        (flagfq.group_generators(weyl.type_a(1), 3), 3),
    ],
)
def test_closure_matches_a_reference_bfs(gens, q):
    want = reference_closure(gens, q)
    got = flagfq._closure(gens, q, len(want))
    assert got.dtype == np.uint8
    assert got.shape == want.shape and (got == want).all()


def walk_frontier_sizes(gens, q):
    """The frontier sizes of the closure as a ``weyl.walk`` over Python int
    codes, with one decode per level and one product and one keying per
    generator."""
    m = gens[0].shape[0]
    sizes = []

    def images(frontier):
        sizes.append(len(frontier))
        stack = kernels.mats_from_keys(frontier, (m, m), q)
        return (kernels.mat_keys(kernels.matmul_mod(stack, g % q, q), q).tolist() for g in gens)

    weyl.walk(kernels.mat_keys(np.eye(m, dtype=np.int64)[None] % q, q).item(), images)
    return sizes


@pytest.mark.parametrize(
    "gens,q",
    [
        (flagfq.parabolic_generators(weyl.type_c(2), 2), 2),
        (flagfq.borel_generators(weyl.type_a(2), 3), 3),
        (flagfq.group_generators(weyl.type_c(2), 2), 2),
    ],
)
def test_closure_makes_the_kernel_calls_of_a_walk(gens, q, monkeypatch):
    # the counted kernel calls and their left-operand shapes are those of the
    # walk: one keying of the identity, then per level and generator one
    # product and one keying of the whole frontier
    m = gens[0].shape[0]
    sizes = walk_frontier_sizes(gens, q)
    calls = []
    for name in ("matmul_mod", "mat_keys"):
        genuine = getattr(kernels, name)
        monkeypatch.setattr(
            kernels, name, lambda *args, name=name, genuine=genuine: calls.append((name, args[0].shape)) or genuine(*args)
        )
    flagfq._closure(gens, q, len(reference_closure(gens, q)))
    per_level = [(("matmul_mod", (f, m, m)), ("mat_keys", (f, m, m))) for f in sizes for _ in gens]
    assert calls == [("mat_keys", (1, m, m))] + [call for pair in per_level for call in pair]
    assert sizes[-1] > 0 and sum(sizes) == len(reference_closure(gens, q))


@pytest.mark.parametrize("chunk", [flagfq._PRODUCT_CHUNK, 20])
def test_product_set_is_every_pair_product(chunk, monkeypatch):
    monkeypatch.setattr(flagfq, "_PRODUCT_CHUNK", chunk)
    kind, q = weyl.type_a(1), 3
    left, right = flagfq._borel_matrices(kind, q), flagfq._parabolic_matrices(kind, q)
    # the codes of the pair products, deduplicated and sorted, multiplied in int64
    brute = sorted(set(codes([(x @ y) % q for x in left.astype(np.int64) for y in right], q)))
    got = flagfq._product_set(left, right, q)
    assert got.dtype == np.int64 and got.tolist() == brute


@pytest.mark.parametrize(
    "kind,q",
    [(weyl.type_a(1), 2), (weyl.type_a(1), 3), (weyl.type_a(1), 5), (weyl.type_c(1), 2), (weyl.type_c(1), 3), (weyl.type_a(2), 2)],
)
def test_chunked_inclusion_matches_the_product_set(kind, q):
    # the lower inclusions of cover_lemma_check, against the product set; a
    # target short of one product key runs the False branch too, and a target
    # cut below the largest product runs it past the target's last key
    P = flagfq._parabolic_matrices(kind, q)
    Pbar, Bbar = P.transpose(0, 2, 1) % q, flagfq._borel_matrices(kind, q).transpose(0, 2, 1) % q
    pbar_p = kernels.mats_from_keys(flagfq._product_set(Pbar, P, q), P.shape[1:], q)
    for w in weyl.all_elements(kind):
        wm = flagfq.weyl_matrix(w, q)
        left = kernels.matmul_mod(Bbar, wm, q)
        products = flagfq._product_set(left, P, q)
        target = flagfq._translate_keys(wm, pbar_p, q)
        assert target.tolist() == sorted(set(codes((wm @ pbar_p) % q, q)))
        short = target[target != products[len(products) // 2]]
        assert len(short) == len(target) - 1
        cut = target[target < products[-1]]
        for t, expected in ((target, True), (short, False), (cut, False)):
            assert set(products.tolist()).issubset(t.tolist()) is expected
            assert flagfq._products_within(left, P, q, t) is expected
            for keys in flagfq._product_keys(left, P, q):
                assert flagfq._keys_within(keys, t) is searchsorted_within(keys, t)


def searchsorted_within(keys, target):
    """Reference membership test: every key, sorted, probes the sorted
    target by binary search."""
    keys = np.sort(keys)
    found = target[np.searchsorted(target, keys).clip(max=len(target) - 1)]
    return bool((found == keys).all())


def test_keys_within_matches_binary_search_at_the_edges():
    target = np.array([3, 5, 8, 13, 21], dtype=np.int64)
    cases = [
        [5],  # one key
        [21, 3, 13, 8, 5],  # the whole target, unsorted
        [8, 8, 3, 8],  # repeated keys
        [0],  # below the target
        [22],  # above the target
        [4],  # between two codes
        [3, 21, 22],  # one miss among hits
        [2, 5, 2],  # a repeated miss
    ]
    for keys in cases:
        keys = np.array(keys, dtype=np.int64)
        assert flagfq._keys_within(keys, target) is searchsorted_within(keys, target)
    assert flagfq._keys_within(np.array([7], dtype=np.int64), np.array([], dtype=np.int64)) is False


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
        assert act(gh, U, q) == act(g, act(h, U, q), q)
        if kind.family is weyl.Family.TYPE_C:
            assert is_isotropic(act(g, U, q), kind.n, q)


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
        t = flagfq.tau_of_point(U, q)
        recount[t] = recount.get(t, 0) + 1
    assert recount == census


@pytest.mark.parametrize("kind,q", SMALL)
def test_tau_of_base_point_and_invariance(kind, q):
    base = flagfq.frame_subspace(weyl.SubsetJ(kind, frozenset(range(1, kind.n + 1))), q)  # U_0
    assert flagfq.tau_of_point(base, q) == 0
    par = flagfq._parabolic_matrices(kind, q)
    rng = np.random.default_rng(1)
    points = flagfq.enumerate_flag(kind, q)
    for _ in range(15):
        U = points[rng.integers(len(points))]
        g = par[rng.integers(par.shape[0])]
        assert flagfq.tau_of_point(act(g, U, q), q) == flagfq.tau_of_point(U, q)


ORBIT_CASES = [(weyl.GroupKind(family, n), q) for family in weyl.Family for n in (1, 2) for q in (2, 3)]


@pytest.mark.parametrize("kind,q", ORBIT_CASES, ids=str)
def test_a_point_is_its_rref_row_tuple(kind, q):
    for U in flagfq.enumerate_flag(kind, q):
        assert type(U) is tuple and all(type(row) is tuple for row in U)
        assert all(type(x) is int for row in U for x in row)
        assert flagfq.subspace_from_rows(U, q) == U


def test_enumerated_points_stay_within_their_memory_budget():
    # the 33,880 points of A 3 over F_3 as row tuples that share the rows of
    # their pivot pattern: 2.7 MB, against 5.7 MB as objects holding q and rows
    kind, q = weyl.type_a(3), 3
    tracemalloc.start()
    try:
        points = flagfq.enumerate_flag(kind, q)
        size = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(points) == flagfq.flag_size(kind, q)
    assert size < 4 * 10**6


def reference_orbit(U, group, q):
    """{act(g, U) for g in group}, with the row matrices U g^T deduplicated
    before they are reduced."""
    moved = np.unique(np.array(U, dtype=np.int64) @ group.transpose(0, 2, 1) % q, axis=0)
    return {flagfq.subspace_from_rows(rows.tolist(), q) for rows in moved}


@pytest.mark.parametrize("kind,q", ORBIT_CASES)
@pytest.mark.parametrize("group_name", ["borel", "parabolic"])
def test_orbits_against_the_group_action(kind, q, group_name):
    points = flagfq.enumerate_flag(kind, q)
    orbits = flagfq._orbits(points, getattr(flagfq, f"{group_name}_generators")(kind, q), q)
    # a partition into ascending index lists, ordered by their first point
    assert sorted(i for orbit in orbits for i in orbit) == list(range(len(points)))
    assert all(orbit == sorted(orbit) for orbit in orbits)
    assert [orbit[0] for orbit in orbits] == sorted(orbit[0] for orbit in orbits)
    # each orbit is the group's orbit of its first point, hence of each of its points
    group = getattr(flagfq, f"_{group_name}_matrices")(kind, q)
    for orbit in orbits:
        assert {points[i] for i in orbit} == reference_orbit(points[orbit[0]], group, q)


@pytest.mark.parametrize("kind,q", [(weyl.type_a(1), 2), (weyl.type_a(1), 3), (weyl.type_c(1), 2), (weyl.type_c(1), 3), (weyl.type_c(2), 2)])
def test_closure_order_check(kind, q):
    res = flagfq.closure_order_check(kind, q)
    assert res["ok"]
    assert res["points"] == flagfq.flag_size(kind, q)


@pytest.mark.parametrize("kind,q", [(weyl.type_a(1), 2), (weyl.type_a(1), 3), (weyl.type_c(1), 2), (weyl.type_c(2), 2)])
def test_cover_lemma_small(kind, q):
    res = flagfq.cover_lemma_check(kind, q)
    assert res["ok"], res


@pytest.mark.parametrize(
    "kind,q",
    [(weyl.type_a(1), 2), (weyl.type_a(1), 3), (weyl.type_a(1), 5), (weyl.type_c(1), 2), (weyl.type_c(1), 3), (weyl.type_a(2), 2), (weyl.type_c(2), 2)],
)
def test_cover_lemma_matches_the_byte_key_oracle(kind, q):
    assert flagfq.cover_lemma_check(kind, q) == reference_cover_lemma_check(kind, q)


def cold_peak_bytes(call):
    """The peak memory traced while ``call`` runs, every cache of flagfq's
    own functions cleared first; numpy reports its array buffers to
    tracemalloc."""
    for value in vars(flagfq).values():
        if hasattr(value, "cache_clear") and value.__module__ == flagfq.__name__:
            value.cache_clear()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("kind,q,budget_mb", [(weyl.type_c(2), 3, 8), (weyl.type_a(2), 2, 4.5)])
def test_cover_lemma_stays_within_its_memory_budget(kind, q, budget_mb):
    # byte stacks, G held only as its sorted keys, product-set codes in a
    # buffer compacted as it fills, kernel temporaries bounded by a block,
    # a closure on code arrays and one running union of the translates:
    # 32.6 and 14.5 MB with int64 stacks, 12.0 and 6.3 MB with the kernel
    # widening a whole stack and the closure keeping a dict of Python ints
    report = {}
    peak = cold_peak_bytes(lambda: report.update(flagfq.cover_lemma_check(kind, q)))
    assert report["ok"]
    assert peak < budget_mb * 10**6


@pytest.mark.parametrize("kind,q", [(weyl.type_a(1), 2), (weyl.type_c(1), 3), (weyl.type_c(2), 2), (weyl.type_a(2), 2)])
def test_finding_j_small(kind, q):
    res = flagfq.finding_j_check(kind, q)
    assert res["ok"], res


def test_guard_rejects_oversized_inputs():
    with pytest.raises(ValueError):
        flagfq.enumerate_flag(weyl.type_a(3), 5)
    # refused by the open cell's q^(n^2) points, without computing C(2n, n)_q
    with pytest.raises(ValueError, match="FLAG_POINT_GUARD"):
        flagfq.enumerate_flag(weyl.type_c(10**6), 2)
    with pytest.raises(ValueError):
        flagfq._group_matrices(weyl.type_a(2), 5)


def test_group_order_guard_names_itself_for_a_large_n():
    # the exact order past 4,300 digits used to break the message
    with pytest.raises(ValueError, match="GROUP_ORDER_GUARD"):
        flagfq._group_matrices(weyl.type_a(300), 2)
    with pytest.raises(ValueError, match="GROUP_ORDER_GUARD"):
        flagfq.cover_lemma_check(weyl.type_c(400), 2)


@pytest.mark.parametrize("kind,q", [(weyl.type_a(2), 2), (weyl.type_c(2), 2), (weyl.type_c(2), 3)])
def test_weyl_matrices_lift_the_group(kind, q):
    # every lift lies in the group and realizes w on the torus-fixed points
    base = flagfq.frame_subspace(weyl.SubsetJ(kind, frozenset(range(1, kind.n + 1))), q)  # U_0
    for w in weyl.all_elements(kind):
        assert flagfq.is_in_group(kind, flagfq.weyl_matrix(w, q), q)
    for w in weyl.all_elements(kind)[:12]:
        for v in weyl.all_elements(kind)[:8]:
            left = act(flagfq.weyl_matrix(w, q), act(flagfq.weyl_matrix(v, q), base, q), q)
            right = act(flagfq.weyl_matrix(w * v, q), base, q)
            assert left == right  # the torus ambiguity of lifts fixes the base point
    for w in weyl.all_elements(kind):
        fixed = act(flagfq.weyl_matrix(w, q), base, q)
        assert flagfq.tau_of_point(fixed, q) == weyl.tau(w)


def test_weyl_matrix_refuses_a_lift_outside_the_group(monkeypatch):
    # the library builds each lift from a valid WeylElement, so a lift that
    # fails the membership test is a defect, raised as AssertionError, which
    # the CLI does not turn into exit 2 as it does a ValueError
    kind, q = weyl.type_a(1), 2
    w = weyl.identity(kind)
    flagfq.weyl_matrix(w, q)  # the genuine lift passes
    with monkeypatch.context() as patch:
        patch.setattr(flagfq, "is_in_group", lambda kind, mat, q: False)
        with pytest.raises(AssertionError, match="Weyl lift fell outside the group"):
            flagfq.weyl_matrix(w, q)
    monkeypatch.setattr(flagfq, "_weyl_matrix_table", lambda kind, q: {w.perm: np.zeros((2, 2), dtype=np.int64)})
    with pytest.raises(AssertionError, match="Weyl lift fell outside the group"):
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


def reference_weyl_lifts(kind, q):
    """The lifts as words along a breadth-first tree of W: walk W keeping
    each element's (parent, generator), generator-major, and take
    lift(parent) R_gen."""
    refl = weyl.simple_reflections(kind)
    mats = flagfq.simple_reflection_matrices(kind, q)
    start = weyl.identity(kind).perm
    tree, frontier = {start: None}, [start]
    while frontier:
        fresh = []
        for gen, s in enumerate(refl):
            for parent in frontier:
                child = (weyl.WeylElement(kind, parent) * s).perm
                if child not in tree:
                    tree[child] = (parent, gen)
                    fresh.append(child)
        frontier = fresh
    lifts = {}
    for perm, link in tree.items():
        if link is None:
            lifts[perm] = np.eye(kind.ambient, dtype=np.int64) % q
        else:
            parent, gen = link
            lifts[perm] = (lifts[parent] @ mats[gen]) % q
    return lifts


@pytest.mark.parametrize("q", [2, 3, 5])
@pytest.mark.parametrize("kind", [weyl.GroupKind(f, n) for f in weyl.Family for n in (1, 2, 3)], ids=str)
def test_weyl_lifts_match_the_breadth_first_tree_oracle(kind, q):
    want = reference_weyl_lifts(kind, q)
    got = flagfq._weyl_matrix_table(kind, q)
    assert list(got) == list(want)
    for perm, mat in want.items():
        assert got[perm].dtype == np.int64 and (got[perm] == mat).all()


def test_weyl_lifts_run_no_walk_of_their_own(monkeypatch):
    # the lifts read the length table; they do not enumerate W a second time
    kind = weyl.type_c(2)
    weyl.length_table(kind)
    flagfq._weyl_matrix_table.cache_clear()

    def walked(*args, **kwargs):
        raise AssertionError("flagfq walked W")

    monkeypatch.setattr(flagfq, "walk", walked)
    for w in weyl.all_elements(kind):
        assert flagfq.is_in_group(kind, flagfq.weyl_matrix(w, 3), 3)


def test_unsupported_fields_are_refused_with_value_error():
    # a field outside kernels.PRIMITIVE_ROOT used to surface as KeyError: 7
    for q in (4, 7):
        with pytest.raises(ValueError, match=f"q must be one of 2, 3, 5, got {q}"):
            flagfq.borel_generators(weyl.type_a(1), q)
        with pytest.raises(ValueError, match=f"q must be one of 2, 3, 5, got {q}"):
            flagfq.cover_lemma_check(weyl.type_a(1), q)
        with pytest.raises(ValueError, match=f"q must be one of 2, 3, 5, got {q}"):
            flagfq.enumerate_flag(weyl.type_c(1), q)


# ----------------------------------------------------------------- Pluecker
# Leibniz minors: an oracle for meets_trivially, with no kernel in it


def det_mod(mat, q):
    n = mat.shape[0]
    total = 0
    for perm in itertools.permutations(range(n)):
        sign = 1
        for i, j in itertools.combinations(range(n), 2):
            if perm[i] > perm[j]:
                sign = -sign
        prod = sign
        for i in range(n):
            prod *= int(mat[i, perm[i]])
        total += prod
    return total % q


def plucker(U, q):
    """Maximal minors by column n-subset, scaled so the lex-first nonzero is 1.

    For RREF rows the pivot minor is already 1, so the scaling is a no-op;
    it is applied anyway so the output is canonical for any row basis.
    The coordinate at J^c is nonzero iff U meets <e_j : j in J> trivially.
    """
    n = len(U)
    mat = np.array(U, dtype=np.int64)
    coords = {}
    first_nonzero = None
    for cols in itertools.combinations(range(2 * n), n):
        val = det_mod(mat[:, cols], q)
        coords[tuple(c + 1 for c in cols)] = val
        if first_nonzero is None and val:
            first_nonzero = val
    if first_nonzero is None:
        raise AssertionError("a full-rank matrix must have a nonzero minor")
    scale = pow(first_nonzero, q - 2, q)
    return {J: (v * scale) % q for J, v in coords.items()}


@pytest.mark.parametrize("kind,q", [(weyl.type_a(2), 2), (weyl.type_c(2), 2), (weyl.type_a(2), 3)])
def test_plucker_duality(kind, q):
    # s_{J^c}(U) != 0 exactly when U meets the frame of J trivially
    points = flagfq.enumerate_flag(kind, q)
    for U in points[:: max(1, len(points) // 15)]:
        coords = plucker(U, q)
        for J in weyl.all_subsets_j(kind):
            comp = tuple(sorted(set(range(1, 2 * kind.n + 1)) - J.members))
            assert (coords[comp] % q != 0) == flagfq.meets_trivially(U, J, q)


def test_plucker_three_term_relation():
    # Grassmannian Gr(2, 4) over F_3: s12 s34 - s13 s24 + s14 s23 = 0
    kind, q = weyl.type_a(2), 3
    for U in flagfq.enumerate_flag(kind, q):
        s = plucker(U, q)
        lhs = s[(1, 2)] * s[(3, 4)] - s[(1, 3)] * s[(2, 4)] + s[(1, 4)] * s[(2, 3)]
        assert lhs % q == 0


# ------------------------------------------------- per-point work, oracles


def stacked_tau(U, q):
    """tau from the rank of U's rows stacked over e_1, ..., e_n, minus n,
    ranked as a one-matrix stack."""
    n = len(U)
    stacked = np.vstack([np.array(U, dtype=np.int64), np.eye(n, 2 * n, dtype=np.int64)])
    return int(flagfq.kernels.rank_mod(stacked[None], q)[0]) - n


def case_id(value):
    return f"{value.family.value}{value.n}" if isinstance(value, weyl.GroupKind) else str(value)


TAU_CASES = [(weyl.type_a(2), q) for q in (2, 3, 5)] + [(weyl.type_a(3), 2)]
TAU_CASES += [(weyl.type_c(2), q) for q in (2, 3, 5)] + [(weyl.type_c(3), 3)]


@pytest.mark.parametrize("kind,q", TAU_CASES, ids=case_id)
def test_block_rank_tau_matches_the_stacked_rank(kind, q):
    for U in flagfq.enumerate_flag(kind, q):
        assert flagfq.tau_of_point(U, q) == stacked_tau(U, q)


def product_and_filter_flag(kind, q):
    """Every point by product and filter, the oracle for the pruned walk of
    ``enumerate_flag``: all C(2n, n)_q candidates, each pivot pattern's rows
    taken from the full product of the row choices, then the non-isotropic
    ones dropped."""
    n = kind.n
    points = []
    for pivots in itertools.combinations(range(2 * n), n):
        row_choices = []
        for p in pivots:
            free = [j for j in range(p + 1, 2 * n) if j not in pivots]
            choices = []
            for values in itertools.product(range(q), repeat=len(free)):
                row = [0] * (2 * n)
                row[p] = 1
                for j, v in zip(free, values):
                    row[j] = v
                choices.append(tuple(row))
            row_choices.append(choices)
        for rows in itertools.product(*row_choices):
            if kind.family is weyl.Family.TYPE_C and not is_isotropic(rows, n, q):
                continue
            points.append(rows)
    return points


@pytest.mark.parametrize("kind,q", [(weyl.type_c(1), 2), (weyl.type_c(2), 2), (weyl.type_c(2), 3), (weyl.type_c(2), 5), (weyl.type_c(3), 3)], ids=case_id)
def test_pruned_walk_matches_product_and_filter(kind, q):
    assert flagfq.enumerate_flag(kind, q) == product_and_filter_flag(kind, q)


def q_binomial(m, k, q):
    """[m choose k]_q by the q-Pascal rule, sharing no code with flagfq."""
    if k < 0 or k > m:
        return 0
    if k in (0, m):
        return 1
    return q_binomial(m - 1, k - 1, q) + q**k * q_binomial(m - 1, k, q)


def bruhat_cells(kind):
    """{tau: {l: count}}: how many Bruhat cells B w P_I / P_I of each
    dimension l = l(w) each stratum has, w running over the minimal
    representatives of W / W_I."""
    lengths = weyl.length_table(kind)
    mark = [s.perm for s in weyl.parabolic_mark(kind)]
    cells = {}
    for perm, ell in lengths.items():
        if all(lengths[weyl.compose(perm, s)] > ell for s in mark):
            by_length = cells.setdefault(weyl.tau(weyl.WeylElement(kind, perm)), {})
            by_length[ell] = by_length.get(ell, 0) + 1
    return cells


def bruhat_census(kind, q):
    """The tau census by the Bruhat decomposition G/P_I = the disjoint union of
    the cells B w P_I / P_I, one per minimal representative w of w W_I, each
    with q^l(w) points: read off the Weyl layer alone."""
    return {t: sum(count * q**ell for ell, count in cells.items()) for t, cells in bruhat_cells(kind).items()}


# every (kind, n, q) whose flag the tier-1 tests enumerate
CENSUS_CASES = [(weyl.GroupKind(f, n), q) for f in weyl.Family for n in (1, 2) for q in (2, 3, 5)]
CENSUS_CASES += [(weyl.type_a(3), 2), (weyl.type_c(3), 2), (weyl.type_c(3), 3)]


@pytest.mark.parametrize("kind,q", CENSUS_CASES, ids=case_id)
def test_census_matches_the_bruhat_q_count(kind, q):
    assert flagfq.cell_census(kind, q) == bruhat_census(kind, q)


@pytest.mark.parametrize("kind", [weyl.GroupKind(f, n) for f in weyl.Family for n in (1, 2, 3, 4)], ids=case_id)
def test_stratum_cells_are_the_bruhat_cells(kind):
    cells = bruhat_cells(kind)
    for k in range(kind.n + 1):
        got = flagfq.stratum_cells(kind, k)
        assert got[-1] > 0  # no trailing zero coefficient
        assert got == [cells[k].get(ell, 0) for ell in range(max(cells[k]) + 1)]


@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_binomial_coefficients_evaluate_to_the_gaussian_binomial(q):
    for m in range(9):
        for k in range(m + 1):
            coeffs = flagfq._binomial_coefficients(m, k)
            value = sum(c * q**ell for ell, c in enumerate(coeffs))
            assert value == flagfq.gaussian_binomial(m, k, q) == q_binomial(m, k, q)
            assert len(coeffs) == k * (m - k) + 1 and coeffs == coeffs[::-1]  # degree k(m-k), palindromic


@pytest.mark.parametrize("kind,q", [(weyl.type_a(2), 3), (weyl.type_c(2), 3), (weyl.type_c(3), 2)], ids=case_id)
def test_borel_orbits_are_the_bruhat_cells(kind, q):
    # the multiset of (tau, orbit size) that finding_j_check compares
    points = flagfq.enumerate_flag(kind, q)
    orbits = flagfq._orbits(points, flagfq.borel_generators(kind, q), q)
    got = sorted((flagfq.tau_of_point(points[orbit[0]], q), len(orbit)) for orbit in orbits)
    cells = bruhat_cells(kind)
    assert got == sorted((k, q**ell) for k in cells for ell, count in cells[k].items() for _ in range(count))
    assert flagfq.finding_j_check(kind, q)["orbits_are_bruhat_cells"]


def one_point_moved(orbits, points, q):
    """The last point of the first orbit with more than one point moved into
    the next orbit of its tau: as many orbits, each still of one tau."""
    taus = [flagfq.tau_of_point(points[orbit[0]], q) for orbit in orbits]
    i = next(i for i, orbit in enumerate(orbits) if len(orbit) > 1 and taus.count(taus[i]) > 1)
    j = next(j for j in range(len(orbits)) if j != i and taus[j] == taus[i])
    moved = [list(orbit) for orbit in orbits]
    moved[j] = sorted(moved[j] + [moved[i].pop()])
    return moved


@pytest.mark.parametrize("kind,q", [(weyl.type_a(2), 2), (weyl.type_c(2), 3)], ids=case_id)
def test_finding_j_check_fails_when_the_orbit_sizes_are_not_the_cells(kind, q, monkeypatch):
    genuine = flagfq._orbits
    monkeypatch.setattr(flagfq, "_orbits", lambda points, gens, q: one_point_moved(genuine(points, gens, q), points, q))
    res = flagfq.finding_j_check(kind, q)
    assert res["borel_orbits"] == len(genuine(flagfq.enumerate_flag(kind, q), flagfq.borel_generators(kind, q), q))
    assert not res["orbits_are_bruhat_cells"] and not res["ok"]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_type_a_bruhat_q_count_closed_form(n, q):
    census = bruhat_census(weyl.type_a(n), q)
    assert census == {k: q ** (k * k) * q_binomial(n, k, q) ** 2 for k in range(n + 1)}


@pytest.mark.parametrize("kind", [weyl.GroupKind(f, n) for f in weyl.Family for n in (1, 2, 3)], ids=case_id)
@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_stratum_sizes_are_the_bruhat_q_count(kind, q):
    # the closed forms flag census compares with its enumeration
    assert {k: flagfq.stratum_size(kind, k, q) for k in range(kind.n + 1)} == bruhat_census(kind, q)
