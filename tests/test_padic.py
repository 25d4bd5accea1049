import hashlib
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bruhat_satake import padic
from bruhat_satake.padic import (
    BlockMatrix,
    Level,
    LevelFlavor,
    anticanonical_radius,
    block_matrix,
    exact,
    factor_P_Gamma1,
    gamma,
    h_invariant,
    in_P_Gamma1,
    in_level,
    random_congruence_element,
    random_parabolic_element,
    valuation,
)
from bruhat_satake.weyl import Family, GroupKind, all_subsets_j

A1 = GroupKind(Family.TYPE_A, 1)
A2 = GroupKind(Family.TYPE_A, 2)
C1 = GroupKind(Family.TYPE_C, 1)
C2 = GroupKind(Family.TYPE_C, 2)
KINDS = (A1, A2, C1, C2)
PRIMES = (2, 3, 5)


# --------------------------------------------------------------- valuations


@given(st.integers(-10**6, 10**6), st.integers(0, 12), st.integers(0, 12), st.sampled_from(PRIMES))
@settings(max_examples=80, deadline=None)
def test_valuation_of_scaled_units(unit, up, down, p):
    if unit % p == 0:
        unit += 1  # now a p-adic unit
    assert valuation(Fraction(unit * p**up, p**down), p) == up - down


def test_valuation_literals():
    assert valuation(8, 2) == 3
    assert valuation(Fraction(3, 4), 2) == -2
    assert valuation("5/9", 3) == -2
    assert valuation(0, 7) == math.inf


@pytest.mark.parametrize("x", [0.1, 0.5, 2.0, True, "0.1", "1e3", "1/0", None])
def test_valuation_refuses_inexact_input(x):
    # Fraction(0.1) is 3602879701896397/2^55, so v_2(0.1) read -55
    with pytest.raises(ValueError):
        valuation(x, 2)


@pytest.mark.parametrize("p", [1, -1, 0, 4])
def test_valuation_refuses_a_p_that_is_not_prime(p):
    # p = 1 or -1 divides every x, so stripping its powers never ended
    for x in (12, Fraction(1, 3), 0):
        with pytest.raises(ValueError, match="not prime"):
            valuation(x, p)


@pytest.mark.parametrize(
    "x, p, expected",
    [(3 * 2**200_000, 2, 200_000), (Fraction(5, 3**50_000), 3, -50_000)],
    ids=["2-adic 200000", "3-adic -50000"],
)
def test_valuation_of_a_deep_power_is_fast(x, p, expected):
    # one division per factor of p makes v divisions of a long integer; squaring p^(2^k) needs O(log v)
    started = time.perf_counter()
    assert valuation(x, p) == expected
    assert time.perf_counter() - started < 2.0


# ------------------------------------------------------------ block matrices


def test_block_matrix_validation():
    with pytest.raises(ValueError):
        block_matrix(A1, 2, [[1, 0], [0, 0]])  # singular
    with pytest.raises(ValueError):
        block_matrix(C1, 2, [[2, 0], [0, 1]])  # not symplectic
    with pytest.raises(ValueError):
        BlockMatrix(A1, 2, ((Fraction(1), 0), (0, 1)), 1)  # num holds ints, not Fractions
    with pytest.raises(ValueError):
        BlockMatrix(A1, 2, ((1, 0), (0, 1)), 0)  # zero denominator
    with pytest.raises(ValueError):
        block_matrix(A1, 2, [[1, 0, 0], [0, 1, 0]])  # wrong shape
    with pytest.raises(ValueError):
        block_matrix(A1, 6, [[1, 0], [0, 1]])  # composite prime
    # inexact entries: 0.1 used to read as 3602879701896397/2^55, and [[1, 0], [0.3, 1]] gave h = -54
    inexact = [[[0.1, 0], [0, 10]], [[True, 0], [0, 1]]]
    inexact += [[[1, 0], [x, 1]] for x in (0.3, 0.5, "0.5", "1.5", "1e3", "1/0", None)]
    for rows in inexact:
        with pytest.raises(ValueError):
            block_matrix(A1, 2, rows)


def test_is_prime_is_bounded():
    assert [p for p in range(30) if padic.is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert padic.is_prime(2**31 - 1)
    assert not padic.is_prime(46337 * 46327)
    # trial division past 2^31 is refused before the first division
    with pytest.raises(ValueError, match="2\\^31"):
        padic.is_prime(2**31)
    with pytest.raises(ValueError, match="2\\^31"):
        padic.gamma(A1, 1000000000000000003)


@pytest.mark.parametrize("p", [5.0, 2.0, True, False, Fraction(5), "5"])
def test_is_prime_refuses_a_p_that_is_not_an_int(p):
    # is_prime(5.0) was True, so valuation(25, 5.0) returned 2 and a
    # BlockMatrix could carry p = 5.0
    with pytest.raises(ValueError, match="integer"):
        padic.is_prime(p)
    with pytest.raises(ValueError):
        valuation(25, p)
    with pytest.raises(ValueError):
        block_matrix(A1, p, [[1, 0], [25, 1]])
    with pytest.raises(ValueError):
        random_congruence_element(A1, p, 1, random.Random(0))


def test_block_views_and_products():
    g = block_matrix(A2, 2, [[1, 2, 3, 4], [5, 6, 7, 8], [9, 10, 12, 12], [13, 14, 15, 17]])
    assert g.den == 1
    assert tuple(row[:2] for row in g.num[:2]) == ((1, 2), (5, 6))
    assert tuple(row[2:] for row in g.num[:2]) == ((3, 4), (7, 8))
    assert tuple(row[:2] for row in g.num[2:]) == ((9, 10), (13, 14))
    assert tuple(row[2:] for row in g.num[2:]) == ((12, 12), (15, 17))
    gi = g.inverse()
    prod = g * gi
    assert prod.rows == block_matrix(A2, 2, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]).rows
    assert g.transpose().transpose().rows == g.rows
    with pytest.raises(ValueError):
        g * block_matrix(A2, 3, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])


def test_equal_rationals_give_equal_matrices():
    half = block_matrix(A1, 3, [["1/2", 0], [0, 2]])
    assert (half.num, half.den) == (((1, 0), (0, 4)), 2)
    for same in (
        block_matrix(A1, 3, [["2/4", 0], [0, "6/3"]]),
        block_matrix(A1, 3, [[Fraction(-3, -6), "0/5"], [0, 2]]),
        block_matrix(A1, 3, [["3/6"] + [0], [0] + ["4/2"]]),
        BlockMatrix(A1, 3, ((2, 0), (0, 8)), 4),
        BlockMatrix(A1, 3, [[-1, 0], [0, -4]], -2),
    ):
        assert same == half
        assert hash(same) == hash(half)
        assert (same.num, same.den) == (half.num, half.den)
    assert half != block_matrix(A1, 5, [["1/2", 0], [0, 2]])
    assert half != block_matrix(A1, 3, [["1/4", 0], [0, 2]])
    # the same rational matrix reached through other denominators
    g = block_matrix(A2, 5, [["1/3", 2, 0, "5/7"], [0, 1, 4, 0], [1, 0, "2/5", 1], [0, "1/6", 0, 1]])
    one = block_matrix(A2, 5, [[int(i == j) for j in range(4)] for i in range(4)])
    assert g * g.inverse() == one == g.inverse() * g
    assert g.inverse().inverse() == g
    assert len({g, g.inverse().inverse(), one, g * g.inverse()}) == 2


def test_string_entries_coerce():
    g = block_matrix(A1, 2, [["1/2", 0], [0, "2"]])
    assert g.rows[0][0] == Fraction(1, 2)
    assert not g.is_integral()


def test_gamma_shapes():
    gA = gamma(A2, 3)
    assert gA.rows == block_matrix(A2, 3, [[3, 0, 0, 0], [0, 3, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]).rows
    gC = gamma(C1, 5)
    assert gC.rows == (((Fraction(5), Fraction(0))), (Fraction(0), Fraction(1, 5)))
    assert gC.rows[1][1] == Fraction(1, 5)
    assert not gC.is_integral()


# ------------------------------------------------------------- the invariant


def test_h_invariant_small_cases():
    assert h_invariant(block_matrix(A1, 2, [[1, 0], [0, 1]])) == math.inf
    assert h_invariant(block_matrix(A1, 2, [[1, 0], [2, 1]])) == 1
    assert h_invariant(block_matrix(A1, 2, [[1, 0], [8, 1]])) == 3
    assert h_invariant(block_matrix(A1, 2, [[0, 1], [1, 0]])) == -math.inf  # singular D
    assert h_invariant(block_matrix(C1, 2, [[0, 1], [-1, 0]])) == -math.inf


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("p", PRIMES)
def test_shift_law(kind, p):
    rng = random.Random(f"shift:{kind.family.value}:{kind.n}:{p}")
    shift = 1 if kind.family is Family.TYPE_A else 2
    for m in (1, 2):
        for _ in range(6):
            g = random_congruence_element(kind, p, m, rng)
            h0 = h_invariant(g)
            assert h0 >= m
            acc = g
            for k in range(1, 4):
                acc = acc * gamma(kind, p)
                assert h_invariant(acc) == h0 + shift * k


@pytest.mark.parametrize("kind", KINDS)
def test_left_parabolic_invariance(kind):
    rng = random.Random(7)
    p = 3
    for _ in range(12):
        g = random_congruence_element(kind, p, 1, rng)
        q = random_parabolic_element(kind, p, rng)
        assert h_invariant(q * g) == h_invariant(g)
        k = rng.randint(0, 3)
        gk = g
        for _ in range(k):
            gk = gk * gamma(kind, p)
        assert h_invariant(q * gk) == h_invariant(gk)


def test_parabolic_elements_have_infinite_h():
    rng = random.Random(9)
    for kind in KINDS:
        for _ in range(5):
            q = random_parabolic_element(kind, 2, rng)
            assert all(x == 0 for row in q.num[kind.n :] for x in row[: kind.n])
            assert h_invariant(q) == math.inf


# ------------------------------------------------------------- factorization


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("p", PRIMES)
def test_factorization_reassembles(kind, p):
    rng = random.Random(f"factor:{kind.family.value}:{kind.n}:{p}")
    for m in (1, 2):
        for _ in range(6):
            g = random_parabolic_element(kind, p, rng) * random_congruence_element(kind, p, m, rng)
            assert in_P_Gamma1(g, m)
            p_part, c_part = factor_P_Gamma1(g, m)
            n = kind.n
            assert (p_part * c_part).rows == g.rows
            assert all(x == 0 for row in p_part.num[n:] for x in row[:n])
            assert in_level(c_part, Level(LevelFlavor.GAMMA1, m))
            # type C factors pass the symplectic constructor check by existing


def test_no_fraction_arithmetic_past_the_boundary(monkeypatch):
    # Products, eliminations, the invariant, the factorization and the level
    # tests run on integers; Fraction is only built at the boundary.
    def refuse(*args):
        raise AssertionError("Fraction arithmetic inside padic")

    for op in ("add", "radd", "sub", "rsub", "mul", "rmul", "truediv", "rtruediv", "pow", "neg"):
        monkeypatch.setattr(Fraction, f"__{op}__", refuse)
    rng = random.Random(5)
    for kind in KINDS:
        for p in PRIMES:
            g = random_congruence_element(kind, p, 2, rng)
            gk = random_parabolic_element(kind, p, rng) * g * gamma(kind, p)
            assert h_invariant(gk) >= 2
            p_part, g1_part = factor_P_Gamma1(gk, 2)
            assert in_level(g1_part, Level(LevelFlavor.GAMMA1, 2))
            assert g.inverse().transpose() * g.transpose() == gamma(kind, p) * gamma(kind, p).inverse()


def test_factorization_needs_enough_depth():
    g = block_matrix(A1, 2, [[1, 0], [2, 1]])  # h = 1
    factor_P_Gamma1(g, 1)
    with pytest.raises(ValueError):
        factor_P_Gamma1(g, 2)
    with pytest.raises(ValueError):
        in_P_Gamma1(g, 0)


def test_sharpness_at_the_level_boundary():
    for p in PRIMES:
        for m in (2, 3):
            g = block_matrix(A1, p, [[1, 0], [p ** (m - 1), 1]])
            assert h_invariant(g) == m - 1
            assert in_P_Gamma1(g, m - 1)
            assert not in_P_Gamma1(g, m)


# ------------------------------------------------------------------- levels


def test_level_tower():
    rng = random.Random(21)
    for kind in (A1, C1, A2, C2):
        for m in (1, 2):
            g = random_congruence_element(kind, 2, m, rng, flavor=LevelFlavor.GAMMA_FULL)
            for flavor in LevelFlavor:
                assert in_level(g, Level(flavor, m))
            g1 = random_congruence_element(kind, 2, m, rng, flavor=LevelFlavor.GAMMA1)
            assert in_level(g1, Level(LevelFlavor.GAMMA0, m))
            assert in_level(g1, Level(LevelFlavor.GAMMA1, m))


def test_level_separation_by_the_b_block():
    # unipotent with a unit in the B block: Gamma_1 but not Gamma
    for kind, p, m in ((A1, 2, 1), (A2, 3, 2), (C1, 5, 1), (C2, 2, 3)):
        n = kind.n
        eye = [[int(i == j) for j in range(n)] for i in range(n)]
        zero = [[0] * n for _ in range(n)]
        g = block_matrix(kind, p, [a + b for a, b in zip(eye, eye)] + [c + d for c, d in zip(zero, eye)])
        assert in_level(g, Level(LevelFlavor.GAMMA1, m))
        assert not in_level(g, Level(LevelFlavor.GAMMA_FULL, m))


def test_in_level_rejects_non_integral():
    with pytest.raises(ValueError):
        in_level(gamma(C1, 2), Level(LevelFlavor.GAMMA0, 1))
    with pytest.raises(ValueError):
        in_level(block_matrix(A1, 2, [["1/2", 0], [0, 2]]), Level(LevelFlavor.GAMMA0, 1))
    with pytest.raises(ValueError):
        Level(LevelFlavor.GAMMA0, 0)


def test_congruence_sampler_hits_its_level_exactly():
    rng = random.Random(33)
    for kind in KINDS:
        for p in PRIMES:
            for m in (1, 2, 3):
                g = random_congruence_element(kind, p, m, rng)
                assert g.is_integral()
                assert in_level(g, Level(LevelFlavor.GAMMA1, m))
                gf = random_congruence_element(kind, p, m, rng, flavor=LevelFlavor.GAMMA_FULL)
                assert in_level(gf, Level(LevelFlavor.GAMMA_FULL, m))
    with pytest.raises(ValueError):
        random_congruence_element(A1, 2, 1, rng, flavor=LevelFlavor.GAMMA0)


def test_congruence_sampler_guards_the_length_of_p_to_the_m():
    guard = padic.CONGRUENCE_BITS_GUARD
    refused = [(2, 10**6), (2**31 - 1, 10**9)]
    for p in PRIMES:
        # the deepest level whose modulus fits the guard is drawn, one level more is refused
        m = guard
        while (p**m).bit_length() > guard:
            m -= 1
        assert in_level(random_congruence_element(A1, p, m, random.Random(1)), Level(LevelFlavor.GAMMA1, m))
        refused.append((p, m + 1))
    for p, m in refused:
        rng = random.Random(1)
        state = rng.getstate()
        started = time.perf_counter()
        with pytest.raises(ValueError, match="CONGRUENCE_BITS_GUARD"):
            random_congruence_element(C2, p, m, rng)
        assert time.perf_counter() - started < 0.5
        assert rng.getstate() == state  # refused before the first draw


def test_samplers_reproduce_their_seeded_draws():
    # The digest was taken from the Fraction implementation of the samplers.
    # It pins the order of the draws: swapping two draws of one shape (the A
    # and D blocks, say) leaves every pinned CLI report unchanged.
    rng = random.Random(2026)
    text = []
    for family in Family:
        for n in (1, 2, 3):
            kind = GroupKind(family, n)
            for p in PRIMES:
                for m in (1, 2):
                    for g in (
                        random_congruence_element(kind, p, m, rng),
                        random_congruence_element(kind, p, m, rng, LevelFlavor.GAMMA_FULL),
                        random_parabolic_element(kind, p, rng),
                    ):
                        text.append(repr([[str(x) for x in row] for row in g.rows]))
    digest = hashlib.sha256("\n".join(text).encode()).hexdigest()
    assert digest == "d572d6f61a90c2afb3ba8b70af66bd7add200050610c4cdc7ae3f108371cee47"


# ----------------------------------------------------------- exact entries


@given(st.one_of(st.integers(), st.fractions(), st.builds(lambda f: f"{f.numerator}/{f.denominator}", st.fractions()),
                 st.integers().map(str)))
def test_exact_reads_ints_fractions_and_ratio_strings(x):
    assert exact(x) == Fraction(x)


@given(st.one_of(st.floats(), st.booleans(), st.sampled_from(["1.5", "1e3", "1/0", "-2/0", "0.5", "1/2.0", "", None])))
def test_exact_refuses_inexact_entries(x):
    with pytest.raises(ValueError):
        exact(x)


# --------------------------------------------------------------- the radius


def radius_by_scan(kind, table):
    n = kind.n
    j0 = frozenset(range(n + 1, 2 * n + 1))
    v0 = table[j0]
    if v0 == math.inf:
        return math.inf
    for k in range(0, 200):
        ok = True
        for members, v in table.items():
            if members == j0:
                continue
            m_j = len(members & set(range(1, n + 1)))
            if v != math.inf and v0 > v + k * m_j:
                ok = False
                break
        if ok:
            return k
    raise AssertionError("scan exhausted")


@pytest.mark.parametrize("kind", KINDS)
def test_radius_matches_linear_scan(kind):
    rng = random.Random(kind.n * 17 + (0 if kind.family is Family.TYPE_A else 1))
    subsets = [frozenset(s.members) for s in all_subsets_j(kind)]
    for _ in range(120):
        table = {}
        for s in subsets:
            table[s] = math.inf if rng.random() < 0.15 else rng.randint(-6, 6)
        if all(v == math.inf for v in table.values()):
            continue
        expected = radius_by_scan(kind, table)
        assert anticanonical_radius(kind, table) == expected


def test_radius_literals_and_edges():
    # type A, n = 1: subsets {1} and {2}, J_0 = {2}
    assert anticanonical_radius(A1, {frozenset({1}): -3, frozenset({2}): 0}) == 3
    assert anticanonical_radius(A1, {frozenset({1}): 5, frozenset({2}): 0}) == 0
    assert anticanonical_radius(A1, {frozenset({1}): math.inf, frozenset({2}): 0}) == 0
    assert anticanonical_radius(A1, {frozenset({1}): 0, frozenset({2}): math.inf}) == math.inf
    with pytest.raises(ValueError):
        anticanonical_radius(A1, {frozenset({1}): math.inf, frozenset({2}): math.inf})


def test_radius_keys_are_member_frozensets():
    keys = list(all_subsets_j(C1))
    vals = {frozenset(k.members): 1 for k in keys}
    vals[frozenset({2})] = 4
    assert anticanonical_radius(C1, vals) == 3
    with pytest.raises(ValueError):
        anticanonical_radius(C1, {k: 1 for k in keys})  # SubsetJ keys are not coordinate subsets here


def test_radius_key_hygiene():
    with pytest.raises(ValueError):
        anticanonical_radius(A1, {frozenset({1}): 0})  # missing a subset
    with pytest.raises(ValueError):
        anticanonical_radius(
            A1, {frozenset({1}): 0, frozenset({2}): 0, frozenset({1, 2}): 0}
        )  # not a coordinate subset here
    with pytest.raises(ValueError):
        anticanonical_radius(A1, {frozenset({1}): 0.5, frozenset({2}): 0})  # non-integer


# ------------------------------------------------------ the Fraction oracle
# Gauss-Jordan over Fraction, the arithmetic padic used before it went
# fraction-free, with a valuation by one division per factor of p.


def ref_valuation(x, p):
    x = Fraction(x)
    if x == 0:
        return math.inf
    v, num, den = 0, x.numerator, x.denominator
    while num % p == 0:
        num, v = num // p, v + 1
    while den % p == 0:
        den, v = den // p, v - 1
    return v


def ref_solve(d, c):
    """(det d, d^{-1} c) over Fraction, or (0, None) when d is singular."""
    n = len(d)
    work = [[Fraction(x) for x in (*dr, *cr)] for dr, cr in zip(d, c)]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if work[r][col] != 0), None)
        if pivot is None:
            return 0, None
        if pivot != col:
            work[col], work[pivot] = work[pivot], work[col]
            det = -det
        det *= work[col][col]
        work[col] = [x / work[col][col] for x in work[col]]
        for r in range(n):
            if r != col and work[r][col] != 0:
                f = work[r][col]
                work[r] = [x - f * y for x, y in zip(work[r], work[col])]
    return det, tuple(tuple(row[n:]) for row in work)


def ref_mul(a, b):
    return tuple(tuple(sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in zip(*b)) for row in a)


def ref_blocks(rows, n):
    return [tuple(tuple(row[j : j + n]) for row in rows[i : i + n]) for i in (0, n) for j in (0, n)]


def ref_h(rows, n, p):
    _, _, c, d = ref_blocks(rows, n)
    _, L = ref_solve(d, c)
    if L is None:
        return -math.inf
    return min(ref_valuation(x, p) for row in L for x in row)


def ref_factor(rows, n):
    """The rows of [[A - B L, B], [0, D]] and [[I, 0], [L, I]] with L = D^{-1} C."""
    a, b, c, d = ref_blocks(rows, n)
    _, L = ref_solve(d, c)
    top_left = tuple(tuple(x - y for x, y in zip(r, s)) for r, s in zip(a, ref_mul(b, L)))
    zero = tuple((Fraction(0),) * n for _ in range(n))
    one = tuple(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n))

    def stack(A, B, C, D):
        return tuple(r + s for r, s in zip(A, B)) + tuple(r + s for r, s in zip(C, D))

    return stack(top_left, b, zero, d), stack(one, zero, L, one)


RATIONALS = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 1, 1, 2, 3, 5, 9]))


def _fraction_matrix(draw, n, entries=RATIONALS):
    return tuple(tuple(draw(entries) for _ in range(n)) for _ in range(n))


@st.composite
def type_a_elements(draw):
    """A rational GL_2n matrix, shaped to hit each case of the invariant:
    deep C (h >= 1 often), C = 0 (h = +inf), singular D (h = -inf) and
    det D < 0."""
    n, p = draw(st.integers(1, 3)), draw(st.sampled_from(PRIMES))
    case = draw(st.sampled_from(["random", "deep_c", "zero_c", "singular_d", "negative_det"]))
    a, b, c, d = (_fraction_matrix(draw, n) for _ in range(4))
    if case == "deep_c":
        d = _fraction_matrix(draw, n, st.integers(-4, 4).map(Fraction))
        c = _fraction_matrix(draw, n, st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 7])))
        c = tuple(tuple(x * p ** draw(st.integers(1, 3)) for x in row) for row in c)
    elif case == "zero_c":
        c = tuple((Fraction(0),) * n for _ in range(n))
    elif case == "singular_d":
        d = d[:-1] + (tuple(2 * x for x in d[0]),) if n > 1 else ((Fraction(0),),)
    elif case == "negative_det" and ref_solve(d, ((),) * n)[0] > 0:
        d = (tuple(-x for x in d[0]),) + d[1:]
    rows = tuple(ra + rb for ra, rb in zip(a, b)) + tuple(rc + rd for rc, rd in zip(c, d))
    assume(ref_solve(rows, ((),) * (2 * n))[0] != 0)
    return GroupKind(Family.TYPE_A, n), p, rows


@st.composite
def type_c_elements(draw):
    """A rational Sp_2n matrix as a product of one to three generators:
    [[I, S], [0, I]], [[I, 0], [p^k S, I]], [[A, 0], [0, A^-T]] and J.
    Only the first and third give C = 0; a trailing J swaps C into D, so a
    C = 0 prefix ends in a singular D; det A < 0 makes det D < 0."""
    n, p = draw(st.integers(1, 3)), draw(st.sampled_from(PRIMES))
    zero = tuple((Fraction(0),) * n for _ in range(n))
    one = tuple(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n))

    def stack(A, B, C, D):
        return tuple(r + s for r, s in zip(A, B)) + tuple(r + s for r, s in zip(C, D))

    def symmetric():
        upper = {(i, j): draw(RATIONALS) for i in range(n) for j in range(i, n)}
        return tuple(tuple(upper[min(i, j), max(i, j)] for j in range(n)) for i in range(n))

    rows = stack(one, zero, zero, one)
    for gen in draw(st.lists(st.sampled_from(["upper", "lower", "levi", "J"]), min_size=1, max_size=3)):
        if gen == "upper":
            factor = stack(one, symmetric(), zero, one)
        elif gen == "lower":
            depth = p ** draw(st.integers(0, 3))
            factor = stack(one, zero, tuple(tuple(depth * x for x in row) for row in symmetric()), one)
        elif gen == "levi":
            a = _fraction_matrix(draw, n)
            det, inv = ref_solve(a, one)
            assume(det != 0)
            factor = stack(a, zero, zero, tuple(zip(*inv)))
        else:
            factor = stack(zero, one, tuple(tuple(-x for x in row) for row in one), zero)
        rows = ref_mul(rows, factor)
    return GroupKind(Family.TYPE_C, n), p, rows


@given(st.one_of(type_a_elements(), type_c_elements()))
@settings(max_examples=300, deadline=None)
def test_invariant_and_factors_match_the_fraction_oracle(element):
    kind, p, rows = element
    n = kind.n
    g = block_matrix(kind, p, rows)
    assert g.rows == rows
    h = ref_h(rows, n, p)
    assert h_invariant(g) == h
    if h < 1:
        with pytest.raises(ValueError):
            factor_P_Gamma1(g, 1)
        return
    m = 1 if h == math.inf else min(h, 4)
    p_part, g1_part = factor_P_Gamma1(g, m)
    expected_p, expected_g1 = ref_factor(rows, n)
    assert p_part.rows == expected_p
    assert g1_part.rows == expected_g1
    assert p_part * g1_part == g
    assert ref_mul(p_part.rows, g1_part.rows) == rows


@given(
    st.integers(1, 4).flatmap(
        lambda n: st.tuples(
            st.lists(st.lists(st.integers(-4, 4), min_size=n, max_size=n), min_size=n, max_size=n),
            st.integers(0, 3).flatmap(
                lambda k: st.lists(
                    st.lists(st.integers(-10**12, 10**12), min_size=k, max_size=k), min_size=n, max_size=n
                )
            ),
        )
    )
)
@settings(max_examples=300, deadline=None)
def test_bareiss_solve_matches_the_fraction_oracle(dc):
    d, c = dc
    det, solved = padic._bareiss_solve(d, c)
    ref_det, ref_x = ref_solve(d, c)
    if ref_x is None:
        assert (det, solved) == (0, None)
        return
    assert abs(det) == abs(ref_det)
    assert solved == tuple(tuple(det * x for x in row) for row in ref_x)
    assert all(isinstance(x, int) for row in solved for x in row)


def test_bareiss_solve_literals():
    assert padic._bareiss_solve(((0, 1), (1, 0)), ((2,), (3,))) in ((-1, ((-3,), (-2,))), (1, ((3,), (2,))))
    assert padic._bareiss_solve(((2, 4), (1, 2)), ((1,), (1,))) == (0, None)
    assert padic._bareiss_solve(((0, 0), (0, 0)), ((), ())) == (0, None)
    assert padic._bareiss_solve(((3,),), ((6, 7),)) == (3, ((6, 7),))
    det, _ = padic._bareiss_solve(((1, 2, 3), (4, 5, 6), (7, 8, 10)), ((),) * 3)
    assert abs(det) == 3
