import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bruhat_satake import padic
from bruhat_satake.padic import (
    BlockMatrix,
    Level,
    LevelFlavor,
    anticanonical_radius,
    block_matrix,
    factor_P_Gamma1,
    from_blocks,
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


# ------------------------------------------------------------ block matrices


def test_block_matrix_validation():
    with pytest.raises(ValueError):
        block_matrix(A1, 2, [[1, 0], [0, 0]])  # singular
    with pytest.raises(ValueError):
        block_matrix(C1, 2, [[2, 0], [0, 1]])  # not symplectic
    with pytest.raises(ValueError):
        BlockMatrix(A1, 2, ((1, 0), (0, 1)))  # raw ints, not Fractions
    with pytest.raises(ValueError):
        block_matrix(A1, 2, [[1, 0, 0], [0, 1, 0]])  # wrong shape
    with pytest.raises(ValueError):
        block_matrix(A1, 6, [[1, 0], [0, 1]])  # composite prime


def test_is_prime_is_bounded():
    assert [p for p in range(30) if padic.is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert padic.is_prime(2**31 - 1)
    assert not padic.is_prime(46337 * 46327)
    # trial division past 2^31 is refused before the first division
    with pytest.raises(ValueError, match="2\\^31"):
        padic.is_prime(2**31)
    with pytest.raises(ValueError, match="2\\^31"):
        padic.gamma(A1, 1000000000000000003)


def test_block_views_and_products():
    g = block_matrix(A2, 2, [[1, 2, 3, 4], [5, 6, 7, 8], [9, 10, 12, 12], [13, 14, 15, 17]])
    assert g.a == ((1, 2), (5, 6))
    assert g.b == ((3, 4), (7, 8))
    assert g.c == ((9, 10), (13, 14))
    assert g.d == ((12, 12), (15, 17))
    gi = g.inverse()
    prod = g * gi
    assert prod.rows == block_matrix(A2, 2, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]).rows
    assert g.transpose().transpose().rows == g.rows
    with pytest.raises(ValueError):
        g * block_matrix(A2, 3, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])


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
            assert all(x == 0 for row in q.c for x in row)
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
            assert (p_part * c_part).rows == g.rows
            assert all(x == 0 for row in p_part.c for x in row)
            assert in_level(c_part, Level(LevelFlavor.GAMMA1, m))
            # type C factors pass the symplectic constructor check by existing


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
        B = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        g = from_blocks(kind, p, [[int(i == j) for j in range(n)] for i in range(n)], B,
                        [[0] * n for _ in range(n)], [[int(i == j) for j in range(n)] for i in range(n)])
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
