import hashlib
import math
import random
import time
import types
from fractions import Fraction
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bruhat_satake import cli, ordcoh, padic
from bruhat_satake.padic import (
    BlockMatrix,
    _int_valuation,
    anticanonical_radius,
    block_matrix,
    exact,
    factor_P_Gamma1,
    gamma,
    h_invariant,
    in_level,
    random_congruence_element,
    random_parabolic_element,
)
from bruhat_satake.weyl import Family, GroupKind, all_subsets_j
from oracles import block_inverse, block_transpose

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
    x = Fraction(unit * p**up, p**down)
    assert _int_valuation(x.numerator, p) - _int_valuation(x.denominator, p) == up - down


def test_valuation_literals():
    assert _int_valuation(8, 2) == 3
    assert _int_valuation(-3 * 5**7, 5) == 7
    for x, p in ((Fraction(3, 4), 2), (exact("5/9"), 3)):
        assert _int_valuation(x.numerator, p) - _int_valuation(x.denominator, p) == -2


@pytest.mark.parametrize("x", [0.1, 0.5, 2.0, True, "0.1", "1e3", "1/0", None])
def test_exact_refuses_inexact_input(x):
    # Fraction(0.1) is 3602879701896397/2^55, so v_2(0.1) read -55
    with pytest.raises(ValueError):
        exact(x)


@pytest.mark.parametrize("p", [1, -1, 0, 4])
def test_block_matrix_refuses_a_p_that_is_not_prime(p):
    # p = 1 or -1 divides every x, so stripping its powers in h_invariant never ended
    for rows in ([[1, 0], [12, 1]], [[1, 0], ["1/3", 1]]):
        with pytest.raises(ValueError, match="not prime"):
            block_matrix(A1, p, rows)


@pytest.mark.parametrize(
    "x, p, expected",
    [(3 * 2**200_000, 2, 200_000), (Fraction(5, 3**50_000), 3, -50_000)],
    ids=["2-adic 200000", "3-adic -50000"],
)
def test_valuation_of_a_deep_power_is_fast(x, p, expected):
    # one division per factor of p makes v divisions of a long integer; squaring p^(2^k) needs O(log v)
    started = time.perf_counter()
    x = Fraction(x)
    assert _int_valuation(x.numerator, p) - _int_valuation(x.denominator, p) == expected
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
    # is_prime(5.0) was True, so a BlockMatrix could carry p = 5.0
    with pytest.raises(ValueError, match="integer"):
        padic.is_prime(p)
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
    gi = block_inverse(g)
    prod = g * gi
    assert prod.rows == block_matrix(A2, 2, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]).rows
    assert block_transpose(block_transpose(g)).rows == g.rows
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
    assert g * block_inverse(g) == one == block_inverse(g) * g
    assert block_inverse(block_inverse(g)) == g
    assert len({g, block_inverse(block_inverse(g)), one, g * block_inverse(g)}) == 2


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
            assert h_invariant(g) >= m
            p_part, c_part = factor_P_Gamma1(g, m)
            n = kind.n
            assert (p_part * c_part).rows == g.rows
            assert all(x == 0 for row in p_part.num[n:] for x in row[:n])
            assert in_level(c_part, m)
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
            assert in_level(g1_part, 2)
            gam = gamma(kind, p)
            assert block_transpose(block_inverse(g)) * block_transpose(g) == gam * block_inverse(gam)


def test_factorization_needs_enough_depth():
    g = block_matrix(A1, 2, [[1, 0], [2, 1]])  # h = 1
    factor_P_Gamma1(g, 1)
    with pytest.raises(ValueError):
        factor_P_Gamma1(g, 2)
    with pytest.raises(ValueError):
        factor_P_Gamma1(g, 0)


def test_sharpness_at_the_level_boundary():
    for p in PRIMES:
        for m in (2, 3):
            g = block_matrix(A1, p, [[1, 0], [p ** (m - 1), 1]])
            assert h_invariant(g) == m - 1
            factor_P_Gamma1(g, m - 1)
            with pytest.raises(ValueError, match="not in P"):
                factor_P_Gamma1(g, m)


# ------------------------------------------------------------------- levels


def _scalar_rows(n, s):
    return [[s * int(i == j) for j in range(n)] for i in range(n)]


def _from_blocks(kind, p, A, B, C, D):
    return block_matrix(kind, p, [a + b for a, b in zip(A, B)] + [c + d for c, d in zip(C, D)])


def test_level_separation_by_the_b_block():
    # unipotent with a unit in the B block: Gamma_1 puts no condition on B
    for kind, p, m in ((A1, 2, 1), (A2, 3, 2), (C1, 5, 1), (C2, 2, 3)):
        eye, zero = _scalar_rows(kind.n, 1), _scalar_rows(kind.n, 0)
        assert in_level(_from_blocks(kind, p, eye, eye, zero, eye), m)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("m", (1, 2))
def test_in_level_refuses_each_broken_block(kind, m):
    # each element breaks exactly one of C = 0, A = I, D = I mod p^m
    p = 3
    eye, zero, two = (_scalar_rows(kind.n, s) for s in (1, 0, 2))
    assert in_level(_from_blocks(kind, p, eye, zero, zero, eye), m)
    assert not in_level(_from_blocks(kind, p, eye, zero, eye, eye), m)  # C = I, symplectic too
    if kind.family is Family.TYPE_A:
        assert not in_level(_from_blocks(kind, p, two, zero, zero, eye), m)  # A = 2I
        assert not in_level(_from_blocks(kind, p, eye, zero, zero, two), m)  # D = 2I


@pytest.mark.parametrize("kind", KINDS)
def test_in_level_reads_each_congruence_off_a_valuation(kind):
    # an entry meets its target modulo p^m exactly when the difference has
    # v_p >= m, either sign; a zero difference meets every level
    eye, zero = _scalar_rows(kind.n, 1), _scalar_rows(kind.n, 0)
    for p in (2, 3, 5):
        for m in (1, 2, 5):
            for c in (p**m, -(p**m), 7 * p**m, p ** (m - 1), -(p ** (m - 1)), 1):
                g = _from_blocks(kind, p, eye, zero, _scalar_rows(kind.n, c), eye)
                assert in_level(g, m) is (c % p**m == 0)
            if kind.family is Family.TYPE_A:
                for a in (1 + p**m, 1 - p**m, 1 + p ** (m - 1)):
                    g = _from_blocks(kind, p, _scalar_rows(kind.n, a), zero, zero, eye)
                    assert in_level(g, m) is ((a - 1) % p**m == 0)
        # a level far past the entries' valuations
        assert in_level(_from_blocks(kind, p, eye, eye, zero, eye), 10**6)
        assert not in_level(_from_blocks(kind, p, eye, zero, _scalar_rows(kind.n, p**40), eye), 10**6)


def test_in_level_rejects_non_integral():
    with pytest.raises(ValueError):
        in_level(gamma(C1, 2), 1)
    with pytest.raises(ValueError):
        in_level(block_matrix(A1, 2, [["1/2", 0], [0, 2]]), 1)
    with pytest.raises(ValueError, match="level exponent must be >= 1"):
        in_level(block_matrix(A1, 2, [[1, 0], [0, 1]]), 0)


def test_congruence_sampler_hits_its_level_exactly():
    rng = random.Random(33)
    for kind in KINDS:
        for p in PRIMES:
            for m in (1, 2, 3):
                g = random_congruence_element(kind, p, m, rng)
                assert g.is_integral()
                assert in_level(g, m)


@pytest.mark.parametrize("kind", (A1, C2))
@pytest.mark.parametrize("m", (0, -1))
def test_congruence_sampler_refuses_a_level_below_one(kind, m):
    # m = 0 returned a matrix and m = -1 raised AttributeError from p**m
    rng = random.Random(1)
    state = rng.getstate()
    with pytest.raises(ValueError, match="level exponent must be >= 1"):
        random_congruence_element(kind, 2, m, rng)
    assert rng.getstate() == state  # refused before the first draw


@pytest.mark.parametrize(
    "m,message",
    [(1.5, "must be an integer"), (True, "must be an integer"), (0, "level exponent must be >= 1")],
)
def test_every_level_exponent_is_an_int_at_least_one(m, message, monkeypatch):
    # 1.5 reduced modulo the float 2**1.5, True passed as 1, factor_P_Gamma1(g, 0)
    # ran the whole factorization, the sampler raised AttributeError at 1.5 and
    # cores_kunneth a TypeError from pow
    def no_work(*args):
        raise AssertionError("work was done before the level check")

    g = block_matrix(A1, 2, [[1, 0], [4, 1]])
    rng = random.Random(7)
    state = rng.getstate()
    monkeypatch.setattr(padic, "h_invariant", no_work)
    monkeypatch.setattr(padic, "_solve_dc", no_work)
    calls = [
        lambda: in_level(g, m),
        lambda: factor_P_Gamma1(g, m),
        lambda: random_congruence_element(C2, 3, m, rng),
        lambda: ordcoh.cores_kunneth(2, m, ordcoh.Lambda(2, 2)),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=message):
            call()
    assert rng.getstate() == state  # refused before the first draw


def test_congruence_sampler_refuses_a_non_prime():
    rng = random.Random(3)
    state = rng.getstate()
    for p in (4, 1, -2):
        with pytest.raises(ValueError, match="not prime"):
            random_congruence_element(A1, p, 1, rng)
    assert rng.getstate() == state


def test_congruence_sampler_guards_the_length_of_p_to_the_m():
    guard = padic.CONGRUENCE_BITS_GUARD
    refused = [(2, 10**6), (2**31 - 1, 10**9)]
    for p in PRIMES:
        # the deepest level whose modulus fits the guard is drawn, one level more is refused
        m = guard
        while (p**m).bit_length() > guard:
            m -= 1
        assert in_level(random_congruence_element(A1, p, m, random.Random(1)), m)
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
                        random_parabolic_element(kind, p, rng),
                    ):
                        text.append(repr([[str(x) for x in row] for row in g.rows]))
    digest = hashlib.sha256("\n".join(text).encode()).hexdigest()
    assert digest == "61d2db823977456e80ae345c37cabee7de99525bf6cd82b2d7366faab23a0bd7"


# ------------------------------------------- products skip the group proof
# A product of two checked elements is only made canonical; these re-prove
# every product the benchmarked schedules form with the constructor's full
# check, and keep the refusals of outside data.

ROOT = Path(__file__).resolve().parents[1]

SUITES = [
    "padic h --kind C --n 2 --p 3 --m 2 --seed 7 --count 20",
    "padic h --kind C --n 2 --p 3 --m 2 --seed 50494 --count 100",
    "padic h --kind A --n 3 --p 5 --m 3 --seed 55125 --count 100",
    "padic factor --kind C --n 3 --p 3 --m 2 --seed 5306 --count 50",
    "padic factor --kind A --n 1 --p 2 --matrix [[1,0],[4,1]] --m 2",
]


def record_products(monkeypatch) -> list:
    products = []
    mul = BlockMatrix.__mul__

    def recording(self, other):
        products.append(mul(self, other))
        return products[-1]

    monkeypatch.setattr(BlockMatrix, "__mul__", recording)
    return products


def assert_proved_again(products):
    for g in products:
        again = BlockMatrix(g.kind, g.p, g.num, g.den)  # the full group check
        assert (again.num, again.den) == (g.num, g.den) and again == g


def test_products_of_the_seeded_sweep_lie_in_the_group(monkeypatch):
    # the library sweep's p-adic schedule: seed 0, 500 samples (its Weyl part
    # is cut to n = 1; the p-adic schedule does not depend on it)
    path = ROOT / "perfbench" / "child.py"
    child = types.ModuleType("perfbench_child")
    exec(compile(path.read_text(), str(path), "exec"), child.__dict__)
    products = record_products(monkeypatch)
    result = child.sweep(0, 1, 500)
    assert result["reassembled"] == result["factorizations"] == 500
    assert len(products) > 1000
    assert_proved_again(products)


@pytest.mark.parametrize("command", SUITES)
def test_products_of_the_cli_suites_lie_in_the_group(monkeypatch, command):
    products = record_products(monkeypatch)
    result = CliRunner().invoke(cli.main, command.split(), catch_exceptions=False)
    assert result.exit_code == 0
    assert products
    assert_proved_again(products)


def test_outside_data_is_still_refused():
    not_symplectic = ((1, 1), (0, 2))  # det 2
    singular = ((1, 2), (2, 4))
    with pytest.raises(ValueError, match="symplectic"):
        BlockMatrix(C1, 3, not_symplectic, 1)
    with pytest.raises(ValueError, match="symplectic"):
        block_matrix(C1, 3, not_symplectic)
    with pytest.raises(ValueError, match="symplectic"):
        padic._from_int_blocks(C1, 3, ((1,),), ((1,),), ((0,),), ((2,),))
    with pytest.raises(ValueError, match="singular"):
        BlockMatrix(A1, 3, singular, 1)
    with pytest.raises(ValueError, match="singular"):
        block_matrix(A1, 3, [["1/2", 1], [1, 2]])
    with pytest.raises(ValueError, match="singular"):
        padic._from_int_blocks(A1, 3, ((1,),), ((2,),), ((2,),), ((4,),))
    # a product of checked elements keeps the canonical form the constructor gives
    g = block_matrix(C1, 3, [["1/2", 0], [0, 2]])
    h = block_matrix(C1, 3, [[1, "1/3"], [0, 1]])
    assert (g * h) == BlockMatrix(C1, 3, ((3, 1), (0, 12)), 6) == block_matrix(C1, 3, [["1/2", "1/6"], [0, 2]])
    assert (g * block_inverse(g)).den == 1


def test_a_seeded_suite_at_a_large_prime_divides_it_out_once():
    # every BlockMatrix asks whether p is prime; at p = 2^31 - 19 each trial
    # division takes milliseconds, so it is done once per p
    padic._trial_division.cache_clear()
    command = "padic h --kind C --n 2 --p 2147483629 --m 1 --seed 3 --count 100".split()
    result = CliRunner().invoke(cli.main, command, catch_exceptions=False)
    assert result.exit_code == 0
    info = padic._trial_division.cache_info()
    assert info.misses == 1 and info.hits >= 100


def test_the_prime_cache_keeps_non_ints_out():
    # True == 1 and Fraction(5) == 5 hash alike; the type check comes first
    assert not padic.is_prime(1) and padic.is_prime(5)
    for p in (True, Fraction(5), 5.0):
        with pytest.raises(ValueError, match="integer"):
            padic.is_prime(p)
    with pytest.raises(ValueError, match="integer"):
        padic.is_prime([5])  # unhashable: refused, not a TypeError from the cache


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
    subsets = all_subsets_j(kind)
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
    keys = all_subsets_j(C1)
    vals = dict.fromkeys(keys, 1)
    vals[frozenset({2})] = 4
    assert anticanonical_radius(C1, vals) == 3
    with pytest.raises(ValueError):
        anticanonical_radius(C1, {tuple(sorted(k)): 1 for k in keys})  # sorted-tuple keys are not frames here


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
        for given in ({}, {"h": h}):
            with pytest.raises(ValueError, match=f"^h invariant {h} < 1;"):
                factor_P_Gamma1(g, 1, **given)
        return
    m = 1 if h == math.inf else min(h, 4)
    p_part, g1_part = factor_P_Gamma1(g, m)
    expected_p, expected_g1 = ref_factor(rows, n)
    assert p_part.rows == expected_p
    assert g1_part.rows == expected_g1
    assert factor_P_Gamma1(g, m, h=h) == (p_part, g1_part)  # the caller's h, not recomputed
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
