import math
import random
from dataclasses import dataclass

import numpy as np
import pytest

from bruhat_satake.ordcoh import (
    KOSZUL_DEGREE_GUARD,
    Lambda,
    cores_kunneth,
    hecke_gamma,
    koszul_cohomology,
    koszul_differentials,
    ordinary_limit,
    ordinary_part_of_hecke_gamma,
    ordinary_projector,
    rank_mod_p,
)
from bruhat_satake.ordcoh import _matpow_mod, _stable_exponent

Z4 = Lambda(2, 2)
Z9 = Lambda(3, 2)
Z8 = Lambda(2, 3)


def test_lambda_validation():
    assert Lambda(2, 3).modulus == 8
    assert Lambda(5, 1).modulus == 5
    with pytest.raises(ValueError):
        Lambda(4, 1)
    with pytest.raises(ValueError):
        Lambda(2, 0)


@pytest.mark.parametrize("p, r", [(3, 2.0), (3, 1.5), (3, True), (5.0, 2), (True, 2)])
def test_lambda_refuses_a_non_integer_p_or_r(p, r):
    # Lambda(3, 2.0).modulus was 9.0 and Lambda(5.0, 2).modulus 25.0
    with pytest.raises(ValueError):
        Lambda(p, r)


@pytest.mark.parametrize("weights", [[1.5], [4.0], [True], ["4"]])
def test_koszul_differentials_refuse_non_integer_weights(weights):
    # int(1.5) = 1 made the weight trivial and the map zero
    with pytest.raises(ValueError, match="integers"):
        koszul_differentials(1, Z9, weights)


@pytest.mark.parametrize(
    "U", [[[0.5, 0], [0, 1.7]], [[0.5]], np.eye(2), [[True, False], [False, True]], [[2**70]]],
    ids=["floats", "one float", "float identity", "bools", "beyond int64"],
)
def test_ordinary_limit_refuses_a_non_integer_matrix(U):
    # the int64 cast truncated [[0.5, 0], [0, 1.7]] to [[0, 0], [0, 1]]
    with pytest.raises(ValueError, match="integer matrix"):
        ordinary_limit(U, Z9)


def test_ordinary_limit_takes_integer_dtypes():
    for dtype in (np.int8, np.int32, np.uint8, np.uint64):
        e, _ = ordinary_limit(np.array([[4, 0], [0, 3]], dtype=dtype), Z9)
        assert e.dtype == np.int64
        assert (e == np.diag([1, 0])).all()
    e, _ = ordinary_limit(np.array([[2**64 - 1]], dtype=np.uint64), Z9)  # 2^64 - 1 = 6 mod 9 is nilpotent
    assert (e == 0).all()


def test_cohomology_ranks_and_bases():
    coh = koszul_cohomology(3, Z4)
    assert coh.ranks == (1, 3, 3, 1)
    assert coh.bases[0] == ((),)
    assert coh.bases[1] == ((1,), (2,), (3,))
    assert coh.bases[3] == ((1, 2, 3),)
    for d in range(KOSZUL_DEGREE_GUARD + 1):
        coh = koszul_cohomology(d, Z9)
        assert coh.ranks == tuple(math.comb(d, i) for i in range(d + 1))
        assert sum(coh.ranks) == 2**d
        for i, basis in enumerate(coh.bases):
            assert len(basis) == coh.ranks[i]
            assert all(len(s) == i for s in basis)
    with pytest.raises(ValueError):
        koszul_cohomology(KOSZUL_DEGREE_GUARD + 1, Z4)
    with pytest.raises(ValueError):
        koszul_cohomology(-1, Z4)


def test_differentials_vanish_for_the_trivial_action():
    for d in (1, 2, 4):
        for mat in koszul_differentials(d, Z4, [1] * d):
            assert not mat.any()


def test_differentials_square_to_zero():
    rng = random.Random(5)
    for lam in (Z4, Z9, Z8, Lambda(5, 1)):
        for d in (2, 3, 4, 5):
            units = [rng.randrange(1, lam.modulus) for _ in range(d)]
            units = [u if u % lam.p else u + 1 for u in units]
            mats = koszul_differentials(d, lam, units)
            assert len(mats) == d
            coh = koszul_cohomology(d, lam)
            for i, mat in enumerate(mats):
                assert mat.shape == (coh.ranks[i + 1], coh.ranks[i])
            for i in range(d - 1):
                assert not ((mats[i + 1] @ mats[i]) % lam.modulus).any()


def test_differentials_detect_a_wild_unit():
    # u = 1 + p acts nontrivially whenever r >= 2
    mats = koszul_differentials(2, Z4, [1 + 2, 1])
    assert mats[0].any()
    assert (mats[0] % 2 == 0).all()  # image still lands in p * Lambda


def test_differentials_reject_bad_weights():
    with pytest.raises(ValueError):
        koszul_differentials(2, Z4, [2, 1])  # not a unit
    with pytest.raises(ValueError):
        koszul_differentials(2, Z4, [1])  # wrong arity
    with pytest.raises(ValueError):
        koszul_differentials(KOSZUL_DEGREE_GUARD + 1, Z4, [1] * (KOSZUL_DEGREE_GUARD + 1))


def test_differentials_refuse_entries_beyond_int64():
    lam = Lambda(2, 70)
    with pytest.raises(ValueError, match=f"Z/{lam.modulus} "):  # was an OverflowError
        koszul_differentials(2, lam, [2**69 + 1, 1])
    with pytest.raises(ValueError):  # the entry -(3 - 1) is 2^70 - 2
        koszul_differentials(2, lam, [1, 3])
    # weights whose entries fit are still accepted at this modulus
    assert not any(mat.any() for mat in koszul_differentials(2, lam, [1, 1]))
    assert koszul_differentials(2, lam, [3, 1])[0].tolist() == [[2], [0]]


# ------------------------------------------------------------------ rank one
# The level-p^a model of the rank-one tower: the oracle behind the closed
# form of ``cores_kunneth``.


@dataclass(frozen=True)
class Rank1Cores:
    """delta is the circulant (Df)_x = f_{x+1} - f_x on Lambda^{p^a};
    cores_row sums a function over the fiber.  deg0 and deg1 are the maps
    induced on H^0 (constants) and H^1 (class of a delta function).
    """

    a: int
    lam: Lambda
    delta: np.ndarray
    cores_row: np.ndarray
    deg0: np.ndarray
    deg1: np.ndarray


def cores_rank1(a, lam):
    if a < 1:
        raise ValueError("level exponent must be >= 1")
    size, mod = lam.p**a, lam.modulus
    shift = np.zeros((size, size), dtype=np.int64)
    for x in range(size):
        shift[x, (x + 1) % size] = 1
    delta = (shift - np.eye(size, dtype=np.int64)) % mod
    cores_row = np.ones((1, size), dtype=np.int64)
    constants = np.ones((size, 1), dtype=np.int64)
    deg0 = (cores_row @ constants) % mod  # the constant 1 sums to p^a
    delta_fn = np.zeros((size, 1), dtype=np.int64)
    delta_fn[0, 0] = 1
    deg1 = (cores_row @ delta_fn) % mod  # [delta_0] |-> 1, since im D is killed
    return Rank1Cores(a, lam, delta, cores_row, deg0, deg1)


@pytest.mark.parametrize("lam", [Z4, Z9, Lambda(2, 1)])
@pytest.mark.parametrize("a", [1, 2])
def test_rank1_degree_maps(lam, a):
    cores = cores_rank1(a, lam)
    size, mod = lam.p**a, lam.modulus
    assert cores.delta.shape == (size, size)
    assert int(cores.deg0[0, 0]) == pow(lam.p, a, mod)
    assert int(cores.deg1[0, 0]) == 1
    # summing over the fiber kills the image of the difference operator
    assert not ((cores.cores_row @ cores.delta) % mod).any()
    # constants lie in the kernel, and mod p that is all of it
    const = np.ones((size, 1), dtype=np.int64)
    assert not ((cores.delta @ const) % mod).any()
    assert rank_mod_p(cores.delta, lam.p) == size - 1


def test_rank1_difference_equation_solvable_iff_zero_sum():
    lam = Z9
    cores = cores_rank1(2, lam)
    size, mod = 9, lam.modulus
    rng = random.Random(1)
    for _ in range(20):
        g = [rng.randrange(mod) for _ in range(size)]
        g[-1] = (-sum(g[:-1])) % mod  # force fiber sum zero
        f = np.zeros((size, 1), dtype=np.int64)
        for x in range(size - 1):
            f[x + 1, 0] = (f[x, 0] + g[x]) % mod
        assert ((cores.delta @ f) % mod == np.array(g).reshape(size, 1)).all()
    with pytest.raises(ValueError):
        cores_rank1(0, lam)


@pytest.mark.parametrize("lam", [Z4, Z9, Z8])
@pytest.mark.parametrize("a", [1, 2])
@pytest.mark.parametrize("d", [1, 2, 3, 5])
def test_kunneth_corestriction_is_p_power_diagonal(lam, a, d):
    mats = cores_kunneth(d, a, lam)
    coh = koszul_cohomology(d, lam)
    assert len(mats) == d + 1
    for i, mat in enumerate(mats):
        assert mat.shape == (coh.ranks[i], coh.ranks[i])
        expected = pow(lam.p, a * (d - i), lam.modulus)
        assert (mat == expected * np.eye(coh.ranks[i], dtype=np.int64) % lam.modulus).all()


@pytest.mark.parametrize("lam", [Z4, Z9, Lambda(2, 1)])
@pytest.mark.parametrize("a", [1, 2])
def test_kunneth_in_rank_one_is_the_model_corestriction(lam, a):
    cores = cores_rank1(a, lam)
    assert [mat.tolist() for mat in cores_kunneth(1, a, lam)] == [cores.deg0.tolist(), cores.deg1.tolist()]


def test_hecke_gamma_is_the_corestriction_here():
    for d, a, lam in ((2, 1, Z4), (3, 2, Z9)):
        lhs = hecke_gamma(d, a, lam)
        rhs = cores_kunneth(d, a, lam)
        assert all((x == y).all() for x, y in zip(lhs, rhs))


# ---------------------------------------------------------------- projectors


def test_limit_of_a_finite_order_rotation():
    U = np.array([[0, -1], [1, 0]])
    e, n = ordinary_limit(U, Z9)
    assert (e == np.eye(2)).all()
    assert n % 4 == 0  # the rotation has order 4
    assert (_matpow_mod(U, n, Z9.modulus) == e).all()


def test_limit_falls_back_past_small_factorials():
    # companion matrix of x^5 + x^2 + 1, irreducible of order 31 mod 2;
    # 31 divides no k! with k <= 20, so the closed-form exponent is used
    U = np.zeros((5, 5), dtype=np.int64)
    for i in range(4):
        U[i + 1, i] = 1
    U[0, 4] = -1
    U[2, 4] = -1
    e, n = ordinary_limit(U, Z4)
    assert n == _stable_exponent(5, Z4)
    assert n % 31 == 0
    assert (e == np.eye(5)).all()  # U is invertible, so the projector is full


def test_limit_splits_nilpotent_from_invertible():
    U = np.array([[0, 1, 0], [0, 0, 0], [0, 0, 1]])
    e, n = ordinary_limit(U, Z4)
    assert (e == np.diag([0, 0, 1])).all()
    assert rank_mod_p(e, 2) == 1


def test_int64_guard_refuses_overflowing_moduli():
    # 3^30 - 1 squared overflows int64: the limit of the unit 2 is 1, but
    # the unguarded power came out as the projector 0
    with pytest.raises(ValueError, match="overflow"):
        ordinary_limit(np.array([[2]]), Lambda(3, 30))
    with pytest.raises(ValueError, match="overflow"):
        cores_kunneth(2, 1, Lambda(65537, 2))
    # the bound is size * (p^r - 1)^2 < 2^63: 2 x 2 over Z/2^31 is exact
    lam = Lambda(2, 31)
    e, _ = ordinary_limit(np.array([[3, 0], [0, 2]]), lam)
    assert (e == np.diag([1, 0])).all()
    with pytest.raises(ValueError, match="overflow"):
        ordinary_limit(np.eye(3, dtype=np.int64), lam)


def test_limit_rejects_nonsquare():
    with pytest.raises(ValueError):
        ordinary_limit(np.ones((2, 3), dtype=np.int64), Z4)


@pytest.mark.parametrize("lam", [Z4, Z9])
def test_random_projectors(lam):
    rng = np.random.default_rng(17 * lam.p)
    mod = lam.modulus
    for _ in range(100):
        size = int(rng.integers(1, 6))
        U = rng.integers(0, mod, size=(size, size)).astype(np.int64)
        e, n = ordinary_limit(U, lam)
        assert ((e @ e) % mod == e).all()
        assert ((e @ U) % mod == (U @ e) % mod).all()
        assert (_matpow_mod(U, n, mod) == e).all()
        assert (ordinary_projector(U, lam) == e).all()
        # U is invertible on the image of e and the identity off it
        eye = np.eye(size, dtype=np.int64)
        mixed = (e @ U @ e + (eye - e)) % mod
        assert rank_mod_p(mixed, lam.p) == size
        assert rank_mod_p((U @ e) % mod, lam.p) == rank_mod_p(e, lam.p)


def test_rank_mod_p_against_span_enumeration():
    rng = np.random.default_rng(3)
    for p in (2, 3):
        for _ in range(40):
            rows, cols = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            mat = rng.integers(0, p, size=(rows, cols)).astype(np.int64)
            span = set()
            for coeffs in np.ndindex(*([p] * rows)):
                vec = tuple((np.array(coeffs) @ mat) % p)
                span.add(vec)
            expected = round(math.log(len(span), p))
            assert rank_mod_p(mat, p) == expected


@pytest.mark.parametrize("lam", [Lambda(2, 1), Z4, Z8, Lambda(3, 1), Z9])
def test_ordinary_part_concentrates_in_top_degree(lam):
    for d in (1, 2, 3, 5, 8):
        ranks = ordinary_part_of_hecke_gamma(d, lam)
        assert ranks == (0,) * d + (1,)


def test_ordinary_part_at_level_one():
    # a = 1 still works: p is nilpotent mod p^r in every lower degree
    for lam in (Z4, Z9):
        assert ordinary_part_of_hecke_gamma(3, lam, a=1) == (0, 0, 0, 1)
