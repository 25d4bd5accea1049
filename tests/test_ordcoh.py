import math
import random
import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest

from bruhat_satake import ordcoh, padic
from bruhat_satake.kernels import rref_rows
from bruhat_satake.ordcoh import (
    KOSZUL_DEGREE_GUARD,
    Lambda,
    cores_kunneth,
    hecke_gamma,
    koszul_cohomology,
    koszul_differentials,
    ordinary_limit,
    ordinary_part_of_hecke_gamma,
)
from bruhat_satake.ordcoh import _matpow_mod, _stable_exponent

Z4 = Lambda(2, 2)
Z9 = Lambda(3, 2)
Z8 = Lambda(2, 3)


def mul_mod(a, b, mod):
    """The product of two matrices of Python rows, reduced mod ``mod``, as tuple rows."""
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) % mod for col in zip(*b)) for row in a)


def scalar_rows(size, c):
    """c times the size x size identity, as tuple rows."""
    return tuple(tuple(c * (i == j) for j in range(size)) for i in range(size))


def test_lambda_validation():
    assert Lambda(2, 3).modulus == 8
    assert Lambda(5, 1).modulus == 5
    with pytest.raises(ValueError):
        Lambda(4, 1)
    with pytest.raises(ValueError):
        Lambda(2, 0)


def test_lambda_refuses_a_modulus_past_the_guard():
    guard = padic.CONGRUENCE_BITS_GUARD
    for p in (2, 3, 5):
        # the deepest exponent whose modulus fits the guard is taken, one more is refused
        r = guard
        while (p**r).bit_length() > guard:
            r -= 1
        assert Lambda(p, r).modulus.bit_length() <= guard
        for refused in (r + 1, 10**12):
            with pytest.raises(ValueError, match="CONGRUENCE_BITS_GUARD"):
                Lambda(p, refused)


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
    "U", [[[0.5, 0], [0, 1.7]], [[0.5]], np.eye(2), [[True, False], [False, True]], np.eye(2, dtype=bool)],
    ids=["floats", "one float", "float identity", "bools", "numpy bools"],
)
def test_ordinary_limit_refuses_a_non_integer_matrix(U):
    # an int64 cast truncated [[0.5, 0], [0, 1.7]] to [[0, 0], [0, 1]]
    with pytest.raises(ValueError, match="integer matrix"):
        ordinary_limit(U, Z9)


def test_ordinary_limit_is_exact_for_an_entry_of_any_size():
    # 2^70 = 7 mod 9 is a unit; mod 2^70 it is 0; 2^70 + 1 is a unit mod 2^71
    assert ordinary_limit([[2**70]], Z9)[0] == ((1,),)
    assert ordinary_limit([[2**70]], Lambda(2, 70))[0] == ((0,),)
    assert ordinary_limit([[2**70 + 1]], Lambda(2, 71))[0] == ((1,),)


def test_ordinary_limit_takes_integer_dtypes():
    for dtype in (np.int8, np.int32, np.uint8, np.uint64):
        e, _ = ordinary_limit(np.array([[4, 0], [0, 3]], dtype=dtype), Z9)
        assert e == ((1, 0), (0, 0))
        assert all(type(x) is int for row in e for x in row)
    e, _ = ordinary_limit(np.array([[2**64 - 1]], dtype=np.uint64), Z9)  # 2^64 - 1 = 6 mod 9 is nilpotent
    assert e == ((0,),) and type(e[0][0]) is int
    e, _ = ordinary_limit(np.array([[2**64 - 1]], dtype=np.uint64), Lambda(2, 65))  # a unit mod 2^65
    assert e == ((1,),) and type(e[0][0]) is int


def test_cohomology_ranks():
    assert koszul_cohomology(3) == (1, 3, 3, 1)
    for d in range(KOSZUL_DEGREE_GUARD + 1):
        ranks = koszul_cohomology(d)
        assert ranks == tuple(math.comb(d, i) for i in range(d + 1))
        assert sum(ranks) == 2**d
    with pytest.raises(ValueError):
        koszul_cohomology(KOSZUL_DEGREE_GUARD + 1)
    with pytest.raises(ValueError):
        koszul_cohomology(-1)


def test_differentials_follow_the_subset_bases():
    # rows and columns are the i-subsets of {1..3} in combinations order:
    # (), then (1,) (2,) (3,), then (1,2) (1,3) (2,3), then (1,2,3)
    u1, u2, u3 = 2, 3, 4  # u_j - 1 = 1, 2, 3 over Z/25
    mats = koszul_differentials(3, Lambda(5, 2), [u1, u2, u3])
    assert mats[0] == ((1,), (2,), (3,))
    assert mats[1] == ((-2 % 25, 1, 0), (-3 % 25, 0, 1), (0, -3 % 25, 2))
    assert mats[2] == ((3, -2 % 25, 1),)
    for d in range(KOSZUL_DEGREE_GUARD + 1):
        mats = koszul_differentials(d, Z4, [1] * d)
        assert len(mats) == d
        for i, mat in enumerate(mats):
            assert len(mat) == math.comb(d, i + 1)
            assert all(len(row) == math.comb(d, i) for row in mat)


def test_differentials_vanish_for_the_trivial_action():
    for d in (1, 2, 4):
        for mat in koszul_differentials(d, Z4, [1] * d):
            assert not any(any(row) for row in mat)


def test_differentials_square_to_zero():
    rng = random.Random(5)
    for lam in (Z4, Z9, Z8, Lambda(5, 1)):
        for d in (2, 3, 4, 5):
            units = [rng.randrange(1, lam.modulus) for _ in range(d)]
            units = [u if u % lam.p else u + 1 for u in units]
            mats = koszul_differentials(d, lam, units)
            assert len(mats) == d
            ranks = koszul_cohomology(d)
            for i, mat in enumerate(mats):
                assert (len(mat), len(mat[0])) == (ranks[i + 1], ranks[i])
            for i in range(d - 1):
                assert mul_mod(mats[i + 1], mats[i], lam.modulus) == ((0,) * ranks[i],) * ranks[i + 2]


def test_differentials_detect_a_wild_unit():
    # u = 1 + p acts nontrivially whenever r >= 2
    mats = koszul_differentials(2, Z4, [1 + 2, 1])
    assert mats[0] == ((2,), (0,))  # nonzero, and its image still lands in p * Lambda


def test_differentials_reject_bad_weights():
    with pytest.raises(ValueError):
        koszul_differentials(2, Z4, [2, 1])  # not a unit
    with pytest.raises(ValueError):
        koszul_differentials(2, Z4, [1])  # wrong arity
    with pytest.raises(ValueError):
        koszul_differentials(KOSZUL_DEGREE_GUARD + 1, Z4, [1] * (KOSZUL_DEGREE_GUARD + 1))


def test_differentials_hold_exact_entries_of_any_size():
    lam = Lambda(2, 70)
    assert koszul_differentials(2, lam, [2**69 + 1, 1]) == [((2**69,), (0,)), ((0, 2**69),)]
    # the entry -(3 - 1) is 2^70 - 2
    assert koszul_differentials(2, lam, [1, 3]) == [((0,), (2,)), ((2**70 - 2, 0),)]
    assert koszul_differentials(2, lam, [1, 1]) == [((0,), (0,)), ((0, 0),)]
    assert koszul_differentials(2, lam, [3, 1])[0] == ((2,), (0,))


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
    assert rref_rows(cores.delta.tolist(), lam.p)[1] == size - 1


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
    ranks = koszul_cohomology(d)
    assert len(mats) == d + 1
    for i, mat in enumerate(mats):
        assert mat == scalar_rows(ranks[i], pow(lam.p, a * (d - i), lam.modulus))


@pytest.mark.parametrize("lam", [Z4, Z9, Lambda(2, 1)])
@pytest.mark.parametrize("a", [1, 2])
def test_kunneth_in_rank_one_is_the_model_corestriction(lam, a):
    cores = cores_rank1(a, lam)
    assert cores_kunneth(1, a, lam) == [tuple(map(tuple, cores.deg0.tolist())), tuple(map(tuple, cores.deg1.tolist()))]


def test_hecke_gamma_is_the_corestriction_here():
    for d, a, lam in ((2, 1, Z4), (3, 2, Z9)):
        scalars = hecke_gamma(d, a, lam)
        mats = cores_kunneth(d, a, lam)
        assert len(scalars) == len(mats) == d + 1
        for c, mat in zip(scalars, mats):
            assert mat == scalar_rows(len(mat), c)


# ---------------------------------------------------------------- projectors


def test_limit_of_a_finite_order_rotation():
    U = [[0, -1], [1, 0]]
    e, n = ordinary_limit(U, Z9)
    assert e == ((1, 0), (0, 1))
    assert n % 4 == 0  # the rotation has order 4
    assert _matpow_mod(U, n, Z9.modulus) == e


@pytest.mark.parametrize("container", [list, tuple, lambda rows: np.array(rows, dtype=np.int64)], ids=["list", "tuple", "int64"])
def test_an_idempotent_is_its_own_limit_in_any_row_container(container):
    # the input is turned into tuple rows before the idempotent test: list
    # rows compared with a tuple product were never equal, and N moved to 2
    U = ((1, 1, 0), (0, 0, 0), (0, 4, 1))
    assert mul_mod(U, U, Z9.modulus) == U
    assert ordinary_limit(container([container(row) for row in U]), Z9) == (U, 1)


def test_limit_falls_back_past_small_factorials():
    # companion matrix of x^5 + x^2 + 1, irreducible of order 31 mod 2;
    # 31 divides no k! with k <= 20, so the closed-form exponent is used
    U = [[0] * 5 for _ in range(5)]
    for i in range(4):
        U[i + 1][i] = 1
    U[0][4] = -1
    U[2][4] = -1
    e, n = ordinary_limit(U, Z4)
    assert n == _stable_exponent(5, Z4)
    assert n % 31 == 0
    assert e == scalar_rows(5, 1)  # U is invertible, so the projector is full


def test_limit_splits_nilpotent_from_invertible():
    U = [[0, 1, 0], [0, 0, 0], [0, 0, 1]]
    e, n = ordinary_limit(U, Z4)
    assert e == ((0, 0, 0), (0, 0, 0), (0, 0, 1))
    assert rref_rows(e, 2)[1] == 1


def test_limits_past_the_old_int64_bound_are_exact():
    # (3^30 - 1)^2 overflows int64, where the power of the unit 2 came out as
    # the projector 0; its limit is 1
    assert ordinary_limit([[2]], Lambda(3, 30))[0] == ((1,),)
    lam = Lambda(65537, 2)
    assert cores_kunneth(2, 1, lam) == [scalar_rows(1, 0), scalar_rows(2, 65537), scalar_rows(1, 1)]
    lam = Lambda(2, 31)
    assert ordinary_limit([[3, 0], [0, 2]], lam)[0] == ((1, 0), (0, 0))
    assert ordinary_limit(np.eye(3, dtype=np.int64), lam)[0] == scalar_rows(3, 1)
    assert ordinary_limit(scalar_rows(3, 3), Lambda(2, 1023))[0] == scalar_rows(3, 1)


@pytest.mark.parametrize(
    "U", [np.ones((2, 3), dtype=np.int64), [], 7, [1, 2], [[1, 2], [3]], np.zeros((2, 2, 2), dtype=np.int64)],
    ids=["2 x 3", "empty", "a scalar", "a vector", "ragged", "3-D"],
)
def test_limit_rejects_nonsquare(U):
    with pytest.raises(ValueError):
        ordinary_limit(U, Z4)


@pytest.mark.parametrize("lam", [Z4, Z9])
def test_random_projectors(lam):
    rng = np.random.default_rng(17 * lam.p)
    mod = lam.modulus
    for _ in range(100):
        size = int(rng.integers(1, 6))
        U = rng.integers(0, mod, size=(size, size)).tolist()
        e, n = ordinary_limit(U, lam)
        assert mul_mod(e, e, mod) == e
        assert mul_mod(e, U, mod) == mul_mod(U, e, mod)
        assert _matpow_mod(U, n, mod) == e
        # U is invertible on the image of e and the identity off it
        eue = mul_mod(mul_mod(e, U, mod), e, mod)
        mixed = [[(x + y - z) % mod for x, y, z in zip(*rows)] for rows in zip(eue, scalar_rows(size, 1), e)]
        assert rref_rows(mixed, lam.p)[1] == size
        assert rref_rows(mul_mod(U, e, mod), lam.p)[1] == rref_rows(e, lam.p)[1]


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
            assert rref_rows(mat.tolist(), p)[1] == expected


@pytest.mark.parametrize("lam", [Lambda(2, 1), Z4, Z8, Lambda(3, 1), Z9])
def test_ordinary_part_concentrates_in_top_degree(lam):
    for d in (1, 2, 3, 5, 8):
        ranks = ordinary_part_of_hecke_gamma(d, lam)
        assert ranks == (0,) * d + (1,)


def test_ordinary_part_at_level_one():
    # a = 1 still works: p is nilpotent mod p^r in every lower degree
    for lam in (Z4, Z9):
        assert ordinary_part_of_hecke_gamma(3, lam, a=1) == (0, 0, 0, 1)


def dense_ordinary_ranks(d, lam, a):
    """The ranks the long way: the projector of each whole C(d, i) x C(d, i)
    matrix of ``cores_kunneth`` by ``ordinary_limit``, then its rank mod p."""
    return tuple(rref_rows(ordinary_limit(U, lam)[0], lam.p)[1] for U in cores_kunneth(d, a, lam))


@pytest.mark.parametrize("lam", [Lambda(2, 1), Z4, Z8, Lambda(3, 1), Z9, Lambda(5, 3)])
@pytest.mark.parametrize("a", [1, 2, 3])
def test_ordinary_part_matches_the_dense_projectors(lam, a):
    for d in range(7):
        assert ordinary_part_of_hecke_gamma(d, lam, a=a) == dense_ordinary_ranks(d, lam, a)


@pytest.mark.parametrize("lam", [Z4, Z9, Lambda(5, 2)])
def test_ordinary_part_of_any_scalar_operator_matches_the_dense_projectors(lam, monkeypatch):
    # scalars that are units in lower degrees too, so every rank C(d, i) is read
    rng = random.Random(lam.modulus)
    for d in range(7):
        pool = [0, 1, lam.p, lam.p + 1, lam.modulus - 1, rng.randrange(lam.modulus)]
        scalars = [rng.choice(pool) for _ in range(d + 1)]
        monkeypatch.setattr(ordcoh, "hecke_gamma", lambda d, a, lam: scalars)
        ops = [c * np.eye(math.comb(d, i), dtype=np.int64) for i, c in enumerate(scalars)]
        dense = tuple(rref_rows(ordinary_limit(U, lam)[0], lam.p)[1] for U in ops)
        assert ordinary_part_of_hecke_gamma(d, lam) == dense
        assert dense == tuple(math.comb(d, i) * (c % lam.p != 0) for i, c in enumerate(scalars))


def test_ordinary_part_builds_no_matrix_past_one_by_one():
    # the dense C(d, i) x C(d, i) operators took 35.7 MB at d = 12
    ordinary_part_of_hecke_gamma(2, Z4)  # the kernels and padic loaded outside the trace
    tracemalloc.start()
    try:
        assert ordinary_part_of_hecke_gamma(12, Z4) == (0,) * 12 + (1,)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_ordinary_part_builds_no_subset_basis(monkeypatch):
    # the 4,096 subset tuples at d = 12 were built, twice, and never read
    built = []
    genuine = ordcoh.itertools.combinations
    monkeypatch.setattr(ordcoh.itertools, "combinations", lambda *args: built.append(args) or genuine(*args))
    assert ordinary_part_of_hecke_gamma(12, Z4) == (0,) * 12 + (1,)
    assert cores_kunneth(3, 1, Z4)[2] == scalar_rows(3, 2)
    assert built == []
    koszul_differentials(3, Z4, [1] * 3)  # the spy sees the bases the differentials index
    assert built == [(range(1, 4), i) for i in range(4)]
