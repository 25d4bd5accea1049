import numpy as np
import pytest

from bruhat_satake import kernels


def naive_rref(mat, q):
    """Reference row reduction over F_q, scalar Python all the way."""
    m = [[int(x) % q for x in row] for row in mat]
    rows, cols = len(m), len(m[0])
    pivot_row = 0
    for col in range(cols):
        pivot = next((r for r in range(pivot_row, rows) if m[r][col] % q), None)
        if pivot is None:
            continue
        m[pivot_row], m[pivot] = m[pivot], m[pivot_row]
        inv = pow(m[pivot_row][col], q - 2, q)
        m[pivot_row] = [x * inv % q for x in m[pivot_row]]
        for r in range(rows):
            if r != pivot_row and m[r][col]:
                f = m[r][col]
                m[r] = [(x - f * y) % q for x, y in zip(m[r], m[pivot_row])]
        pivot_row += 1
        if pivot_row == rows:
            break
    return np.array(m, dtype=np.int64), pivot_row


# the "numpy-" ids name the kernel implementation under test
Q = pytest.mark.parametrize("q", [2, 3, 5], ids=lambda q: f"numpy-{q}")


@Q
def test_rref_matches_naive_oracle(q):
    rng = np.random.default_rng(0)
    wide = rng.integers(0, q, size=(40, 4, 6))
    tall = rng.integers(0, q, size=(17, 5, 3))  # more rows than columns
    for mats in (wide, tall):
        before = mats.copy()
        red, ranks = kernels.rref_mod(mats, q)
        assert (mats == before).all()  # the input stack is left alone
        for i in range(mats.shape[0]):
            want, want_rank = naive_rref(mats[i], q)
            assert (red[i] == want).all()
            assert ranks[i] == want_rank
    # single (2-D) matrices take the scalar path
    # upper triangular with diagonal q - 1, rows reversed
    full_rank = (np.eye(4, dtype=np.int64) * (q - 1) + np.triu(rng.integers(0, q, size=(4, 4)), 1))[::-1]
    singles = [
        *rng.integers(0, q, size=(20, 3, 6)),  # wide
        *rng.integers(-7, 9, size=(20, 6, 3)),  # tall, entries outside [0, q)
        np.zeros((3, 5), dtype=np.int64),
        full_rank,
        np.vstack([np.eye(3, 6, dtype=np.int64), rng.integers(0, q, size=(3, 6))]),  # as in tau_of_point
    ]
    for mat in singles:
        before = mat.copy()
        red, rank = kernels.rref_mod(mat, q)
        assert (mat == before).all()  # the input is left alone
        want, want_rank = naive_rref(mat, q)
        assert red.shape == mat.shape and red.dtype == np.int64
        assert (red == want).all()
        assert isinstance(rank, np.int64) and rank == want_rank
        assert kernels.rank_mod(mat, q) == want_rank
    assert kernels.rref_mod(full_rank, q)[1] == 4


@Q
def test_rref_is_idempotent_and_rank_correct(q):
    rng = np.random.default_rng(1)
    mats = rng.integers(0, q, size=(30, 3, 5))
    red, ranks = kernels.rref_mod(mats, q)
    again, ranks2 = kernels.rref_mod(red, q)
    assert (again == red).all()
    assert (ranks == ranks2).all()
    assert (kernels.rank_mod(mats, q) == ranks).all()


@Q
def test_matmul_mod(q):
    rng = np.random.default_rng(2)
    a = rng.integers(0, q, size=(20, 3, 4))
    b = rng.integers(0, q, size=(20, 4, 5))
    got = kernels.matmul_mod(a, b, q)
    assert (got == (a.astype(np.int64) @ b.astype(np.int64)) % q).all()
    # 2D right operand broadcasts across the stack
    c = rng.integers(0, q, size=(4, 4))
    got = kernels.matmul_mod(a, c, q)
    assert (got == (a.astype(np.int64) @ c.astype(np.int64)) % q).all()


@Q
def test_matmul_mod_reduces_unreduced_operands(q):
    rng = np.random.default_rng(4)
    a = rng.integers(-11, 12, size=(20, 3, 4))
    b = rng.integers(-11, 12, size=(20, 4, 5))
    c = rng.integers(q, 3 * q, size=(4, 2))  # every entry >= q
    for x, y in ((a, b), (a, c), (a % q, b), (a, b % q)):
        got = kernels.matmul_mod(x, y, q)
        assert got.dtype == np.int64
        assert (got == ((x % q) @ (y % q)) % q).all()


def test_single_matrix_round_trips_without_a_stack_axis():
    red, rank = kernels.rref_mod(np.array([[1, 2], [2, 4]]), 5)
    assert red.shape == (2, 2)
    assert red.tolist() == [[1, 2], [0, 0]]
    assert int(rank) == 1


def test_mat_keys_distinguish():
    mats = np.array([[[1, 0], [0, 1]], [[1, 1], [0, 1]], [[1, 0], [0, 1]]])
    keys = kernels.mat_keys(mats)
    assert keys[0] == keys[2] != keys[1]


def test_mat_keys_are_the_int8_bytes_of_each_matrix_and_round_trip():
    rng = np.random.default_rng(5)
    for mats in (rng.integers(0, 5, size=(50, 4, 4)), rng.integers(0, 5, size=(50, 3, 6))):
        want = [row.tobytes() for row in mats.astype(np.int8).reshape(len(mats), -1)]
        assert kernels.mat_keys(mats) == want
        back = kernels.mats_from_keys(want, mats.shape[1:])
        assert back.dtype == np.int64 and (back == mats).all()


def test_backend_name_is_numpy():
    assert kernels.backend_name() == "numpy"
