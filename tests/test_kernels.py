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


def test_single_matrix_round_trips_without_a_stack_axis():
    red, rank = kernels.rref_mod(np.array([[1, 2], [2, 4]]), 5)
    assert red.shape == (2, 2)
    assert red.tolist() == [[1, 2], [0, 0]]
    assert int(rank) == 1


def test_mat_keys_distinguish():
    mats = np.array([[[1, 0], [0, 1]], [[1, 1], [0, 1]], [[1, 0], [0, 1]]])
    keys = kernels.mat_keys(mats)
    assert keys[0] == keys[2] != keys[1]


def test_backend_name_is_numpy():
    assert kernels.backend_name() == "numpy"
