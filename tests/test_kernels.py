import itertools
import tracemalloc

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
    # single matrices, as Python rows and as one-matrix stacks, take the scalar path
    # upper triangular with diagonal q - 1, rows reversed
    full_rank = (np.eye(4, dtype=np.int64) * (q - 1) + np.triu(rng.integers(0, q, size=(4, 4)), 1))[::-1]
    singles = [
        *rng.integers(0, q, size=(20, 3, 6)),  # wide
        *rng.integers(-7, 9, size=(20, 6, 3)),  # tall, entries outside [0, q)
        np.zeros((3, 5), dtype=np.int64),
        full_rank,
        np.vstack([rng.integers(0, q, size=(3, 6)), np.eye(3, 6, dtype=np.int64)]),  # as in meets_trivially
    ]
    for mat in singles:
        before = mat.copy()
        want, want_rank = naive_rref(mat, q)
        red, rank = kernels.rref_mod(mat.tolist(), q)
        assert red == want.tolist()
        assert type(rank) is int and rank == want_rank
        assert kernels.rref_mod(mat.tolist(), q)[1] == want_rank
        red, ranks = kernels.rref_mod(mat[None], q)
        assert (mat == before).all()  # the input is left alone
        assert red.shape == (1, *mat.shape) and red.dtype == np.uint8
        assert (red[0] == want).all()
        assert ranks.dtype == np.int64 and ranks.tolist() == [want_rank]
        assert kernels.rref_mod(mat[None], q)[1].tolist() == [want_rank]
    assert kernels.rref_mod(full_rank.tolist(), q)[1] == 4


@Q
def test_rref_is_idempotent_and_rank_correct(q):
    rng = np.random.default_rng(1)
    mats = rng.integers(0, q, size=(30, 3, 5))
    red, ranks = kernels.rref_mod(mats, q)
    again, ranks2 = kernels.rref_mod(red, q)
    assert (again == red).all()
    assert (ranks == ranks2).all()
    assert (kernels.rref_mod(mats, q)[1] == ranks).all()


def naive_matmul(a, b, q):
    """Reference stack product: sum_k a_ik b_kj mod q in Python ints, matrix
    by matrix; a 2-D ``b`` multiplies every matrix of ``a``."""
    b = np.asarray(b)
    rights = b.tolist() if b.ndim == 3 else [b.tolist()] * len(a)
    t = b.shape[-1]
    return [
        [[sum(x * right[k][j] for k, x in enumerate(row)) % q for j in range(t)] for row in mat]
        for mat, right in zip(np.asarray(a).tolist(), rights)
    ]


def traced_peak_bytes(call):
    """The peak memory traced while ``call`` runs; numpy reports its array
    buffers to tracemalloc."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def refusal_peak_bytes(call, message):
    """The peak memory traced while ``call`` raises ``ValueError`` matching
    ``message``."""

    def refused():
        with pytest.raises(ValueError, match=message):
            call()

    return traced_peak_bytes(refused)


def assert_matmul_matches_the_oracle(a, b, q):
    got = kernels.matmul_mod(a, b, q)
    assert got.dtype == np.uint8 and got.shape == (len(a), a.shape[1], b.shape[-1])
    assert got.tolist() == naive_matmul(a, b, q)


@Q
def test_matmul_mod(q):
    rng = np.random.default_rng(2)
    for t in range(1, 10):  # widths that are and are not multiples of kernels.LANES
        for count in (0, 1, 20):
            a = rng.integers(0, q, size=(count, 3, 4))
            assert_matmul_matches_the_oracle(a, rng.integers(0, q, size=(count, 4, t)), q)
            # a 2-D right operand multiplies every matrix of the stack
            assert_matmul_matches_the_oracle(a, rng.integers(0, q, size=(4, t)), q)


@Q
def test_matmul_mod_reduces_unreduced_operands(q):
    rng = np.random.default_rng(4)
    a = rng.integers(-11, 12, size=(20, 3, 4))
    b = rng.integers(-11, 12, size=(20, 4, 5))
    c = rng.integers(q, 3 * q, size=(4, 2))  # every entry >= q
    for x, y in ((a, b), (a, c), (a % q, b), (a, b % q)):
        assert_matmul_matches_the_oracle(x, y, q)


def widest_byte_lane(q):
    """The widest inner dimension s whose lane sums s (q-1)^2 fit a byte."""
    s = 255 // (q - 1) ** 2
    assert s * (q - 1) ** 2 < 1 << 8 <= (s + 1) * (q - 1) ** 2
    return s


def assert_one_step_past_is_refused(a, b, q):
    """``a`` and ``b`` with the inner dimension one wider are refused."""
    s = a.shape[-1] + 1
    wider = np.zeros((*a.shape[:-1], s), dtype=a.dtype), np.zeros((*b.shape[:-2], s, b.shape[-1]), dtype=b.dtype)
    with pytest.raises(ValueError, match=f"^inner dimension {s} over F_{q} overflows a byte lane"):
        kernels.matmul_mod(*wider, q)


@Q
def test_matmul_mod_at_the_widest_inner_dimension(q):
    # every lane sum is s (q-1)^2, the most a byte lane can hold: 255, 252, 240
    s = widest_byte_lane(q)
    for a, b in (
        (np.full((2, 2, s), q - 1), np.full((2, s, 5), q - 1)),
        (np.full((1, 1, s), -1), np.full((s, 3), 2 * q - 1)),  # q - 1 once reduced
    ):
        assert_matmul_matches_the_oracle(a, b, q)
        assert_one_step_past_is_refused(a, b, q)


def largest_byte(q):
    """The largest uint8 value that is q - 1 mod q."""
    return 255 - (255 - (q - 1)) % q


@Q
def test_byte_operands_with_entries_past_q_are_reduced(q):
    rng = np.random.default_rng(9)
    a = rng.integers(q, 256, size=(20, 3, 4), dtype=np.uint8)  # every entry >= q
    b = rng.integers(0, 256, size=(20, 4, 5), dtype=np.uint8)
    a[0, 0, 0], b[0, 0, 0] = 255, q
    for x, y in ((a, b), (a, b[0]), (a % q, b), (a, b % q)):
        assert_matmul_matches_the_oracle(x, y, q)
    # below and above SCALAR_STACK_ROWS: matrix by matrix, then _rref_stack
    for mats in (a, rng.integers(0, 256, size=(40, 3, 5), dtype=np.uint8)):
        before = mats.copy()
        red, ranks = kernels.rref_mod(mats, q)
        assert (mats == before).all()  # the input stack is left alone
        assert red.dtype == np.uint8 and ranks.dtype == np.int64
        for i in range(len(mats)):
            want, want_rank = naive_rref(mats[i], q)
            assert (red[i] == want).all() and ranks[i] == want_rank


@Q
def test_mixed_byte_and_int64_operands(q):
    rng = np.random.default_rng(10)
    bytes_a = rng.integers(0, q, size=(20, 3, 4), dtype=np.uint8)
    bytes_b = rng.integers(0, 256, size=(20, 4, 5), dtype=np.uint8)
    wide_a = rng.integers(-11, 12, size=(20, 3, 4))
    wide_b = rng.integers(-11, 12, size=(20, 4, 5))
    lift = rng.integers(-2 * q, 2 * q, size=(4, 6))  # a 2-D int64 right operand, as a generator matrix
    for x, y in ((bytes_a, wide_b), (wide_a, bytes_b), (bytes_a, lift), (bytes_a % q, wide_b % q)):
        assert_matmul_matches_the_oracle(x, y, q)


@Q
def test_matmul_mod_at_the_widest_inner_dimension_with_byte_operands(q):
    s = widest_byte_lane(q)
    top = largest_byte(q)  # q - 1 once reduced
    for a, b in (
        (np.full((2, 2, s), q - 1, dtype=np.uint8), np.full((2, s, 5), q - 1, dtype=np.uint8)),
        (np.full((1, 1, s), top, dtype=np.uint8), np.full((s, 3), top, dtype=np.uint8)),
        (np.full((1, 2, s), top, dtype=np.uint8), np.full((1, s, 2), -1)),  # an int64 right operand
    ):
        assert_matmul_matches_the_oracle(a, b, q)
        assert_one_step_past_is_refused(a, b, q)


@Q
def test_byte_operands_are_used_without_an_int64_copy(q):
    rng = np.random.default_rng(11)
    stack = rng.integers(0, q, size=(4096, 4, 4), dtype=np.uint8)
    assert kernels._reduced(stack, q) is stack  # in range: one max, no copy
    assert (kernels._reduced(stack + q, q) == stack).all()
    # only the left operand is widened, to uint32; an int64 copy of the right
    # operand alone would take 2 MB
    a = rng.integers(0, q, size=(4096, 1, 8), dtype=np.uint8)
    b = rng.integers(0, q, size=(4096, 8, 8), dtype=np.uint8)
    assert traced_peak_bytes(lambda: kernels.matmul_mod(a, b, q)) < b.size * 8
    # keys read the digits in place, and decoding holds one int64 code per matrix
    keys = kernels.mat_keys(stack, q)
    assert traced_peak_bytes(lambda: kernels.mat_keys(stack, q)) < stack.size * 8 // 4
    assert traced_peak_bytes(lambda: kernels.mats_from_keys(keys, (4, 4), q)) < stack.size * 8 // 2


@Q
@pytest.mark.parametrize("edge", ["widest", "one-past"])
def test_matmul_mod_keeps_its_contract_at_the_lane_edges_and_across_blocks(q, edge, monkeypatch):
    # the widest inner dimension with byte lanes, s (q-1)^2 <= 255, and the
    # next, refused; stacks of one block less one, one block and one block
    # and one, with BLOCK made small
    monkeypatch.setattr(kernels, "BLOCK", 4)
    s = widest_byte_lane(q) + (edge == "one-past")
    rng = np.random.default_rng(13)
    for t in range(1, 10):
        for count in (kernels.BLOCK - 1, kernels.BLOCK, kernels.BLOCK + 1):
            a = rng.integers(0, q, size=(count, 2, s), dtype=np.uint8)
            a[-1] = q - 1  # the last matrix makes every lane sum its largest, s (q-1)^2
            for b in (rng.integers(0, q, size=(count, s, t), dtype=np.uint8), rng.integers(0, q, size=(s, t))):
                b[..., -1] = q - 1
                before = a.copy(), b.copy()
                if edge == "widest":
                    got = kernels.matmul_mod(a, b, q)
                    assert got.dtype == np.uint8 and got.shape == (count, 2, t)
                    assert got.flags.c_contiguous and got.flags.writeable
                    assert got.tolist() == naive_matmul(a, b, q)
                    got[...] = 0  # the result is the caller's own
                else:
                    with pytest.raises(ValueError, match="overflows a byte lane"):
                        kernels.matmul_mod(a, b, q)
                assert (a == before[0]).all() and (b == before[1]).all()  # the operands are left alone


@Q
def test_matmul_mod_on_a_large_byte_stack_stays_within_its_block(q):
    # 65,536 4x4 byte matrices (1 MB each side): the result (1 MB) plus the
    # temporaries of one BLOCK of words; widening the whole left operand to
    # uint64 and indexing its lanes by intp traced 13.6 MB
    rng = np.random.default_rng(14)
    a = rng.integers(0, q, size=(65536, 4, 4), dtype=np.uint8)
    b = rng.integers(0, q, size=(65536, 4, 4), dtype=np.uint8)
    assert traced_peak_bytes(lambda: kernels.matmul_mod(a, b, q)) < 4 * 10**6


@Q
def test_matmul_mod_refuses_a_lane_overflow_before_allocating(q):
    s = widest_byte_lane(q) + 1  # one step past the widest
    message = f"^inner dimension {s} over F_{q} overflows a byte lane"
    # int32 operands, so reducing them first would allocate int64 copies of
    # both; 2^17 entries on the left at every q
    a, b = np.full(((1 << 16) // s, 2, s), q - 1, dtype=np.int32), np.full((s, 1), q - 1, dtype=np.int32)
    assert refusal_peak_bytes(lambda: kernels.matmul_mod(a, b, q), message) < a.size * 8 // 4
    with pytest.raises(ValueError, match=message):
        kernels.matmul_mod(np.zeros((0, 1, s), dtype=np.int64), np.zeros((0, s, 4), dtype=np.int64), q)


def test_matmul_mod_refuses_operands_of_a_wrong_dimension_before_allocating():
    # read as a stack of rows, a 2-D left operand would give a (2, 2, 2)
    # result, every "matrix" of it the whole product
    with pytest.raises(ValueError, match="got 2-D and 2-D"):
        kernels.matmul_mod(np.array([[1, 1], [0, 1]]), np.array([[1, 0], [1, 1]]), 3)
    # int64 operands of 2^16 entries, whose byte copies would take 64 KB
    stack, square = np.ones((4096, 4, 4), dtype=np.int64), np.ones((4, 4), dtype=np.int64)
    for a, b in (
        (stack.reshape(-1, 4), square),
        (stack.reshape(-1), square),
        (stack[None], square),
        (stack, square[0]),
        (stack, stack[None]),
    ):
        message = f"^a must be a 3-D stack and b 2-D or 3-D, got {a.ndim}-D and {b.ndim}-D$"
        assert refusal_peak_bytes(lambda: kernels.matmul_mod(a, b, 3), message) < stack.size // 2


def test_matmul_mod_refuses_a_right_operand_of_another_shape_before_allocating():
    # b is (N, s, t) or (s, t) for a (N, r, s); a 3-D b of one matrix used to
    # broadcast within one BLOCK of a and fail past it
    for count in (kernels.BLOCK, kernels.BLOCK + 1):
        a, b = np.ones((count, 4, 4), dtype=np.uint8), np.ones((1, 4, 4), dtype=np.uint8)
        message = rf"^b of shape \(1, 4, 4\) does not match a of shape \({count}, 4, 4\)$"
        assert refusal_peak_bytes(lambda: kernels.matmul_mod(a, b, 3), message) < a.size // 2
    with pytest.raises(ValueError, match=r"^b of shape \(7, 4, 4\) does not match a of shape \(5, 4, 4\)$"):
        kernels.matmul_mod(np.ones((5, 4, 4), dtype=np.int64), np.ones((7, 4, 4), dtype=np.int64), 3)
    # int64 operands of 2^16 entries, whose byte copies would take 64 KB
    stack = np.ones((4096, 4, 4), dtype=np.int64)
    for b in (stack[:-1], np.ones((4096, 5, 4), dtype=np.int64), np.ones((5, 4), dtype=np.int64), stack[0, :3]):
        message = rf"^b of shape \({', '.join(map(str, b.shape))},?\) does not match a of shape \(4096, 4, 4\)$"
        assert refusal_peak_bytes(lambda: kernels.matmul_mod(stack, b, 3), message) < stack.size // 2


@Q
def test_rref_on_python_rows_matches_the_equal_array(q):
    # the equal array is the one-matrix stack mat[None]
    rng = np.random.default_rng(7)
    full = np.eye(4, dtype=np.int64) * (q - 1) + np.triu(rng.integers(0, q, size=(4, 4)), 1)
    mats = [
        *rng.integers(-7, 9, size=(20, 3, 3)),  # as in tau_of_point, entries outside [0, q)
        *rng.integers(0, q, size=(10, 3, 6)),
        *rng.integers(0, q, size=(10, 5, 2)),
        full,
        np.zeros((3, 3), dtype=np.int64),
        np.vstack([full[:2], full[:1] * 2, np.zeros((1, 4), dtype=np.int64)]),  # rank 2 with a zero row
        np.array([[1, 2, 0], [0, 0, 0], [2, 4, 0]]),  # rank 1, dependent and zero rows
    ]
    for mat in mats:
        want_reds, want_ranks = kernels.rref_mod(mat[None], q)
        want_red, want_rank = want_reds[0], want_ranks[0]
        assert want_red.dtype == np.uint8 and want_red.shape == mat.shape
        assert isinstance(want_rank, np.int64)
        for rows in (mat.tolist(), tuple(map(tuple, mat.tolist()))):
            before = list(map(list, rows))
            red, rank = kernels.rref_mod(rows, q)
            # rows in, rows out: lists of Python ints and a plain int rank
            assert type(red) is list and all(type(row) is list for row in red)
            assert all(type(x) is int for row in red for x in row)
            assert red == want_red.tolist()
            assert type(rank) is int and rank == want_rank
            rank_only = kernels.rref_mod(rows, q)[1]
            assert type(rank_only) is int and rank_only == want_rank
            assert list(map(list, rows)) == before  # the input rows are left alone
        assert (want_red == naive_rref(mat, q)[0]).all()


SHAPES = pytest.mark.parametrize("shape", [(3, 6), (2, 4), (4, 8)], ids=lambda s: f"{s[0]}x{s[1]}")


@Q
@SHAPES
def test_stacks_on_either_side_of_the_scalar_bound_match_the_oracle(q, shape, monkeypatch):
    # a stack of at most SCALAR_STACK_ROWS rows in all is reduced matrix by
    # matrix; one matrix more goes through _rref_stack, with equal results
    stack_calls = []
    genuine = kernels._rref_stack
    monkeypatch.setattr(kernels, "_rref_stack", lambda m, q: stack_calls.append(m.shape) or genuine(m, q))
    r, c = shape
    widest = kernels.SCALAR_STACK_ROWS // r  # the most matrices at or below the bound
    rng = np.random.default_rng(5)
    for count, stacked in ((1, False), (widest, False), (widest + 1, True)):
        wide = rng.integers(-7, 9, size=(count, r, c))  # entries outside [0, q)
        wide[0, 0] = 0  # a zero row
        wide[-1, -1] = 2 * wide[-1, 0] - q * wide[-1, 1]  # twice the first row mod q
        in_range = (wide % q).astype(np.uint8)
        # an in-range byte stack is not copied on entry, and _rref_stack works in place
        assert kernels._reduced(in_range, q) is in_range
        for mats in (wide, in_range):
            before = mats.copy()
            stack_calls.clear()
            red, ranks = kernels.rref_mod(mats, q)
            assert stack_calls == ([(count, r, c)] if stacked else [])
            assert (mats == before).all()  # the input stack is left alone
            assert red.dtype == np.uint8 and ranks.dtype == np.int64
            assert red.shape == mats.shape and ranks.shape == (count,)
            for i in range(count):
                want, want_rank = naive_rref(mats[i], q)
                assert (red[i] == want).all()
                assert ranks[i] == want_rank
            assert (kernels.rref_mod(mats, q)[1] == ranks).all()
    assert widest * r <= kernels.SCALAR_STACK_ROWS < (widest + 1) * r


def test_an_empty_stack_reduces_to_an_empty_stack():
    red, ranks = kernels.rref_mod(np.zeros((0, 3, 6), dtype=np.int64), 2)
    assert red.shape == (0, 3, 6) and ranks.shape == (0,)
    assert red.dtype == np.uint8 and ranks.dtype == np.int64


@pytest.mark.parametrize("shape", [(6,), (3, 6), (2, 1, 3, 6)], ids=lambda s: f"{len(s)}d")
@pytest.mark.parametrize("dtype", [np.int64, np.uint8])
def test_rref_and_rank_refuse_an_array_that_is_not_a_stack(shape, dtype, monkeypatch):
    # a single matrix is Python rows, and an array must be a 3-D stack;
    # anything else is refused before any reduction starts
    def reduction_started(*args):
        raise AssertionError("reduction started")

    monkeypatch.setattr(kernels, "rref_rows", reduction_started)
    monkeypatch.setattr(kernels, "_rref_stack", reduction_started)
    with pytest.raises(ValueError, match=f"got a {len(shape)}-D array"):
        kernels.rref_mod(np.ones(shape, dtype=dtype), 3)


@pytest.mark.parametrize("dtype", [np.float64, np.complex128, np.bool_, object], ids=lambda d: np.dtype(d).name)
def test_every_kernel_refuses_a_stack_that_is_not_of_integers(dtype):
    # a float entry would be truncated (0.5 to 0), and a bool, complex or
    # object one is not a residue; stacks of 4x4 matrices on both sides of
    # SCALAR_STACK_ROWS, as either operand of matmul_mod
    message = f"must have an integer dtype, got {np.dtype(dtype).name}"
    ints = np.eye(4, dtype=np.int64)
    for count in (kernels.SCALAR_STACK_ROWS // 4, kernels.SCALAR_STACK_ROWS // 4 + 1):
        mats = np.ones((count, 4, 4), dtype=dtype)
        for call in (
            lambda: kernels.matmul_mod(mats, ints, 3),
            lambda: kernels.matmul_mod(ints[None].repeat(count, axis=0), mats, 3),
            lambda: kernels.rref_mod(mats, 3),
            lambda: kernels.mat_keys(mats, 3),
        ):
            with pytest.raises(ValueError, match=message):
                call()
    # a dtype test only: a uint8 copy of this stack would take 64 KB
    big = np.ones((4096, 4, 4), dtype=dtype)
    for call in (lambda: kernels.matmul_mod(big, ints, 3), lambda: kernels.rref_mod(big, 3), lambda: kernels.mat_keys(big, 3)):
        assert refusal_peak_bytes(call, message) < big.size // 2
    with pytest.raises(ValueError, match="got float64"):
        kernels.matmul_mod(np.array([[[0.5, 1.0], [1.0, 0.0]]]), np.eye(2, dtype=np.int64), 2)


@Q
def test_mat_keys_are_the_base_q_codes_of_each_matrix_and_round_trip(q):
    rng = np.random.default_rng(5)
    for mats in (rng.integers(0, q, size=(50, 4, 4)), rng.integers(0, q, size=(50, 3, 6))):
        # sum of entry * q^k over the row-major entries, in Python ints
        want = [sum(int(x) * q**k for k, x in enumerate(mat.flat)) for mat in mats]
        keys = kernels.mat_keys(mats, q)
        assert keys.dtype == np.int64 and keys.tolist() == want
        for codes in (keys, want):
            back = kernels.mats_from_keys(codes, mats.shape[1:], q)
            assert back.dtype == np.uint8 and back.shape == mats.shape and (back == mats).all()


@Q
def test_mat_keys_agree_on_every_integer_form_of_a_stack_and_round_trip_in_bytes(q):
    rng = np.random.default_rng(12)
    mats = rng.integers(0, q, size=(50, 3, 5))
    mats[0] = q - 1  # the largest code of the shape
    want = kernels.mat_keys(mats, q)
    for dtype in (np.uint8, np.int8, np.int32, np.uint16):
        assert kernels.mat_keys(mats.astype(dtype), q).tolist() == want.tolist()
    assert want[0] == q**15 - 1
    back = kernels.mats_from_keys(want, (3, 5), q)
    assert back.dtype == np.uint8 and back.shape == mats.shape and (back == mats).all()
    assert kernels.mat_keys(back, q).tolist() == want.tolist()
    assert kernels.mats_from_keys([], (3, 5), q).shape == (0, 3, 5)


def test_mat_keys_reduce_every_integer_stack_mod_q():
    # unreduced, [[3, 0]] and [[0, 1]] would share the code 3 and [[-1, 0]]
    # get -1; in uint16 a -1 is 2^16 - 1 = 0 mod 3, so it is 2^16 - 2 = 2 mod 3
    for dtype, last in ((np.int8, -1), (np.int64, -1), (np.uint16, (1 << 16) - 2)):
        stack = np.array([[[3, 0]], [[0, 1]], [[last, 0]]]).astype(dtype)
        keys = kernels.mat_keys(stack, 3).tolist()
        assert keys == kernels.mat_keys(stack % 3, 3).tolist() == [0, 3, 2]
        assert len(set(keys)) == 3
    # the digits are bytes, so a q outside the fields is refused
    with pytest.raises(ValueError, match="^q must be one of 2, 3, 5, got 257$"):
        kernels.mat_keys(np.zeros((1, 1, 2), dtype=np.int64), 257)


@Q
def test_mat_keys_read_an_in_range_byte_stack_in_place(q):
    stack = np.random.default_rng(13).integers(0, q, size=(10**5, 4, 4), dtype=np.uint8)
    # the int64 codes take 8 bytes a matrix, and a byte copy of the stack would add 16
    assert traced_peak_bytes(lambda: kernels.mat_keys(stack, q)) < 8 * len(stack) + stack.nbytes // 2


def test_mat_keys_distinguish_every_2x2_matrix_over_f3():
    mats = np.array(list(itertools.product(range(3), repeat=4))).reshape(81, 2, 2)
    keys = kernels.mat_keys(mats, 3)
    assert len(set(keys.tolist())) == 81
    assert sorted(keys.tolist()) == list(range(81))


def test_mat_keys_refuse_a_shape_whose_codes_would_wrap():
    with pytest.raises(ValueError, match="do not fit int64 keys"):
        kernels.mat_keys(np.full((1, 4, 8), 4), 5)  # 5^32 > 2^63
    with pytest.raises(ValueError, match="do not fit int64 keys"):
        kernels.mat_keys(np.ones((1, 7, 9), dtype=np.int64), 2)  # 2^63 itself
    with pytest.raises(ValueError, match="do not fit int64 keys"):
        kernels.mat_keys(np.zeros((0, 5, 8), dtype=np.int64), 3)  # 3^40, refused by shape alone
    wide = np.ones((512, 7, 9), dtype=np.int8)  # an int64 copy would take 258 KB
    assert refusal_peak_bytes(lambda: kernels.mat_keys(wide, 2), "do not fit int64 keys") < wide.size
    # the widest shapes that fit, each at its largest code q^entries - 1
    for q, shape in ((2, (2, 31)), (3, (3, 13)), (5, (3, 9))):
        top = np.full((1, *shape), q - 1)
        assert kernels.mat_keys(top, q).tolist() == [q ** (shape[0] * shape[1]) - 1]


def test_backend_name_is_numpy():
    assert kernels.backend_name() == "numpy"


@pytest.mark.parametrize("q", sorted(kernels.PRIMITIVE_ROOT))
def test_primitive_roots_generate_the_multiplicative_group(q):
    g = kernels.PRIMITIVE_ROOT[q]
    assert len({pow(g, k, q) for k in range(1, q)}) == q - 1


def test_check_q_refuses_an_unsupported_field():
    for q in (0, 1, 4, 7, -3):
        with pytest.raises(ValueError, match=f"^q must be one of 2, 3, 5, got {q}$"):
            kernels.check_q(q)
    for q in kernels.PRIMITIVE_ROOT:
        kernels.check_q(q)
