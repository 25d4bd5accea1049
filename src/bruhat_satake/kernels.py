"""Batched dense linear algebra over small prime fields.

The finite flag sweeps reduce to three bulk operations on stacks of small
integer matrices mod q: stack matmul, stack reduced row echelon form, and
stack rank.  A matrix over F_q is stored in bytes: every array a kernel
returns for matrices is uint8, one byte per entry, each in [0, q).  Ranks
and ``mat_keys`` codes are int64.  An operand of any integer dtype is
accepted; a uint8 one already in [0, q) is used as it is, after one max,
and anything else is reduced mod q and copied into bytes.  ``rref_mod`` and
``rank_mod`` take two forms and return the one they are given: a single
matrix is Python rows (a list or tuple of rows), which gives Python rows
and an int, with no array built; a 3-D stack gives a uint8 stack and an
int64 rank vector.  Any other array is refused with ``ValueError``.
A single matrix is row reduced in scalar Python (``rref_rows``), where
numpy's per-operation cost would dominate the few arithmetic steps, and so
is a stack of at most ``SCALAR_STACK_ROWS`` = 64 rows in all, matrix by
matrix: the whole-stack routine ``_rref_stack``, whose Python loops run
only over the shape of one matrix, pays about 20 numpy calls per column and
overtakes the scalar path only past roughly that many rows.  Entries are
reduced mod q on entry, and q must be a key of ``PRIMITIVE_ROOT``;
``rref_rows`` itself takes any prime.

A stack product is lane packed (Kronecker substitution on the rows of the
right operand): each row of ``b`` is written as ``LANES`` = 4 lanes per
word, the left operand is widened to words, one batched unsigned integer
matmul forms four products per multiply-add, and the lanes are read back
and reduced mod q into the result's bytes.  A lane sum is at most
s (q-1)^2 for inner dimension s, and the lane is the narrowest that holds
it: a byte in a uint32 word below 2^8 (every flag shape at q <= 5), 16
bits in a uint64 word below 2^16.  An inner dimension with
s (q-1)^2 >= 2^16, where a lane could carry into the next, is refused
with ``ValueError`` before anything is allocated.  A byte right operand
whose width is a multiple of ``LANES`` is its own packing, read as words
in place.  The left operand is widened ``BLOCK`` = 2^14 matrices at a
time into one preallocated result, so the temporaries are bounded by a
block, not by the stack.  Byte lanes are reduced by ``bytes.translate``
through a 256-byte residue table, with no index array; 16-bit lanes by a
lookup in a uint8 table.

A matrix is keyed by ``mat_keys``: one exact int64 code, its row-major
entries read as base-q digits (in place: a byte stack is not widened), so
equal matrices have equal codes, a set of matrices is a sorted array of
codes and ``mats_from_keys`` decodes them into a byte stack, one digit
column at a time.

numpy is bound lazily, through the package's ``_lazy_module`` like the
package's own modules: it is imported on the first attribute access of
``np``, so a process that never runs an array kernel (the Weyl, root, padic
and Satake reports, and the flag census, whose ranks are on Python rows)
never pays for importing it.  ``flagfq`` and ``ordcoh`` take
their ``np`` from here.
"""

from __future__ import annotations

import math

from . import _lazy_module

np = _lazy_module("numpy")

PRIMITIVE_ROOT = {2: 1, 3: 2, 5: 2}  # the supported fields F_q, each with a generator of F_q^x
LANES = 4  # lanes per word in matmul_mod: bytes in a uint32, or 16 bits in a uint64
BLOCK = 1 << 14  # left-operand matrices per word product in matmul_mod; bounds its temporaries
# A stack with at most this many rows in all is row reduced matrix by matrix
# by rref_rows: below it the ~20 whole-stack numpy calls per column of
# _rref_stack cost more than the arithmetic they vectorize.  The two paths
# cross near 50 rows for (3,3) over F_3 and (4,8) over F_5, 64 for (2,4) over
# F_3 and 140 for (3,6) over F_2.
SCALAR_STACK_ROWS = 64


def check_q(q: int) -> None:
    """Refuse a field size that is not a key of ``PRIMITIVE_ROOT``."""
    if q not in PRIMITIVE_ROOT:
        raise ValueError(f"q must be one of {', '.join(map(str, PRIMITIVE_ROOT))}, got {q}")


def _inverse_table(q: int) -> np.ndarray:
    # x^(q-2) = x^(-1) in F_q; index 0 unused
    return np.array([0] + [pow(x, q - 2, q) for x in range(1, q)], dtype=np.int64)


def _rref_stack(m: np.ndarray, q: int) -> tuple[np.ndarray, np.ndarray]:
    """Reduced row echelon form of every matrix in the stack, in place.

    ``m`` is a uint8 stack already reduced mod q that the caller owns.
    Vectorized across the stack: the loops run only over the r*c grid of
    one matrix shape, doing whole-stack work per step.  Each update is
    computed in int64 (the inverses and the elimination factors are int64)
    and written back, reduced mod q, into the bytes of ``m``.
    """
    count, rows, cols = m.shape
    inv = _inverse_table(q)
    pivot_row = np.zeros(count, dtype=np.int64)
    ar = np.arange(count)
    for col in range(cols):
        active = pivot_row < rows
        # first row >= pivot_row with a nonzero entry in this column
        candidates = (m[:, :, col] != 0) & (np.arange(rows)[None, :] >= pivot_row[:, None])
        has = candidates.any(axis=1) & active
        src = np.where(has, candidates.argmax(axis=1), 0)
        idx = np.flatnonzero(has)
        if idx.size == 0:
            continue
        dst = pivot_row[idx]
        # swap src row into pivot position
        tmp = m[idx, src[idx]].copy()
        m[idx, src[idx]] = m[idx, dst]
        m[idx, dst] = tmp
        # normalize pivot row, then clear the column above and below
        piv = m[idx, dst, col]
        m[idx, dst] = (m[idx, dst] * inv[piv][:, None]) % q
        factors = m[idx][:, :, col].astype(np.int64)
        factors[ar[: idx.size], dst] = 0
        m[idx] = (m[idx] - factors[:, :, None] * m[idx, dst][:, None, :]) % q
        pivot_row[idx] += 1
    return m, pivot_row


def rref_rows(rows: list[list[int]], q: int) -> tuple[list[list[int]], int]:
    """Gauss-Jordan on one matrix given as Python rows; returns (rows, rank).

    Python ints throughout, so q may be any prime (``ordcoh.rank_mod_p``
    uses it for p < 2^31); ``rref_mod`` checks q before calling it.
    """
    rows = [[x % q for x in row] for row in rows]
    n_rows = len(rows)
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        if rank == n_rows:
            break
        for src in range(rank, n_rows):
            if rows[src][col]:
                break
        else:
            continue
        pivot = rows[src]
        rows[src] = rows[rank]
        if pivot[col] != 1:
            inv = pow(pivot[col], q - 2, q)
            pivot = [x * inv % q for x in pivot]
        rows[rank] = pivot
        for r in range(n_rows):
            f = rows[r][col]
            if f and r != rank:
                rows[r] = [(x - f * y) % q for x, y in zip(rows[r], pivot)]
        rank += 1
    return rows, rank


def _reduced(a: np.ndarray, q: int) -> np.ndarray:
    """``a`` as a C-contiguous uint8 array with entries in [0, q).  A uint8
    array already in range is used as it is, after one max; any other array
    is reduced mod q, only if some entry needs it, and copied into bytes."""
    a = np.asarray(a)
    # read as unsigned a negative entry is past q too, so one max finds any entry outside [0, q)
    unsigned = a.view(f"u{a.itemsize}") if a.dtype.kind == "i" else a
    if a.size and unsigned.max() >= q:
        a = a % q
    return np.ascontiguousarray(a, dtype=np.uint8)


def backend_name() -> str:
    """The kernel implementation in use; numpy is the only one."""
    return "numpy"


def matmul_mod(a: np.ndarray, b: np.ndarray, q: int) -> np.ndarray:
    """Stack matmul mod q.  a: (N, r, s), b: (N, s, t) or (s, t).

    Exact in unsigned integers: the rows of ``b`` are packed ``LANES`` to a
    word, so one product word holds ``LANES`` entries of a @ b, each a lane
    sum of at most s (q-1)^2 that never carries into the next lane.  The
    lane is a byte (a uint32 word) when s (q-1)^2 < 2^8, and 16 bits (a
    uint64 word) below 2^16; a shape whose lane sum could reach 2^16 is
    refused with ``ValueError`` before anything is allocated.  A byte right
    operand whose width t is a multiple of ``LANES`` is already packed and
    is read as words in place.  The left operand is widened to words
    ``BLOCK`` matrices at a time, and each block's lanes are reduced mod q
    into one preallocated result: byte lanes by ``bytes.translate`` through
    a 256-byte residue table, 16-bit lanes by a lookup in a uint8 one.  The
    result is a fresh C-contiguous uint8 stack; the operands are not
    changed.
    """
    check_q(q)
    s, t = np.shape(b)[-2:]
    top = s * (q - 1) ** 2  # the largest lane sum
    if top >= 1 << 16:
        raise ValueError(f"inner dimension {s} over F_{q} overflows a 16-bit lane: {s} * {q - 1}^2 >= 2^16")
    a, b = _reduced(a, q), _reduced(b, q)
    lane, word = (np.uint8, np.uint32) if top < 1 << 8 else (np.uint16, np.uint64)
    width = -(-t // LANES) * LANES
    if lane is np.uint8 and width == t:
        packed = b
    else:
        packed = np.zeros((*b.shape[:-1], width), dtype=lane)
        packed[..., :t] = b
    words = packed.view(word)
    out = np.empty((len(a), a.shape[1], t), dtype=np.uint8)
    if lane is np.uint8:
        residues = (bytes(range(q)) * (256 // q + 1))[:256]  # x -> x mod q
    else:
        residues = (np.arange(top + 1) % q).astype(np.uint8)
    for start in range(0, len(a), BLOCK):
        stop = start + BLOCK
        right = words if words.ndim == 2 else words[start:stop]
        lanes = (a[start:stop].astype(word) @ right).view(lane)
        if lane is np.uint8:
            reduced = np.frombuffer(lanes.tobytes().translate(residues), dtype=np.uint8)
            out[start:stop] = reduced.reshape(lanes.shape)[..., :t]
        else:
            np.take(residues, lanes[..., :t], out=out[start:stop])
    return out


def rref_mod(mats, q: int):
    """RREF mod q of one matrix given as Python rows, or of a stack.

    The RREF is the canonical representative of the row space, so two
    matrices have equal row spans iff their RREFs are equal.  Python rows (a
    list or tuple of rows) go straight to ``rref_rows`` and come back as its
    ``(list rows, int rank)``, with no array built.  A 3-D stack returns the
    uint8 RREF stack and the int64 rank vector: a stack of at most
    ``SCALAR_STACK_ROWS`` rows in all is reduced matrix by matrix through
    ``rref_rows``, a larger one by ``_rref_stack``.  An array of any other
    dimension is refused with ``ValueError`` before any reduction.
    """
    check_q(q)
    if isinstance(mats, (list, tuple)):
        return rref_rows(mats, q)
    mats = np.asarray(mats)
    if mats.ndim != 3:
        raise ValueError(f"a matrix is Python rows and a stack is a 3-D array, got a {mats.ndim}-D array")
    if mats.shape[0] * mats.shape[1] > SCALAR_STACK_ROWS:
        return _rref_stack((mats % q).astype(np.uint8, copy=False), q)  # a fresh array
    reduced = [rref_rows(mat, q) for mat in mats.tolist()]
    red = np.array([rows for rows, _ in reduced], dtype=np.uint8).reshape(mats.shape)
    return red, np.array([rank for _, rank in reduced], dtype=np.int64)


def rank_mod(mats, q: int):
    """The rank part of ``rref_mod``: an int for Python rows, an int64
    vector for a 3-D stack; any other array is refused with ``ValueError``."""
    return rref_mod(mats, q)[1]


def mat_keys(mats: np.ndarray, q: int) -> np.ndarray:
    """Canonical keys for a stack of matrices with entries in [0, q): the
    int64 code of each matrix, its row-major entries read as base-q digits
    with the first entry least significant.

    Codes are exact and injective on one shape, so equal matrices have equal
    codes, whatever the integer dtype of the stack, and a set of matrices is
    a sorted array of codes.  The digits are read in place: a uint8 stack is
    not widened to an int64 copy.  A shape with q**entries >= 2**63 would
    wrap, and is refused with ``ValueError`` before anything is allocated.
    """
    shape = np.shape(mats)
    width = math.prod(shape[1:])
    if q**width >= 1 << 63:
        raise ValueError(f"{q}^{width} matrices of shape {shape[1:]} do not fit int64 keys")
    arr = np.asarray(mats)
    # einsum casts the digits to int64 a buffer at a time
    return np.einsum("ij,j->i", arr.reshape(len(arr), width), q ** np.arange(width, dtype=np.int64))


def mats_from_keys(keys, shape: tuple[int, ...], q: int) -> np.ndarray:
    """The uint8 stack of matrices of the given shape whose ``mat_keys`` at q
    are ``keys`` (an int64 array or a list of Python ints).  The digits are
    peeled off one entry at a time, so the only int64 arrays are of one code
    per matrix."""
    rest = np.asarray(keys, dtype=np.int64)
    digits = np.empty((len(rest), math.prod(shape)), dtype=np.uint8)
    for k in range(digits.shape[1]):
        rest, digits[:, k] = np.divmod(rest, q)
    return digits.reshape(len(digits), *shape)
