"""Batched dense linear algebra over small prime fields.

The finite flag sweeps reduce to three bulk operations on stacks of small
integer matrices mod q: stack matmul, stack reduced row echelon form, and
stack rank.  A stack goes through one numpy routine whose Python loops run
only over the shape of a single matrix, never over the stack.  A single
matrix is row reduced in scalar Python, where numpy's per-operation cost
would dominate the few arithmetic steps: ``rref_mod`` and ``rank_mod`` take
it as Python rows, handed to the scalar routine ``rref_rows`` with no array
built on the way in, or as a 2-D array, which is turned into rows first.
The array functions return int64 arrays; entries are reduced mod q on
entry, and q must be a key of ``PRIMITIVE_ROOT``.  ``rref_rows`` itself
takes any prime.

A stack product is lane packed (Kronecker substitution on the rows of the
right operand): each row of ``b`` is written as four 16-bit lanes per
64-bit word, one batched unsigned integer matmul forms four products per
multiply-add, and the lanes are read back and reduced mod q by one residue
lookup.  A lane sum is at most s (q-1)^2 for inner dimension s, so an
inner dimension with s (q-1)^2 >= 2^16, where a lane could carry into the
next, is refused with ``ValueError`` before anything is allocated.

A matrix is keyed by ``mat_keys``: one exact int64 code, its row-major
entries read as base-q digits, so equal matrices have equal codes, a set
of matrices is a sorted array of codes and ``mats_from_keys`` decodes them.

numpy is bound lazily, through the package's ``_lazy_module`` like the
package's own modules: it is imported on the first attribute access of
``np``, so a process that never runs a kernel (the Weyl, root, padic and
Satake reports) never pays for importing it.  ``flagfq`` and ``ordcoh`` take
their ``np`` from here.
"""

from __future__ import annotations

import math

from . import _lazy_module

np = _lazy_module("numpy")

PRIMITIVE_ROOT = {2: 1, 3: 2, 5: 2}  # the supported fields F_q, each with a generator of F_q^x
LANES = 4  # 16-bit lanes per 64-bit word in matmul_mod


def check_q(q: int) -> None:
    """Refuse a field size that is not a key of ``PRIMITIVE_ROOT``."""
    if q not in PRIMITIVE_ROOT:
        raise ValueError(f"q must be one of {', '.join(map(str, PRIMITIVE_ROOT))}, got {q}")


def _inverse_table(q: int) -> np.ndarray:
    # x^(q-2) = x^(-1) in F_q; index 0 unused
    return np.array([0] + [pow(x, q - 2, q) for x in range(1, q)], dtype=np.int64)


def _rref_stack(m: np.ndarray, q: int) -> tuple[np.ndarray, np.ndarray]:
    """Reduced row echelon form of every matrix in the stack, in place.

    ``m`` is an int64 stack already reduced mod q that the caller owns.
    Vectorized across the stack: the loops run only over the r*c grid of
    one matrix shape, doing whole-stack work per step.
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
        factors = m[idx][:, :, col].copy()
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
    """``a`` as int64 mod q; reduces (and copies) only if some entry needs it."""
    a = np.ascontiguousarray(a, dtype=np.int64)
    # read as uint64 a negative entry is past q too, so one max finds any entry outside [0, q)
    if a.size and a.view(np.uint64).max() >= q:
        return a % q
    return a


def backend_name() -> str:
    """The kernel implementation in use; numpy is the only one."""
    return "numpy"


def matmul_mod(a: np.ndarray, b: np.ndarray, q: int) -> np.ndarray:
    """Stack matmul mod q.  a: (N, r, s), b: (N, s, t) or (s, t).

    Exact in unsigned integers: the rows of ``b`` are packed ``LANES`` to a
    64-bit word, so one product word holds ``LANES`` entries of a @ b, each
    a lane sum below 2^16 that never carries into the next lane.  Returns
    the int64 stack reduced mod q; a shape whose lane sum could reach 2^16
    is refused with ``ValueError`` before anything is allocated.
    """
    check_q(q)
    s, t = np.shape(b)[-2:]
    top = s * (q - 1) ** 2  # the largest lane sum
    if top >= 1 << 16:
        raise ValueError(f"inner dimension {s} over F_{q} overflows a 16-bit lane: {s} * {q - 1}^2 >= 2^16")
    a, b = _reduced(a, q), _reduced(b, q)
    packed = np.zeros((*b.shape[:-1], -(-t // LANES) * LANES), dtype=np.uint16)
    packed[..., :t] = b
    # a is reduced, so its uint64 view holds the same values and no copy is made
    lanes = (a.view(np.uint64) @ packed.view(np.uint64)).view(np.uint16)[..., :t]
    out = lanes.astype(np.int64)
    # take reads each index before it writes that slot, so the lookup overwrites
    # its own indices; "clip" never acts (no lane exceeds top) and, unlike
    # "raise", does not buffer the output
    return (np.arange(top + 1) % q).take(out, out=out, mode="clip")


def rref_mod(mats, q: int) -> tuple[np.ndarray, np.ndarray]:
    """Stack RREF mod q: returns (rref stack, rank vector).

    The RREF is the canonical representative of the row space, so two
    matrices have equal row spans iff their RREFs are equal arrays.  A
    single matrix, given as Python rows (a list or tuple of rows) or as a
    2-D array, returns its RREF as an int64 array and an ``np.int64`` rank.
    Python rows go straight to ``rref_rows``, with no array built on the
    way in.
    """
    check_q(q)
    if isinstance(mats, (list, tuple)):
        rows, shape = mats, (len(mats), len(mats[0]) if mats else 0)
    else:
        mats = np.asarray(mats, dtype=np.int64)
        if mats.ndim != 2:
            return _rref_stack(mats % q, q)  # a fresh array
        rows, shape = mats.tolist(), mats.shape
    red, rank = rref_rows(rows, q)
    return np.array(red, dtype=np.int64).reshape(shape), np.int64(rank)


def rank_mod(mats, q: int) -> np.ndarray:
    return rref_mod(mats, q)[1]


def mat_keys(mats: np.ndarray, q: int) -> np.ndarray:
    """Canonical keys for a stack of matrices with entries in [0, q): the
    int64 code of each matrix, its row-major entries read as base-q digits
    with the first entry least significant.

    Codes are exact and injective on one shape, so equal matrices have equal
    codes and a set of matrices is a sorted array of codes.  A shape with
    q**entries >= 2**63 would wrap, and is refused with ``ValueError`` before
    anything is allocated.
    """
    shape = np.shape(mats)
    width = math.prod(shape[1:])
    if q**width >= 1 << 63:
        raise ValueError(f"{q}^{width} matrices of shape {shape[1:]} do not fit int64 keys")
    arr = np.asarray(mats, dtype=np.int64)
    return arr.reshape(len(arr), width) @ q ** np.arange(width, dtype=np.int64)


def mats_from_keys(keys, shape: tuple[int, ...], q: int) -> np.ndarray:
    """The int64 stack of matrices of the given shape whose ``mat_keys`` at q
    are ``keys`` (an int64 array or a list of Python ints)."""
    digits = np.asarray(keys, dtype=np.int64)[:, None] // q ** np.arange(math.prod(shape), dtype=np.int64) % q
    return digits.reshape(len(digits), *shape)
