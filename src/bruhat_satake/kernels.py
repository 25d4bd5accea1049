"""Dense linear algebra over small prime fields, and single matrices as rows.

The finite flag sweeps reduce to three bulk operations on stacks of small
integer matrices mod q: ``matmul_mod``, ``rref_mod`` (whose second part is
the rank) and ``mat_keys``.  A stack over F_q is a uint8 array, one byte per
entry in [0, q); ranks and codes are int64.  Every array operand passes one
gate, ``_reduced``, and q must be a key of ``PRIMITIVE_ROOT``.  Each
function's docstring states what it accepts and what it refuses.

Every single matrix of the library (``Rows``: a flag generator, Weyl lift or
point, J, a ``padic`` block, an ``ordcoh`` operator) is a tuple of tuples of
Python ints (Fractions in ``padic``), and its helpers live here, with no
numpy.

numpy is bound lazily through the package's ``_lazy_module``: it is
imported on the first attribute access of ``np``, so a process that never
runs an array kernel never pays for importing it.  ``flagfq``, the only
other numpy user, takes its ``np`` from here.
"""

from __future__ import annotations

import math
import operator
from functools import lru_cache

from . import _lazy_module

np = _lazy_module("numpy")

Rows = tuple[tuple[int, ...], ...]  # one matrix, or a flag point: tuple rows of Python ints
PRIMITIVE_ROOT = {2: 1, 3: 2, 5: 2}  # the supported fields F_q, each with a generator of F_q^x
LANES = 4  # byte lanes per uint32 word in matmul_mod
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


def _rref_stack(m: np.ndarray, q: int) -> tuple[np.ndarray, np.ndarray]:
    """Reduced row echelon form of every matrix in the stack, in place.

    ``m`` is a uint8 stack already reduced mod q that the caller owns.
    Vectorized across the stack: the loops run only over the r*c grid of
    one matrix shape, doing whole-stack work per step.  Each update is
    computed in int64 (the inverses and the elimination factors are int64)
    and written back, reduced mod q, into the bytes of ``m``.
    """
    count, rows, cols = m.shape
    inv = np.array([0] + [pow(x, q - 2, q) for x in range(1, q)], dtype=np.int64)  # x^(q-2) = 1/x; index 0 unused
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

    Python ints throughout, so q may be any prime; ``rref_mod`` is the one
    over F_q, which checks q.
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


# ------------------------------------------------- single matrices as rows
# Products and transposes take integer or Fraction entries alike (padic's).


def _scalar(n: int, s: int) -> Rows:
    """s times the n x n identity."""
    return tuple(tuple(s if i == j else 0 for j in range(n)) for i in range(n))


def _mat_mul(a, b) -> Rows:
    bt = tuple(zip(*b))
    return tuple(tuple(sum(map(operator.mul, row, col)) for col in bt) for row in a)


def _transpose(a) -> Rows:
    return tuple(zip(*a))


def _mul_mod(a, b, q: int) -> Rows:
    """The product of integer rows reduced mod q, for any modulus q.

    >>> _mul_mod(((1, 2), (0, 1)), ((1, 2), (0, 1)), 3)
    ((1, 1), (0, 1))
    """
    return tuple(tuple(x % q for x in row) for row in _mat_mul(a, b))


@lru_cache(maxsize=None)
def _symplectic_form_q(n: int) -> Rows:
    """J = [[0, I], [-I, 0]]; its integer entries compare equal to Fractions.

    >>> _mul_mod(_symplectic_form_q(1), _scalar(2, 1), 3)  # J for n = 1, mod 3
    ((0, 1), (2, 0))
    """
    return tuple(tuple(int(j == n + i) - int(i == n + j) for j in range(2 * n)) for i in range(2 * n))


def _reduced(a, q: int) -> np.ndarray:
    """The one gate of array operands: the integer array ``a`` as a
    C-contiguous uint8 array with entries in [0, q), any other dtype refused.
    A uint8 array already in range is returned as it is, after one max; any
    other is reduced mod q, only if some entry needs it, and copied."""
    a = np.asarray(a)
    if a.dtype.kind not in "iu":
        raise ValueError(f"a matrix stack must have an integer dtype, got {a.dtype}")
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

    Exact in unsigned integers: the rows of ``b`` are packed ``LANES`` bytes
    to a uint32 word, so one product word holds ``LANES`` entries of a @ b,
    each a byte lane sum of at most s (q-1)^2.  A shape whose lane sum could
    reach 2^8 (s past 255, 63, 15 at q = 2, 3, 5) is refused with
    ``ValueError`` before anything is allocated, as are a non-integer
    operand, a left operand that is not 3-D, a right one that is neither
    2-D nor 3-D, a 3-D right one whose length is not ``len(a)`` and an inner
    dimension that is not ``a``'s.  A byte right operand whose width t is a
    multiple of ``LANES`` is already packed and is read as words in place.
    The left operand is widened to words ``BLOCK`` matrices at a time, and
    each block's lanes are reduced mod q by ``bytes.translate`` through a
    256-byte residue table into one preallocated result.  The result is a
    fresh C-contiguous uint8 stack; the operands are not changed.
    """
    check_q(q)
    if np.ndim(a) != 3 or np.ndim(b) not in (2, 3):
        raise ValueError(f"a must be a 3-D stack and b 2-D or 3-D, got {np.ndim(a)}-D and {np.ndim(b)}-D")
    s, t = np.shape(b)[-2:]
    if np.ndim(b) == 3 and len(b) != len(a) or s != np.shape(a)[2]:
        raise ValueError(f"b of shape {np.shape(b)} does not match a of shape {np.shape(a)}")
    if s * (q - 1) ** 2 >= 1 << 8:
        raise ValueError(f"inner dimension {s} over F_{q} overflows a byte lane: {s} * {q - 1}^2 >= 2^8")
    a, b = _reduced(a, q), _reduced(b, q)
    width = -(-t // LANES) * LANES
    if width == t:
        packed = b
    else:
        packed = np.zeros((*b.shape[:-1], width), dtype=np.uint8)
        packed[..., :t] = b
    words = packed.view(np.uint32)
    out = np.empty((len(a), a.shape[1], t), dtype=np.uint8)
    residues = (bytes(range(q)) * (256 // q + 1))[:256]  # x -> x mod q
    for start in range(0, len(a), BLOCK):
        stop = start + BLOCK
        right = words if words.ndim == 2 else words[start:stop]
        lanes = (a[start:stop].astype(np.uint32) @ right).view(np.uint8)
        reduced = np.frombuffer(lanes.tobytes().translate(residues), dtype=np.uint8)
        out[start:stop] = reduced.reshape(lanes.shape)[..., :t]
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
    dimension or of a non-integer dtype is refused with ``ValueError``
    before any reduction.
    """
    check_q(q)
    if isinstance(mats, (list, tuple)):
        return rref_rows(mats, q)
    mats = np.asarray(mats)
    if mats.ndim != 3:
        raise ValueError(f"a matrix is Python rows and a stack is a 3-D array, got a {mats.ndim}-D array")
    stack = _reduced(mats, q)
    if mats.shape[0] * mats.shape[1] > SCALAR_STACK_ROWS:
        return _rref_stack(stack.copy() if stack is mats else stack, q)  # it writes in place
    reduced = [rref_rows(mat, q) for mat in stack.tolist()]
    red = np.array([rows for rows, _ in reduced], dtype=np.uint8).reshape(mats.shape)
    return red, np.array([rank for _, rank in reduced], dtype=np.int64)


def mat_keys(mats: np.ndarray, q: int) -> np.ndarray:
    """Canonical keys for a stack of integer matrices: the int64 code of
    each, its row-major entries reduced mod q and read as base-q digits with
    the first entry least significant.

    Read through the one gate ``_reduced``, the codes are exact and injective
    on one shape for every integer input, and an in-range uint8 stack is read
    in place, not widened.  A q outside ``PRIMITIVE_ROOT``, a shape with
    q**entries >= 2**63, whose codes would wrap, and a non-integer stack are
    refused with ``ValueError`` before anything is allocated.
    """
    check_q(q)
    arr = np.asarray(mats)
    width = math.prod(arr.shape[1:])
    if q**width >= 1 << 63:
        raise ValueError(f"{q}^{width} matrices of shape {arr.shape[1:]} do not fit int64 keys")
    # einsum casts the digits to int64 a buffer at a time
    return np.einsum("ij,j->i", _reduced(arr, q).reshape(len(arr), width), q ** np.arange(width, dtype=np.int64))


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
