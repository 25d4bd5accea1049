"""Batched dense linear algebra over small prime fields, in numpy.

The finite flag sweeps reduce to three bulk operations on stacks of small
integer matrices mod q: stack matmul, stack reduced row echelon form, and
stack rank.  Each is one numpy routine whose Python loops run only over
the shape of a single matrix, never over the stack.  All functions take
and return int64 arrays; entries are reduced mod q on entry, and q must
be one of the primes 2, 3, 5.
"""

from __future__ import annotations

import numpy as np

PRIMES = (2, 3, 5)


def _check_q(q: int) -> None:
    if q not in PRIMES:
        raise ValueError(f"q must be one of {PRIMES}, got {q}")


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


def backend_name() -> str:
    """The kernel implementation in use; numpy is the only one."""
    return "numpy"


def matmul_mod(a: np.ndarray, b: np.ndarray, q: int) -> np.ndarray:
    """Stack matmul mod q.  a: (N, r, s), b: (N, s, t) or (s, t)."""
    _check_q(q)
    a = np.ascontiguousarray(a, dtype=np.int64) % q
    b = np.ascontiguousarray(b, dtype=np.int64) % q
    return (a @ b) % q


def rref_mod(mats: np.ndarray, q: int) -> tuple[np.ndarray, np.ndarray]:
    """Stack RREF mod q: returns (rref stack, rank vector).

    The RREF is the canonical representative of the row space, so two
    matrices have equal row spans iff their RREFs are equal arrays.
    """
    _check_q(q)
    mats = np.ascontiguousarray(mats, dtype=np.int64) % q  # a fresh array
    single = mats.ndim == 2
    if single:
        mats = mats[None]
    out, ranks = _rref_stack(mats, q)
    if single:
        return out[0], ranks[0]
    return out, ranks


def rank_mod(mats: np.ndarray, q: int) -> np.ndarray:
    return rref_mod(mats, q)[1]


def mat_keys(mats: np.ndarray) -> list[bytes]:
    """Canonical hashable keys for a stack of small nonnegative matrices."""
    arr = np.ascontiguousarray(mats, dtype=np.int8)
    count = arr.shape[0]
    flat = arr.reshape(count, -1)
    return [flat[i].tobytes() for i in range(count)]
