"""Batched dense linear algebra over small prime fields.

The finite flag sweeps reduce to three bulk operations on stacks of small
integer matrices mod q: stack matmul, stack reduced row echelon form, and
stack rank.  A stack goes through one numpy routine whose Python loops run
only over the shape of a single matrix, never over the stack.  A single
matrix is row reduced in scalar Python, where numpy's per-operation cost
would dominate the few arithmetic steps.  The array functions take and
return int64 arrays; entries are reduced mod q on entry, and q must be one
of the primes 2, 3, 5.  ``rref_rows``, the scalar routine, takes Python
rows and any prime.

numpy is bound lazily: it is imported on the first attribute access of
``np``, so a process that never runs a kernel (the Weyl, root, padic and
Satake reports) never pays for importing it.  ``flagfq`` and ``ordcoh`` take
their ``np`` from here.
"""

from __future__ import annotations

import importlib.util
import sys


def _lazy_module(name: str):
    """The module ``name``, executed on its first attribute access (the
    ``importlib.util.LazyLoader`` recipe), or the module itself when it is
    already imported."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


np = _lazy_module("numpy")

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
    if a.size and (a.min() < 0 or a.max() >= q):
        return a % q
    return a


def backend_name() -> str:
    """The kernel implementation in use; numpy is the only one."""
    return "numpy"


def matmul_mod(a: np.ndarray, b: np.ndarray, q: int) -> np.ndarray:
    """Stack matmul mod q.  a: (N, r, s), b: (N, s, t) or (s, t)."""
    _check_q(q)
    a, b = _reduced(a, q), _reduced(b, q)
    # entries of a @ b lie in [0, s (q-1)^2]; a lookup reduces them faster than %
    residues = np.arange(a.shape[-1] * (q - 1) ** 2 + 1) % q
    return residues.take(a @ b)


def rref_mod(mats: np.ndarray, q: int) -> tuple[np.ndarray, np.ndarray]:
    """Stack RREF mod q: returns (rref stack, rank vector).

    The RREF is the canonical representative of the row space, so two
    matrices have equal row spans iff their RREFs are equal arrays.  A
    single (2-D) matrix returns its RREF and an ``np.int64`` rank.
    """
    _check_q(q)
    mats = np.asarray(mats, dtype=np.int64)
    if mats.ndim == 2:
        rows, rank = rref_rows(mats.tolist(), q)
        return np.array(rows, dtype=np.int64).reshape(mats.shape), np.int64(rank)
    return _rref_stack(mats % q, q)  # a fresh array


def rank_mod(mats: np.ndarray, q: int) -> np.ndarray:
    return rref_mod(mats, q)[1]


def mat_keys(mats: np.ndarray) -> list[bytes]:
    """Canonical hashable keys for a stack of small nonnegative matrices:
    each key is the matrix's int8 bytes in row-major order."""
    arr = np.ascontiguousarray(mats, dtype=np.int8)
    width = arr[0].size if len(arr) else 0
    return arr.reshape(len(arr), width).view(np.dtype((np.void, width))).ravel().tolist()


def mats_from_keys(keys: list[bytes], shape: tuple[int, ...]) -> np.ndarray:
    """The int64 stack of matrices of the given shape whose ``mat_keys`` are ``keys``."""
    return np.frombuffer(b"".join(keys), dtype=np.int8).reshape(len(keys), *shape).astype(np.int64)
