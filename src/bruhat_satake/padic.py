"""Exact p-adic linear algebra for parabolic coset membership.

A ``BlockMatrix`` is one integer matrix ``num`` over one positive common
denominator ``den``, kept canonical (the gcd of ``den`` and every entry is
1).  Its dataclass constructor also checks that the matrix lies in its
group; ``block_matrix`` and the samplers build through it.  A product of
two elements is made canonical but not checked again: both factors were
checked when they were built.  The parabolic
factor of a coset factorization picks up denominators that are not powers
of p; the common denominator carries them.  Every elimination is
fraction-free (Bareiss 1968): ``_bareiss_solve(d, c)`` returns
``D = +-det d`` and the integer matrix ``D d^{-1} c``.  ``Fraction`` stays
at the boundary: ``exact`` reads one entry (an int, a Fraction or an
``"a/b"`` string, never a float), ``block_matrix`` reads rows of them, and
``rows`` gives them back.

The central quantity is ``h_invariant(g) = min_{i,j} v_p((D^{-1}C)_{ij})``
for the lower-left block C and lower-right block D of g.  It is invariant
under left multiplication by the Siegel parabolic over Q_p, detects
membership in P(Q_p) * Gamma_1(p^m) as h >= m, and shifts by k (type A)
or 2k (type C) under right multiplication by gamma^k.
"""

from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .kernels import Rows, _mat_mul, _scalar, _symplectic_form_q, _transpose
from .weyl import Family, GroupKind, all_subsets_j

Mat = tuple[tuple[Fraction, ...], ...]

# A modulus p^e longer than this many bits is refused (``check_modulus``): the
# sampler's entries mod p^m pass through every product and elimination, whose
# divisions grow quadratically, and ordcoh reduces every entry mod p^r.
CONGRUENCE_BITS_GUARD = 2**10

# A sampled suite (``padic h`` and ``padic factor`` with no matrix) is refused
# when its work estimate ``suite_work`` is past this.  Up to n = SUITE_BASE_N
# that is the sample count times (the bit length of p^m plus
# SUITE_SAMPLE_BITS), so 64 samples at a 1024-bit modulus are the edge.
# SUITE_SAMPLE_BITS is the part of a sample's cost that does not grow with
# p^m, in bits of p^m: a C n = 3 ``padic h`` sample measured 1.5 ms at
# p^m = 2 and 57 ms at 1024 bits, a fixed part worth about 28 bits.
SUITE_SAMPLE_BITS = 32
SUITE_BASE_N = 3
SUITE_WORK_GUARD = 64 * (CONGRUENCE_BITS_GUARD + SUITE_SAMPLE_BITS)


def suite_work(n: int, bits: int, count: int) -> int:
    """The work estimate of ``count`` samples at rank n with a ``bits``-bit
    modulus p^m, against ``SUITE_WORK_GUARD``.

    With k = max(n, SUITE_BASE_N) / SUITE_BASE_N, a sample costs
    k^3 (k^2 bits + SUITE_SAMPLE_BITS), so n <= 3 keeps count * (bits +
    SUITE_SAMPLE_BITS).  Measured on p = 2 samples: the fixed part grows like
    the n^3 steps of the Bareiss solve (C: 1.6 ms at n = 3, 40 ms at 12,
    0.7 s at 24), the part in p^m about n^2 faster, since the solve's
    entries grow n-fold (C at 50 bits: 3 ms at n = 3, 0.6 s at 12; at 600
    bits: 0.05 s at 3, 1.4 s at 6).

    >>> suite_work(2, 1024, 64) == SUITE_WORK_GUARD
    True
    >>> suite_work(32, 2, 5) > SUITE_WORK_GUARD
    True
    """
    r = max(n, SUITE_BASE_N)  # k = r / SUITE_BASE_N, kept in integers
    return count * r**3 * (r**2 * bits + SUITE_BASE_N**2 * SUITE_SAMPLE_BITS) // SUITE_BASE_N**5


# ------------------------------------------------------------- valuations


def _int_valuation(x: int, p: int) -> int:
    """v_p of a nonzero integer in O(log v) divisions.

    The powers p^(2^k) that divide x are found by repeated squaring, then
    stripped from the largest down, which reads v off in binary.  A p-adic
    unit costs one modulus.
    """
    powers = []
    q = p
    while x % q == 0:
        powers.append(q)
        q *= q
    v = 0
    for k in reversed(range(len(powers))):
        if x % powers[k] == 0:
            x //= powers[k]
            v += 1 << k
    return v


def is_prime(p: int) -> bool:
    """Trial division, so at most 46,341 steps: p >= 2^31 is refused with
    ValueError before any division, and so is a p that is not an int.
    The answer is cached per p, as every ``BlockMatrix`` asks again."""
    if not isinstance(p, int) or isinstance(p, bool):
        raise ValueError(f"p must be an integer, got {type(p).__name__} {p!r}")
    if p >= 2**31:
        raise ValueError(f"{p} is too large: primality is checked only below 2^31")
    return _trial_division(p)


@lru_cache(maxsize=1024, typed=True)
def _trial_division(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


_RATIONAL = re.compile(r"[+-]?\d+(/\d+)?")


def exact(x) -> Fraction:
    """One exact rational: an int, a Fraction or an 'a/b' string.

    Floats, booleans, decimal or exponent strings and zero denominators
    are refused, since a float is already a rounded number.

    >>> exact(3), exact("-6/4"), exact(Fraction(1, 3))
    (Fraction(3, 1), Fraction(-3, 2), Fraction(1, 3))
    >>> exact(0.1)
    Traceback (most recent call last):
        ...
    ValueError: entries must be integers, Fractions or 'a/b' strings, got float 0.1
    """
    if isinstance(x, Fraction) or (isinstance(x, int) and not isinstance(x, bool)):
        return Fraction(x)
    if isinstance(x, str) and _RATIONAL.fullmatch(x.strip()):
        num, _, den = x.strip().partition("/")
        if den and int(den) == 0:
            raise ValueError(f"entry {x!r} has a zero denominator")
        return Fraction(int(num), int(den or 1))
    raise ValueError(f"entries must be integers, Fractions or 'a/b' strings, got {type(x).__name__} {x!r}")


# -------------------------------------------------------- exact matrix core


def _scaled(a: Rows, s: int) -> Rows:
    return tuple(tuple(s * x for x in row) for row in a)


def _mat_add(a: Rows, b: Rows) -> Rows:
    return tuple(tuple(x + y for x, y in zip(r, s)) for r, s in zip(a, b))


def _bareiss_solve(d: Rows, c: Rows) -> tuple[int, Rows | None]:
    """(D, D d^{-1} c) for a square integer d, with D = +-det d; (0, None)
    when d is singular.  ``c`` may have no columns, which leaves only D.

    Fraction-free elimination (Bareiss 1968): each row update divides by
    the previous pivot exactly, so every intermediate entry is an integer
    minor of [d | c].  The last pivot is det d up to the sign of the row
    swaps.  Back substitution then solves U X = D c' exactly, because
    X = D d^{-1} c is integral (Cramer's rule).
    """
    n = len(d)
    work = [list(dr) + list(cr) for dr, cr in zip(d, c)]
    prev = 1
    for k in range(n):
        pivot = next((r for r in range(k, n) if work[r][k]), None)
        if pivot is None:
            return 0, None
        work[k], work[pivot] = work[pivot], work[k]
        row_k = work[k]
        pk = row_k[k]
        for i in range(k + 1, n):
            row_i = work[i]
            f = row_i[k]
            work[i] = [(pk * x - f * y) // prev for x, y in zip(row_i, row_k)]
        prev = pk
    solved: list = [None] * n
    for i in reversed(range(n)):
        row_i = work[i]
        acc = [prev * x for x in row_i[n:]]
        for j in range(i + 1, n):
            u = row_i[j]
            if u:
                acc = [a - u * x for a, x in zip(acc, solved[j])]
        solved[i] = tuple(a // row_i[i] for a in acc)
    return prev, tuple(solved)


def _nonsingular(d: Rows) -> bool:
    return _bareiss_solve(d, ((),) * len(d))[0] != 0


# ------------------------------------------------------------- block matrix


def _canonical(num: Rows, den: int) -> tuple[Rows, int]:
    """(num, den) divided by the gcd of den and every entry, signed so that den > 0."""
    common = math.gcd(den, *(x for row in num for x in row))
    if den < 0:
        common = -common
    if common == 1:
        return num, den
    return tuple(tuple(x // common for x in row) for row in num), den // common


@dataclass(frozen=True)
class BlockMatrix:
    """An invertible 2n x 2n rational matrix tied to a group and a prime:
    integer rows ``num`` over a nonzero Python int ``den``, which the
    constructor makes canonical (den > 0, gcd(den, num) = 1), so equality
    and hashing are exact.  Type A must be nonsingular and type C must
    satisfy g^T J g = J exactly (num^T J num = den^2 J).
    """

    kind: GroupKind
    p: int
    num: Rows
    den: int

    def __post_init__(self):
        kind, p, num, den = self.kind, self.p, self.num, self.den
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        m = kind.ambient
        if len(num) != m or any(len(row) != m for row in num):
            raise ValueError(f"expected a {m} x {m} matrix")
        if type(den) is not int or any(type(x) is not int for row in num for x in row):
            raise ValueError("num and den must be Python ints; use block_matrix for rational entries")
        if den == 0:
            raise ValueError("the denominator is zero")
        num, den = _canonical(tuple(map(tuple, num)), den)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        if kind.family is Family.TYPE_C:
            n = kind.n
            j_num = num[n:] + _scaled(num[:n], -1)  # J num: the halves of num swapped, one negated
            if _mat_mul(_transpose(num), j_num) != _scaled(_symplectic_form_q(n), den**2):
                raise ValueError("matrix does not preserve the symplectic form")
        elif not _nonsingular(num):
            raise ValueError("matrix is singular")

    @property
    def n(self) -> int:
        return self.kind.n

    @property
    def rows(self) -> Mat:
        return tuple(tuple(Fraction(x, self.den) for x in row) for row in self.num)

    def _int_block(self, i0: int, j0: int) -> Rows:
        n = self.n
        return tuple(row[j0 : j0 + n] for row in self.num[i0 : i0 + n])

    def __mul__(self, other: "BlockMatrix") -> "BlockMatrix":
        # Both factors were proved to lie in the group when they were built,
        # so their product does too: it is made canonical but not re-proved.
        if (self.kind, self.p) != (other.kind, other.p):
            raise ValueError("mixed groups or primes")
        product = object.__new__(BlockMatrix)
        num, den = _canonical(_mat_mul(self.num, other.num), self.den * other.den)
        vars(product).update(kind=self.kind, p=self.p, num=num, den=den)
        return product

    def is_integral(self) -> bool:
        # canonical: p | den leaves some entry with a p in its denominator
        return self.den % self.p != 0


def _from_int_blocks(
    kind: GroupKind, p: int, A: Rows, B: Rows, C: Rows, D: Rows, den: int = 1
) -> BlockMatrix:
    """[[A, B], [C, D]] / den for integer blocks."""
    top = tuple(ra + rb for ra, rb in zip(A, B))
    return BlockMatrix(kind, p, top + tuple(rc + rd for rc, rd in zip(C, D)), den)


def block_matrix(kind: GroupKind, p: int, rows) -> BlockMatrix:
    """The BlockMatrix with these rows, each entry read by ``exact``."""
    rows = [[exact(x) for x in row] for row in rows]
    den = math.lcm(*(x.denominator for row in rows for x in row))
    return BlockMatrix(kind, p, tuple(tuple(x.numerator * (den // x.denominator) for x in row) for row in rows), den)


def gamma(kind: GroupKind, p: int) -> BlockMatrix:
    """The contracting diagonal element diag(p 1_n, 1_n) or diag(p 1_n, p^{-1} 1_n)."""
    n = kind.n
    top, den = (p, 1) if kind.family is Family.TYPE_A else (p * p, p)
    O = _scalar(n, 0)
    return _from_int_blocks(kind, p, _scalar(n, top), O, O, _scalar(n, 1), den)


# --------------------------------------------------------------- congruence


def _congruent(num: Rows, i0: int, j0: int, n: int, s: int, p: int, m: int) -> bool:
    """Whether the n x n block of num at (i0, j0) is s * I modulo p^m: each
    entry minus its target is 0 or has v_p at least m, so p^m is never
    computed and the work is bounded by the entries, not by m."""
    return all(
        (x := num[i0 + i][j0 + j] - (s if i == j else 0)) == 0 or _int_valuation(x, p) >= m
        for i in range(n)
        for j in range(n)
    )


def check_level(m: int) -> None:
    """Refuse a level exponent that is not an int >= 1 (a bool or a float
    included), before any work is done with it."""
    if not isinstance(m, int) or isinstance(m, bool):
        raise ValueError(f"level exponent must be an integer, got {type(m).__name__} {m!r}")
    if m < 1:
        raise ValueError("level exponent must be >= 1")


def check_modulus(p: int, e: int) -> None:
    """Refuse a modulus p^e longer than ``CONGRUENCE_BITS_GUARD`` bits, for a
    prime p and an int e >= 1.  p^e is computed only below the guard: p >= 2,
    so e >= the guard already makes p^e too long."""
    if e >= CONGRUENCE_BITS_GUARD or (p**e).bit_length() > CONGRUENCE_BITS_GUARD:
        raise ValueError(f"the modulus {p}^{e} is longer than CONGRUENCE_BITS_GUARD = {CONGRUENCE_BITS_GUARD} bits")


def in_level(g: BlockMatrix, m: int) -> bool:
    """Membership of an integral matrix in Gamma_1(p^m): C = 0 and
    A = D = I modulo p^m for the blocks [[A, B], [C, D]] of g.

    Non-integral input is a usage error, not a False: congruence subgroups
    live inside G(Z_p).  There den is a p-adic unit, so an entry x / den is
    0 or 1 mod p^m exactly when x is 0 or den mod p^m.
    """
    check_level(m)
    if not g.is_integral():
        raise ValueError("matrix is not p-integral; congruence levels need G(Z_p)")
    num, n, den, p = g.num, g.n, g.den, g.p
    return (
        _congruent(num, n, 0, n, 0, p, m)  # C = 0
        and _congruent(num, 0, 0, n, den, p, m)  # A = I
        and _congruent(num, n, n, n, den, p, m)  # D = I
    )


# ----------------------------------------------------- the coset invariant


def _solve_dc(g: BlockMatrix) -> tuple[int, Rows | None]:
    """(D, D N_D^{-1} N_C): D^{-1}C is the second over the first, since the
    common denominator of the blocks cancels."""
    n = g.n
    return _bareiss_solve(g._int_block(n, n), g._int_block(n, 0))


def h_invariant(g: BlockMatrix):
    """min_{i,j} v_p((D^{-1} C)_{ij}); -inf when D is singular, +inf when C = 0.

    Unchanged under left multiplication by the block upper-triangular
    parabolic over Q_p, and h(g gamma^k) = h(g) + k (type A) or + 2k
    (type C).  Computed as v_p of the gcd of the entries of the integer
    matrix D N_D^{-1} N_C, minus v_p(D).
    """
    det, solved = _solve_dc(g)
    if solved is None:
        return -math.inf
    content = math.gcd(*(x for row in solved for x in row))
    if content == 0:
        return math.inf
    return _int_valuation(content, g.p) - _int_valuation(det, g.p)


def factor_P_Gamma1(g: BlockMatrix, m: int, *, h=None) -> tuple[BlockMatrix, BlockMatrix]:
    """Split g = pPart * gamma1Part with pPart block upper triangular and
    gamma1Part = [[I, 0], [L, I]] in Gamma_1(p^m), where L = D^{-1} C.
    ``h`` is ``h_invariant(g)`` when the caller has it already, so it is
    not computed twice.

    Exact over Q; in type C both factors are symplectic (the constructor
    would refuse otherwise).  With L = X / det from one Bareiss solve,
    gamma1Part = [[det I, 0], [X, det I]] / det and pPart =
    [[det A - B X, det B], [0, det D]] / (den det) in g's integer blocks.
    """
    check_level(m)
    if h is None:
        h = h_invariant(g)
    if h < m:
        raise ValueError(f"h invariant {h} < {m}; g is not in P(Q_p) Gamma_1(p^{m})")
    n, kind, p = g.n, g.kind, g.p
    det, X = _solve_dc(g)
    A, B, D = g._int_block(0, 0), g._int_block(0, n), g._int_block(n, n)
    O, I = _scalar(n, 0), _scalar(n, det)
    top_left = _mat_add(_scaled(A, det), _scaled(_mat_mul(B, X), -1))
    p_part = _from_int_blocks(kind, p, top_left, _scaled(B, det), O, _scaled(D, det), g.den * det)
    gamma1_part = _from_int_blocks(kind, p, I, O, X, I, det)
    if p_part * gamma1_part != g:
        raise AssertionError("factorization failed to reassemble")
    if not in_level(gamma1_part, m):
        raise AssertionError("congruence factor missed its level")
    return p_part, gamma1_part


# ------------------------------------------------------ anticanonical radius


def anticanonical_radius(kind: GroupKind, vals: dict):
    """Smallest k >= 0 with v(J_0) <= v(J) + k * |J intersect {1..n}| for all J.

    ``vals`` maps each coordinate subset, as the frozenset of its members,
    to a valuation in Z or +infinity.  J_0 = {n+1, ..., 2n} is the only
    subset whose intersection count is zero.  All values infinite is an
    error (there is nothing to measure); v(J_0) infinite with some finite
    competitor never catches up, which reports +infinity.
    """
    n = kind.n
    if any(v != math.inf and not isinstance(v, int) for v in vals.values()):
        raise ValueError("valuations must be integers or +infinity")
    if set(vals) != set(all_subsets_j(kind)):
        raise ValueError("valuations must be keyed by the frozensets of members of all coordinate subsets")
    j0 = frozenset(range(n + 1, 2 * n + 1))
    v0 = vals[j0]
    if all(v == math.inf for v in vals.values()):
        raise ValueError("all valuations are infinite")
    if v0 == math.inf:
        return math.inf
    k = 0
    for members, v in vals.items():
        if members == j0 or v == math.inf:
            continue
        m_j = len(members & set(range(1, n + 1)))
        k = max(k, -((v - v0) // m_j))
    return k


# ------------------------------------------------------------------ sampling


def _rand_int_mat(n: int, rng: random.Random) -> Rows:
    return tuple(tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(n))


def _rand_symmetric(n: int, rng: random.Random) -> Rows:
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = rng.randint(-4, 4)
    return tuple(tuple(r) for r in m)


def _levi(kind: GroupKind, p: int, A: Rows, den: int) -> BlockMatrix:
    """[[a, 0], [0, a^{-T}]] for a = A / den.  One Bareiss solve gives
    X = det A^{-1}, so a^{-T} = den X^T / det over the denominator den det."""
    det, X = _bareiss_solve(A, _scalar(len(A), 1))
    O = _scalar(len(A), 0)
    return _from_int_blocks(kind, p, _scaled(A, det), O, O, _scaled(_transpose(X), den * den), den * det)


def random_congruence_element(kind: GroupKind, p: int, m: int, rng: random.Random) -> BlockMatrix:
    """A seeded random element of Gamma_1(p^m).

    Type A: [[I + p^m A', B], [p^m C', I + p^m D']] with B integral, drawn
    in the order A', D', C', B.  Type C builds
    [[I, 0], [p^m C_1, I]] * [[A, 0], [0, A^{-T}]] * [[I, B_1], [0, I]]
    with C_1, B_1 symmetric and A = I + p^m A'', which is exactly
    symplectic and lands exactly in the level.  A level exponent that is
    not an int >= 1, and a modulus p^m longer than
    ``CONGRUENCE_BITS_GUARD`` bits, are refused before the first draw.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    check_level(m)
    check_modulus(p, m)
    n, q = kind.n, p**m
    I, O = _scalar(n, 1), _scalar(n, 0)
    if kind.family is Family.TYPE_A:
        A = _mat_add(I, _scaled(_rand_int_mat(n, rng), q))
        D = _mat_add(I, _scaled(_rand_int_mat(n, rng), q))
        C = _scaled(_rand_int_mat(n, rng), q)
        B = _rand_int_mat(n, rng)
        return _from_int_blocks(kind, p, A, B, C, D)
    A = _mat_add(I, _scaled(_rand_int_mat(n, rng), q))
    C1 = _scaled(_rand_symmetric(n, rng), q)
    B1 = _rand_symmetric(n, rng)
    lower = _from_int_blocks(kind, p, I, O, C1, I)
    levi = _levi(kind, p, A, 1)
    upper = _from_int_blocks(kind, p, I, B1, O, I)
    return lower * levi * upper


def random_parabolic_element(kind: GroupKind, p: int, rng: random.Random) -> BlockMatrix:
    """A random element of the block upper-triangular parabolic over Q_p,
    with genuine denominators, for invariance testing.  The blocks are
    kept over the denominator p^2, the deepest the p-torus reaches."""
    n = kind.n
    O = _scalar(n, 0)

    def invertible() -> Rows:
        while True:
            cand = _rand_int_mat(n, rng)
            if _nonsingular(cand):
                return cand

    def p_torus(mat: Rows) -> Rows:
        """p^2 * mat * diag(p^e_1, ..., p^e_n) with each e_i drawn from [-2, 2]."""
        exps = [rng.randint(-2, 2) + 2 for _ in range(n)]
        return tuple(tuple(x * p**e for x, e in zip(row, exps)) for row in mat)

    if kind.family is Family.TYPE_A:
        A = p_torus(invertible())
        D = p_torus(invertible())
        B = _scaled(_rand_int_mat(n, rng), p)
        return _from_int_blocks(kind, p, A, B, O, D, p * p)
    A = p_torus(invertible())
    S = _scaled(_rand_symmetric(n, rng), rng.choice([1, p]))
    levi = _levi(kind, p, A, p * p)
    upper = _from_int_blocks(kind, p, _scalar(n, p), S, O, _scalar(n, p), p)
    return levi * upper
