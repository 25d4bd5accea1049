"""Exact p-adic linear algebra for parabolic coset membership.

Matrices are kept over the rationals (stdlib ``Fraction``), since the
parabolic factor of a coset factorization picks up denominators that are
not powers of p.

The central quantity is ``h_invariant(g) = min_{i,j} v_p((D^{-1}C)_{ij})``
for the lower-left block C and lower-right block D of g.  It is invariant
under left multiplication by the Siegel parabolic over Q_p, detects
membership in P(Q_p) * Gamma_1(p^m) as h >= m, and shifts by k (type A)
or 2k (type C) under right multiplication by gamma^k.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .weyl import Family, GroupKind, SubsetJ, all_subsets_j

Mat = tuple[tuple[Fraction, ...], ...]


# ------------------------------------------------------------- valuations


def valuation(x, p: int):
    """The p-adic valuation of a rational number, with v(0) = +infinity."""
    x = Fraction(x)
    if x == 0:
        return math.inf
    v = 0
    num, den = x.numerator, x.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def is_prime(p: int) -> bool:
    """Trial division, so at most 46,341 steps: p >= 2^31 is refused with
    ValueError before any division."""
    if p >= 2**31:
        raise ValueError(f"{p} is too large: primality is checked only below 2^31")
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


# -------------------------------------------------------- exact matrix core


def _as_mat(rows) -> Mat:
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


def _identity(n: int) -> Mat:
    return tuple(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n))


def _zeros(n: int) -> Mat:
    return tuple((Fraction(0),) * n for _ in range(n))


def _mat_mul(a: Mat, b: Mat) -> Mat:
    bt = tuple(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a)


def _mat_sub(a: Mat, b: Mat) -> Mat:
    return tuple(tuple(x - y for x, y in zip(r, s)) for r, s in zip(a, b))


def _transpose(a: Mat) -> Mat:
    return tuple(zip(*a))


def _mat_inverse(a: Mat) -> Mat | None:
    """Exact inverse by Gauss-Jordan, or None when singular."""
    n = len(a)
    work = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(a)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if work[r][col] != 0), None)
        if pivot is None:
            return None
        work[col], work[pivot] = work[pivot], work[col]
        inv = 1 / work[col][col]
        work[col] = [x * inv for x in work[col]]
        for r in range(n):
            if r != col and work[r][col] != 0:
                f = work[r][col]
                work[r] = [x - f * y for x, y in zip(work[r], work[col])]
    return tuple(tuple(row[n:]) for row in work)


def _block_stack(A: Mat, B: Mat, C: Mat, D: Mat) -> Mat:
    top = tuple(ra + rb for ra, rb in zip(A, B))
    bot = tuple(rc + rd for rc, rd in zip(C, D))
    return top + bot


def _symplectic_form_q(n: int) -> Mat:
    J = [[Fraction(0)] * (2 * n) for _ in range(2 * n)]
    for i in range(n):
        J[i][n + i] = Fraction(1)
        J[n + i][i] = Fraction(-1)
    return tuple(tuple(row) for row in J)


# ------------------------------------------------------------- block matrix


@dataclass(frozen=True)
class BlockMatrix:
    """An invertible 2n x 2n rational matrix tied to a group and a prime.

    Type C instances are validated to satisfy g^T J g = J exactly.
    Block views a, b, c, d follow [[a, b], [c, d]] with n x n blocks.
    """

    kind: GroupKind
    p: int
    rows: Mat

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")
        m = self.kind.ambient
        if len(self.rows) != m or any(len(r) != m for r in self.rows):
            raise ValueError(f"expected a {m} x {m} matrix")
        if any(not isinstance(x, Fraction) for row in self.rows for x in row):
            raise ValueError("entries must be Fractions; use block_matrix to coerce")
        if self.kind.family is Family.TYPE_C:
            J = _symplectic_form_q(self.kind.n)
            if _mat_mul(_mat_mul(_transpose(self.rows), J), self.rows) != J:
                raise ValueError("matrix does not preserve the symplectic form")
        elif _mat_inverse(self.rows) is None:
            raise ValueError("matrix is singular")

    @property
    def n(self) -> int:
        return self.kind.n

    def _block(self, i0: int, j0: int) -> Mat:
        n = self.n
        return tuple(row[j0 : j0 + n] for row in self.rows[i0 : i0 + n])

    @property
    def a(self) -> Mat:
        return self._block(0, 0)

    @property
    def b(self) -> Mat:
        return self._block(0, self.n)

    @property
    def c(self) -> Mat:
        return self._block(self.n, 0)

    @property
    def d(self) -> Mat:
        return self._block(self.n, self.n)

    def __mul__(self, other: "BlockMatrix") -> "BlockMatrix":
        if (self.kind, self.p) != (other.kind, other.p):
            raise ValueError("mixed groups or primes")
        return BlockMatrix(self.kind, self.p, _mat_mul(self.rows, other.rows))

    def transpose(self) -> "BlockMatrix":
        return block_matrix(self.kind, self.p, _transpose(self.rows))

    def inverse(self) -> "BlockMatrix":
        inv = _mat_inverse(self.rows)
        if inv is None:
            raise ValueError("matrix is singular")
        return BlockMatrix(self.kind, self.p, inv)

    def is_integral(self) -> bool:
        return all(valuation(x, self.p) >= 0 for row in self.rows for x in row)


def block_matrix(kind: GroupKind, p: int, rows) -> BlockMatrix:
    """Coerce rows of ints, strings, or Fractions into a BlockMatrix."""
    return BlockMatrix(kind, p, _as_mat(rows))


def from_blocks(kind: GroupKind, p: int, A, B, C, D) -> BlockMatrix:
    return BlockMatrix(kind, p, _block_stack(_as_mat(A), _as_mat(B), _as_mat(C), _as_mat(D)))


def gamma(kind: GroupKind, p: int) -> BlockMatrix:
    """The contracting diagonal element diag(p 1_n, 1_n) or diag(p 1_n, p^{-1} 1_n)."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    n = kind.n
    hi = Fraction(1) if kind.family is Family.TYPE_A else Fraction(1, p)
    rows = [[Fraction(0)] * (2 * n) for _ in range(2 * n)]
    for i in range(n):
        rows[i][i] = Fraction(p)
        rows[n + i][n + i] = hi
    return BlockMatrix(kind, p, tuple(tuple(r) for r in rows))


# --------------------------------------------------------------- congruence


class LevelFlavor(Enum):
    GAMMA0 = "Gamma0"
    GAMMA1 = "Gamma1"
    GAMMA_FULL = "GammaFull"


@dataclass(frozen=True)
class Level:
    flavor: LevelFlavor
    m: int

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("level exponent must be >= 1")


def _cong_zero(block: Mat, p: int, m: int) -> bool:
    return all(valuation(x, p) >= m for row in block for x in row)


def _cong_identity(block: Mat, p: int, m: int) -> bool:
    return _cong_zero(_mat_sub(block, _identity(len(block))), p, m)


def in_level(g: BlockMatrix, level: Level) -> bool:
    """Membership of an integral matrix in Gamma_0 / Gamma_1 / Gamma of p^m.

    Non-integral input is a usage error, not a False: congruence subgroups
    live inside G(Z_p).
    """
    if not g.is_integral():
        raise ValueError("matrix is not p-integral; congruence levels need G(Z_p)")
    p, m = g.p, level.m
    if not _cong_zero(g.c, p, m):
        return False
    if level.flavor is LevelFlavor.GAMMA0:
        return True
    if not (_cong_identity(g.a, p, m) and _cong_identity(g.d, p, m)):
        return False
    if level.flavor is LevelFlavor.GAMMA1:
        return True
    return _cong_zero(g.b, p, m)


# ----------------------------------------------------- the coset invariant


def h_invariant(g: BlockMatrix):
    """min_{i,j} v_p((D^{-1} C)_{ij}); -inf when D is singular, +inf when C = 0.

    Unchanged under left multiplication by the block upper-triangular
    parabolic over Q_p, and h(g gamma^k) = h(g) + k (type A) or + 2k
    (type C).
    """
    d_inv = _mat_inverse(g.d)
    if d_inv is None:
        return -math.inf
    L = _mat_mul(d_inv, g.c)
    return min(valuation(x, g.p) for row in L for x in row)


def in_P_Gamma1(g: BlockMatrix, m: int) -> bool:
    """Whether g lies in P(Q_p) * Gamma_1(p^m)."""
    if m < 1:
        raise ValueError("level exponent must be >= 1")
    return h_invariant(g) >= m


def factor_P_Gamma1(g: BlockMatrix, m: int) -> tuple[BlockMatrix, BlockMatrix]:
    """Split g = pPart * gamma1Part with pPart block upper triangular and
    gamma1Part = [[I, 0], [L, I]] in Gamma_1(p^m), where L = D^{-1} C.

    Exact over Q; in type C both factors are symplectic (the constructor
    would refuse otherwise).
    """
    h = h_invariant(g)
    if h < m:
        raise ValueError(f"h invariant {h} < {m}; g is not in P(Q_p) Gamma_1(p^{m})")
    n = g.n
    L = _mat_mul(_mat_inverse(g.d), g.c)
    p_part = from_blocks(g.kind, g.p, _mat_sub(g.a, _mat_mul(g.b, L)), g.b, _zeros(n), g.d)
    gamma1_part = from_blocks(g.kind, g.p, _identity(n), _zeros(n), L, _identity(n))
    if (p_part * gamma1_part).rows != g.rows:
        raise AssertionError("factorization failed to reassemble")
    if not in_level(gamma1_part, Level(LevelFlavor.GAMMA1, m)):
        raise AssertionError("congruence factor missed its level")
    return p_part, gamma1_part


# ------------------------------------------------------ anticanonical radius


def anticanonical_radius(kind: GroupKind, vals: dict):
    """Smallest k >= 0 with v(J_0) <= v(J) + k * |J intersect {1..n}| for all J.

    ``vals`` maps each coordinate subset (SubsetJ or a frozenset of its
    members) to a valuation in Z or +infinity.  J_0 = {n+1, ..., 2n} is
    the only subset whose intersection count is zero.  All values infinite
    is an error (there is nothing to measure); v(J_0) infinite with some
    finite competitor never catches up, which reports +infinity.
    """
    n = kind.n
    wanted = {frozenset(s.members) for s in all_subsets_j(kind)}
    table = {}
    for key, v in vals.items():
        members = frozenset(key.members) if isinstance(key, SubsetJ) else frozenset(key)
        if members in table:
            raise ValueError("duplicate subset key")
        if v != math.inf and not isinstance(v, int):
            raise ValueError("valuations must be integers or +infinity")
        table[members] = v
    if set(table) != wanted:
        raise ValueError("valuations must cover every coordinate subset exactly once")
    j0 = frozenset(range(n + 1, 2 * n + 1))
    v0 = table[j0]
    if all(v == math.inf for v in table.values()):
        raise ValueError("all valuations are infinite")
    if v0 == math.inf:
        return math.inf
    k = 0
    for members, v in table.items():
        if members == j0 or v == math.inf:
            continue
        m_j = len(members & set(range(1, n + 1)))
        k = max(k, -((v - v0) // m_j))
    return k


# ------------------------------------------------------------------ sampling


def _rand_int_mat(n: int, rng: random.Random) -> Mat:
    return tuple(tuple(Fraction(rng.randint(-4, 4)) for _ in range(n)) for _ in range(n))


def _rand_symmetric(n: int, rng: random.Random) -> Mat:
    m = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = Fraction(rng.randint(-4, 4))
    return tuple(tuple(r) for r in m)


def _scale(mat: Mat, s) -> Mat:
    s = Fraction(s)
    return tuple(tuple(s * x for x in row) for row in mat)


def _mat_add(a: Mat, b: Mat) -> Mat:
    return tuple(tuple(x + y for x, y in zip(r, s)) for r, s in zip(a, b))


def random_congruence_element(
    kind: GroupKind, p: int, m: int, rng: random.Random, flavor: LevelFlavor = LevelFlavor.GAMMA1
) -> BlockMatrix:
    """A seeded random element of Gamma_1(p^m) (or Gamma(p^m)).

    Type A: [[I + p^m A', B], [p^m C', I + p^m D']] with B integral
    (p^m B' for the full level).  Type C builds
    [[I, 0], [p^m C_1, I]] * [[A, 0], [0, A^{-T}]] * [[I, B_1], [0, I]]
    with C_1, B_1 symmetric and A = I + p^m A'', which is exactly
    symplectic and lands exactly in the level.
    """
    n, q = kind.n, p**m
    if flavor is LevelFlavor.GAMMA0:
        raise ValueError("sampler covers Gamma_1 and the full level")
    if kind.family is Family.TYPE_A:
        A = _mat_add(_identity(n), _scale(_rand_int_mat(n, rng), q))
        D = _mat_add(_identity(n), _scale(_rand_int_mat(n, rng), q))
        C = _scale(_rand_int_mat(n, rng), q)
        B = _rand_int_mat(n, rng)
        if flavor is LevelFlavor.GAMMA_FULL:
            B = _scale(B, q)
        return from_blocks(kind, p, A, B, C, D)
    A = _mat_add(_identity(n), _scale(_rand_int_mat(n, rng), q))
    C1 = _scale(_rand_symmetric(n, rng), q)
    B1 = _rand_symmetric(n, rng)
    if flavor is LevelFlavor.GAMMA_FULL:
        B1 = _scale(B1, q)
    lower = from_blocks(kind, p, _identity(n), _zeros(n), C1, _identity(n))
    levi = from_blocks(kind, p, A, _zeros(n), _zeros(n), _transpose(_mat_inverse(A)))
    upper = from_blocks(kind, p, _identity(n), B1, _zeros(n), _identity(n))
    return lower * levi * upper


def random_parabolic_element(kind: GroupKind, p: int, rng: random.Random) -> BlockMatrix:
    """A random element of the block upper-triangular parabolic over Q_p,
    with genuine denominators, for invariance testing."""
    n = kind.n

    def invertible() -> Mat:
        while True:
            cand = _rand_int_mat(n, rng)
            if _mat_inverse(cand) is not None:
                return cand

    def p_torus() -> Mat:
        diag = [Fraction(p) ** rng.randint(-2, 2) for _ in range(n)]
        return tuple(tuple(diag[i] if i == j else Fraction(0) for j in range(n)) for i in range(n))

    if kind.family is Family.TYPE_A:
        A = _mat_mul(invertible(), p_torus())
        D = _mat_mul(invertible(), p_torus())
        B = _scale(_rand_int_mat(n, rng), Fraction(1, p))
        return from_blocks(kind, p, A, B, _zeros(n), D)
    A = _mat_mul(invertible(), p_torus())
    S = _scale(_rand_symmetric(n, rng), Fraction(rng.choice([1, p]), p))
    levi = from_blocks(kind, p, A, _zeros(n), _zeros(n), _transpose(_mat_inverse(A)))
    upper = from_blocks(kind, p, _identity(n), S, _zeros(n), _identity(n))
    return levi * upper
