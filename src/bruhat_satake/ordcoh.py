"""Koszul cohomology of Z_p^d over Z/p^r, corestriction, and ordinary parts.

The cohomology of Z_p^d with coefficients in Lambda = Z/p^r (trivial
action) is an exterior algebra: H^i is free of rank C(d, i) with basis
the i-subsets of {1..d}.  The rank-one building block is modeled at a
finite level p^a by the circulant difference operator on functions
Z/p^a -> Lambda, whose kernel is the constants and whose cokernel is
generated by a delta function; summing over the fiber (corestriction)
induces multiplication by p^a in degree 0 and by 1 in degree 1.  Kunneth
then makes the corestriction act on H^i by p^{a(d-i)}, so the Hecke
operator at gamma (corestriction composed with the trivial translation)
is ordinary exactly in top degree.  It is held as that one scalar per
degree (``hecke_gamma``), from which ``cores_kunneth`` builds the matrices.

A matrix over Z/p^r is a tuple of tuples of Python ints, multiplied
exactly and reduced mod p^r by ``kernels._mul_mod``, so no modulus
overflows.  Ordinary projectors are idempotent limits of matrix powers:
any idempotent power U^N is the limit, and a closed-form exponent
certifies termination when small factorials miss the multiplicative
order.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass
from functools import cached_property

from .kernels import Rows, _mul_mod, _scalar
from .padic import check_level, check_modulus, is_prime

KOSZUL_DEGREE_GUARD = 12


@dataclass(frozen=True)
class Lambda:
    """The coefficient ring Z/p^r, with p^r at most ``CONGRUENCE_BITS_GUARD``
    bits long."""

    p: int
    r: int

    def __post_init__(self):
        if not isinstance(self.r, int) or isinstance(self.r, bool) or self.r < 1:
            raise ValueError(f"exponent must be an integer >= 1, got {self.r!r}")
        if not is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")
        check_modulus(self.p, self.r)

    @cached_property
    def modulus(self) -> int:
        return self.p**self.r


def koszul_cohomology(d: int) -> tuple[int, ...]:
    """The ranks of H^0, ..., H^d: H^i is free of rank C(d, i) with basis the
    i-subsets of {1..d}, over any coefficient ring Z/p^r.  The one check of
    the guard on d.

    >>> koszul_cohomology(3)
    (1, 3, 3, 1)
    """
    if not 0 <= d <= KOSZUL_DEGREE_GUARD:
        raise ValueError(f"degree {d} outside the guarded range")
    return tuple(math.comb(d, i) for i in range(d + 1))


def koszul_differentials(d: int, lam: Lambda, unit_weights) -> list[Rows]:
    """The Koszul differentials, as tuple rows, where generator j scales by u_j.

    d(e_S) = sum over j not in S of (-1)^{#{s in S : s < j}} (u_j - 1) e_{S + j}.
    Trivial weights give identically zero maps; the maps square to zero
    for any weights.  Rows and columns follow the i-subsets of {1..d} in
    ``itertools.combinations`` order, built here; the guard on d is that
    of ``koszul_cohomology``.
    """
    koszul_cohomology(d)  # the guard on d
    bases = [list(itertools.combinations(range(1, d + 1), i)) for i in range(d + 1)]
    units = list(unit_weights)
    if any(isinstance(u, bool) or not isinstance(u, numbers.Integral) for u in units):
        raise ValueError("unit weights must be integers")
    units = [int(u) % lam.modulus for u in units]
    if len(units) != d:
        raise ValueError(f"expected {d} unit weights")
    if any(u % lam.p == 0 for u in units):
        raise ValueError("weights must be units")
    out = []
    for src, dst in zip(bases, bases[1:]):
        index = {S: col for col, S in enumerate(src)}
        mat = []
        for T in dst:  # row T: S = T minus its k-th member j, so k members of S lie below j
            row = [0] * len(src)
            for k, j in enumerate(T):
                row[index[T[:k] + T[k + 1 :]]] = (-1) ** k * (units[j - 1] - 1) % lam.modulus
            mat.append(tuple(row))
        out.append(tuple(mat))
    return out


# ------------------------------------------------------------- corestriction


def hecke_gamma(d: int, a: int, lam: Lambda) -> list[int]:
    """The Hecke operator at gamma on H^0, ..., H^d at level p^a: in degree i
    it is the scalar p^{a(d-i)} mod p^r.

    In rank one, summing over the fiber of the level-p^a model induces p^a
    on H^0 and 1 on H^1, so by Kunneth the corestriction acts on H^i by
    p^{a(d-i)} on every subset basis vector.  Multiplication by gamma is
    the identity on this model (the coefficients carry no twist), so the
    operator is the corestriction.

    >>> hecke_gamma(3, 1, Lambda(3, 2))
    [0, 0, 3, 1]
    """
    koszul_cohomology(d)  # the guard on d
    check_level(a)
    return [pow(lam.p, a * (d - i), lam.modulus) for i in range(d + 1)]


def cores_kunneth(d: int, a: int, lam: Lambda) -> list[Rows]:
    """The corestriction on H^i(Z_p^d) at level p^a as dense tuple rows:
    the scalar of ``hecke_gamma`` times the C(d, i) x C(d, i) identity."""
    return [_scalar(rank, c) for c, rank in zip(hecke_gamma(d, a, lam), koszul_cohomology(d))]


# ---------------------------------------------------------------- projectors


def _matpow_mod(U: Rows, n: int, mod: int) -> Rows:
    out = _scalar(len(U), 1 % mod)
    base = tuple(tuple(x % mod for x in row) for row in U)
    while n:
        if n & 1:
            out = _mul_mod(out, base, mod)
        base = _mul_mod(base, base, mod)
        n >>= 1
    return out


def _stable_exponent(size: int, lam: Lambda) -> int:
    """An N with U^N idempotent for every U: N >= r*size kills the
    topologically nilpotent part, and the multiplicative order of the
    invertible part divides p^{r-1+ceil(log_p size)} * lcm(p^j - 1)."""
    p, r = lam.p, lam.r
    log_ceil = 0
    while p**log_ceil < size:
        log_ceil += 1
    period = p ** (r - 1 + log_ceil) * math.lcm(*(p**j - 1 for j in range(1, size + 1)))
    reach = r * size
    return period * max(1, -(reach // -period))


def ordinary_limit(U, lam: Lambda) -> tuple[Rows, int]:
    """(e, N) with e = U^N the idempotent limit projector, as tuple rows.

    U is the rows of a non-empty square matrix of integers of any size
    (any ``numbers.Integral`` but bool, so array rows too); floats and
    bools are refused.  Small factorial powers are tried first; an
    idempotent power is always the limit (it lies in the eventual cycle,
    whose only idempotent is its identity).  If no factorial up to 20!
    works, a closed-form exponent does.
    """
    mod = lam.modulus
    try:
        rows = [list(row) for row in U]
    except TypeError:  # a scalar or a vector
        rows = []
    if not rows or any(len(row) != len(rows) for row in rows):
        raise ValueError("expected a square matrix")
    if any(isinstance(x, bool) or not isinstance(x, numbers.Integral) for row in rows for x in row):
        raise ValueError("expected an integer matrix")
    a = U = tuple(tuple(int(x) % mod for x in row) for row in rows)  # tuple rows, as every product is
    n = 1
    for k in range(1, 21):
        if k > 1:
            a = _matpow_mod(a, k, mod)
            n *= k
        if _mul_mod(a, a, mod) == a:
            return a, n
    n = _stable_exponent(len(U), lam)
    e = _matpow_mod(U, n, mod)
    if _mul_mod(e, e, mod) != e:
        raise AssertionError("stable exponent failed to produce an idempotent")
    return e, n


def ordinary_part_of_hecke_gamma(d: int, lam: Lambda, a: int = 2) -> tuple[int, ...]:
    """Mod-p ranks of the ordinary projectors of the Hecke operator,
    degree by degree: (0, ..., 0, 1).

    In degree i the operator is the scalar c of ``hecke_gamma`` on H^i, so
    its projector is e I for the projector e of the 1 x 1 matrix [c], and
    the rank is C(d, i) when e is a unit mod p, else 0.
    """
    limits = [ordinary_limit([[c]], lam)[0][0][0] for c in hecke_gamma(d, a, lam)]
    return tuple(rank if e % lam.p else 0 for e, rank in zip(limits, koszul_cohomology(d)))
