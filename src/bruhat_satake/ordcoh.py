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

Projectors onto the ordinary part are computed as idempotent limits of
matrix powers: any idempotent power U^N is automatically the limit
projector, and a closed-form exponent certifies termination when small
factorials miss the multiplicative order; the Hecke operator's scalars
are taken as 1 x 1 matrices.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass
from functools import cached_property

from .kernels import np, rref_rows
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


def _check_int64(size: int, lam: Lambda) -> None:
    """Refuse size x size int64 work over Z/p^r that could overflow: a
    product entry is a sum of size terms, each below (p^r - 1)^2."""
    if size * (lam.modulus - 1) ** 2 >= 2**63:
        raise ValueError(f"{size} x {size} matrices over Z/{lam.p}^{lam.r} overflow int64 arithmetic")


@dataclass(frozen=True)
class GradedCohomology:
    """Ranks and subset bases of H^*(Z_p^d, Lambda)."""

    ranks: tuple[int, ...]
    bases: tuple[tuple[tuple[int, ...], ...], ...]


def koszul_cohomology(d: int) -> GradedCohomology:
    """H^i free of rank C(d, i) with basis the i-subsets of {1..d}, over any
    coefficient ring Z/p^r.

    >>> koszul_cohomology(3).ranks
    (1, 3, 3, 1)
    """
    if not 0 <= d <= KOSZUL_DEGREE_GUARD:
        raise ValueError(f"degree {d} outside the guarded range")
    ranks = tuple(math.comb(d, i) for i in range(d + 1))
    bases = tuple(tuple(itertools.combinations(range(1, d + 1), i)) for i in range(d + 1))
    return GradedCohomology(ranks, bases)


def koszul_differentials(d: int, lam: Lambda, unit_weights) -> list[np.ndarray]:
    """The Koszul differentials for the action where generator j scales by u_j.

    d(e_S) = sum over j not in S of (-1)^{#{s in S : s < j}} (u_j - 1) e_{S + j}.
    Trivial weights give identically zero maps; the maps square to zero
    for any weights.  The subset bases, and the guard on d, are those of
    ``koszul_cohomology``.
    """
    bases = koszul_cohomology(d).bases
    units = list(unit_weights)
    if any(isinstance(u, bool) or not isinstance(u, numbers.Integral) for u in units):
        raise ValueError("unit weights must be integers")
    units = [int(u) % lam.modulus for u in units]
    if len(units) != d:
        raise ValueError(f"expected {d} unit weights")
    if any(u % lam.p == 0 for u in units):
        raise ValueError("weights must be units")
    out = []
    for i in range(d):
        src, dst = bases[i], bases[i + 1]
        index = {T: row for row, T in enumerate(dst)}
        mat = np.zeros((len(dst), len(src)), dtype=np.int64)
        for col, S in enumerate(src):
            for j in range(1, d + 1):
                if j in S:
                    continue
                sign = -1 if sum(1 for s in S if s < j) % 2 else 1
                T = tuple(sorted(S + (j,)))
                entry = sign * (units[j - 1] - 1) % lam.modulus
                if entry >= 2**63:
                    raise ValueError(f"Koszul entry {entry} over Z/{lam.modulus} does not fit int64")
                mat[index[T], col] = entry
        out.append(mat)
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


def cores_kunneth(d: int, a: int, lam: Lambda) -> list[np.ndarray]:
    """The corestriction on H^i(Z_p^d) at level p^a as dense int64 matrices:
    the scalar of ``hecke_gamma`` times the C(d, i) x C(d, i) identity."""
    scalars = hecke_gamma(d, a, lam)
    ranks = koszul_cohomology(d).ranks
    _check_int64(max(ranks), lam)
    return [c * np.eye(rank, dtype=np.int64) for c, rank in zip(scalars, ranks)]


# ---------------------------------------------------------------- projectors


def _matpow_mod(U: np.ndarray, n: int, mod: int) -> np.ndarray:
    out = np.eye(U.shape[0], dtype=np.int64) % mod
    base = U % mod
    while n:
        if n & 1:
            out = (out @ base) % mod
        base = (base @ base) % mod
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


def ordinary_limit(U: np.ndarray, lam: Lambda) -> tuple[np.ndarray, int]:
    """(e, N) with e = U^N the idempotent limit projector.

    Small factorial powers are tried first; an idempotent power is always
    the limit (it lies in the eventual cycle, whose only idempotent is
    its identity).  If no factorial up to 20! works, a closed-form
    exponent does.
    """
    mod = lam.modulus
    U = np.asarray(U)
    if U.ndim != 2 or U.shape[0] != U.shape[1]:
        raise ValueError("expected a square matrix")
    if U.dtype.kind not in "iu":
        raise ValueError(f"expected an integer matrix, got dtype {U.dtype}")
    _check_int64(U.shape[0], lam)
    U = (U % mod).astype(np.int64)
    a = U.copy()
    n = 1
    for k in range(1, 21):
        if k > 1:
            a = _matpow_mod(a, k, mod)
            n *= k
        if ((a @ a) % mod == a).all():
            return a, n
    n = _stable_exponent(U.shape[0], lam)
    e = _matpow_mod(U, n, mod)
    if ((e @ e) % mod != e).any():
        raise AssertionError("stable exponent failed to produce an idempotent")
    return e, n


def rank_mod_p(mat: np.ndarray, p: int) -> int:
    """Rank of the mod-p reduction, by the kernels' scalar Gauss-Jordan over F_p."""
    return rref_rows(np.asarray(mat, dtype=np.int64).tolist(), p)[1]


def ordinary_part_of_hecke_gamma(d: int, lam: Lambda, a: int = 2) -> tuple[int, ...]:
    """Mod-p ranks of the ordinary projectors of the Hecke operator,
    degree by degree: (0, ..., 0, 1).

    In degree i the operator is the scalar c of ``hecke_gamma`` on H^i, so
    its projector is e I for the projector e of the 1 x 1 matrix [c], and
    the rank is C(d, i) when e is a unit mod p, else 0.
    """
    scalars = hecke_gamma(d, a, lam)
    _check_int64(1, lam)  # before any scalar is held as an int64 [c]
    limits = [ordinary_limit(np.array([[c]], dtype=np.int64), lam)[0].item() for c in scalars]
    return tuple(rank if e % lam.p else 0 for e, rank in zip(limits, koszul_cohomology(d).ranks))
