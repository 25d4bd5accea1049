"""Root systems for GL_{2n} and Sp_{2n}, and cell dimensions by root counting.

Roots are symbolic tokens.  Type A has the characters chi_{i,j} = t_i/t_j
on the diagonal torus of GL_{2n}.  Type C, with the symplectic form pairing
coordinate i against n+i, has short roots chi_{i,j} (i != j <= n) and long
or paired roots psi_{i,j}^{+-1} (i <= j <= n), where psi_{i,j} = e_i + e_j.

Everything downstream is set arithmetic: the parabolic mark I = S - {s_n}
splits the roots into the Levi block Phi_I and the two unipotent radicals
N_I and Nbar_I, and dimensions of Schubert-type cells are cardinalities of
explicit differences and intersections of Weyl translates.  Two dimension
orientations appear side by side: ``cell_dim_by_roots(w)`` counts the cell
of the coset of w * w_0 (equivalently, the opposite-parabolic orbit at w),
while ``schubert_cell_dim(w)`` counts the P_I-orbit cell of w itself.  The
translation between them is w -> w * w_0, kept explicit so either
convention can be read off directly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .weyl import (
    Family,
    GroupKind,
    SubsetJ,
    WeylElement,
    longest_element,
    w_j,
)


@dataclass(frozen=True, order=True)
class Root:
    """One root, in a canonical shape tuple.

    shape = ("chi", i, j, sign) with i < j, standing for sign * (e_i - e_j),
    or ("psi", i, j, sign) with i <= j <= n (type C only), standing for
    sign * (e_i + e_j).
    """

    kind: GroupKind
    shape: tuple

    def __post_init__(self):
        label, i, j, sign = self.shape
        n = self.kind.n
        if sign not in (1, -1):
            raise ValueError("sign must be +-1")
        if label == "chi":
            hi = 2 * n if self.kind.family is Family.TYPE_A else n
            if not 1 <= i < j <= hi:
                raise ValueError("chi indices out of range")
        elif label == "psi":
            if self.kind.family is not Family.TYPE_C:
                raise ValueError("psi roots exist only in type C")
            if not 1 <= i <= j <= n:
                raise ValueError("psi indices out of range")
        else:
            raise ValueError(f"unknown root label {label!r}")

    @property
    def is_positive(self) -> bool:
        return self.shape[3] == 1

    def __neg__(self) -> "Root":
        label, i, j, sign = self.shape
        return Root(self.kind, (label, i, j, -sign))


def _pair_of_root(r: Root) -> tuple[int, int]:
    """A concrete ordered pair (a, b) in {1..2n}^2 realizing the root.

    Type A: chi_{a,b} itself.  Type C: e_a - e_b under the convention that
    coordinate n+i carries -e_i, so psi_{i,j} = e_i - e_{n+j}.
    """
    label, i, j, sign = r.shape
    n = r.kind.n
    if r.kind.family is Family.TYPE_A:
        return (i, j) if sign == 1 else (j, i)
    if label == "chi":
        return (i, j) if sign == 1 else (j, i)
    return (i, n + j) if sign == 1 else (n + i, j)


def _root_of_pair(kind: GroupKind, a: int, b: int) -> Root:
    """Inverse of ``_pair_of_root``, canonicalizing as needed."""
    if kind.family is Family.TYPE_A:
        shape = ("chi", a, b, 1) if a < b else ("chi", b, a, -1)
        return Root(kind, shape)
    n = kind.n
    sa, ia = (1, a) if a <= n else (-1, a - n)
    sb, jb = (1, b) if b <= n else (-1, b - n)
    # the pair stands for sa*e_ia - sb*e_jb
    if ia == jb:
        # a != b forces sa = -sb, leaving +-2 e_ia
        return Root(kind, ("psi", ia, ia, sa))
    if sa == 1 and sb == 1:
        shape = ("chi", ia, jb, 1) if ia < jb else ("chi", jb, ia, -1)
    elif sa == 1 and sb == -1:
        shape = ("psi", min(ia, jb), max(ia, jb), 1)
    elif sa == -1 and sb == 1:
        shape = ("psi", min(ia, jb), max(ia, jb), -1)
    else:
        shape = ("chi", jb, ia, 1) if jb < ia else ("chi", ia, jb, -1)
    return Root(kind, shape)


def weyl_action(w: WeylElement, r: Root) -> Root:
    """w . chi_{i,j} = chi_{w(i),w(j)}, transported through the pair encoding.

    Well defined in type C because w commutes with the pairing involution.
    """
    a, b = _pair_of_root(r)
    return _root_of_pair(r.kind, w(a), w(b))


@lru_cache(maxsize=None)
def all_roots(kind: GroupKind) -> frozenset[Root]:
    """The full root set: 2n(2n-1) roots in type A, 2n^2 in type C."""
    n = kind.n
    out = []
    if kind.family is Family.TYPE_A:
        for i, j in itertools.combinations(range(1, 2 * n + 1), 2):
            out.append(Root(kind, ("chi", i, j, 1)))
            out.append(Root(kind, ("chi", i, j, -1)))
    else:
        for i, j in itertools.combinations(range(1, n + 1), 2):
            out.append(Root(kind, ("chi", i, j, 1)))
            out.append(Root(kind, ("chi", i, j, -1)))
        for i, j in itertools.combinations_with_replacement(range(1, n + 1), 2):
            out.append(Root(kind, ("psi", i, j, 1)))
            out.append(Root(kind, ("psi", i, j, -1)))
    return frozenset(out)


@lru_cache(maxsize=None)
def positive_roots(kind: GroupKind) -> frozenset[Root]:
    return frozenset(r for r in all_roots(kind) if r.is_positive)


@lru_cache(maxsize=None)
def negative_roots(kind: GroupKind) -> frozenset[Root]:
    return all_roots(kind) - positive_roots(kind)


@dataclass(frozen=True)
class ParabolicRootData:
    """The three-way split of the roots cut out by the mark I = S - {s_n}."""

    phi_i: frozenset[Root]
    n_i: frozenset[Root]
    nbar_i: frozenset[Root]


@lru_cache(maxsize=None)
def parabolic_data(kind: GroupKind) -> ParabolicRootData:
    """Levi roots and the two radicals.

    Type A: Phi_I is the chi_{i,j} with i, j on the same side of n, and
    |N_I| = n^2.  Type C: Phi_I is all the chi roots and |N_I| = n(n+1)/2.
    """
    n = kind.n
    if kind.family is Family.TYPE_A:
        def in_levi(r):
            _, i, j, _ = r.shape
            return j <= n or i > n
    else:
        def in_levi(r):
            return r.shape[0] == "chi"
    phi_i = frozenset(r for r in all_roots(kind) if in_levi(r))
    n_i = positive_roots(kind) - phi_i
    nbar_i = negative_roots(kind) - phi_i
    return ParabolicRootData(phi_i, n_i, nbar_i)


def place_dimension(kind: GroupKind) -> int:
    """dim N_I: n^2 in type A, n(n+1)/2 in type C."""
    n = kind.n
    return n * n if kind.family is Family.TYPE_A else n * (n + 1) // 2


def cell_dim_formula(kind: GroupKind, t: int) -> int:
    """Closed form for the dimension of the cell with tau = t."""
    n = kind.n
    return t * (2 * n - t) if kind.family is Family.TYPE_A else t * (2 * n - t + 1) // 2


@lru_cache(maxsize=None)
def _pair_tables(kind: GroupKind):
    """Pair encodings of the recurring root sets, for tight counting loops.

    Transporting a pair (a, b) under w is (w(a), w(b)); packing pairs as
    a * stride + b makes the membership tests integer set lookups.  The
    full-element sweeps over S_8 stay inside their time budget this way
    where the Root-object route does not.
    """
    data = parabolic_data(kind)
    stride = 2 * kind.n + 1

    def pairs(roots):
        return tuple(sorted(_pair_of_root(r) for r in roots))

    def codes(roots):
        # every pair representation, not just the canonical one: in type C
        # a short root is hit by two ordered pairs
        out = set()
        for a in range(1, 2 * kind.n + 1):
            for b in range(1, 2 * kind.n + 1):
                if a != b and _root_of_pair(kind, a, b) in roots:
                    out.add(a * stride + b)
        return frozenset(out)

    lower = negative_roots(kind) | data.phi_i
    upper = positive_roots(kind) | data.phi_i
    return {
        "stride": stride,
        "lower_pairs": pairs(lower),
        "upper_pairs": pairs(upper),
        "upper_codes": codes(upper),
        "n_codes": codes(data.n_i),
        "nbar_codes": codes(data.nbar_i),
    }


def cell_dim_by_roots(w: WeylElement) -> int:
    """#( (Phi+ cup Phi_I) minus w(Phi- cup Phi_I) ).

    This is the dimension of the cell P_I (w w_0) P_I / P_I; the w -> w w_0
    translation is deliberate so that the count at w = w_J matches the rank
    of the corresponding frame pairing (see ``n0j_rank``).
    """
    tables = _pair_tables(w.kind)
    stride, codes = tables["stride"], tables["upper_codes"]
    p = (0,) + w.perm
    hits = sum(1 for a, b in tables["lower_pairs"] if p[a] * stride + p[b] in codes)
    return len(tables["upper_pairs"]) - hits


def schubert_cell_dim(w: WeylElement) -> int:
    """Dimension of the cell P_I w P_I / P_I; equals cell_dim_by_roots(w * w_0)."""
    return cell_dim_by_roots(w * longest_element(w.kind))


def unipotent_intersection_dim(w: WeylElement) -> int:
    """#( w(Phi- cup Phi_I) cap (Phi- minus Phi_I) ) = dim(w Pbar_I w^{-1} cap Nbar_I).

    Pointwise equal to ``cell_dim_by_roots``; the equality is the content
    of the stratum dimension count and is exercised by the test suite on
    every element for small n.
    """
    tables = _pair_tables(w.kind)
    stride, codes = tables["stride"], tables["nbar_codes"]
    p = (0,) + w.perm
    return sum(1 for a, b in tables["lower_pairs"] if p[a] * stride + p[b] in codes)


def standard_unipotent_intersection_dim(w: WeylElement) -> int:
    """#( w(Phi+ cup Phi_I) cap (Phi+ minus Phi_I) ) = dim(w P_I w^{-1} cap N_I).

    The mirror of ``unipotent_intersection_dim`` under negating all roots;
    equals the dimension of the cell of w * w_0 as well.
    """
    tables = _pair_tables(w.kind)
    stride, codes = tables["stride"], tables["n_codes"]
    p = (0,) + w.perm
    return sum(1 for a, b in tables["upper_pairs"] if p[a] * stride + p[b] in codes)


def n0j_rank(J: SubsetJ) -> int:
    """#( roots(N_I) cap w_J(roots(P_I)) ), the rank of the J-frame pairing.

    With J = {1..n} (so w_J = 1) this is all of N_I, i.e. full rank
    ``place_dimension``; in general it equals the cell dimension of the
    double coset of w_J * w_0, i.e. ``schubert_cell_dim(w_J * w_0)``.
    The roots of P_I are Phi+ cup Phi_I, so this is the pair-code count
    ``standard_unipotent_intersection_dim(w_J)``.
    """
    return standard_unipotent_intersection_dim(w_j(J))


def n0j_corank(J: SubsetJ) -> int:
    """place_dimension - n0j_rank, the defect of the J-frame pairing."""
    return place_dimension(J.kind) - n0j_rank(J)
