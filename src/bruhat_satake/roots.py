"""Root systems for GL_{2n} and Sp_{2n}, and cell dimensions by root counting.

A root is an ordered pair (a, b) of distinct indices in {1, ..., 2n},
standing for e_a - e_b.  In type A these are the 2n(2n-1) roots of the
diagonal torus of GL_{2n}.  In type C, with the symplectic form pairing
coordinate i against n+i, coordinate n+i carries -e_i, so (a, b) and
(iota(b), iota(a)) name the same root; ``root`` keeps the smaller pair,
and the 2n^2 canonical pairs are the roots +-e_i +- e_j and +-2e_i.

Positivity and the parabolic split are predicates on the pair.  A root is
positive when h(a) < h(b), where h is the identity in type A and, in type
C, h(i) = i and h(n+i) = 2n+1-i.  The parabolic mark I = S - {s_n} splits
the roots into the Levi roots Phi_I (a and b on the same side of n) and
the two unipotent radicals N_I (a <= n < b) and Nbar_I (b <= n < a).  All
four predicates take the same value on both pairs of a type C root.

Cell dimensions count differences and intersections of Weyl translates,
w acting by (a, b) -> (w(a), w(b)).  ``cell_dim_by_roots(w)`` counts the
cell of w * w_0 (the opposite-parabolic orbit at w), ``schubert_cell_dim(w)``
the P_I-orbit cell of w itself; the translation w -> w * w_0 is explicit.
"""

from __future__ import annotations

import itertools
from functools import lru_cache, partial

from .weyl import Family, GroupKind, WeylElement, iota, longest_element

Pair = tuple[int, int]


def root(kind: GroupKind, a: int, b: int) -> Pair:
    """The canonical pair of the root e_a - e_b.

    In type C the pairs (a, b) and (iota(b), iota(a)) name the same root,
    and the smaller of the two is canonical:

    >>> from bruhat_satake.weyl import type_a, type_c
    >>> root(type_c(2), 3, 4)  # -e_1 - (-e_2) = e_2 - e_1
    (2, 1)
    >>> root(type_c(2), 1, 4) == root(type_c(2), 2, 3)  # e_1 + e_2
    True
    >>> root(type_a(2), 3, 4)
    (3, 4)
    """
    m = kind.ambient
    if a == b or not (1 <= a <= m and 1 <= b <= m):
        raise ValueError(f"a root needs two distinct indices in 1..{m}, got ({a}, {b})")
    if kind.family is Family.TYPE_A:
        return (a, b)
    return min((a, b), (iota(b, kind.n), iota(a, kind.n)))


def is_positive(kind: GroupKind, r: Pair) -> bool:
    """h(a) < h(b) for the order h that makes the Borel upper triangular."""
    n = kind.n
    a, b = (x if kind.family is Family.TYPE_A or x <= n else 3 * n + 1 - x for x in r)
    return a < b


def in_phi_i(kind: GroupKind, r: Pair) -> bool:
    """r is a Levi root: both indices on the same side of n."""
    a, b = r
    return (a <= kind.n) == (b <= kind.n)


def in_n_i(kind: GroupKind, r: Pair) -> bool:
    a, b = r
    return a <= kind.n < b


def in_nbar_i(kind: GroupKind, r: Pair) -> bool:
    a, b = r
    return b <= kind.n < a


@lru_cache(maxsize=None)
def all_roots(kind: GroupKind) -> frozenset[Pair]:
    """The canonical pairs: 2n(2n-1) roots in type A, 2n^2 in type C."""
    return frozenset(root(kind, a, b) for a, b in itertools.permutations(range(1, kind.ambient + 1), 2))


def cell_dim_formula(kind: GroupKind, t: int) -> int:
    """Closed form for the dimension of the cell with tau = t; at t = n it is
    dim N_I, n^2 in type A and n(n+1)/2 in type C."""
    n = kind.n
    return t * (2 * n - t) if kind.family is Family.TYPE_A else t * (2 * n - t + 1) // 2


@lru_cache(maxsize=None)
def _pair_tables(kind: GroupKind):
    """The recurring root sets, coded for tight counting loops.

    An image (w(a), w(b)) of an ordered pair is coded x * (2n+1) + y, so it
    is looked up without canonicalizing it.  ``*_pairs`` hold the canonical
    pairs (a, b) of a set as the 0-based indices (a - 1, b - 1) into a
    one-line permutation, the a's and the b's apart; ``*_hits`` mark the
    codes of every ordered pair in a set.  While every code fits a byte
    (2n+1 <= 16, so n <= 7; ``byte_width`` is then 2n+1) both are byte
    strings, the hits a 256-byte ``bytes.translate`` table.  Past that
    (``byte_width`` None) they are index tuples and a (2n+1) x (2n+1) 0/1
    matrix, row and column 0 padding.
    """
    width = kind.ambient + 1
    narrow = width * width <= 256

    def upper(r):  # Phi+ cup Phi_I, the roots of P_I
        return is_positive(kind, r) or in_phi_i(kind, r)

    def lower(r):  # Phi- cup Phi_I, the roots of Pbar_I
        return not is_positive(kind, r) or in_phi_i(kind, r)

    def pairs(pred):
        chosen = sorted(filter(pred, all_roots(kind)))
        xs, ys = tuple(a - 1 for a, _ in chosen), tuple(b - 1 for _, b in chosen)
        return (bytes(xs), bytes(ys)) if narrow else (xs, ys)

    def hits(pred):
        table = [[int(a != b and 0 not in (a, b) and pred((a, b))) for b in range(width)] for a in range(width)]
        return bytes(sum(table, [])).ljust(256, b"\0") if narrow else tuple(map(tuple, table))

    upper_pairs = pairs(upper)
    return {
        "byte_width": width if narrow else None,
        "upper_size": len(upper_pairs[0]),
        "lower_pairs": pairs(lower),
        "upper_pairs": upper_pairs,
        "upper_hits": hits(upper),
        "n_hits": hits(partial(in_n_i, kind)),
        "nbar_hits": hits(partial(in_nbar_i, kind)),
    }


def _moved_into(tables: dict, perm: tuple[int, ...], pairs: str, hits: str) -> int:
    """How many roots of the table ``pairs`` the one-line permutation
    ``perm`` moves into the table ``hits``, for ``tables = _pair_tables(kind)``.

    Byte-coded kinds count in C-level byte operations: the x's and the y's
    of the images are the pair tables translated through ``perm``; read as
    two integers, x * (2n+1) + y is one product and one sum with no carry
    between bytes, as every code is below 256; then a translate through the
    hit table makes each code 0 or 1.  Wider kinds count pair by pair.
    """
    xs, ys = tables[pairs]
    hit, width = tables[hits], tables["byte_width"]
    if width is None:
        return sum([hit[perm[a]][perm[b]] for a, b in zip(xs, ys)])
    image = bytes(perm).ljust(256, b"\0")
    codes = int.from_bytes(xs.translate(image), "big") * width + int.from_bytes(ys.translate(image), "big")
    return codes.to_bytes(len(xs), "big").translate(hit).count(1)


def cell_dim_by_roots(w: WeylElement) -> int:
    """#( (Phi+ cup Phi_I) minus w(Phi- cup Phi_I) ).

    This is the dimension of the cell P_I (w w_0) P_I / P_I; the w -> w w_0
    translation is deliberate so that the count at the involution w_J
    sending {1..n} onto a frame J is the rank of the J-frame pairing,
    #( roots(N_I) cap w_J(roots(P_I)) ) = ``standard_unipotent_intersection_dim(w_J)``.
    """
    tables = _pair_tables(w.kind)
    return tables["upper_size"] - _moved_into(tables, w.perm, "lower_pairs", "upper_hits")


def schubert_cell_dim(w: WeylElement) -> int:
    """Dimension of the cell P_I w P_I / P_I; equals cell_dim_by_roots(w * w_0)."""
    return cell_dim_by_roots(w * longest_element(w.kind))


def unipotent_intersection_dim(w: WeylElement) -> int:
    """#( w(Phi- cup Phi_I) cap (Phi- minus Phi_I) ) = dim(w Pbar_I w^{-1} cap Nbar_I).

    Pointwise equal to ``cell_dim_by_roots``: the stratum dimension count.
    """
    return _moved_into(_pair_tables(w.kind), w.perm, "lower_pairs", "nbar_hits")


def standard_unipotent_intersection_dim(w: WeylElement) -> int:
    """#( w(Phi+ cup Phi_I) cap (Phi+ minus Phi_I) ) = dim(w P_I w^{-1} cap N_I).

    The mirror of ``unipotent_intersection_dim`` under negating all roots;
    equals the dimension of the cell of w * w_0 as well.
    """
    return _moved_into(_pair_tables(w.kind), w.perm, "upper_pairs", "n_hits")

