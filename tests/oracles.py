"""Oracles and helpers that only the tests use.

Each is a direct construction that the tests compare with the library's own
path to the same object: Weyl group inverses, the length table by a
breadth-first walk over W, the parabolic subgroup W_I by a walk and the
double cosets by a two-sided walk, the frame involutions w_J, the Weyl
action on roots, block matrix inverses and transposes built through the
checking constructor, and the group action and isotropy of flag points
over F_q.
"""

import itertools
from operator import itemgetter

import numpy as np

from bruhat_satake import kernels, padic, roots, weyl
from bruhat_satake.flagfq import _pairing, subspace_from_rows
from bruhat_satake.kernels import Rows

# ---------------------------------------------------------------------- weyl


def weyl_inverse(w: weyl.WeylElement) -> weyl.WeylElement:
    inv = [0] * w.kind.ambient
    for i, j in enumerate(w.perm, start=1):
        inv[j - 1] = i
    return weyl.WeylElement(w.kind, tuple(inv))


def right_images(gens: list[tuple[int, ...]]):
    """The ``images`` of ``weyl.walk`` for right multiplication of one-line
    permutations by each of ``gens``: (w s)(i) = w(s(i)), one
    ``weyl.compose(w, s)`` per frontier element."""
    getters = [itemgetter(*[i - 1 for i in g]) for g in gens]
    return lambda frontier: (list(map(get, frontier)) for get in getters)


def length_table(kind: weyl.GroupKind) -> dict[tuple[int, ...], int]:
    """``{perm: Coxeter length}`` for all of W by a breadth-first walk over
    the Cayley graph of the simple reflections, in discovery order."""
    weyl.check_order(kind)
    gens = [s.perm for s in weyl.simple_reflections(kind)]
    return weyl.walk(weyl.identity(kind).perm, right_images(gens))


def parabolic_elements(kind: weyl.GroupKind) -> list[weyl.WeylElement]:
    """Every element of W_I, by a walk over the generators of the mark, sorted."""
    weyl.check_order(kind)
    gens = [s.perm for s in weyl.parabolic_mark(kind)]
    perms = weyl.walk(weyl.identity(kind).perm, right_images(gens))
    return [weyl.WeylElement(kind, perm) for perm in sorted(perms)]


def two_sided_images(gens: list[tuple[int, ...]]):
    """The ``images`` of ``weyl.walk`` for multiplication by each of ``gens``
    on both sides: w s, then s w, generator by generator."""
    right = right_images(gens)
    padded = [(0,) + g for g in gens]  # padded[i] = s(i), as in ``weyl.compose``

    def images(frontier):
        for moved, left in zip(right(frontier), padded):
            yield moved
            yield [itemgetter(*perm)(left) for perm in frontier]

    return images


def double_coset_partition(kind: weyl.GroupKind) -> list[frozenset[tuple[int, ...]]]:
    """The W_I w W_I orbits of W by a two-sided walk from the least perm not
    yet reached, so the blocks come sorted by their least perm."""
    images = two_sided_images([s.perm for s in weyl.parabolic_mark(kind)])
    remaining = set(weyl.length_table(kind))
    blocks = []
    while remaining:
        block = frozenset(weyl.walk(min(remaining), images))
        blocks.append(block)
        remaining -= block
    return blocks


def w_j(kind: weyl.GroupKind, J: frozenset[int]) -> weyl.WeylElement:
    """The involution sending {1, ..., n} onto the frame J.

    Members of J below n stay put; the rest of {1..n} is swapped, in
    order, with the members of J above n; everything else is fixed.
    """
    n = kind.n
    moving = [i for i in range(1, n + 1) if i not in J]
    targets = sorted(j for j in J if j > n)
    perm = list(range(1, 2 * n + 1))
    for a, b in zip(moving, targets):
        perm[a - 1], perm[b - 1] = b, a
    return weyl.WeylElement(kind, tuple(perm))


# --------------------------------------------------------------------- roots


def weyl_action(w: weyl.WeylElement, r: roots.Pair) -> roots.Pair:
    """w . (a, b) = (w(a), w(b)), canonicalized; in type C w commutes with iota."""
    a, b = r
    return roots.root(w.kind, w(a), w(b))


# --------------------------------------------------------------------- padic


def block_transpose(g: padic.BlockMatrix) -> padic.BlockMatrix:
    return padic.BlockMatrix(g.kind, g.p, kernels._transpose(g.num), g.den)


def block_inverse(g: padic.BlockMatrix) -> padic.BlockMatrix:
    # the constructor proved g nonsingular, so the solve cannot fail
    det, solved = padic._bareiss_solve(g.num, kernels._scalar(len(g.num), 1))
    assert solved is not None, "a group element has no inverse"
    return padic.BlockMatrix(g.kind, g.p, padic._scaled(solved, g.den), det)


# -------------------------------------------------------------------- flagfq


def act(g, U: Rows, q: int) -> Rows:
    """g . U, i.e. the row span of U g^T, for a group matrix g over F_q
    given as rows or as an array."""
    return subspace_from_rows(((np.array(U, dtype=np.int64) @ np.array(g, dtype=np.int64).T) % q).tolist(), q)


def is_isotropic(U: Rows, n: int, q: int) -> bool:
    """Every pair of rows u, v pairs to zero mod q under the symplectic pairing.

    A row always pairs to zero with itself, so only pairs i < j are tested.
    """
    return not any(_pairing(u, v, n) % q for u, v in itertools.combinations(U, 2))
