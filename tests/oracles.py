"""Oracles and helpers that only the tests use.

Each is a direct construction that the tests compare with the library's own
path to the same object: Weyl group inverses and the parabolic subgroup W_I
by a walk, the frame involutions w_J, the Weyl action on roots, block matrix
inverses and transposes built through the checking constructor, and the
group action and isotropy of flag points over F_q.
"""

import itertools

import numpy as np

from bruhat_satake import padic, roots, weyl
from bruhat_satake.flagfq import Rows, _pairing, subspace_from_rows

# ---------------------------------------------------------------------- weyl


def weyl_inverse(w: weyl.WeylElement) -> weyl.WeylElement:
    inv = [0] * w.kind.ambient
    for i, j in enumerate(w.perm, start=1):
        inv[j - 1] = i
    return weyl.WeylElement(w.kind, tuple(inv))


def parabolic_elements(kind: weyl.GroupKind) -> list[weyl.WeylElement]:
    """Every element of W_I, by a walk over the generators of the mark, sorted."""
    weyl.check_order(kind)
    gens = [s.perm for s in weyl.parabolic_mark(kind)]
    perms = weyl.walk(weyl.identity(kind).perm, weyl.right_images(gens))
    return [weyl.WeylElement(kind, perm) for perm in sorted(perms)]


def w_j(J: weyl.SubsetJ) -> weyl.WeylElement:
    """The involution sending {1, ..., n} onto J.

    Members of J below n stay put; the rest of {1..n} is swapped, in
    order, with the members of J above n; everything else is fixed.
    """
    n = J.kind.n
    moving = [i for i in range(1, n + 1) if i not in J.lower]
    targets = sorted(j for j in J.members if j > n)
    perm = list(range(1, 2 * n + 1))
    for a, b in zip(moving, targets):
        perm[a - 1], perm[b - 1] = b, a
    return weyl.WeylElement(J.kind, tuple(perm))


# --------------------------------------------------------------------- roots


def weyl_action(w: weyl.WeylElement, r: roots.Pair) -> roots.Pair:
    """w . (a, b) = (w(a), w(b)), canonicalized; in type C w commutes with iota."""
    a, b = r
    return roots.root(w.kind, w(a), w(b))


# --------------------------------------------------------------------- padic


def block_transpose(g: padic.BlockMatrix) -> padic.BlockMatrix:
    return padic.BlockMatrix(g.kind, g.p, padic._transpose(g.num), g.den)


def block_inverse(g: padic.BlockMatrix) -> padic.BlockMatrix:
    # the constructor proved g nonsingular, so the solve cannot fail
    det, solved = padic._bareiss_solve(g.num, padic._scalar(len(g.num), 1))
    assert solved is not None, "a group element has no inverse"
    return padic.BlockMatrix(g.kind, g.p, padic._scaled(solved, g.den), det)


# -------------------------------------------------------------------- flagfq


def act(g, U: Rows, q: int) -> Rows:
    """g . U, i.e. the row span of U g^T, for a group matrix g over F_q."""
    return subspace_from_rows(((np.array(U, dtype=np.int64) @ g.T) % q).tolist(), q)


def is_isotropic(U: Rows, n: int, q: int) -> bool:
    """Every pair of rows u, v pairs to zero mod q under the symplectic pairing.

    A row always pairs to zero with itself, so only pairs i < j are tested.
    """
    return not any(_pairing(u, v, n) % q for u, v in itertools.combinations(U, 2))
