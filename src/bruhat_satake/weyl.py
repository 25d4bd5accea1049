"""Weyl groups of GL_{2n} and Sp_{2n} as permutations of {1, ..., 2n}.

The type A group is the full symmetric group S_{2n}.  The type C group is
the hyperoctahedral group, realized here as the centralizer in S_{2n} of
the fixed-point-free involution ``iota`` exchanging i and i+n.  Both carry
the parabolic mark I = S - {s_n} (the "Siegel" mark), and in both cases
the double cosets W_I \\ W / W_I are represented by the involutions

    sigma_k = (1, n+1)(2, n+2) ... (k, n+k),    k = 0, ..., n,

with sigma_0 the identity.  The statistic ``tau`` reads off which double
coset an element lies in.

>>> w = from_cycles(type_a(2), [(1, 3), (2, 4)])
>>> tau(w)
2
>>> sigma(type_a(2), tau(w)) == w
True
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache
from operator import itemgetter
from types import MappingProxyType

WEYL_ORDER_GUARD = 10**6


class Family(Enum):
    """Ambient reductive group: GL_{2n} (type A) or Sp_{2n} (type C)."""

    TYPE_A = "A"
    TYPE_C = "C"


@dataclass(frozen=True)
class GroupKind:
    """A family and a rank n.  It keys every per-kind ``lru_cache``, so its
    hash is computed once, here, from ints alone (the same under every
    ``PYTHONHASHSEED``); its one-line identity is kept, once asked for,
    for ``WeylElement``'s bijection check."""

    family: Family
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be a positive integer")
        object.__setattr__(self, "_hash", hash((self.family is Family.TYPE_C, self.n)))

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _one_line(self) -> list[int]:
        """[1, ..., 2n], the sorted one-line form of every element."""
        return list(range(1, self.ambient + 1))

    @property
    def ambient(self) -> int:
        """Size of the permuted set, 2n."""
        return 2 * self.n


def type_a(n: int) -> GroupKind:
    return GroupKind(Family.TYPE_A, n)


def type_c(n: int) -> GroupKind:
    return GroupKind(Family.TYPE_C, n)


def iota(i: int, n: int) -> int:
    """The involution i <-> i+n on {1, ..., 2n}.

    >>> [iota(i, 2) for i in (1, 2, 3, 4)]
    [3, 4, 1, 2]
    """
    return i + n if i <= n else i - n


def compose(u: tuple[int, ...], v: tuple[int, ...]) -> tuple[int, ...]:
    """The one-line permutation i -> u(v(i)).

    u and v have length at least 2, as every W here permutes 2n >= 2
    points: ``itemgetter`` of a single index returns the entry, not a tuple.

    >>> compose((2, 1, 3), (1, 3, 2))
    (2, 3, 1)
    """
    return itemgetter(*v)((0,) + u)  # the padding makes v's entries 0-based indices


@dataclass(frozen=True)
class WeylElement:
    """A permutation of {1, ..., 2n} in one-line notation.

    ``perm[i-1]`` is the image of i.  Type C elements must commute with
    ``iota``; this is checked on construction.
    """

    kind: GroupKind
    perm: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.perm) != self.kind._one_line:
            raise ValueError(f"perm must be a bijection of {{1,...,{self.kind.ambient}}}")
        if self.kind.family is Family.TYPE_C:
            # w(iota(i)) = iota(w(i)) for i <= n gives it for i > n too, as iota is an involution
            n, perm = self.kind.n, self.perm
            if perm[n:] != tuple(iota(x, n) for x in perm[:n]):
                raise ValueError("type C element must centralize iota")

    def __call__(self, i: int) -> int:
        return self.perm[i - 1]

    def __mul__(self, other: "WeylElement") -> "WeylElement":
        # (u * v)(i) = u(v(i)), so v acts first.
        if self.kind is not other.kind and self.kind != other.kind:
            raise ValueError("cannot compose elements of different kinds")
        return WeylElement(self.kind, compose(self.perm, other.perm))

    def is_identity(self) -> bool:
        return all(self(i) == i for i in range(1, self.kind.ambient + 1))


def identity(kind: GroupKind) -> WeylElement:
    return WeylElement(kind, tuple(range(1, kind.ambient + 1)))


def from_cycles(kind: GroupKind, cycles) -> WeylElement:
    """Build an element from disjoint cycles of {1, ..., 2n}.

    >>> from_cycles(type_a(1), [(1, 2)]).perm
    (2, 1)
    """
    perm = list(range(1, kind.ambient + 1))
    for cycle in cycles:
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            perm[a - 1] = b
    return WeylElement(kind, tuple(perm))


def simple_reflections(kind: GroupKind) -> list[WeylElement]:
    """The simple reflections s_1, ..., s_{2n-1} (type A) or s_1, ..., s_n (type C).

    Type A: s_i = (i, i+1).  Type C: s_i = (i, i+1)(n+i, n+i+1) for i < n
    and s_n = (n, 2n).

    >>> [s.perm for s in simple_reflections(type_c(2))]
    [(2, 1, 4, 3), (1, 4, 3, 2)]
    """
    n = kind.n
    if kind.family is Family.TYPE_A:
        return [from_cycles(kind, [(i, i + 1)]) for i in range(1, 2 * n)]
    out = [from_cycles(kind, [(i, i + 1), (n + i, n + i + 1)]) for i in range(1, n)]
    out.append(from_cycles(kind, [(n, 2 * n)]))
    return out


def parabolic_mark(kind: GroupKind) -> list[WeylElement]:
    """Generators of W_I for the one fixed mark I = S - {s_n}."""
    refl = simple_reflections(kind)
    return refl[: kind.n - 1] + refl[kind.n :] if kind.family is Family.TYPE_A else refl[: kind.n - 1]


def order(kind: GroupKind) -> int:
    """|W|: (2n)! in type A, 2^n * n! in type C.

    >>> order(type_a(2)), order(type_c(2))
    (24, 8)
    """
    n = kind.n
    return math.factorial(2 * n) if kind.family is Family.TYPE_A else 2**n * math.factorial(n)


def check_order(kind: GroupKind) -> None:
    """Refuse, before any enumeration starts, a W larger than the guard.

    |W| >= 2^n in both types, so a large n is refused without computing |W|.

    >>> check_order(type_c(8))
    Traceback (most recent call last):
    ValueError: the order of the type C Weyl group with n = 8 exceeds the guard WEYL_ORDER_GUARD = 1000000
    """
    if kind.n >= WEYL_ORDER_GUARD.bit_length() or order(kind) > WEYL_ORDER_GUARD:
        raise ValueError(
            f"the order of the type {kind.family.value} Weyl group with n = {kind.n} exceeds the guard "
            f"WEYL_ORDER_GUARD = {WEYL_ORDER_GUARD}"
        )


def walk(start, images) -> dict:
    """Breadth-first walk from ``start``: ``{element: level}`` in discovery
    order, with ``start`` at level 0.

    ``images(frontier)`` yields, for each generator in turn, the images of the
    frontier's elements.  An element's level is the fewest generator steps
    from ``start``, so levels never decrease along the dict's order.

    >>> walk(0, lambda frontier: ([(x + 1) % 4 for x in frontier], [(x - 1) % 4 for x in frontier]))
    {0: 0, 1: 1, 3: 1, 2: 2}
    """
    levels = {start: 0}
    frontier = [start]
    while frontier:
        level = levels[frontier[0]] + 1
        fresh = []
        for moved in images(frontier):
            for image in moved:
                if image not in levels:
                    levels[image] = level
                    fresh.append(image)
        frontier = fresh
    return levels


def right_images(gens: list[tuple[int, ...]]):
    """The ``images`` of ``walk`` for right multiplication of one-line
    permutations by each of ``gens``: (w s)(i) = w(s(i)), one
    ``compose(w, s)`` per frontier element."""
    getters = [itemgetter(*[i - 1 for i in g]) for g in gens]
    return lambda frontier: (list(map(get, frontier)) for get in getters)


def two_sided_images(gens: list[tuple[int, ...]]):
    """The ``images`` of ``walk`` for multiplication by each of ``gens`` on
    both sides: w s, then s w, generator by generator."""
    right = right_images(gens)
    padded = [(0,) + g for g in gens]  # padded[i] = s(i), as in ``compose``

    def images(frontier):
        for moved, left in zip(right(frontier), padded):
            yield moved
            yield [itemgetter(*perm)(left) for perm in frontier]

    return images


@lru_cache(maxsize=None)
def length_table(kind: GroupKind) -> MappingProxyType:
    """``{perm: Coxeter length}`` for all of W in breadth-first order, so each w
    comes after every shorter w s: the one enumeration of W.  It is built once
    per kind (racing first calls install equal tables, safe under CPython) and
    shared read-only, as ``flagfq`` builds its Weyl lifts over it."""
    check_order(kind)
    gens = [s.perm for s in simple_reflections(kind)]
    return MappingProxyType(walk(identity(kind).perm, right_images(gens)))


def length(w: WeylElement) -> int:
    """Coxeter length, read off the Cayley graph of the simple reflections.

    >>> length(from_cycles(type_a(1), [(1, 2)]))
    1
    """
    return length_table(w.kind)[w.perm]


def all_elements(kind: GroupKind) -> list[WeylElement]:
    """Every element of W, ordered by (length, one-line notation)."""
    table = length_table(kind)
    return [WeylElement(kind, perm) for perm in sorted(table, key=lambda p: (table[p], p))]


@lru_cache(maxsize=None)
def longest_element(kind: GroupKind) -> WeylElement:
    """The unique element of maximal length.

    Uniqueness is asserted rather than assumed; for type A the result also
    agrees with the closed form i -> 2n+1-i.

    >>> longest_element(type_a(1)).perm
    (2, 1)
    """
    table = length_table(kind)
    top = max(table.values())
    winners = [perm for perm, ell in table.items() if ell == top]
    if len(winners) != 1:
        raise AssertionError("longest element is not unique, the kind data is corrupt")
    w0 = WeylElement(kind, winners[0])
    if not (w0 * w0).is_identity():
        raise AssertionError("longest element must be an involution")
    return w0


def tau(w: WeylElement) -> int:
    """Which double coset W_I w W_I the element lies in: n - |w({1..n}) cap {1..n}|.

    >>> tau(identity(type_c(3)))
    0
    """
    n = w.kind.n
    top = set(range(1, n + 1))
    return n - len(top & {w(i) for i in top})


def double_coset_size(w: WeylElement) -> int:
    """|W_I w W_I| = |W_I|^2 / |W_I cap w W_I w^-1|, with no element built.

    W_I is the stabilizer of T = {1..n} (and of its complement B) in W, so
    the intersection fixes the blocks that T and B cut out of w(T) and
    w(B): it is a product of factorials of their sizes, the four blocks
    T, B meet w(T), w(B) in type A, and in type C the two of T alone,
    since iota carries them onto the two of B.

    >>> [double_coset_size(sigma(type_a(2), k)) for k in range(3)]
    [4, 16, 4]
    """
    n = w.kind.n
    meet = len(set(w.perm[:n]) & set(range(1, n + 1)))  # |T cap w(T)|; |T cap w(B)| = n - meet
    copies = 2 if w.kind.family is Family.TYPE_A else 1  # W_I is S_n x S_n in type A, S_n in type C
    return math.factorial(n) ** (2 * copies) // (math.factorial(meet) * math.factorial(n - meet)) ** copies


def sigma(kind: GroupKind, k: int) -> WeylElement:
    """The double coset representative sigma_k = (1, n+1) ... (k, n+k)."""
    if not 0 <= k <= kind.n:
        raise ValueError("k must lie in 0..n")
    return from_cycles(kind, [(i, kind.n + i) for i in range(1, k + 1)])


def double_cosets(kind: GroupKind) -> list[WeylElement]:
    """Representatives [sigma_0, ..., sigma_n] of W_I \\ W / W_I, in tau order."""
    return [sigma(kind, k) for k in range(kind.n + 1)]


def double_coset_partition(kind: GroupKind) -> list[frozenset[tuple[int, ...]]]:
    """Exhaustive W_I w W_I orbit partition of W, by BFS on both sides.

    Independent of ``tau``; used to certify that the sigma_k really do
    exhaust the double cosets.
    """
    images = two_sided_images([s.perm for s in parabolic_mark(kind)])
    remaining = set(length_table(kind))
    blocks = []
    while remaining:
        block = frozenset(walk(min(remaining), images))
        blocks.append(block)
        remaining -= block
    return blocks


@dataclass(frozen=True)
class SubsetJ:
    """An n-element subset of {1, ..., 2n} indexing a complementary frame.

    Type A admits every n-subset.  Type C requires the lower part to
    determine the upper part: writing J_1 = J cap {1..n}, the admissible J
    are exactly those with J cap {n+1..2n} = {j : j - n not in J_1}.
    """

    kind: GroupKind
    members: frozenset[int]

    def __post_init__(self):
        n = self.kind.n
        if not self.members <= set(range(1, 2 * n + 1)):
            raise ValueError("members must lie in {1,...,2n}")
        if len(self.members) != n:
            raise ValueError("J must have exactly n members")
        if self.kind.family is Family.TYPE_C:
            lower = {j for j in self.members if j <= n}
            expected_upper = {j for j in range(n + 1, 2 * n + 1) if j - n not in lower}
            if {j for j in self.members if j > n} != expected_upper:
                raise ValueError("type C subset must pair off with its lower part")

    @property
    def lower(self) -> frozenset[int]:
        return frozenset(j for j in self.members if j <= self.kind.n)


def all_subsets_j(kind: GroupKind) -> list[SubsetJ]:
    """Every admissible J, ordered by sorted member tuple.

    Type A has C(2n, n) of them, type C has 2^n.
    """
    n = kind.n
    if kind.family is Family.TYPE_A:
        pool = [frozenset(c) for c in itertools.combinations(range(1, 2 * n + 1), n)]
    else:
        pool = []
        for lower in itertools.chain.from_iterable(
            itertools.combinations(range(1, n + 1), k) for k in range(n + 1)
        ):
            upper = [j for j in range(n + 1, 2 * n + 1) if j - n not in lower]
            pool.append(frozenset(lower) | frozenset(upper))
    return [SubsetJ(kind, members) for members in sorted(pool, key=sorted)]

