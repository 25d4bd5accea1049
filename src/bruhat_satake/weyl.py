"""Weyl groups of GL_{2n} and Sp_{2n} as permutations of {1, ..., 2n}.

The type A group is the full symmetric group S_{2n}.  The type C group is
the hyperoctahedral group, realized here as the centralizer in S_{2n} of
the fixed-point-free involution ``iota`` exchanging i and i+n.  Both carry
the parabolic mark I = S - {s_n} (the "Siegel" mark), and in both cases
the double cosets W_I \\ W / W_I are represented by the involutions

    sigma_k = (1, n+1)(2, n+2) ... (k, n+k),    k = 0, ..., n,

with sigma_0 the identity.  The statistic ``tau`` reads off which double
coset an element lies in.  A coordinate frame J is the frozenset of its n
members in {1, ..., 2n}, as listed by ``all_subsets_j``.

>>> w = from_cycles(type_a(2), [(1, 3), (2, 4)])
>>> tau(w)
2
>>> sigma(type_a(2), tau(w)) == w
True
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
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
    ``PYTHONHASHSEED``), as is the type C test that each ``WeylElement``
    reads; its one-line identity is kept, once asked for, for the same."""

    family: Family
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be a positive integer")
        object.__setattr__(self, "_type_c", self.family is Family.TYPE_C)
        object.__setattr__(self, "_hash", hash((self._type_c, self.n)))

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
        if self.kind._type_c:
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
    """Generators of W_I for the one fixed mark I = S - {s_n}, the last simple reflection in type C."""
    refl = simple_reflections(kind)
    return refl[: kind.n - 1] + refl[kind.n :]


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


def _factor_words(kind: GroupKind) -> list[list[int]]:
    """The reduced words, as 0-based indices into ``simple_reflections``,
    whose prefixes are the minimal coset representatives D^J of each step of
    ``length_table``: s_i s_{i-1} ... s_1 adds s_i to <s_1..s_{i-1}> for
    i = 1..2n-1 (type A); s_i ... s_{n-1} s_n s_{n-1} ... s_i adds s_i to
    <s_{i+1}..s_n> for i = n..1 (type C).

    >>> _factor_words(type_c(2))
    [[1], [0, 1, 0]]
    """
    n = kind.n
    if kind.family is Family.TYPE_A:
        return [list(range(i, -1, -1)) for i in range(2 * n - 1)]
    return [[*range(i, n), *range(n - 2, i - 1, -1)] for i in reversed(range(n))]


def _products_by_length(levels: list[list[tuple[int, ...]]], prefixes: list[tuple[int, ...]]):
    """For each length L in increasing order, L and the perms u d with u in
    ``levels[l(u)]``, d = ``prefixes[l(d)]`` and l(u) + l(d) = L, each built
    once by an ``itemgetter`` (the identity prefix keeps u itself)."""
    getters = [None] + [itemgetter(*[i - 1 for i in d]) for d in prefixes[1:]]
    for total in range(len(levels) + len(prefixes) - 1):
        yield total, itertools.chain.from_iterable(
            map(get, levels[total - ell]) if get else levels[total - ell]
            for ell, get in enumerate(getters)
            if 0 <= total - ell < len(levels)
        )


@lru_cache(maxsize=None)
def length_table(kind: GroupKind) -> MappingProxyType:
    """``{perm: Coxeter length}`` for all of W, in order of length with the
    identity first, so each w comes after every shorter w s: the one
    enumeration of W.

    W grows one simple reflection s at a time by the parabolic factorization
    W_{J+s} = W_J D^J with l(u d) = l(u) + l(d) for u in W_J and d in D^J
    (Björner–Brenti, Prop. 2.4.4), D^J being the prefixes of one reduced word
    (``_factor_words``); so every element is built once, with no dedupe, and
    the last step writes its products straight into the table, length by
    length.  The table is built once per kind (racing first calls install
    equal tables, safe under CPython) and shared read-only, as ``flagfq``
    builds its Weyl lifts over it.

    >>> list(Counter(length_table(type_c(2)).values()).values())
    [1, 2, 2, 2, 1]
    >>> list(Counter(length_table(type_a(2)).values()).values())
    [1, 3, 5, 6, 5, 3, 1]
    """
    check_order(kind)
    gens = [s.perm for s in simple_reflections(kind)]
    e = identity(kind).perm
    prefixes = lambda word: list(itertools.accumulate([gens[j] for j in word], compose, initial=e))
    *steps, last = _factor_words(kind)
    levels = [[e]]  # W_J by length, J empty
    for word in steps:
        levels = [list(perms) for _, perms in _products_by_length(levels, prefixes(word))]
    table = {}
    for ell, perms in _products_by_length(levels, prefixes(last)):
        table.update(zip(perms, itertools.repeat(ell)))
    return MappingProxyType(table)


def length(w: WeylElement) -> int:
    """Coxeter length, read off ``length_table``.

    >>> length(from_cycles(type_a(1), [(1, 2)]))
    1
    """
    return length_table(w.kind)[w.perm]


@lru_cache(maxsize=None)
def _sorted_perms(kind: GroupKind) -> tuple[tuple[int, ...], ...]:
    """The perms of ``length_table`` sorted by (length, perm): each length's
    run of the table, which is in order of length, sorted on its own."""
    table = length_table(kind)
    perms, sizes = iter(table), Counter(table.values()).values()
    return tuple(itertools.chain.from_iterable(sorted(itertools.islice(perms, size)) for size in sizes))


def all_elements(kind: GroupKind) -> list[WeylElement]:
    """Every element of W, ordered by (length, one-line notation), which is
    sorted once per kind; each call builds a fresh list of fresh elements."""
    return [WeylElement(kind, perm) for perm in _sorted_perms(kind)]


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
    """Exhaustive W_I w W_I orbit partition of W, blocks sorted by their least perm.

    W_I stabilizes T = {1..n}, so w W_I is named by the n-subset w(T) (one
    of ``all_subsets_j``) and W_I w W_I by its orbit under X -> s(X), s in
    the mark.  Each subset no earlier walk reached, in sorted order, starts
    a walk; the least perm with w(T) = X begins with sorted(X), so the blocks
    come out in order.  Independent of ``tau``: it certifies the sigma_k."""
    table = length_table(kind)  # refuses a W over the guard before any subset is built
    padded = [(0,) + s.perm for s in parabolic_mark(kind)]  # padded[i] = s(i), as in ``compose``
    images = lambda frontier: ([frozenset([s[x] for x in X]) for X in frontier] for s in padded)
    orbit_of, blocks = {}, []  # {w(T): its block's index}, the blocks
    for J in all_subsets_j(kind):
        if J not in orbit_of:
            orbit_of |= dict.fromkeys(walk(J, images), len(blocks))
            blocks.append([])
    for perm in table:
        blocks[orbit_of[frozenset(perm[: kind.n])]].append(perm)
    return [frozenset(block) for block in blocks]


def all_subsets_j(kind: GroupKind) -> list[frozenset[int]]:
    """Every admissible frame J, the frozenset of its n members in
    {1, ..., 2n}, ordered by sorted member tuple.

    Type A admits every n-subset, C(2n, n) of them.  Type C admits those
    with one member of each pair {i, i+n}, so the lower part J_1 = J cap
    {1..n} fixes the upper part {j > n : j - n not in J_1}: 2^n of them.

    >>> [sorted(J) for J in all_subsets_j(type_c(2))]
    [[1, 2], [1, 4], [2, 3], [3, 4]]
    """
    n = kind.n
    frames = map(frozenset, itertools.combinations(range(1, 2 * n + 1), n))  # in sorted-tuple order
    if kind.family is Family.TYPE_C:
        frames = (J for J in frames if all((i in J) != (i + n in J) for i in range(1, n + 1)))
    return list(frames)
