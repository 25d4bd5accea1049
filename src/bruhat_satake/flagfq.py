"""Finite flag spaces of GL_{2n} and Sp_{2n} over F_q, q in {2, 3, 5}.

A point is an n-dimensional subspace of F_q^{2n} (an isotropic one in type
C), held as the tuple of its reduced row echelon rows, each a tuple of
Python ints.  The RREF is canonical for row span, so equal points are equal
tuples; q is an argument of the flag's functions, not part of a point, and
the points of one pivot pattern share their row tuples.  The ambient group
acts on the right of row matrices through g^T, the parabolic P_I is the
stabilizer of the base point U_0 = <e_1, ..., e_n>, and the statistic
``tau_of_point`` (codimension of the meet with U_0) reads off the
P_I-orbit.  It is the rank of the right n x n block of a point's rows,
found by one scalar rank per point.  Type C points are walked row by row,
and a prefix is pruned at its first row that pairs nonzero with an earlier
one, so the non-isotropic candidates are never built.

The module provides the orbit census, the orbit-versus-tau partition
check, the elementwise cover checks for translates of Pbar_I P_I, and the
existence check for complementary frames J over whole Borel orbits.
Group elements are enumerated by breadth-first closure over explicit
generators, with orders certified against the classical formulas.  The
cover checks hold each set of matrices as a sorted array of distinct
``kernels.mat_keys`` codes.  A chunk of products lies in a target set
when merging its sorted codes into the target adds no distinct value, and
the cover is one array comparison.  Bulk matrix work runs through
:mod:`.kernels`.

A stack of matrices over F_q is a uint8 array, one byte per entry in
[0, q), as the kernels return it: the closures, the transposed Borel and
parabolic, the chunk operands of the product sets, the decoded product
sets and the translate operands.  Here such a stack is only reduced
(``% q``), transposed, tiled, repeated, indexed and compared; every
product of bytes is a ``kernels.matmul_mod`` call.  The generator
matrices, the Weyl lifts and the symplectic form stay int64, because they
are multiplied here with ``@``.  The group G itself is held only as its
sorted codes (``_group_keys``), a product set collects its codes in a
buffer that is compacted as it fills, and the translates of the cover are
kept as one running sorted union of their codes.  The closures walk int64
code arrays, with no Python int per element.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

from . import kernels
from .kernels import np
from .weyl import (
    Family,
    GroupKind,
    SubsetJ,
    WeylElement,
    all_elements,
    all_subsets_j,
    compose,
    length_table,
    longest_element,
    simple_reflections,
    walk,
)

FLAG_POINT_GUARD = 10**6
GROUP_ORDER_GUARD = 10**6
_PRODUCT_CHUNK = 1 << 14  # products per matmul_mod and mat_keys call in _product_keys; sets the call count


# ------------------------------------------------------------- order formulas


def gl_order(m: int, q: int) -> int:
    return math.prod(q**m - q**i for i in range(m))


def sp_order(n: int, q: int) -> int:
    out = q ** (n * n)
    for i in range(1, n + 1):
        out *= q ** (2 * i) - 1
    return out


def group_order(kind: GroupKind, q: int) -> int:
    return gl_order(2 * kind.n, q) if kind.family is Family.TYPE_A else sp_order(kind.n, q)


def borel_order(kind: GroupKind, q: int) -> int:
    n = kind.n
    if kind.family is Family.TYPE_A:
        return (q - 1) ** (2 * n) * q ** (n * (2 * n - 1))
    return (q - 1) ** n * q ** (n * n)


def parabolic_order(kind: GroupKind, q: int) -> int:
    n = kind.n
    if kind.family is Family.TYPE_A:
        return gl_order(n, q) ** 2 * q ** (n * n)
    return gl_order(n, q) * q ** (n * (n + 1) // 2)


def gaussian_binomial(m: int, k: int, q: int) -> int:
    num = den = 1
    for i in range(k):
        num *= q ** (m - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def _binomial_coefficients(m: int, k: int) -> list[int]:
    """The coefficients of C(m, k)_q as a polynomial in q, lowest degree
    first, by the q-Pascal rule C(i, j) = C(i-1, j-1) + q^j C(i-1, j)."""
    row = [[1]] + [[] for _ in range(k)]  # row[j]: C(i, j) for the current i, [] for zero
    for i in range(1, m + 1):
        for j in range(min(i, k), 0, -1):
            shifted = [0] * j + row[j] if row[j] else []
            row[j] = [x + y for x, y in itertools.zip_longest(row[j - 1], shifted, fillvalue=0)]
    return row[k]


def stratum_cells(kind: GroupKind, k: int) -> list[int]:
    """The Bruhat cells of the stratum tau = k: entry l is the number of
    Borel orbits with q^l points, the coefficient of q^l in q^(k^2) C(n, k)_q^2
    (type A) or q^(k(k+1)/2) C(n, k)_q (type C)."""
    coeffs = _binomial_coefficients(kind.n, k)
    if kind.family is Family.TYPE_A:
        square = [0] * (2 * len(coeffs) - 1)
        for i, x in enumerate(coeffs):
            for j, y in enumerate(coeffs):
                square[i + j] += x * y
        return [0] * (k * k) + square
    return [0] * (k * (k + 1) // 2) + coeffs


def stratum_size(kind: GroupKind, k: int, q: int) -> int:
    """Number of points with tau = k, in closed form: q^(k^2) C(n, k)_q^2 in
    type A, q^(k(k+1)/2) C(n, k)_q in type C, as ``stratum_cells`` at q."""
    return sum(count * q**ell for ell, count in enumerate(stratum_cells(kind, k)))


def flag_size(kind: GroupKind, q: int) -> int:
    """Number of points: the Gaussian binomial C(2n, n)_q, or prod (q^i + 1)."""
    n = kind.n
    if kind.family is Family.TYPE_A:
        return gaussian_binomial(2 * n, n, q)
    out = 1
    for i in range(1, n + 1):
        out *= q**i + 1
    return out


# ------------------------------------------------------------- group elements


def symplectic_form(n: int) -> np.ndarray:
    J = np.zeros((2 * n, 2 * n), dtype=np.int64)
    J[:n, n:] = np.eye(n, dtype=np.int64)
    J[n:, :n] = -np.eye(n, dtype=np.int64)
    return J


def is_in_group(kind: GroupKind, mat: np.ndarray, q: int) -> bool:
    mat = np.asarray(mat, dtype=np.int64) % q
    if kernels.rank_mod(mat.tolist(), q) != 2 * kind.n:
        return False
    if kind.family is Family.TYPE_C:
        J = symplectic_form(kind.n) % q
        return bool(((mat.T @ J @ mat) % q == J).all())
    return True


def _unit(m: int, i: int, j: int) -> np.ndarray:
    out = np.eye(m, dtype=np.int64)
    out[i, j] += 1
    return out


def borel_generators(kind: GroupKind, q: int) -> list[np.ndarray]:
    """Torus generators plus every positive root subgroup at parameter 1."""
    kernels.check_q(q)
    n, m = kind.n, kind.ambient
    g = kernels.PRIMITIVE_ROOT[q]
    gens = []
    if kind.family is Family.TYPE_A:
        if g != 1:
            for i in range(m):
                t = np.eye(m, dtype=np.int64)
                t[i, i] = g
                gens.append(t)
        for i in range(m - 1):
            gens.append(_unit(m, i, i + 1))
    else:
        if g != 1:
            for i in range(n):
                t = np.eye(m, dtype=np.int64)
                t[i, i] = g
                t[n + i, n + i] = pow(g, q - 2, q)
                gens.append(t)
        for i in range(n - 1):  # chi_{i,i+1}: x(t) = I + t(E_{i,i+1} - E_{n+i+1,n+i})
            x = np.eye(m, dtype=np.int64)
            x[i, i + 1] = 1
            x[n + i + 1, n + i] = -1
            gens.append(x % q)
        for i, j in itertools.combinations(range(n), 2):  # psi_{i,j}
            x = np.eye(m, dtype=np.int64)
            x[i, n + j] = 1
            x[j, n + i] = 1
            gens.append(x)
        for i in range(n):  # psi_{i,i}
            gens.append(_unit(m, i, n + i))
    gens = [gen % q for gen in gens]
    for gen in gens:
        if not is_in_group(kind, gen, q):
            raise AssertionError("generator fell outside the group")
    return gens


def simple_reflection_matrices(kind: GroupKind, q: int) -> list[np.ndarray]:
    """Matrix lifts of the simple reflections (type C's s_n needs a sign)."""
    n, m = kind.n, kind.ambient
    out = []
    for idx, s in enumerate(simple_reflections(kind), start=1):
        mat = np.zeros((m, m), dtype=np.int64)
        for j in range(1, m + 1):
            mat[s(j) - 1, j - 1] = 1
        if kind.family is Family.TYPE_C and idx == n:
            mat[m - 1, n - 1] = -1  # e_n -> -e_{2n}, e_{2n} -> e_n
        mat %= q
        if not is_in_group(kind, mat, q):
            raise AssertionError("reflection lift fell outside the group")
        out.append(mat)
    return out


def parabolic_generators(kind: GroupKind, q: int) -> list[np.ndarray]:
    refl = simple_reflection_matrices(kind, q)
    keep = list(range(kind.n - 1)) + (list(range(kind.n, len(refl))) if kind.family is Family.TYPE_A else [])
    return borel_generators(kind, q) + [refl[i] for i in keep]


def group_generators(kind: GroupKind, q: int) -> list[np.ndarray]:
    return borel_generators(kind, q) + simple_reflection_matrices(kind, q)


def _closure(gens: list[np.ndarray], q: int, expected: int) -> np.ndarray:
    """Breadth-first closure of a generating set, as a deterministic uint8
    stack, certified to have ``expected`` elements.

    The walk is ``weyl.walk``'s, on int64 ``mat_keys`` code arrays: each
    level's frontier is decoded once and multiplied by one generator at a
    time, and an image is new when it is the first occurrence of its code
    in that generator's images (``np.unique``) and is missing from the
    sorted codes seen so far (``searchsorted``), into which the new codes
    are then inserted.  So the stack is in ``walk``'s discovery order, with
    its level sizes and kernel calls, and no Python int is held per element.
    """
    m = gens[0].shape[0]
    gen_stack = np.stack([g % q for g in gens])
    frontier = kernels.mat_keys(np.eye(m, dtype=np.int64)[None] % q, q)
    seen, order = frontier, [frontier]
    while len(frontier):
        stack = kernels.mats_from_keys(frontier, (m, m), q)
        fresh = []
        for g in gen_stack:
            images = kernels.mat_keys(kernels.matmul_mod(stack, g, q), q)
            codes, first = np.unique(images, return_index=True)
            at = np.searchsorted(seen, codes)
            new = seen[np.minimum(at, len(seen) - 1)] != codes
            seen = np.insert(seen, at[new], codes[new])
            fresh.append(images[np.sort(first[new])])
        frontier = np.concatenate(fresh)
        order.append(frontier)
    out = kernels.mats_from_keys(np.concatenate(order), (m, m), q)
    if out.shape[0] != expected:
        raise AssertionError(f"closure reached {out.shape[0]} elements, expected {expected}")
    return out


@lru_cache(maxsize=None)
def _borel_matrices(kind: GroupKind, q: int) -> np.ndarray:
    return _closure(borel_generators(kind, q), q, borel_order(kind, q))


@lru_cache(maxsize=None)
def _parabolic_matrices(kind: GroupKind, q: int) -> np.ndarray:
    return _closure(parabolic_generators(kind, q), q, parabolic_order(kind, q))


def _group_matrices(kind: GroupKind, q: int) -> np.ndarray:
    """The stack of G(F_q), built afresh on each call: only its keys are
    cached (``_group_keys``)."""
    # |G| >= 2^(n^2) in both types, so a large n is refused without computing |G|
    if kind.n * kind.n >= GROUP_ORDER_GUARD.bit_length() or (order := group_order(kind, q)) > GROUP_ORDER_GUARD:
        raise ValueError(
            f"the order of the type {kind.family.value} group with n = {kind.n} over F_{q} exceeds the guard "
            f"GROUP_ORDER_GUARD = {GROUP_ORDER_GUARD}"
        )
    return _closure(group_generators(kind, q), q, order)


@lru_cache(maxsize=None)
def _group_keys(kind: GroupKind, q: int) -> np.ndarray:
    """The keys of G(F_q) as a sorted array; they are distinct because G is
    a closure.  The stack they come from is dropped."""
    return np.sort(kernels.mat_keys(_group_matrices(kind, q), q))


@lru_cache(maxsize=None)
def _weyl_matrix_table(kind: GroupKind, q: int) -> dict[tuple[int, ...], np.ndarray]:
    """One matrix lift per Weyl element, in the order of ``length_table``: the
    lift of w is lift(w s) R_s for the first simple reflection s with
    l(w s) < l(w), so each lift is one product along a reduced word."""
    lengths = length_table(kind)  # refuses a W over the guard before any lift is built
    refl = list(zip([s.perm for s in simple_reflections(kind)], simple_reflection_matrices(kind, q)))
    perms = iter(lengths)  # the identity first, then each w after its right descents
    table = {next(perms): np.eye(kind.ambient, dtype=np.int64) % q}
    for perm in perms:
        for s, mat in refl:
            shorter = compose(perm, s)
            if lengths[shorter] < lengths[perm]:
                table[perm] = (table[shorter] @ mat) % q
                break
    return table


def weyl_matrix(w: WeylElement, q: int) -> np.ndarray:
    """A lift of w to G(F_q); coset statements are insensitive to the torus part.

    Each lift is checked for group membership on every call.  The lift is
    built here from a valid ``WeylElement``, so one outside the group is a
    defect of this module, raised as ``AssertionError``.
    """
    mat = _weyl_matrix_table(w.kind, q)[w.perm]
    if not is_in_group(w.kind, mat, q):
        raise AssertionError("Weyl lift fell outside the group")
    return mat.copy()


# --------------------------------------------------------------------- points


Rows = tuple[tuple[int, ...], ...]  # a point or frame: its RREF rows, each a tuple of Python ints


def subspace_from_rows(rows, q: int) -> Rows:
    """The span of independent Python rows, as its RREF row tuple, reduced by
    the kernel's scalar path."""
    red, rank = kernels.rref_mod(rows, q)
    if rank != len(rows):
        raise ValueError("rows are linearly dependent")
    return tuple(map(tuple, red))


def _coordinate_rows(columns, width: int) -> list[list[int]]:
    """The unit rows e_c (0-based c) of length ``width``, one per column."""
    return [[int(j == c) for j in range(width)] for c in columns]


def _pairing(u, v, n: int) -> int:
    """The symplectic pairing of two rows, sum_k u_k v_{n+k} - u_{n+k} v_k, as
    an integer; it vanishes in F_q iff it is 0 mod q."""
    return sum(u[k] * v[n + k] - u[n + k] * v[k] for k in range(n))


def _isotropic_products(row_choices: list[list[tuple[int, ...]]], n: int, q: int):
    """The row tuples of ``itertools.product(*row_choices)`` whose rows pair
    to zero two by two, in the same order.

    A depth-first walk over the rows: a prefix is dropped as soon as its
    newest row pairs nonzero with an earlier one, so no non-isotropic
    candidate is ever completed.
    """

    def extend(prefix: tuple, depth: int):
        if depth == len(row_choices):
            yield prefix
            return
        for row in row_choices[depth]:
            if not any(_pairing(u, row, n) % q for u in prefix):
                yield from extend(prefix + (row,), depth + 1)

    return extend((), 0)


def enumerate_flag(kind: GroupKind, q: int) -> list[Rows]:
    """Every point, by RREF pivot pattern (isotropic ones only in type C).

    Within a pivot pattern the points run through the free entries in
    lexicographic order, row by row, and share the row tuples of that
    pattern's row choices.  Type C walks the rows depth first and
    prunes a prefix at its first nonzero pairing (``_isotropic_products``),
    so the non-isotropic candidates are never built; the guard still counts
    all C(2n, n)_q candidates.
    """
    kernels.check_q(q)
    n = kind.n
    # the C(2n, n)_q candidates include the q^(n^2) >= 2^(n^2) points of the
    # open cell, so a large n is refused without computing the count
    if n * n >= FLAG_POINT_GUARD.bit_length() or gaussian_binomial(2 * n, n, q) > FLAG_POINT_GUARD:
        raise ValueError(
            f"the candidate points of the type {kind.family.value} flag with n = {n} over F_{q} exceed the guard "
            f"FLAG_POINT_GUARD = {FLAG_POINT_GUARD}"
        )
    symplectic = kind.family is Family.TYPE_C
    points = []
    for pivots in itertools.combinations(range(2 * n), n):
        row_choices = []
        for p in pivots:
            free = [j for j in range(p + 1, 2 * n) if j not in pivots]
            choices = []
            for values in itertools.product(range(q), repeat=len(free)):
                row = [0] * (2 * n)
                row[p] = 1
                for j, v in zip(free, values):
                    row[j] = v
                choices.append(tuple(row))
            row_choices.append(choices)
        products = _isotropic_products(row_choices, n, q) if symplectic else itertools.product(*row_choices)
        points.extend(products)
    if len(points) != flag_size(kind, q):
        raise AssertionError("point count disagrees with the closed formula")
    return points


def tau_of_point(U: Rows, q: int) -> int:
    """n - dim(U cap U_0) for the base U_0 = <e_1, ..., e_n>.

    With U's rows written [A | B] in n-column blocks, rank [[A, B], [I, 0]]
    = n + rank(B), so tau is the rank of the n x n block B: one
    ``kernels.rank_mod`` call on Python rows, which returns an int.
    """
    n = len(U)
    return kernels.rank_mod([row[n:] for row in U], q)


def cell_census(kind: GroupKind, q: int) -> dict[int, int]:
    """How many points have each tau value."""
    census: dict[int, int] = {}
    for U in enumerate_flag(kind, q):
        t = tau_of_point(U, q)
        census[t] = census.get(t, 0) + 1
    return census


def _orbits(points: list[Rows], gens: list[np.ndarray], q: int) -> list[list[int]]:
    """The orbits of the group generated by ``gens``, g taking U to the row
    span of U g^T: each as ascending point indices, ordered by their first
    point.  The points are stacked in bytes once, and each is keyed by its
    own ``mat_keys`` call on its one-matrix slice of that stack, the one call
    per point that ``perfbench/expected.json`` counts."""
    stack = np.array(points, dtype=np.uint8)
    index = {kernels.mat_keys(stack[i : i + 1], q).item(): i for i in range(len(points))}

    def images(frontier):
        batch = stack[frontier]
        for g in gens:
            moved, _ = kernels.rref_mod(kernels.matmul_mod(batch, g.T % q, q), q)
            yield [index[key] for key in kernels.mat_keys(moved, q).tolist()]

    orbits: list[list[int]] = []
    placed: set[int] = set()
    for seed in range(len(points)):
        if seed not in placed:
            orbits.append(sorted(walk(seed, images)))
            placed.update(orbits[-1])
    return orbits


def closure_order_check(kind: GroupKind, q: int) -> dict:
    """P_I(F_q)-orbits must be exactly the tau fibers, one per 0..n."""
    points = enumerate_flag(kind, q)
    taus = [tau_of_point(U, q) for U in points]
    orbit_taus = [{taus[i] for i in orbit} for orbit in _orbits(points, parabolic_generators(kind, q), q)]
    constant = all(len(ts) == 1 for ts in orbit_taus)
    matched = sorted(min(ts) for ts in orbit_taus) == list(range(kind.n + 1))  # one orbit per tau
    return {
        "points": len(points),
        "tau_constant_on_orbits": constant,
        "orbits_match_tau_fibers": constant and matched,
        "ok": constant and matched,
    }


# ------------------------------------------------------------- cover lemmas


def _distinct(codes: np.ndarray) -> np.ndarray:
    """The distinct values of the sorted array ``codes``, by an
    adjacent-difference mask."""
    keep = np.empty(codes.shape, dtype=bool)
    keep[:1] = True
    np.not_equal(codes[1:], codes[:-1], out=keep[1:])
    return codes[keep]


def _sorted_unique(codes: np.ndarray) -> np.ndarray:
    """The distinct values of ``codes`` in ascending order: a sort and
    ``_distinct``, much cheaper than ``np.unique``.  Every caller passes a
    fresh array, which is sorted in place rather than copied."""
    codes.sort()
    return _distinct(codes)


def _merged(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """The two sorted arrays as one sorted array: a stable sort of their
    concatenation, which merges the two ascending runs in one linear pass."""
    merged = np.concatenate([first, second])
    merged.sort(kind="stable")
    return merged


def _product_keys(left: np.ndarray, right: np.ndarray, q: int):
    """The keys of all products x y for x in left, y in right, x outer and y
    inner: one ``mat_keys`` array per ``matmul_mod`` call of at most
    ``_PRODUCT_CHUNK`` products (at least one x per call)."""
    per = max(1, _PRODUCT_CHUNK // right.shape[0])
    tiled = np.tile(right, (min(per, left.shape[0]), 1, 1))  # tiled once; a short last block takes a prefix
    for start in range(0, left.shape[0], per):
        block = left[start : start + per]
        repeated = np.repeat(block, right.shape[0], axis=0)
        yield kernels.mat_keys(kernels.matmul_mod(repeated, tiled[: repeated.shape[0]], q), q)


def _product_set(left: np.ndarray, right: np.ndarray, q: int) -> np.ndarray:
    """The keys of all products x y for x in left, y in right, as a sorted
    array of distinct codes."""
    # each chunk is deduplicated as it comes and appended to one buffer; a
    # full buffer is compacted to its distinct codes, and replaced by one four
    # times the codes it must hold when they would fill more than half of it,
    # so the buffer stays within a small multiple of the set it collects
    codes = np.empty(4 * _PRODUCT_CHUNK, dtype=np.int64)
    end = 0
    for keys in _product_keys(left, right, q):
        keys = _sorted_unique(keys)
        if end + len(keys) > len(codes):
            distinct = _sorted_unique(codes[:end])
            end = len(distinct)
            if 2 * (end + len(keys)) > len(codes):
                codes = np.empty(4 * (end + len(keys)), dtype=np.int64)
            codes[:end] = distinct
        codes[end : end + len(keys)] = keys
        end += len(keys)
    return _sorted_unique(codes[:end])


def _keys_within(keys: np.ndarray, target: np.ndarray) -> bool:
    """Whether every code of the nonempty array ``keys`` is in ``target``, a
    sorted array of distinct codes.

    The keys lie in the target exactly when merging them into it adds no
    distinct value.
    """
    merged = _merged(target, np.sort(keys))
    return bool(np.count_nonzero(merged[1:] != merged[:-1]) + 1 == len(target))


def _products_within(left: np.ndarray, right: np.ndarray, q: int, target: np.ndarray) -> bool:
    """Whether every product x y (x in left, y in right) has its key in the
    sorted array of distinct codes ``target``.  Every chunk is tested, so the
    kernel calls do not depend on the answer."""
    return all([_keys_within(keys, target) for keys in _product_keys(left, right, q)])


def _translate_keys(g: np.ndarray, stack: np.ndarray, q: int) -> np.ndarray:
    """The keys of g x for x in ``stack``, as a sorted array of distinct codes.
    g is copied once per matrix, in bytes, as the left operand."""
    moved = kernels.matmul_mod(np.broadcast_to(g % q, stack.shape).astype(np.uint8), stack, q)
    return _sorted_unique(kernels.mat_keys(moved, q))


def cover_lemma_check(kind: GroupKind, q: int) -> dict:
    """Elementwise checks, for every Weyl representative w:

    * Bbar w P_I is contained in w (Pbar_I P_I);
    * B w P_I is contained in (w w_0) P_I w_0 P_I;
    * the translates w (Pbar_I P_I) cover all of G(F_q).
    """
    g_keys = _group_keys(kind, q)  # refuses a group over GROUP_ORDER_GUARD
    P = _parabolic_matrices(kind, q)
    Pbar = P.transpose(0, 2, 1) % q
    B = _borel_matrices(kind, q)
    Bbar = B.transpose(0, 2, 1) % q
    shape = P.shape[1:]
    pbar_p = kernels.mats_from_keys(_product_set(Pbar, P, q), shape, q)
    w0_mat = weyl_matrix(longest_element(kind), q)
    p_w0_p = kernels.mats_from_keys(_product_set(kernels.matmul_mod(P, w0_mat, q), P, q), shape, q)

    covered = np.empty(0, dtype=np.int64)  # the running union of the translates' codes
    lower_ok = upper_ok = True
    for w in all_elements(kind):
        wm = weyl_matrix(w, q)
        target_lower = _translate_keys(wm, pbar_p, q)
        covered = _distinct(_merged(covered, target_lower))
        if not _products_within(kernels.matmul_mod(Bbar, wm, q), P, q, target_lower):
            lower_ok = False
        target_upper = _translate_keys((wm @ w0_mat) % q, p_w0_p, q)
        if not _products_within(kernels.matmul_mod(B, wm, q), P, q, target_upper):
            upper_ok = False
    covers = np.array_equal(covered, g_keys)
    return {
        "group_order": len(g_keys),
        "lower_inclusions": lower_ok,
        "upper_inclusions": upper_ok,
        "translates_cover_group": covers,
        "ok": lower_ok and upper_ok and covers,
    }


# ------------------------------------------------------- complementary frames


def frame_subspace(J: SubsetJ, q: int) -> Rows:
    """U_J = <e_j : j in J>; the base point U_0 is the frame of J = {1..n}."""
    return subspace_from_rows(_coordinate_rows([j - 1 for j in sorted(J.members)], 2 * J.kind.n), q)


def meets_trivially(U: Rows, J: SubsetJ, q: int) -> bool:
    """U cap U_J = 0: the stacked rows of U and U_J have full rank, found by
    one ``kernels.rank_mod`` call on Python rows."""
    return kernels.rank_mod(U + frame_subspace(J, q), q) == len(U[0])


def finding_j_check(kind: GroupKind, q: int) -> dict:
    """Every Borel orbit must admit one J, with |J cap {1..n}| = tau, whose
    frame misses every point of the orbit.

    The open cell must in particular admit J = {1, ..., n}.  The orbits are
    the Bruhat cells, so their (tau, size) pairs must also be those of
    ``stratum_cells``: one orbit of q^l points of tau = k per unit of its
    coefficient l.
    """
    points = enumerate_flag(kind, q)
    orbits = _orbits(points, borel_generators(kind, q), q)
    by_lower: dict[int, list[SubsetJ]] = {}
    for J in all_subsets_j(kind):
        by_lower.setdefault(len(J.lower), []).append(J)
    all_ok = True
    open_cell_ok = True
    full_J = SubsetJ(kind, frozenset(range(1, kind.n + 1)))
    cells = []
    for members in orbits:
        taus = {tau_of_point(points[i], q) for i in members}
        if len(taus) != 1:
            raise AssertionError("tau is not constant on a Borel orbit")
        t = taus.pop()
        cells.append((t, len(members)))
        candidates = by_lower.get(t, [])
        if not any(all(meets_trivially(points[i], J, q) for i in members) for J in candidates):
            all_ok = False
        if t == kind.n and not all(meets_trivially(points[i], full_J, q) for i in members):
            open_cell_ok = False
    expected = [(k, q**ell) for k in range(kind.n + 1) for ell, count in enumerate(stratum_cells(kind, k))
                for _ in range(count)]
    cells_ok = sorted(cells) == sorted(expected)
    return {
        "points": len(points),
        "borel_orbits": len(orbits),
        "every_orbit_admits_J": all_ok,
        "open_cell_admits_full_J": open_cell_ok,
        "orbits_are_bruhat_cells": cells_ok,
        "ok": all_ok and open_cell_ok and cells_ok,
    }
