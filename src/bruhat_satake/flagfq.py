"""Finite flag spaces of GL_{2n} and Sp_{2n} over F_q, q in {2, 3, 5}.

Points are n-dimensional subspaces of F_q^{2n} (isotropic ones in type C),
stored as reduced row echelon matrices, which are canonical for row span.
The ambient group acts on the right of row matrices through g^T, the
parabolic P_I is the stabilizer of the base point U_0 = <e_1, ..., e_n>,
and the statistic ``tau_of_point`` (codimension of the meet with U_0)
reads off the P_I-orbit.

The module provides the orbit census, the orbit-versus-tau partition
check, the elementwise cover checks for translates of Pbar_I P_I, the
existence check for complementary frames J over whole Borel orbits, and
Pluecker coordinates.  Group elements are enumerated by breadth-first
closure over explicit generators, with orders certified against the
classical formulas.  Bulk matrix work runs through :mod:`.kernels`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import kernels
from .weyl import (
    Family,
    GroupKind,
    SubsetJ,
    WeylElement,
    all_elements,
    all_subsets_j,
    check_order,
    longest_element,
    simple_reflections,
)

FLAG_POINT_GUARD = 10**6
GROUP_ORDER_GUARD = 10**6
_PRODUCT_CHUNK = 1 << 14  # matrices per matmul_mod call in _product_set; sets the call count


# ------------------------------------------------------------- order formulas


def gl_order(m: int, q: int) -> int:
    return int(np.prod([q**m - q**i for i in range(m)], dtype=object))


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
    if int(kernels.rank_mod(mat, q)) != 2 * kind.n:
        return False
    if kind.family is Family.TYPE_C:
        J = symplectic_form(kind.n) % q
        return bool(((mat.T @ J @ mat) % q == J).all())
    return True


def _unit(m: int, i: int, j: int, val: int = 1) -> np.ndarray:
    out = np.eye(m, dtype=np.int64)
    out[i, j] += val
    return out


_PRIMITIVE = {2: 1, 3: 2, 5: 2}


def borel_generators(kind: GroupKind, q: int) -> list[np.ndarray]:
    """Torus generators plus every positive root subgroup at parameter 1."""
    n, m = kind.n, kind.ambient
    g = _PRIMITIVE[q]
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
            mat[:, :] = np.eye(m, dtype=np.int64)
            mat[n - 1, n - 1] = 0
            mat[m - 1, m - 1] = 0
            mat[m - 1, n - 1] = -1  # e_n -> -e_{2n}
            mat[n - 1, m - 1] = 1  # e_{2n} -> e_n
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
    """Breadth-first closure of a generating set, as a deterministic stack,
    certified to have ``expected`` elements."""
    m = gens[0].shape[0]
    gen_stack = np.stack([g % q for g in gens])
    seen: dict[bytes, int] = {}
    mats = [np.eye(m, dtype=np.int64) % q]
    seen[kernels.mat_keys(mats[0][None])[0]] = 0
    frontier = np.stack(mats)
    while frontier.shape[0]:
        new = []
        for g in gen_stack:
            prod = kernels.matmul_mod(frontier, g, q)
            for key, row in zip(kernels.mat_keys(prod), prod):
                if key not in seen:
                    seen[key] = len(mats)
                    mats.append(row)
                    new.append(row)
        frontier = np.stack(new) if new else np.empty((0, m, m), dtype=np.int64)
    out = np.stack(mats)
    if out.shape[0] != expected:
        raise AssertionError(f"closure reached {out.shape[0]} elements, expected {expected}")
    return out


@lru_cache(maxsize=None)
def _borel_matrices(kind: GroupKind, q: int) -> np.ndarray:
    return _closure(borel_generators(kind, q), q, borel_order(kind, q))


@lru_cache(maxsize=None)
def _parabolic_matrices(kind: GroupKind, q: int) -> np.ndarray:
    return _closure(parabolic_generators(kind, q), q, parabolic_order(kind, q))


@lru_cache(maxsize=None)
def _group_matrices(kind: GroupKind, q: int) -> np.ndarray:
    order = group_order(kind, q)
    if order > GROUP_ORDER_GUARD:
        raise ValueError(f"group order {order} exceeds the guard {GROUP_ORDER_GUARD}")
    return _closure(group_generators(kind, q), q, order)


@lru_cache(maxsize=None)
def _weyl_matrix_table(kind: GroupKind, q: int) -> dict[tuple[int, ...], np.ndarray]:
    """One matrix lift per Weyl element, from words in the reflection lifts."""
    check_order(kind)
    refl_perms = [s.perm for s in simple_reflections(kind)]
    refl_mats = simple_reflection_matrices(kind, q)
    ident = tuple(range(1, kind.ambient + 1))
    table = {ident: np.eye(kind.ambient, dtype=np.int64) % q}
    frontier = [ident]
    while frontier:
        nxt = []
        for perm in frontier:
            mat = table[perm]
            for sperm, smat in zip(refl_perms, refl_mats):
                image = tuple(perm[sperm[i] - 1] for i in range(len(perm)))
                if image not in table:
                    table[image] = (mat @ smat) % q
                    nxt.append(image)
        frontier = nxt
    return table


def weyl_matrix(w: WeylElement, q: int) -> np.ndarray:
    """A lift of w to G(F_q); coset statements are insensitive to the torus part.

    Each lift is checked for group membership on every call.
    """
    mat = _weyl_matrix_table(w.kind, q)[w.perm]
    if not is_in_group(w.kind, mat, q):
        raise ValueError("matrix is not in the group")
    return mat.copy()


# --------------------------------------------------------------------- points


@dataclass(frozen=True)
class Subspace:
    """An n-dimensional subspace of F_q^{2n}, as canonical RREF rows."""

    q: int
    rows: tuple[tuple[int, ...], ...]

    @property
    def mat(self) -> np.ndarray:
        return np.array(self.rows, dtype=np.int64)

    @property
    def dim(self) -> int:
        return len(self.rows)

    @property
    def ambient(self) -> int:
        return len(self.rows[0])


def subspace_from_rows(rows, q: int) -> Subspace:
    arr = np.asarray(rows, dtype=np.int64)
    red, rank = kernels.rref_mod(arr, q)
    if int(rank) != arr.shape[0]:
        raise ValueError("rows are linearly dependent")
    return Subspace(q, tuple(tuple(int(x) for x in row) for row in red))


def base_point(kind: GroupKind, q: int) -> Subspace:
    n = kind.n
    return subspace_from_rows(np.eye(n, 2 * n, dtype=np.int64), q)


def act(g: np.ndarray, U: Subspace) -> Subspace:
    """g . U, i.e. the row span of M g^T, for a group matrix g over F_{U.q}."""
    return subspace_from_rows((U.mat @ g.T) % U.q, U.q)


def is_isotropic(U: Subspace, n: int) -> bool:
    J = symplectic_form(n) % U.q
    return bool(((U.mat @ J @ U.mat.T) % U.q == 0).all())


def enumerate_flag(kind: GroupKind, q: int) -> list[Subspace]:
    """Every point, by RREF pivot pattern (isotropic ones only in type C)."""
    n = kind.n
    candidates = gaussian_binomial(2 * n, n, q)
    if candidates > FLAG_POINT_GUARD:
        raise ValueError(f"flag has {candidates} candidate points, over the guard {FLAG_POINT_GUARD}")
    points = []
    for pivots in itertools.combinations(range(2 * n), n):
        free = [
            (i, j)
            for i in range(n)
            for j in range(2 * n)
            if j not in pivots and j > pivots[i]
        ]
        base = np.zeros((n, 2 * n), dtype=np.int64)
        for i, p in enumerate(pivots):
            base[i, p] = 1
        for values in itertools.product(range(q), repeat=len(free)):
            mat = base.copy()
            for (i, j), v in zip(free, values):
                mat[i, j] = v
            U = Subspace(q, tuple(tuple(int(x) for x in row) for row in mat))
            if kind.family is Family.TYPE_C and not is_isotropic(U, n):
                continue
            points.append(U)
    if len(points) != flag_size(kind, q):
        raise AssertionError("point count disagrees with the closed formula")
    return points


def tau_of_point(U: Subspace) -> int:
    """n - dim(U cap U_0) for the base U_0 = <e_1, ..., e_n>."""
    n = U.dim
    stacked = np.vstack([U.mat, np.eye(n, 2 * n, dtype=np.int64)])
    return int(kernels.rank_mod(stacked, U.q)) - n


def cell_census(kind: GroupKind, q: int) -> dict[int, int]:
    """How many points have each tau value."""
    census: dict[int, int] = {}
    for U in enumerate_flag(kind, q):
        t = tau_of_point(U)
        census[t] = census.get(t, 0) + 1
    return census


def _point_stack(points: list[Subspace]) -> np.ndarray:
    return np.stack([U.mat for U in points])


def _orbit_ids(points: list[Subspace], gens: list[np.ndarray], q: int) -> list[int]:
    """Orbit labels for the group generated by ``gens``, acting as in ``act``."""
    index = {kernels.mat_keys(U.mat[None])[0]: i for i, U in enumerate(points)}
    stack = _point_stack(points)
    ids = [-1] * len(points)
    next_id = 0
    for seed in range(len(points)):
        if ids[seed] != -1:
            continue
        ids[seed] = next_id
        frontier = [seed]
        while frontier:
            batch = stack[frontier]
            fresh: list[int] = []
            for g in gens:
                moved, _ = kernels.rref_mod(kernels.matmul_mod(batch, g.T % q, q), q)
                for key in kernels.mat_keys(moved):
                    j = index[key]
                    if ids[j] == -1:
                        ids[j] = next_id
                        fresh.append(j)
            frontier = fresh
        next_id += 1
    return ids


def closure_order_check(kind: GroupKind, q: int) -> dict:
    """P_I(F_q)-orbits must be exactly the tau fibers, one per 0..n."""
    points = enumerate_flag(kind, q)
    taus = [tau_of_point(U) for U in points]
    ids = _orbit_ids(points, parabolic_generators(kind, q), q)
    orbit_taus: dict[int, set[int]] = {}
    for oid, t in zip(ids, taus):
        orbit_taus.setdefault(oid, set()).add(t)
    constant = all(len(ts) == 1 for ts in orbit_taus.values())
    matched = len(orbit_taus) == kind.n + 1
    census: dict[int, int] = {}
    for t in taus:
        census[t] = census.get(t, 0) + 1
    return {
        "points": len(points),
        "orbits": len(orbit_taus),
        "tau_constant_on_orbits": constant,
        "orbits_match_tau_fibers": constant and matched,
        "census": census,
        "ok": constant and matched,
    }


# ------------------------------------------------------------- cover lemmas


def _product_set(left: np.ndarray, right: np.ndarray, q: int) -> tuple[np.ndarray, set[bytes]]:
    """All products x y for x in left, y in right, deduplicated."""
    m = left.shape[1]
    seen: dict[bytes, int] = {}
    mats: list[np.ndarray] = []
    n_left = left.shape[0]
    per = max(1, _PRODUCT_CHUNK // right.shape[0])
    for start in range(0, n_left, per):
        block = left[start : start + per]
        a_stack = np.repeat(block, right.shape[0], axis=0)
        b_stack = np.tile(right, (block.shape[0], 1, 1))
        prod = kernels.matmul_mod(a_stack, b_stack, q)
        for key, row in zip(kernels.mat_keys(prod), prod):
            if key not in seen:
                seen[key] = len(mats)
                mats.append(row)
    return np.stack(mats), set(seen)


def _translate_keys(g: np.ndarray, stack: np.ndarray, q: int) -> set[bytes]:
    moved = kernels.matmul_mod(np.broadcast_to(g, stack.shape).copy(), stack, q)
    return set(kernels.mat_keys(moved))


def _left_right_keys(left: np.ndarray, mid: np.ndarray, right: np.ndarray, q: int) -> set[bytes]:
    """Keys of {x (mid) y}: left translate of mid applied to every right element."""
    lm = kernels.matmul_mod(left, mid, q)
    _, keys = _product_set(lm, right, q)
    return keys


def cover_lemma_check(kind: GroupKind, q: int) -> dict:
    """Elementwise checks, for every Weyl representative w:

    * Bbar w P_I is contained in w (Pbar_I P_I);
    * B w P_I is contained in (w w_0) P_I w_0 P_I;
    * the translates w (Pbar_I P_I) cover all of G(F_q).
    """
    G = _group_matrices(kind, q)  # refuses a group over GROUP_ORDER_GUARD
    g_keys = set(kernels.mat_keys(G))
    P = _parabolic_matrices(kind, q)
    Pbar = P.transpose(0, 2, 1) % q
    B = _borel_matrices(kind, q)
    Bbar = B.transpose(0, 2, 1) % q
    pbar_p, pbar_p_keys = _product_set(Pbar, P, q)
    w0_mat = weyl_matrix(longest_element(kind), q)
    p_w0_p, _ = _product_set(kernels.matmul_mod(P, w0_mat, q), P, q)

    covered: set[bytes] = set()
    lower_ok = upper_ok = True
    for w in all_elements(kind):
        wm = weyl_matrix(w, q)
        target_lower = _translate_keys(wm, pbar_p, q)
        covered |= target_lower
        if not _left_right_keys(Bbar, wm, P, q) <= target_lower:
            lower_ok = False
        target_upper = _translate_keys((wm @ w0_mat) % q, p_w0_p, q)
        if not _left_right_keys(B, wm, P, q) <= target_upper:
            upper_ok = False
    covers = covered == g_keys
    return {
        "group_order": G.shape[0],
        "lower_inclusions": lower_ok,
        "upper_inclusions": upper_ok,
        "translates_cover_group": covers,
        "ok": lower_ok and upper_ok and covers,
    }


# ------------------------------------------------------- complementary frames


def frame_subspace(J: SubsetJ, q: int) -> Subspace:
    """U_J = <e_j : j in J>."""
    n = J.kind.n
    rows = np.zeros((n, 2 * n), dtype=np.int64)
    for i, j in enumerate(sorted(J.members)):
        rows[i, j - 1] = 1
    return subspace_from_rows(rows, q)


def meets_trivially(U: Subspace, J: SubsetJ) -> bool:
    """U cap U_J = 0, tested through the rank of the stacked matrix."""
    stacked = np.vstack([U.mat, frame_subspace(J, U.q).mat])
    return int(kernels.rank_mod(stacked, U.q)) == U.ambient


def finding_j_check(kind: GroupKind, q: int) -> dict:
    """Every Borel orbit must admit one J, with |J cap {1..n}| = tau, whose
    frame misses every point of the orbit.

    The open cell must in particular admit J = {1, ..., n}.
    """
    points = enumerate_flag(kind, q)
    ids = _orbit_ids(points, borel_generators(kind, q), q)
    orbit_members: dict[int, list[int]] = {}
    for i, oid in enumerate(ids):
        orbit_members.setdefault(oid, []).append(i)
    by_lower: dict[int, list[SubsetJ]] = {}
    for J in all_subsets_j(kind):
        by_lower.setdefault(len(J.lower), []).append(J)
    all_ok = True
    open_cell_ok = True
    full_J = SubsetJ(kind, frozenset(range(1, kind.n + 1)))
    orbits = 0
    for members in orbit_members.values():
        orbits += 1
        taus = {tau_of_point(points[i]) for i in members}
        if len(taus) != 1:
            raise AssertionError("tau is not constant on a Borel orbit")
        t = taus.pop()
        candidates = by_lower.get(t, [])
        if not any(all(meets_trivially(points[i], J) for i in members) for J in candidates):
            all_ok = False
        if t == kind.n and not all(meets_trivially(points[i], full_J) for i in members):
            open_cell_ok = False
    return {
        "points": len(points),
        "borel_orbits": orbits,
        "every_orbit_admits_J": all_ok,
        "open_cell_admits_full_J": open_cell_ok,
        "ok": all_ok and open_cell_ok,
    }


# ----------------------------------------------------------------- Pluecker


def _det_mod(mat: np.ndarray, q: int) -> int:
    n = mat.shape[0]
    total = 0
    for perm in itertools.permutations(range(n)):
        sign = 1
        for i, j in itertools.combinations(range(n), 2):
            if perm[i] > perm[j]:
                sign = -sign
        prod = sign
        for i in range(n):
            prod *= int(mat[i, perm[i]])
        total += prod
    return total % q


def plucker(U: Subspace) -> dict[tuple[int, ...], int]:
    """Maximal minors by column n-subset, scaled so the lex-first nonzero is 1.

    For RREF rows the pivot minor is already 1, so the scaling is a no-op;
    it is applied anyway so the output is canonical for any row basis.
    The coordinate at J^c is nonzero iff U meets <e_j : j in J> trivially.
    """
    n, q = U.dim, U.q
    mat = U.mat
    coords: dict[tuple[int, ...], int] = {}
    first_nonzero = None
    for cols in itertools.combinations(range(2 * n), n):
        val = _det_mod(mat[:, cols], q)
        coords[tuple(c + 1 for c in cols)] = val
        if first_nonzero is None and val:
            first_nonzero = val
    if first_nonzero is None:
        raise AssertionError("a full-rank matrix must have a nonzero minor")
    scale = pow(first_nonzero, q - 2, q)
    return {J: (v * scale) % q for J, v in coords.items()}
