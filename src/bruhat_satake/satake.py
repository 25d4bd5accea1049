"""Unnormalized Satake transforms and determinant identities, symbolically.

Everything lives in Laurent polynomial rings over Z with a distinguished
variable v, where q = v^2.  The ambient ("G") side uses eigenvalue
variables Y_1..Y_{2n} (unitary case, symmetric under S_{2n}) or X_1..X_n
(real case, symmetric under the signed permutations); the Levi ("M") side
uses W_1..W_n and, in the unitary case, Z_1..Z_n for the conjugate place.
The two transforms are monomial substitutions

    unitary:  Y_i -> v^{-n} W_i,   Y_{n+j} -> v^{n} Z_j^{-1}
    real:     X_i -> v^{-(n+1)} W_i

which are ring homomorphisms; they are only applied to inputs carrying
their declared symmetry, and asymmetric input is rejected.

Hecke characteristic polynomials are monic with the interior convention
that the coefficient of (degree - i) is (-1)^i q^{i(i-1)/2} T_i, for the
T_i built from elementary symmetric functions.  The factorization checker
expands both sides of the determinant identity (transform of the ambient
characteristic polynomial versus the product of Levi polynomials and a
dual) with formal central twist units, and reports the first differing
monomial on failure.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from functools import reduce


class SatakeCase(Enum):
    UNITARY = "unitary"  # split place of a unitary ambient group: places w and w^c
    REAL = "real"  # one real-quadratic place


# ------------------------------------------------------------------ symmetry


@dataclass(frozen=True)
class SymmetryTag:
    """Declared invariance of a polynomial.

    name "S": each block permuted freely.  "BC": one block permuted with
    exponent sign flips allowed (the hyperoctahedral action).  Blocks are
    tuples of variable names; no tag at all means no constraint.
    """

    name: str
    blocks: tuple[tuple[str, ...], ...] = ()

    def __post_init__(self):
        if self.name not in ("S", "BC"):
            raise ValueError(f"unknown symmetry {self.name!r}")
        if self.name == "BC" and len(self.blocks) != 1:
            raise ValueError("BC symmetry takes exactly one block")


def _tag_generators(tag: SymmetryTag, variables: tuple[str, ...]):
    """Index maps generating the declared group action on exponent tuples."""
    gens = []
    for block in tag.blocks:
        pos = [variables.index(x) for x in block]
        for a, b in zip(pos, pos[1:]):
            gens.append(("swap", a, b))
    if tag.name == "BC":
        pos = variables.index(tag.blocks[0][0])
        gens.append(("flip", pos, pos))
    return gens


def _apply_gen(gen, exps: tuple[int, ...]) -> tuple[int, ...]:
    kind, a, b = gen
    out = list(exps)
    if kind == "swap":
        out[a], out[b] = out[b], out[a]
    else:
        out[a] = -out[a]
    return tuple(out)


# ---------------------------------------------------------------- the ring


@dataclass(frozen=True)
class LaurentPoly:
    """Sparse Laurent polynomial over Z in an ordered variable tuple.

    Terms are kept sorted with no zero coefficients, so equal polynomials
    are equal dataclasses.  ``symmetry``, when present, is validated on
    construction and is otherwise inert; arithmetic returns untagged
    results.
    """

    variables: tuple[str, ...]
    terms: tuple[tuple[tuple[int, ...], int], ...]
    symmetry: SymmetryTag | None = field(default=None, compare=False)

    def __post_init__(self):
        width = len(self.variables)
        seen = set()
        last = None
        for exps, coeff in self.terms:
            if len(exps) != width:
                raise ValueError("term width disagrees with the variable tuple")
            if type(coeff) is not int or any(type(e) is not int for e in exps):
                raise ValueError("coefficients and exponents must be Python ints")
            if coeff == 0:
                raise ValueError("zero coefficients must be dropped")
            if exps in seen:
                raise ValueError("duplicate monomial")
            if last is not None and exps <= last:
                raise ValueError("terms must be strictly sorted")
            seen.add(exps)
            last = exps
        if self.symmetry is not None:
            table = dict(self.terms)
            for gen in _tag_generators(self.symmetry, self.variables):
                for exps, coeff in self.terms:
                    if table.get(_apply_gen(gen, exps)) != coeff:
                        raise ValueError("polynomial lacks its declared symmetry")

    # -- constructors

    @staticmethod
    def from_dict(variables, mapping, symmetry=None) -> "LaurentPoly":
        cleaned = tuple(sorted((tuple(e), c) for e, c in mapping.items() if c != 0))
        return LaurentPoly(tuple(variables), cleaned, symmetry)

    # -- queries

    def as_dict(self) -> dict[tuple[int, ...], int]:
        return dict(self.terms)

    @property
    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def tagged(self, symmetry: SymmetryTag) -> "LaurentPoly":
        return LaurentPoly(self.variables, self.terms, symmetry)

    # -- arithmetic

    def _need_same_ring(self, other):
        if self.variables != other.variables:
            raise ValueError("polynomials live in different rings; align them first")

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        self._need_same_ring(other)
        out = dict(self.terms)
        for exps, coeff in other.terms:
            out[exps] = out.get(exps, 0) + coeff
        return LaurentPoly.from_dict(self.variables, out)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly(self.variables, tuple((e, -c) for e, c in self.terms))

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        self._need_same_ring(other)
        out: dict[tuple[int, ...], int] = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                key = tuple(a + b for a, b in zip(e1, e2))
                out[key] = out.get(key, 0) + c1 * c2
        return LaurentPoly.from_dict(self.variables, out)

    def __pow__(self, k: int) -> "LaurentPoly":
        if k < 0:
            return invert_monomial(self) ** (-k)
        out = one(self.variables)
        for _ in range(k):
            out = out * self
        return out

    def scaled(self, c: int) -> "LaurentPoly":
        if c == 0:
            return zero(self.variables)
        return LaurentPoly(self.variables, tuple((e, c * k) for e, k in self.terms))


def zero(variables) -> LaurentPoly:
    return LaurentPoly(tuple(variables), ())


def one(variables) -> LaurentPoly:
    return monomial(variables, 1, {})


def monomial(variables, coeff: int, exps: dict[str, int]) -> LaurentPoly:
    variables = tuple(variables)
    unknown = set(exps) - set(variables)
    if unknown:
        raise ValueError(f"unknown variables {sorted(unknown)}")
    key = tuple(exps.get(x, 0) for x in variables)
    return LaurentPoly.from_dict(variables, {key: coeff})


def variable(name: str, variables) -> LaurentPoly:
    return monomial(variables, 1, {name: 1})


def align(p: LaurentPoly, variables) -> LaurentPoly:
    """Inject p into a larger ring containing all of its variables."""
    variables = tuple(variables)
    positions = []
    for x in p.variables:
        if x not in variables:
            raise ValueError(f"target ring is missing {x!r}")
        positions.append(variables.index(x))
    out: dict[tuple[int, ...], int] = {}
    for exps, coeff in p.terms:
        key = [0] * len(variables)
        for pos, e in zip(positions, exps):
            key[pos] = e
        out[tuple(key)] = coeff
    return LaurentPoly.from_dict(variables, out)


def invert_monomial(p: LaurentPoly) -> LaurentPoly:
    if not p.is_monomial or p.terms[0][1] not in (1, -1):
        raise ValueError("only +-1 monomials are invertible here")
    exps, coeff = p.terms[0]
    return LaurentPoly(p.variables, ((tuple(-e for e in exps), coeff),))


def substitute_monomials(p: LaurentPoly, variables, images: dict[str, LaurentPoly]) -> LaurentPoly:
    """Ring map sending each variable to a +-1 monomial of the target ring.

    Variables without an explicit image must exist in the target and map
    to themselves.
    """
    variables = tuple(variables)
    table = []
    for x in p.variables:
        img = images.get(x)
        if img is None:
            img = variable(x, variables)
        if img.variables != variables:
            img = align(img, variables)
        if not img.is_monomial or img.terms[0][1] not in (1, -1):
            raise ValueError(f"image of {x!r} must be a +-1 monomial")
        table.append(img.terms[0])
    out: dict[tuple[int, ...], int] = {}
    for exps, coeff in p.terms:
        key = [0] * len(variables)
        sign = 1
        for e, (img_exps, img_coeff) in zip(exps, table):
            if e:
                if img_coeff == -1 and e % 2:
                    sign = -sign
                for pos, ie in enumerate(img_exps):
                    key[pos] += e * ie
        key_t = tuple(key)
        out[key_t] = out.get(key_t, 0) + sign * coeff
    return LaurentPoly.from_dict(variables, out)


# ----------------------------------------------------------- symmetric bases


def _sum(variables, polys) -> LaurentPoly:
    """The sum of polynomials in one ring, accumulated in one dict and
    constructed once, where repeated ``+`` would rebuild every partial sum."""
    out: dict[tuple[int, ...], int] = {}
    for poly in polys:
        for exps, coeff in poly.terms:
            out[exps] = out.get(exps, 0) + coeff
    return LaurentPoly.from_dict(variables, out)


def elementary_symmetric(i: int, block, variables) -> LaurentPoly:
    """e_i of the named variables, inside the given ring.

    >>> elementary_symmetric(1, ("W1", "W2"), ("v", "W1", "W2")).terms
    (((0, 0, 1), 1), ((0, 1, 0), 1))
    """
    block = tuple(block)
    if not 0 <= i <= len(block):
        raise ValueError("index out of range")
    subsets = itertools.combinations(block, i)
    return _sum(variables, (monomial(variables, 1, {x: 1 for x in subset}) for subset in subsets))


def elementary_symmetric_of_monomials(i: int, monomials: list[LaurentPoly]) -> LaurentPoly:
    """e_i of an explicit multiset of monomials (used for the X_i^{+-1} pool)."""
    variables = monomials[0].variables
    products = (
        reduce(lambda a, b: a * b, (monomials[j] for j in subset), one(variables))
        for subset in itertools.combinations(range(len(monomials)), i)
    )
    return _sum(variables, products)


# ------------------------------------------------------------- Hecke symbols


def w_vars(n: int) -> tuple[str, ...]:
    return tuple(f"W{i}" for i in range(1, n + 1))


def z_vars(n: int) -> tuple[str, ...]:
    return tuple(f"Z{i}" for i in range(1, n + 1))


def y_vars(n: int) -> tuple[str, ...]:
    return tuple(f"Y{i}" for i in range(1, 2 * n + 1))


def x_vars(n: int) -> tuple[str, ...]:
    return tuple(f"X{i}" for i in range(1, n + 1))


def unitary_g_ring(n: int) -> tuple[str, ...]:
    return ("v",) + y_vars(n)


def real_g_ring(n: int) -> tuple[str, ...]:
    return ("v",) + x_vars(n)


def unitary_m_ring(n: int, twist: bool = False) -> tuple[str, ...]:
    units = ("cw", "cwc") if twist else ()
    return ("v",) + units + w_vars(n) + z_vars(n)


def real_m_ring(n: int, twist: bool = False) -> tuple[str, ...]:
    units = ("cw",) if twist else ()
    return ("v",) + units + w_vars(n)


def t_m(i: int, n: int, block, variables) -> LaurentPoly:
    """The Levi Hecke symbol T_{M,i} = v^{i(n-i)} e_i.

    >>> t_m(1, 2, w_vars(2), ("v",) + w_vars(2)).terms
    (((1, 0, 1), 1), ((1, 1, 0), 1))
    """
    e = elementary_symmetric(i, block, variables)
    return (monomial(variables, 1, {"v": i * (n - i)}) * e).tagged(SymmetryTag("S", (tuple(block),)))


def t_g_unitary(i: int, n: int, variables=None) -> LaurentPoly:
    """T_{G,i} = v^{i(2n-i)} e_i(Y_1, ..., Y_{2n}): the Levi symbol of GL_{2n}."""
    return t_m(i, 2 * n, y_vars(n), unitary_g_ring(n) if variables is None else variables)


def t_g_real(i: int, n: int, variables=None) -> LaurentPoly:
    """T_{G,i} = v^{i(2n+1-i)} e_i of the multiset {X_j^{+-1}} cup {1}.

    The i and 2n+1-i symbols agree (the multiset is closed under
    inversion), and T_{G,2n+1} = 1.
    """
    variables = real_g_ring(n) if variables is None else tuple(variables)
    pool = [monomial(variables, 1, {x: 1}) for x in x_vars(n)]
    pool += [monomial(variables, 1, {x: -1}) for x in x_vars(n)]
    pool.append(one(variables))
    e = elementary_symmetric_of_monomials(i, pool)
    return (monomial(variables, 1, {"v": i * (2 * n + 1 - i)}) * e).tagged(SymmetryTag("BC", (x_vars(n),)))


# -------------------------------------------------------------- char. polys


@dataclass(frozen=True)
class CharPoly:
    """A monic polynomial in an outer variable X with LaurentPoly coefficients.

    coeffs[j] multiplies X^j.
    """

    coeffs: tuple[LaurentPoly, ...]

    def __post_init__(self):
        if not self.coeffs:
            raise ValueError("empty polynomial")
        lead = self.coeffs[-1]
        if lead != one(lead.variables):
            raise ValueError("characteristic polynomials must be monic")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def variables(self) -> tuple[str, ...]:
        return self.coeffs[0].variables

    def __mul__(self, other: "CharPoly") -> "CharPoly":
        out = [zero(self.variables) for _ in range(self.degree + other.degree + 1)]
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return CharPoly(tuple(out))

    def map_coeffs(self, f) -> "CharPoly":
        return CharPoly(tuple(f(c) for c in self.coeffs))

    def rescale(self, prefactor: LaurentPoly, x_scale: LaurentPoly) -> "CharPoly":
        """P(X) -> prefactor * P(x_scale * X), coefficientwise."""
        return CharPoly(tuple(prefactor * x_scale**j * c for j, c in enumerate(self.coeffs)))


def linear_factor(variables, root: LaurentPoly) -> CharPoly:
    """X - root."""
    return CharPoly((-align(root, variables), one(variables)))


def _hecke_char_poly(deg: int, variables, T, twist: str | None = None) -> CharPoly:
    """The monic polynomial whose X^{deg-i} coefficient is (-1)^i q^{i(i-1)/2} T(i).

    With a twist unit c the polynomial is c^deg P(c^{-1} X), which scales
    the X^{deg-i} coefficient by c^i.
    """
    coeffs = [zero(variables) for _ in range(deg + 1)]
    coeffs[deg] = one(variables)
    for i in range(1, deg + 1):
        lead = monomial(variables, -1 if i % 2 else 1, {"v": i * (i - 1)})
        if twist is not None:
            lead = lead * monomial(variables, 1, {twist: i})
        coeffs[deg - i] = lead * T(i)
    return CharPoly(tuple(coeffs))


def char_poly_m(n: int, block, variables, twist: str | None = None) -> CharPoly:
    """The Levi characteristic polynomial at one place:

        X^n - T_1 X^{n-1} + ... + (-1)^i q^{i(i-1)/2} T_i X^{n-i} + ...

    optionally twisted by a unit (see ``_hecke_char_poly``).
    """
    return _hecke_char_poly(n, variables, lambda i: t_m(i, n, block, variables), twist)


def dual_char_poly(P: CharPoly) -> CharPoly:
    """P^dual(X) = c_0^{-1} X^deg P(X^{-1}); needs a +-monomial constant term.

    An involution on its domain, with prod (X - a_i) mapping to
    prod (X - a_i^{-1}) for monomial roots.
    """
    c0 = P.coeffs[0]
    inv = invert_monomial(c0)  # raises unless the constant term is invertible
    return CharPoly(tuple(inv * c for c in reversed(P.coeffs)))


def char_poly_g(case: SatakeCase, n: int) -> CharPoly:
    """The ambient characteristic polynomial, of degree 2n or 2n + 1.

    Coefficient of X^{deg - i} is (-1)^i q^{i(i-1)/2} T_{G,i}.  The
    unitary one is the Levi polynomial of GL_{2n} in Y_1..Y_{2n}.
    """
    if case is SatakeCase.UNITARY:
        return char_poly_m(2 * n, y_vars(n), unitary_g_ring(n))
    variables = real_g_ring(n)
    return _hecke_char_poly(2 * n + 1, variables, lambda i: t_g_real(i, n, variables))


# ------------------------------------------------------------ the transforms


def satake_unitary(p: LaurentPoly, n: int) -> LaurentPoly:
    """Y_i -> v^{-n} W_i and Y_{n+j} -> v^n Z_j^{-1}, for S_{2n}-symmetric input.

    The output is symmetric in the W block and in the Z block separately.
    """
    if p.variables != unitary_g_ring(n):
        raise ValueError("expected a polynomial in v, Y_1..Y_{2n}")
    p.tagged(SymmetryTag("S", (y_vars(n),)))  # raises on asymmetric input
    target = unitary_m_ring(n)
    images = {}
    for i in range(1, n + 1):
        images[f"Y{i}"] = monomial(target, 1, {"v": -n, f"W{i}": 1})
        images[f"Y{n+i}"] = monomial(target, 1, {"v": n, f"Z{i}": -1})
    out = substitute_monomials(p, target, images)
    return out.tagged(SymmetryTag("S", (w_vars(n), z_vars(n))))


def satake_real(p: LaurentPoly, n: int) -> LaurentPoly:
    """X_i -> v^{-(n+1)} W_i, for hyperoctahedrally symmetric input.

    The output is S_n-symmetric in the W block.
    """
    if p.variables != real_g_ring(n):
        raise ValueError("expected a polynomial in v, X_1..X_n")
    p.tagged(SymmetryTag("BC", (x_vars(n),)))  # raises on asymmetric input
    target = real_m_ring(n)
    images = {f"X{i}": monomial(target, 1, {"v": -(n + 1), f"W{i}": 1}) for i in range(1, n + 1)}
    out = substitute_monomials(p, target, images)
    return out.tagged(SymmetryTag("S", (w_vars(n),)))


# -------------------------------------------------- the factorization checker


def poly_to_json(p: LaurentPoly) -> dict:
    return {
        "vars": list(p.variables),
        "monomials": [{"exps": list(exps), "vcoeff": coeff} for exps, coeff in p.terms],
    }


def _first_difference(lhs: CharPoly, rhs: CharPoly):
    for j, (a, b) in enumerate(zip(lhs.coeffs, rhs.coeffs)):
        if a != b:
            diff = a - b
            exps, coeff = diff.terms[0]
            return {
                "x_power": j,
                "monomial": {"exps": list(exps), "vcoeff": coeff},
                "vars": list(diff.variables),
            }
    return None


# Per case: the guard on n, the M ring, the transform, and the Levi block
# whose dual enters the identity, with its twist unit.
_CASES = {
    SatakeCase.UNITARY: (3, unitary_m_ring, satake_unitary, z_vars, "cwc"),
    SatakeCase.REAL: (2, real_m_ring, satake_real, w_vars, "cw"),
}


def verify_determinant_factorization(case: SatakeCase, n: int, twist: bool = True) -> dict:
    """Expand both sides of the determinant identity and compare exactly.

    With d = deg D (2n for the split unitary place pair w, w^c, guard
    n <= 3; 2n + 1 for the real place, guard n <= 2):

        satake(D) = P_w(X) * q^{n(d-1)} P'^dual(q^{1-d} X)  [* (X - q^n) if real]

    where P' is P_{w^c} (unitary) or P_w (real).  With ``twist`` the W
    and Z variables are scaled by formal central units on the left,
    matched by the twisted Levi polynomials on the right.  Returns a
    report with the verdict, both sides, and the first differing
    monomial if any.
    """
    guard, m_ring, transform, dual_block, dual_unit = _CASES[case]
    if not 1 <= n <= guard:
        raise ValueError(f"{case.value} factorization needs 1 <= n <= {guard}")

    ring = m_ring(n, twist=twist)
    D = char_poly_g(case, n)
    d = D.degree
    images = {}  # the twist; without it the substitution only aligns to the ring
    prefactor_exps, x_scale_exps = {"v": 2 * n * (d - 1)}, {"v": 2 * (1 - d)}
    if twist:
        for block, unit in ((w_vars(n), "cw"), (dual_block(n), dual_unit)):
            images |= {x: monomial(ring, 1, {unit: 1, x: 1}) for x in block}
        prefactor_exps[dual_unit], x_scale_exps[dual_unit] = -n, 1
    lhs = D.map_coeffs(lambda c: substitute_monomials(transform(c, n), ring, images))
    p_w = char_poly_m(n, w_vars(n), ring, twist="cw" if twist else None)
    dual = dual_char_poly(char_poly_m(n, dual_block(n), ring))
    rhs = p_w * dual.rescale(monomial(ring, 1, prefactor_exps), monomial(ring, 1, x_scale_exps))
    if case is SatakeCase.REAL:
        rhs = rhs * linear_factor(ring, monomial(ring, 1, {"v": 2 * n}))

    verdict = lhs.coeffs == rhs.coeffs
    return {
        "case": case.value,
        "n": n,
        "twist": twist,
        "degree": lhs.degree,
        "verdict": verdict,
        "lhs": [poly_to_json(c) for c in lhs.coeffs],
        "rhs": [poly_to_json(c) for c in rhs.coeffs],
        "first_difference": _first_difference(lhs, rhs),
    }


def unitary_n1_expansion() -> dict:
    """Both sides of the n = 1 unitary identity against (X - W_1)(X - q Z_1^{-1})."""
    ring = unitary_m_ring(1)
    expected = linear_factor(ring, variable("W1", ring)) * linear_factor(
        ring, monomial(ring, 1, {"v": 2, "Z1": -1})
    )
    report = verify_determinant_factorization(SatakeCase.UNITARY, 1, twist=False)
    expected_json = [poly_to_json(c) for c in expected.coeffs]
    ok = report["verdict"] and report["lhs"] == expected_json and report["rhs"] == expected_json
    return {"verdict": ok, "expected": expected_json, "factorization": report}
