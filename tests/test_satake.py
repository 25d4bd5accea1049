import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bruhat_satake import satake as S
from bruhat_satake.satake import (
    CharPoly,
    LaurentPoly,
    SatakeCase,
    SymmetryTag,
    align,
    char_poly_g,
    char_poly_m,
    dual_char_poly,
    elementary_symmetric,
    invert_monomial,
    linear_factor,
    monomial,
    one,
    satake_real,
    satake_unitary,
    substitute_monomials,
    t_g_real,
    t_g_unitary,
    t_m,
    unitary_n1_expansion,
    variable,
    verify_determinant_factorization,
    w_vars,
    x_vars,
    y_vars,
    z_vars,
    zero,
)

RING = ("v", "W1", "W2")


def rand_poly(rng, variables=RING, terms=4, span=3):
    mapping = {}
    for _ in range(terms):
        exps = tuple(rng.randint(-span, span) for _ in variables)
        mapping[exps] = mapping.get(exps, 0) + rng.randint(-5, 5)
    return LaurentPoly.from_dict(variables, mapping)


@given(st.integers(0, 10**9))
@settings(max_examples=60, deadline=None)
def test_ring_axioms(seed):
    rng = random.Random(seed)
    a, b, c = (rand_poly(rng) for _ in range(3))
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + zero(RING) == a
    assert a * one(RING) == a
    assert a - a == zero(RING)


def test_canonical_storage_rejects_garbage():
    with pytest.raises(ValueError):
        LaurentPoly(RING, (((0, 0, 0), 0),))  # zero coefficient kept
    with pytest.raises(ValueError):
        LaurentPoly(RING, (((0, 0), 1),))  # wrong width
    with pytest.raises(ValueError):
        LaurentPoly(RING, (((1, 0, 0), 1), ((0, 0, 0), 1)))  # unsorted


def test_symmetry_tag_validation():
    sym = elementary_symmetric(1, ("W1", "W2"), RING)
    sym.tagged(SymmetryTag("S", (("W1", "W2"),)))  # fine
    with pytest.raises(ValueError):
        variable("W1", RING).tagged(SymmetryTag("S", (("W1", "W2"),)))
    # BC wants inversion symmetry too
    ringx = ("v", "X1")
    pal = monomial(ringx, 1, {"X1": 1}) + monomial(ringx, 1, {"X1": -1})
    pal.tagged(SymmetryTag("BC", (("X1",),)))
    with pytest.raises(ValueError):
        variable("X1", ringx).tagged(SymmetryTag("BC", (("X1",),)))
    with pytest.raises(ValueError):
        SymmetryTag("D", ())
    # no constraint is symmetry=None, not a named tag
    with pytest.raises(ValueError):
        SymmetryTag("trivial")


def test_monomial_inversion_and_power():
    m = monomial(RING, -1, {"v": 2, "W1": -1})
    assert m * invert_monomial(m) == one(RING)
    assert m**0 == one(RING)
    assert m**-2 == invert_monomial(m) ** 2
    with pytest.raises(ValueError):
        invert_monomial(one(RING) + variable("v", RING))
    with pytest.raises(ValueError):
        invert_monomial(one(RING).scaled(2))


def test_substitution_is_a_ring_map():
    rng = random.Random(11)
    target = ("v", "W1", "W2", "Z1")
    images = {"W2": monomial(target, 1, {"v": -1, "Z1": -1})}
    for _ in range(20):
        a, b = rand_poly(rng), rand_poly(rng)
        sa = substitute_monomials(a, target, images)
        sb = substitute_monomials(b, target, images)
        assert substitute_monomials(a * b, target, images) == sa * sb
        assert substitute_monomials(a + b, target, images) == sa + sb
    with pytest.raises(ValueError):
        substitute_monomials(rand_poly(rng), target, {"W1": one(target) + variable("v", target)})


def test_align_embeds():
    p = rand_poly(random.Random(3))
    big = ("u",) + RING + ("T",)
    q = align(p, big)
    assert {e[1:4]: c for e, c in q.terms} == p.as_dict()
    with pytest.raises(ValueError):
        align(p, ("v", "W1"))


def test_t_m_literals():
    ring = ("v",) + w_vars(2)
    p = t_m(1, 2, w_vars(2), ring)
    assert p == monomial(ring, 1, {"v": 1, "W1": 1}) + monomial(ring, 1, {"v": 1, "W2": 1})
    assert t_m(2, 2, w_vars(2), ring) == monomial(ring, 1, {"W1": 1, "W2": 1})
    assert t_m(0, 2, w_vars(2), ring) == one(ring)


def test_t_g_real_literals_and_palindromy():
    r = t_g_real(1, 1)
    ring = r.variables
    assert r == (
        monomial(ring, 1, {"v": 2, "X1": 1})
        + monomial(ring, 1, {"v": 2, "X1": -1})
        + monomial(ring, 1, {"v": 2})
    )
    assert t_g_real(3, 1) == one(ring)
    for n in (1, 2):
        for i in range(2 * n + 2):
            a, b = t_g_real(i, n), t_g_real(2 * n + 1 - i, n)
            va, vb = i * (2 * n + 1 - i), (2 * n + 1 - i) * i
            strip = lambda p, v: {(e[0] - v,) + e[1:]: c for e, c in p.terms}
            assert strip(a, va) == strip(b, vb)


def test_t_g_unitary_top():
    # i(2n - i) vanishes at the top symbol
    p = t_g_unitary(2, 1)
    ring = p.variables
    assert p == monomial(ring, 1, {"Y1": 1, "Y2": 1})
    assert t_g_unitary(1, 1) == (
        monomial(ring, 1, {"v": 1, "Y1": 1}) + monomial(ring, 1, {"v": 1, "Y2": 1})
    )


def test_char_poly_m_literals():
    ring1 = ("v",) + w_vars(1)
    P = char_poly_m(1, w_vars(1), ring1)
    assert P.coeffs == (monomial(ring1, -1, {"W1": 1}), one(ring1))
    ring2 = ("v",) + w_vars(2)
    P = char_poly_m(2, w_vars(2), ring2)
    assert P.coeffs[0] == monomial(ring2, 1, {"v": 2, "W1": 1, "W2": 1})
    assert P.coeffs[1] == monomial(ring2, -1, {"v": 1, "W1": 1}) + monomial(ring2, -1, {"v": 1, "W2": 1})


@pytest.mark.parametrize("n", [1, 2, 3])
def test_char_poly_m_is_a_product_of_linear_factors(n):
    ring = ("v",) + w_vars(n)
    P = char_poly_m(n, w_vars(n), ring)
    product = CharPoly((one(ring),))
    for i in range(1, n + 1):
        product = product * linear_factor(ring, monomial(ring, 1, {"v": n - 1, f"W{i}": 1}))
    assert P.coeffs == product.coeffs


@pytest.mark.parametrize("n", [1, 2, 3])
def test_dual_is_an_involution_inverting_roots(n):
    ring = ("v",) + z_vars(n)
    P = char_poly_m(n, z_vars(n), ring)
    D = dual_char_poly(P)
    assert dual_char_poly(D).coeffs == P.coeffs
    product = CharPoly((one(ring),))
    for i in range(1, n + 1):
        product = product * linear_factor(ring, monomial(ring, 1, {"v": 1 - n, f"Z{i}": -1}))
    assert D.coeffs == product.coeffs


def test_dual_requires_invertible_constant_term():
    ring = ("v", "Z1")
    bad = CharPoly((variable("Z1", ring) + one(ring), one(ring)))
    with pytest.raises(ValueError):
        dual_char_poly(bad)


def test_char_poly_g_degrees_and_ends():
    for n in (1, 2):
        D = char_poly_g(SatakeCase.UNITARY, n)
        assert D.degree == 2 * n
        D = char_poly_g(SatakeCase.REAL, n)
        assert D.degree == 2 * n + 1
        # constant term is -q^{n(2n+1)} since the top real symbol is 1
        ring = D.variables
        assert D.coeffs[0] == monomial(ring, -1, {"v": 2 * n * (2 * n + 1)})


def test_satake_unitary_on_e1():
    ring = ("v",) + y_vars(1)
    e1 = elementary_symmetric(1, y_vars(1), ring).tagged(SymmetryTag("S", (y_vars(1),)))
    img = satake_unitary(e1, 1)
    t = img.variables
    assert img == monomial(t, 1, {"v": -1, "W1": 1}) + monomial(t, 1, {"v": 1, "Z1": -1})


def test_satake_rejects_asymmetric_input():
    with pytest.raises(ValueError):
        satake_unitary(variable("Y1", ("v",) + y_vars(1)), 1)
    with pytest.raises(ValueError):
        satake_real(variable("X1", ("v",) + x_vars(1)), 1)
    with pytest.raises(ValueError):
        satake_unitary(one(("v", "Y1")), 1)  # wrong ring shape


def rand_symmetric_unitary(rng, n):
    ring = ("v",) + y_vars(n)
    out = zero(ring)
    for _ in range(4):
        i = rng.randint(0, 2 * n)
        out = out + elementary_symmetric(i, y_vars(n), ring).scaled(rng.randint(-3, 3)) * monomial(
            ring, 1, {"v": rng.randint(-2, 2)}
        )
    return out.tagged(SymmetryTag("S", (y_vars(n),)))


def rand_symmetric_real(rng, n):
    out = zero(("v",) + x_vars(n))
    for _ in range(4):
        out = out + t_g_real(rng.randint(0, 2 * n + 1), n).scaled(rng.randint(-3, 3))
    return out.tagged(SymmetryTag("BC", (x_vars(n),)))


@pytest.mark.parametrize("n", [1, 2])
def test_satake_maps_are_ring_homomorphisms(n):
    rng = random.Random(n)
    tag_u = SymmetryTag("S", (y_vars(n),))
    tag_r = SymmetryTag("BC", (x_vars(n),))
    for _ in range(60):
        a, b = rand_symmetric_unitary(rng, n), rand_symmetric_unitary(rng, n)
        sa, sb = satake_unitary(a, n), satake_unitary(b, n)
        assert satake_unitary((a * b).tagged(tag_u), n) == sa * sb
        assert satake_unitary((a + b).tagged(tag_u), n) == sa + sb
        c, d = rand_symmetric_real(rng, n), rand_symmetric_real(rng, n)
        sc, sd = satake_real(c, n), satake_real(d, n)
        assert satake_real((c * d).tagged(tag_r), n) == sc * sd
        assert satake_real((c + d).tagged(tag_r), n) == sc + sd


def test_satake_output_carries_its_symmetry():
    # surviving the tagged() constructor check is the symmetry assertion
    p = satake_unitary(rand_symmetric_unitary(random.Random(5), 2), 2)
    assert p.symmetry.name == "S" and p.symmetry.blocks == (w_vars(2), z_vars(2))
    r = satake_real(rand_symmetric_real(random.Random(6), 2), 2)
    assert r.symmetry.name == "S" and r.symmetry.blocks == (w_vars(2),)


@pytest.mark.parametrize(
    "case,n",
    [
        (SatakeCase.UNITARY, 1),
        (SatakeCase.UNITARY, 2),
        (SatakeCase.UNITARY, 3),
        (SatakeCase.REAL, 1),
        (SatakeCase.REAL, 2),
    ],
)
@pytest.mark.parametrize("twist", [False, True])
def test_determinant_factorization(case, n, twist):
    report = verify_determinant_factorization(case, n, twist=twist)
    assert report["verdict"], report["first_difference"]
    assert report["first_difference"] is None
    assert report["degree"] == (2 * n if case is SatakeCase.UNITARY else 2 * n + 1)


def test_factorization_guards():
    with pytest.raises(ValueError):
        verify_determinant_factorization(SatakeCase.UNITARY, 4)
    with pytest.raises(ValueError):
        verify_determinant_factorization(SatakeCase.REAL, 3)
    with pytest.raises(ValueError):
        verify_determinant_factorization(SatakeCase.UNITARY, 0)


def test_unitary_n1_expansion_matches_xw_xqz():
    report = unitary_n1_expansion()
    assert report["verdict"]
    # (X - W1)(X - q Z1^{-1}) spelled out: constant v^2 W1 Z1^{-1}
    const = report["expected"][0]["monomials"]
    assert const == [{"exps": [2, 1, -1], "vcoeff": 1}]


def test_first_difference_reports_on_forced_mismatch():
    # compare a genuine side against a corrupted one through the public report
    report = verify_determinant_factorization(SatakeCase.UNITARY, 1, twist=False)
    lhs = report["lhs"]
    ring = S.unitary_m_ring(1)
    fake = CharPoly(
        (
            monomial(ring, 1, {"v": 2, "W1": 1, "Z1": -1}) + one(ring),
            zero(ring) - variable("W1", ring) - monomial(ring, 1, {"v": 2, "Z1": -1}),
            one(ring),
        )
    )
    genuine = CharPoly(
        tuple(
            LaurentPoly.from_dict(ring, {tuple(m["exps"]): m["vcoeff"] for m in c["monomials"]})
            for c in lhs
        )
    )
    diff = S._first_difference(genuine, fake)
    assert diff is not None and diff["x_power"] == 0
