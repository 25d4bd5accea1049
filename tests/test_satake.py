import itertools
import random
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bruhat_satake import satake as S
from bruhat_satake.satake import (
    CharPoly,
    LaurentPoly,
    SatakeCase,
    char_poly_g,
    char_poly_m,
    check_symmetric,
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
    with pytest.raises(ValueError, match="strictly sorted"):
        LaurentPoly(RING, (((0, 0, 0), 1), ((0, 0, 0), 2)))  # repeated monomial


@pytest.mark.parametrize(
    "coeff, exps",
    [(0.5, {"v": 1}), (1, {"v": 0.5}), (2.0, {}), (True, {}), (1, {"v": True})],
    ids=["float coefficient", "float exponent", "integral float", "bool coefficient", "bool exponent"],
)
def test_laurent_polys_refuse_inexact_coefficients_and_exponents(coeff, exps):
    # both float cases used to build a polynomial
    with pytest.raises(ValueError, match="Python ints"):
        monomial(("v", "W1"), coeff, exps)
    with pytest.raises(ValueError, match="Python ints"):
        LaurentPoly(("v", "W1"), (((0, exps.get("v", 0)), coeff),))


def repeated_sum(polys, variables):
    """The sum by repeated ``+``, one partial sum after another."""
    out = S.zero(variables)
    for poly in polys:
        out = out + poly
    return out


@pytest.mark.parametrize("k", range(1, 9))
def test_elementary_symmetric_matches_repeated_addition(k):
    block = tuple(f"W{j}" for j in range(1, k + 1))
    ring = ("v",) + block
    for i in range(k + 1):
        subsets = itertools.combinations(block, i)
        want = repeated_sum((monomial(ring, 1, {x: 1 for x in subset}) for subset in subsets), ring)
        assert elementary_symmetric(i, block, ring) == want
        assert len(want.terms) == len(list(itertools.combinations(block, i)))


@pytest.mark.parametrize("k", range(1, 9))
def test_elementary_symmetric_of_monomials_matches_repeated_addition(k):
    # a pool with repeats, inverses and signed coefficients, so terms merge and cancel
    rng = random.Random(k)
    ring = ("v", "X1", "X2", "X3")
    pool = [monomial(ring, rng.choice((-2, -1, 1, 2)), {x: rng.choice((-1, 1)) for x in rng.sample(ring[1:], 2)}) for _ in range(k)]
    for i in range(k + 1):
        products = [reduce(lambda a, b: a * b, subset, one(ring)) for subset in itertools.combinations(pool, i)]
        assert S.elementary_symmetric_of_monomials(i, pool) == repeated_sum(products, ring)


def test_symmetry_check():
    sym = elementary_symmetric(1, ("W1", "W2"), RING)
    assert check_symmetric(sym, (("W1", "W2"),)) is sym
    with pytest.raises(ValueError, match="lacks its declared symmetry"):
        check_symmetric(variable("W1", RING), (("W1", "W2"),))
    # the flip wants inversion symmetry too
    ringx = ("v", "X1")
    pal = monomial(ringx, 1, {"X1": 1}) + monomial(ringx, 1, {"X1": -1})
    check_symmetric(pal, (("X1",),), flip="X1")
    with pytest.raises(ValueError, match="lacks its declared symmetry"):
        check_symmetric(variable("X1", ringx), (("X1",),), flip="X1")


def test_symmetry_check_reaches_every_adjacent_swap_of_a_block():
    ring = ("v", "W1", "W2", "W3")
    # fixed by W1 <-> W2, moved by W2 <-> W3
    p = monomial(ring, 1, {"W1": 1}) + monomial(ring, 1, {"W2": 1})
    check_symmetric(p, (("W1", "W2"),))
    with pytest.raises(ValueError, match="lacks its declared symmetry"):
        check_symmetric(p, (("W1", "W2", "W3"),))
    check_symmetric(p + variable("W3", ring), (("W1", "W2", "W3"),))


@pytest.mark.parametrize("n", [1, 2])
def test_flip_refuses_what_the_swaps_allow(n):
    # e_1 of the X block is S_n-symmetric but not fixed by X1 -> X1^{-1}
    ring = ("v",) + x_vars(n)
    e1 = elementary_symmetric(1, x_vars(n), ring)
    assert check_symmetric(e1, (x_vars(n),)) is e1
    with pytest.raises(ValueError, match="lacks its declared symmetry"):
        check_symmetric(e1, (x_vars(n),), flip="X1")
    with pytest.raises(ValueError, match="lacks its declared symmetry"):
        satake_real(e1, n)


def test_monomial_inversion_and_power():
    m = monomial(RING, -1, {"v": 2, "W1": -1})
    assert m * invert_monomial(m) == one(RING)
    assert m**0 == one(RING)
    assert m**-2 == invert_monomial(m) ** 2
    with pytest.raises(ValueError):
        invert_monomial(one(RING) + variable("v", RING))
    with pytest.raises(ValueError):
        invert_monomial(one(RING) * monomial(RING, 2, {}))


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


def test_substitution_takes_only_coefficient_one_monomials_of_its_target():
    # a -1 image was once carried as a sign, and an image from another ring re-injected
    p = monomial(RING, 3, {"v": 1, "W1": 1, "W2": 2})
    for images in (
        {"W1": monomial(RING, -1, {"W2": 1})},
        {"W1": monomial(RING, 2, {"W2": 1})},
        {"W1": variable("W1", ("v", "W1"))},
        {"W2": variable("W2", RING + ("Z1",))},
    ):
        with pytest.raises(ValueError, match="coefficient-1 monomial of the target ring"):
            substitute_monomials(p, RING, images)


def test_arithmetic_refuses_mixed_rings():
    a, b = variable("v", RING), variable("v", ("v", "W1"))
    for op in (lambda x, y: x + y, lambda x, y: x * y, lambda x, y: x - y):
        with pytest.raises(ValueError, match="different rings"):
            op(a, b)


def test_elementary_symmetric_refuses_an_index_out_of_range():
    for i in (-1, 3):
        with pytest.raises(ValueError, match="index out of range"):
            elementary_symmetric(i, ("W1", "W2"), RING)


def test_char_poly_refuses_empty_and_non_monic_coefficients():
    with pytest.raises(ValueError, match="empty polynomial"):
        CharPoly(())
    for lead in (monomial(RING, 2, {}), variable("v", RING), zero(RING)):
        with pytest.raises(ValueError, match="monic"):
            CharPoly((one(RING), lead))


def test_real_transform_refuses_a_foreign_ring():
    for p in (t_g_unitary(1, 1), t_g_real(1, 2), one(("v", "X1", "X2"))):
        with pytest.raises(ValueError, match="expected a polynomial in v, X_1..X_n"):
            satake_real(p, 1)


def test_substitution_without_images_embeds():
    p = rand_poly(random.Random(3))
    big = ("u",) + RING + ("T",)
    q = substitute_monomials(p, big, {})
    assert {e[1:4]: c for e, c in q.terms} == dict(p.terms)
    with pytest.raises(ValueError):
        substitute_monomials(p, ("v", "W1"), {})


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
    e1 = check_symmetric(elementary_symmetric(1, y_vars(1), ring), (y_vars(1),))
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
        out = out + elementary_symmetric(i, y_vars(n), ring) * monomial(
            ring, rng.randint(-3, 3), {"v": rng.randint(-2, 2)}
        )
    return check_symmetric(out, (y_vars(n),))


def rand_symmetric_real(rng, n):
    ring = ("v",) + x_vars(n)
    out = zero(ring)
    for _ in range(4):
        out = out + t_g_real(rng.randint(0, 2 * n + 1), n) * monomial(ring, rng.randint(-3, 3), {})
    return check_symmetric(out, (x_vars(n),), flip="X1")


@pytest.mark.parametrize("n", [1, 2])
def test_satake_maps_are_ring_homomorphisms(n):
    rng = random.Random(n)
    for _ in range(60):
        a, b = rand_symmetric_unitary(rng, n), rand_symmetric_unitary(rng, n)
        sa, sb = satake_unitary(a, n), satake_unitary(b, n)
        assert satake_unitary(check_symmetric(a * b, (y_vars(n),)), n) == sa * sb
        assert satake_unitary(check_symmetric(a + b, (y_vars(n),)), n) == sa + sb
        c, d = rand_symmetric_real(rng, n), rand_symmetric_real(rng, n)
        sc, sd = satake_real(c, n), satake_real(d, n)
        assert satake_real(check_symmetric(c * d, (x_vars(n),), flip="X1"), n) == sc * sd
        assert satake_real(check_symmetric(c + d, (x_vars(n),), flip="X1"), n) == sc + sd


def test_satake_output_carries_its_symmetry():
    p = satake_unitary(rand_symmetric_unitary(random.Random(5), 2), 2)
    assert check_symmetric(p, (w_vars(2), z_vars(2))) is p
    r = satake_real(rand_symmetric_real(random.Random(6), 2), 2)
    assert check_symmetric(r, (w_vars(2),)) is r


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
    # the message states the whole range, on both sides of it
    for case, guard in ((SatakeCase.UNITARY, 3), (SatakeCase.REAL, 2)):
        for n in (0, guard + 1):
            with pytest.raises(ValueError, match=f"^{case.value} factorization needs 1 <= n <= {guard}$"):
                verify_determinant_factorization(case, n)


def test_unitary_n1_expansion_matches_xw_xqz():
    report = verify_determinant_factorization(SatakeCase.UNITARY, 1, twist=False)
    assert report["verdict"]
    # (X - W1)(X - q Z1^{-1}) spelled out: constant v^2 W1 Z1^{-1} on both sides
    for side in ("lhs", "rhs"):
        assert report[side][0]["monomials"] == [{"exps": [2, 1, -1], "vcoeff": 1}]


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
