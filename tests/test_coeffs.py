from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lamegap.coeffs import (
    LAM,
    MU,
    ONE,
    ZERO,
    CoeffDivisionError,
    CoeffError,
    CoeffPoleError,
    ParamPoly,
    RationalCoeff,
    parse,
    poly_gcd,
)


def C(text: str) -> RationalCoeff:
    return parse(text)


# -- spec examples ----------------------------------------------------------


def test_add_to_one():
    a = C("(l + m) / (l + 2*m)")
    b = C("m / (l + 2*m)")
    assert a + b == ONE


def test_reciprocal_pair():
    a = C("(l + 2*m) / m")
    b = C("m / (l + 2*m)")
    assert a * b == ONE
    assert a.inv() == b and b.inv() == a


def test_cancellation_to_zero():
    assert C("l + m") - C("l") - C("m") == ZERO


def test_eval_examples():
    assert C("(2*l + 3*m) / (3*(l + 2*m))").evaluate(1, 1) == Fraction(5, 9)
    assert C("(l + m) / (l + 2*m)").evaluate(0, 1) == Fraction(1, 2)
    with pytest.raises(CoeffPoleError):
        C("1 / m").evaluate(1, 0)


def test_is_zero_examples():
    assert ZERO.is_zero()
    assert (C("l*m / (l + 2*m)") - C("m*l / (l + 2*m)")).is_zero()
    assert not C("(l - m) / m").is_zero()


def test_division_by_zero_errors():
    with pytest.raises(CoeffDivisionError):
        C("l") / ZERO
    with pytest.raises(CoeffDivisionError):
        ZERO.inv()


# -- canonical form ---------------------------------------------------------


def test_canonical_across_paths():
    # same rational function assembled two different ways
    a = (LAM + MU) / (LAM + MU + MU)
    b = ((LAM + MU) * MU) / ((LAM + MU + MU) * MU)
    assert a.num == b.num and a.den == b.den
    assert hash(a) == hash(b)


def test_content_and_sign_normalized():
    a = RationalCoeff(ParamPoly({(1, 0): 2, (0, 1): 2}), ParamPoly({(0, 1): -4}))
    # (2l + 2m)/(-4m) -> -(l + m)/(2m)
    assert a.den.leading()[1] > 0
    assert a == C("-(l + m) / (2*m)")


def test_render_parse_roundtrip():
    samples = [
        "((2*l + 3*m)) / (3*(l + 2*m))",
        "(l + m) / m",
        "-(l**2 + 2*l*m) / (7*m**2)",
        "5",
        "0",
    ]
    for s in samples:
        v = parse(s)
        assert parse(v.render()) == v


@pytest.mark.parametrize(
    "power, product",
    [
        ("(2*l)**3", "8*l**3"),
        ("(-3*l*m**2)**2", "9*l**2*m**4"),
        ("(l + 2*m)**3 / m**2", "(l + 2*m)*(l + 2*m)*(l + 2*m) / (m*m)"),
        ("((l + m) / m)**2", "(l + m)*(l + m) / m**2"),
        ("(2*m)**0", "1"),
        ("0**2", "0"),
    ],
)
def test_parse_powers_match_products(power, product):
    assert parse(power) == parse(product)


def test_render_matches_reference_style():
    v = C("(2*l + 3*m) / (3*l + 6*m)")
    assert v.render() == "((2*l + 3*m)) / (3*(l + 2*m))"


@pytest.mark.parametrize("text", ["True", "False", "l**True", "m**False", "2*l + True"])
def test_parse_rejects_booleans(text):
    with pytest.raises(CoeffError):
        parse(text)


# -- gcd --------------------------------------------------------------------


def test_poly_gcd_basic():
    lpm = ParamPoly({(1, 0): 1, (0, 1): 1})
    lp2m = ParamPoly({(1, 0): 1, (0, 1): 2})
    a = lpm * lp2m
    b = lpm * lpm
    g = poly_gcd(a, b)
    assert g == lpm


def test_poly_gcd_content():
    a = ParamPoly({(1, 0): 6, (0, 1): 6})
    b = ParamPoly({(1, 0): 4, (0, 1): 4})
    assert poly_gcd(a, b) == ParamPoly({(1, 0): 2, (0, 1): 2})


def P(text: str) -> ParamPoly:
    return parse(text).num


@pytest.mark.parametrize(
    "a, b, expected",
    [
        # one-term argument
        ("6*l**2*m", "4*l*m**3 + 2*l**3", "2*l"),
        # integers only
        ("-4", "6", "2"),
        # mu content on both sides plus a common lam-primitive factor
        ("m*(l + 2*m)**2", "3*m**2*(l + 2*m)", "l*m + 2*m**2"),
        # negative leading coefficient, integer contents 2 and 3
        ("-2*l - 4*m", "3*l**2 + 6*l*m", "l + 2*m"),
    ],
)
def test_poly_gcd_fixed_cases(a, b, expected):
    assert poly_gcd(P(a), P(b)).render() == expected
    assert poly_gcd(P(b), P(a)).render() == expected


# -- property tests ---------------------------------------------------------


small_polys = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)),
    st.integers(-4, 4),
    max_size=4,
).map(ParamPoly)

nonzero_polys = small_polys.filter(lambda p: not p.is_zero())

L2M = ParamPoly({(1, 0): 1, (0, 1): 2})


@st.composite
def ring_dens(draw):
    """+-c mu^a (lam+2mu)^b, expanded: every denominator the ring allows."""
    c = draw(st.integers(1, 6)) * draw(st.sampled_from((1, -1)))
    return (ParamPoly.mu() ** draw(st.integers(0, 2)) * L2M ** draw(st.integers(0, 2))).scale(c)


@st.composite
def ring_products(draw):
    """Sums of products of the ring's generators: integers, Fractions, l, m,
    l + 2m, and the inverses of m and l + 2m."""
    gens = (LAM, MU, LAM + MU + MU, MU.inv(), (LAM + MU + MU).inv())
    acc = ZERO
    for _ in range(draw(st.integers(0, 3))):
        term = RationalCoeff.from_fraction(draw(st.fractions(-6, 6, max_denominator=6)))
        for g in draw(st.lists(st.sampled_from(gens), max_size=3)):
            term = term * g
        acc = acc + term
    return acc


@st.composite
def rationals(draw):
    # half through the constructor from (lam, mu) polynomials, half through
    # the ring operations on the generators
    if draw(st.booleans()):
        return draw(ring_products())
    return RationalCoeff(draw(small_polys), draw(ring_dens()))


@settings(max_examples=60, deadline=None)
@given(rationals(), rationals(), rationals())
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a
    if not a.is_zero():
        try:
            inv = a.inv()
        except CoeffError:
            # only +-c mu^i (lam+2mu)^j is a unit: the numerator is no denominator
            with pytest.raises(CoeffError):
                RationalCoeff(a.den, a.num)
        else:
            assert a * inv == ONE


@settings(max_examples=60, deadline=None)
@given(rationals(), rationals())
def test_eval_is_homomorphism(a, b):
    pts = [(Fraction(2), Fraction(3)), (Fraction(1, 2), Fraction(5))]
    for lam, mu in pts:
        try:
            va, vb = a.evaluate(lam, mu), b.evaluate(lam, mu)
            assert (a + b).evaluate(lam, mu) == va + vb
            assert (a * b).evaluate(lam, mu) == va * vb
        except CoeffPoleError:
            continue


@settings(max_examples=40, deadline=None)
@given(small_polys, small_polys, nonzero_polys)
def test_gcd_divides(a, b, g):
    ag, bg = a * g, b * g
    d = poly_gcd(ag, bg)
    if ag.is_zero() and bg.is_zero():
        assert d.is_zero()
        return
    # g divides the gcd, and the gcd divides both products
    d.exact_div(poly_gcd(d, g))  # no exception: gcd(d, g) divides d
    assert poly_gcd(d, g) == poly_gcd(g, d)
    ag.exact_div(d)
    bg.exact_div(d)


@settings(max_examples=40, deadline=None)
@given(small_polys, small_polys, nonzero_polys)
def test_gcd_is_maximal(a, b, g):
    # every common factor g of the two products divides their gcd
    d = poly_gcd(a * g, b * g)
    d.exact_div(g)


@settings(max_examples=60, deadline=None)
@given(rationals(), rationals())
def test_product_is_canonical(a, b):
    x = a * b
    y = RationalCoeff(x.num, x.den)
    assert y.num == x.num and y.den == x.den


# -- fast paths: content-only scale, Henrici sum, internal results -----------

scalars = st.one_of(
    st.integers(-12, 12),
    st.fractions(min_value=-12, max_value=12, max_denominator=12),
)


@st.composite
def contented_rationals(draw):
    # integer contents on both sides, so scaling has content to cancel
    num = draw(small_polys).scale(draw(st.integers(1, 6)))
    return RationalCoeff(num, draw(ring_dens()).scale(draw(st.integers(1, 6))))


@pytest.mark.parametrize(
    "a, q, expected",
    [
        ("2*l / (3*m)", Fraction(9, 4), "3*l / (2*m)"),  # both contents cancel
        ("4*(l + m) / (9*m)", Fraction(-3, 2), "-2*(l + m) / (3*m)"),
        ("(l + m) / (6*(l + 2*m))", 4, "2*(l + m) / (3*(l + 2*m))"),
        ("l / m", 0, "0"),
    ],
)
def test_scale_fixed_cases(a, q, expected):
    got = C(a).scale(q)
    assert got.num == C(expected).num and got.den == C(expected).den


def _assert_clean(p: ParamPoly) -> None:
    for (i, j), c in p.terms.items():
        assert type(i) is int and type(j) is int and i >= 0 and j >= 0
        assert type(c) is int and c != 0


@settings(max_examples=80, deadline=None)
@given(st.one_of(rationals(), contented_rationals()), scalars)
def test_scale_matches_product(a, q):
    x = a.scale(q)
    assert x == a * RationalCoeff.from_fraction(q)
    y = RationalCoeff(x.num, x.den)
    assert y.num == x.num and y.den == x.den


@settings(max_examples=80, deadline=None)
@given(contented_rationals(), contented_rationals())
def test_sum_is_canonical(a, b):
    for x in (a + b, a - b):
        y = RationalCoeff(x.num, x.den)
        assert y.num == x.num and y.den == x.den


@settings(max_examples=60, deadline=None)
@given(rationals(), rationals(), scalars)
def test_internal_results_are_clean(a, b, q):
    for x in (a + b, a - b, a * b, a.scale(q)):
        _assert_clean(x.num)
        _assert_clean(x.den)
    n, d = a.num * b.den, b.den
    for p in (n + d, n - d, n * d, -n, n.scale(-3), n.exact_div(d), poly_gcd(n, d)):
        _assert_clean(p)


@settings(max_examples=30, deadline=None)
@given(rationals(), rationals(), scalars)
def test_field_operations_match_sympy(a, b, q):
    sympy = pytest.importorskip("sympy")
    names = {"l": sympy.Symbol("l"), "m": sympy.Symbol("m")}

    def S(x):
        return sympy.sympify(x.render() if isinstance(x, (RationalCoeff, ParamPoly)) else x, locals=names)

    for got, expected in (
        (a + b, S(a) + S(b)),
        (a * b, S(a) * S(b)),
        (a.scale(q), S(a) * sympy.Rational(q.numerator, q.denominator)),
    ):
        assert sympy.cancel(S(got) - expected) == 0
        # the result is in lowest terms over Z[l, m]
        assert sympy.gcd(S(got.num), S(got.den)) == 1


# -- the ring Q[lam, mu][1/mu, 1/(lam+2mu)] -----------------------------------


@settings(max_examples=80, deadline=None)
@given(rationals())
def test_render_and_lam_mu_form_round_trip(x):
    assert parse(x.render()) == x
    assert RationalCoeff(x.num, x.den) == x
    # the denominator is c mu^a (lam+2mu)^b with a positive c, a unit of the ring
    den = RationalCoeff(x.den)
    assert x * den == RationalCoeff(x.num)
    assert den * den.inv() == ONE and x.den.leading()[1] > 0


@pytest.mark.parametrize(
    "text", ["1/(l + m)", "m/l", "1/(l - 2*m)", "(l + 2*m)/(l*m + m**2)", "1/(2*m*(l + 2*m)*(l - m))"]
)
def test_parse_out_of_the_ring_raises(text):
    with pytest.raises(CoeffError, match="not in Q"):
        parse(text)


@pytest.mark.parametrize("text", ["l", "l + m", "m + 1", "2*l + 4*m + 1"])
def test_inverse_of_a_non_monomial_raises(text):
    x = C(text)
    with pytest.raises(CoeffError, match="not in Q"):
        x.inv()
    with pytest.raises(CoeffError, match="not in Q"):
        ONE / x


@pytest.mark.parametrize(
    "den", ["l", "l + m", "m*(l + m)", "l**2 + 4*m**2", "2*l + 3*m", "2*m*(l + 2*m)*(l + m)"]
)
def test_constructor_rejects_a_denominator_outside_the_ring(den):
    # a factor other than mu and lam + 2mu is rejected where it enters, never
    # reduced: the numerator does not matter, even one that the denominator divides
    with pytest.raises(CoeffError, match="not of the form"):
        RationalCoeff(P(den), P(den))
    with pytest.raises(CoeffError, match="not of the form"):
        RationalCoeff(ParamPoly.const(1), P(den))
