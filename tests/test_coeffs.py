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
    a = C("(l + m) / m")
    b = C("m / (l + m)")
    assert a * b == ONE


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
    b = ((LAM + MU) * (LAM + MU)) / ((LAM + MU + MU) * (LAM + MU))
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


@st.composite
def rationals(draw):
    return RationalCoeff(draw(small_polys), draw(nonzero_polys))


@settings(max_examples=60, deadline=None)
@given(rationals(), rationals(), rationals())
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a
    if not a.is_zero():
        assert a * a.inv() == ONE


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
    return RationalCoeff(num, draw(nonzero_polys).scale(draw(st.integers(1, 6))))


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
