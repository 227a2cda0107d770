"""The denominators c * mu^a * (lam+2mu)^b of the coefficient ring: the
cancellation that the Laurent form implies, against the primitive PRS."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lamegap import coeffs
from lamegap.coeffs import ParamPoly, RationalCoeff, parse, poly_gcd

L2M = parse("l + 2*m")


def P(text: str) -> ParamPoly:
    return parse(text).num


def _den(c: int, a: int, b: int) -> ParamPoly:
    return coeffs._modulus_power(a, b).scale(c)


def _reduced_gcd(t: ParamPoly, d: ParamPoly) -> tuple[ParamPoly, ParamPoly]:
    """h = gcd(t, d) as the canonical form of t / d cancels it, and t / h."""
    x = RationalCoeff(t, d)
    return d.exact_div(x.den), x.num


@pytest.mark.parametrize(
    "t, k",
    [
        ("l + m", 0),
        ("3*l**2 + 6*l*m", 1),  # 3 l (l + 2m)
        ("l**3 + 4*l**2*m + 4*l*m**2 - 2*m**3", 0),
        ("(l + 2*m)**2 * (l - m)", 2),
        ("(l + 2*m)**2 * m**3", 2),
    ],
)
def test_order_of_lam_plus_2mu(t, k):
    # (lam + 2mu)^k divides t, and (lam + 2mu)^(k+1) does not: dividing by
    # the k-th power leaves a polynomial, by the next one a denominator
    x = parse(t)
    q = x / parse(f"(l + 2*m)**{k}")
    assert q.den == ParamPoly.const(1)
    assert q.num * coeffs._modulus_power(0, k) == x.num
    assert (q / L2M).den == P("l + 2*m")


@pytest.mark.parametrize(
    "t, den, gcd",
    [
        # den = 6 m^2 (l + 2m)^2: content, mu and lam+2mu orders all cancel
        ("4*m*(l + 2*m)", (6, 2, 2), "2*l*m + 4*m**2"),
        ("(l + 2*m)**3", (6, 2, 2), "l**2 + 4*l*m + 4*m**2"),
        ("5*l", (6, 2, 2), "1"),
        ("9*l**2*m**3", (6, 2, 2), "3*m**2"),
    ],
)
def test_structured_gcd_fixed_cases(t, den, gcd):
    h, t_h = _reduced_gcd(P(t), _den(*den))
    assert h.render() == gcd
    assert t_h * h == P(t)


small_polys = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)),
    st.integers(-5, 5),
    max_size=5,
).map(ParamPoly)
nonzero_polys = small_polys.filter(lambda p: not p.is_zero())


@st.composite
def dens(draw) -> ParamPoly:
    return _den(draw(st.integers(1, 12)), draw(st.integers(0, 3)), draw(st.integers(0, 3)))


@st.composite
def structured_polys(draw) -> ParamPoly:
    # a numerator with mu and lam+2mu factors of its own
    p = draw(nonzero_polys) * coeffs._modulus_power(draw(st.integers(0, 2)), draw(st.integers(0, 3)))
    return p.scale(draw(st.integers(1, 6)))


@settings(max_examples=120, deadline=None)
@given(st.one_of(nonzero_polys, structured_polys()), dens())
def test_structured_gcd_matches_prs(t, d):
    h, t_h = _reduced_gcd(t, d)
    prs = poly_gcd(t, d)
    assert h == prs or h == -prs
    assert t_h * h == t


@settings(max_examples=120, deadline=None)
@given(small_polys, dens())
def test_den_of_coprime_inputs_is_kept(n, d):
    g = poly_gcd(n, d) if not n.is_zero() else d
    n, d = n.exact_div(g), d.exact_div(g)
    if d.leading()[1] < 0:
        n, d = -n, -d
    x = RationalCoeff(n, d)
    if n.is_zero():
        assert x.den == ParamPoly.const(1)
        return
    assert x.num == n and x.den == d
    # and a negated denominator moves its sign to the numerator
    assert RationalCoeff(-n, -d) == x and RationalCoeff(n, -d) == -x
