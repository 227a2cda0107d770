"""The factored denominators c * mu^a * (lam+2mu)^b * rest of the coefficient
field: the structured gcd against the primitive PRS, and a count gate that
keeps the family builds off the PRS."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lamegap import coeffs, families
from lamegap.coeffs import ParamPoly, RationalCoeff, parse, poly_gcd
from lamegap.families import alpha_range, build_family
from lamegap.neck import DIM2, DIM3


def P(text: str) -> ParamPoly:
    return parse(text).num


def _reduced_gcd(t: ParamPoly, d: coeffs.Den) -> tuple[ParamPoly, ParamPoly]:
    """h = gcd(t, d) as _cancel finds it, and t / h."""
    t_h, d_h = coeffs._cancel(t, d)
    return coeffs._expand(d).exact_div(coeffs._expand(d_h)), t_h


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
    p = P(t)
    # (lam + 2mu)^k divides p, and (lam + 2mu)^(k+1) does not
    i, got, q = coeffs._strip(p, 0, 5)
    assert (i, got) == (0, k)
    assert q * coeffs._modulus_power(0, k) == p
    assert not coeffs._l2m_divides(q)
    # a cap below the order stops early
    assert coeffs._strip(p, 0, 1)[1] == min(k, 1)


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
    h, t_h = _reduced_gcd(P(t), (*den, coeffs._ONE))
    assert h.render() == gcd
    assert t_h * h == P(t)


@pytest.mark.parametrize(
    "t, gcd, rest",
    [
        ("(l + m)*(l - m)", "l + m", "1"),
        ("2*m*(l + m)**2", "2*l*m + 2*m**2", "1"),  # content 2 and mu on top of rest
        ("l*(l + 2*m)", "l + 2*m", "l + m"),
        ("l - m", "1", "l + m"),
    ],
)
def test_rest_factor_fixed_cases(t, gcd, rest):
    # den = 2 m (l + 2m) (l + m): the rest l + m goes through the PRS
    d = (2, 1, 1, P("l + m"))
    h, _ = _reduced_gcd(P(t), d)
    assert h.render() == gcd
    x = RationalCoeff(P(t), coeffs._expand(d))
    assert x == parse(f"({t}) / (2*m*(l + 2*m)*(l + m))")
    assert x._d[3] == P(rest)


small_polys = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)),
    st.integers(-5, 5),
    max_size=5,
).map(ParamPoly)
nonzero_polys = small_polys.filter(lambda p: not p.is_zero())


@st.composite
def dens(draw) -> coeffs.Den:
    # rest is what is left of a random polynomial once its content, mu and
    # lam+2mu factors are taken out, so it is often 1
    _, (_, _, _, rest) = coeffs._factor(draw(nonzero_polys))
    return (draw(st.integers(1, 12)), draw(st.integers(0, 3)), draw(st.integers(0, 3)), rest)


@st.composite
def structured_polys(draw) -> ParamPoly:
    # a numerator with mu and lam+2mu factors of its own
    p = draw(nonzero_polys) * coeffs._modulus_power(draw(st.integers(0, 2)), draw(st.integers(0, 3)))
    return p.scale(draw(st.integers(1, 6)))


@settings(max_examples=120, deadline=None)
@given(st.one_of(nonzero_polys, structured_polys()), dens())
def test_structured_gcd_matches_prs(t, d):
    h, t_h = _reduced_gcd(t, d)
    prs = coeffs._gcd(t, coeffs._expand(d), 0)
    assert h == prs or h == -prs
    assert t_h * h == t


@settings(max_examples=120, deadline=None)
@given(small_polys, nonzero_polys)
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
    sign, (c, a, b, rest) = coeffs._factor(d)
    assert sign == 1 and x._d == (c, a, b, rest)
    assert coeffs._expand(x._d) == d


def test_family_builds_never_reach_the_prs(monkeypatch):
    # every family denominator is c mu^a (lam+2mu)^b, so no build needs the
    # PRS; count its entries, recursive ones included
    calls = []
    prs = coeffs._gcd

    def counted(*args):
        calls.append(args)
        return prs(*args)

    monkeypatch.setattr(coeffs, "_gcd", counted)
    # build every family anew, not from an earlier test's builds
    monkeypatch.setattr(families, "_BUILT", {})
    for dim in (DIM2, DIM3):
        for alpha in alpha_range(dim):
            build_family(dim, alpha, 3)
        for alpha in alpha_range(dim, "recursion"):
            build_family(dim, alpha, 4, route="recursion")
    assert len(calls) == 0
    # the counter sees the fallback: a rest factor l + m reaches the PRS
    parse("1 / (l + m)") + parse("1 / (l - m)")
    assert len(calls) > 0
