"""The one-pass kernels of the neck algebra against the formulas they replace.

``boundary_parts`` (the parity split of z -> +-delta/2), ``green_solve`` and
``diff2`` must give the same term maps (representation equality ``==``, not
``.equal``) as a termwise boundary substitution, the two-substitution Green
correction and a chain of first derivatives.  The zero test and the order
read in the delta basis must agree with the expansion over delta^R.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

import pytest

from lamegap.coeffs import RationalCoeff
from lamegap.families import alpha_range, build_family
from lamegap.neck import DIM2, DIM3, NeckScalar, green_solve, term_order


def substitute_reference(w: NeckScalar, side: str) -> NeckScalar:
    """z -> side * delta/2, term by term: c z^q ... -> c (side/2)^q delta^q ..."""
    sign = 1 if side == "+" else -1
    out = NeckScalar.zero(w.dim)
    for (p, q, s, r), c in w.terms.items():
        term = NeckScalar.term(w.dim, c.scale(Fraction(sign**q, 2**q)), p=p, s=s, r=r)
        out = out + term.mul_delta(q)
    return out


def green_reference(g: NeckScalar) -> NeckScalar:
    """The two-substitution Green solve: A = -(top + bot)/2, B = -(top - bot)/delta."""
    anti = {}
    for (p, q, s, r), c in g.terms.items():
        anti[(p, q + 2, s, r)] = c.scale(Fraction(1, (q + 1) * (q + 2)))
    w0 = NeckScalar(g.dim, anti)
    top = substitute_reference(w0, "+")
    bot = substitute_reference(w0, "-")
    a = (top + bot).scale(Fraction(-1, 2))
    b = (top - bot).scale(-1).mul_delta(-1)
    return w0 + a + b.mul_z(1)


def order_reference(scal: NeckScalar) -> Fraction:
    """Lowest weighted degree of the delta^R numerator, minus R."""
    big_r = max(r for (_, _, _, r) in scal.terms)
    return min(term_order((p, q, s, big_r)) for (p, q, s) in scal.expand_polynomial())


def assert_zero_test_matches(scal: NeckScalar) -> None:
    zero = not scal.expand_polynomial()
    assert scal.equal(NeckScalar.zero(scal.dim)) is zero
    if not zero:
        assert scal.expanded_order() == order_reference(scal)


def assert_kernels_match(scal: NeckScalar) -> None:
    even, odd = scal.boundary_parts()
    top = substitute_reference(scal, "+")
    bot = substitute_reference(scal, "-")
    assert even + odd == top == scal.substitute_boundary("+")
    assert even - odd == bot == scal.substitute_boundary("-")
    assert green_solve(scal) == green_reference(scal)
    for a, b in product(scal.dim.axes, repeat=2):
        assert scal.diff2(a, b) == scal.diff(b).diff(a)
    assert_zero_test_matches(scal)


@pytest.fixture(scope="module")
def all_families_depth3():
    return [
        build_family(dim, alpha, 3, route=route)
        for route in ("integral", "recursion")
        for dim in (DIM2, DIM3)
        for alpha in alpha_range(dim, route)
    ]


def test_kernels_match_on_every_family_component(all_families_depth3):
    assert len(all_families_depth3) == 14
    checked = 0
    for fam in all_families_depth3:
        for fld in fam.levels + fam.residuals:
            for comp in fld.components:
                assert_kernels_match(comp)
                checked += 1
    assert checked == 2 * 3 * (3 * 2 + 6 * 3 + 2 * 2 + 3 * 3)


def test_parts_of_mixed_parity_terms():
    # z^2 x1 / delta^3 + z eps / delta: E = x1/(4 delta), O = eps/2
    scal = NeckScalar(
        DIM2,
        {((1,), 2, 0, 3): RationalCoeff.from_int(1), ((0,), 1, 1, 1): RationalCoeff.from_int(1)},
    )
    even, odd = scal.boundary_parts()
    assert even == NeckScalar.term(DIM2, RationalCoeff.from_fraction(Fraction(1, 4)), p=(1,), r=1)
    assert odd == NeckScalar.term(DIM2, RationalCoeff.from_fraction(Fraction(1, 2)), s=1)
    assert_kernels_match(scal)


def test_kernels_match_on_drawn_scalars():
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @st.composite
    def scalars(draw):
        dim = draw(st.sampled_from((DIM2, DIM3)))
        terms = {}
        for _ in range(draw(st.integers(1, 5))):
            key = (
                tuple(draw(st.integers(0, 3)) for _ in range(dim.n_tangential)),
                draw(st.integers(0, 5)),
                draw(st.integers(0, 2)),
                draw(st.integers(0, 4)),
            )
            num = draw(st.integers(-6, 6))
            if num:
                den = draw(st.integers(1, 5))
                terms[key] = RationalCoeff.from_fraction(Fraction(num, den))
        return NeckScalar(dim, terms)

    @settings(max_examples=60, deadline=None)
    @given(scalars(), scalars())
    def check(scal, other):
        assert_kernels_match(scal)
        # the same function over another delta power, and a sum that cancels
        # only after expansion
        same = scal.mul_delta(2).mul_delta(-2)
        assert same.equal(scal)
        assert_zero_test_matches(same - scal)
        if other.dim == scal.dim:
            assert_zero_test_matches(scal.mul_delta(1) - other)

    check()
