"""The one-pass kernels of the neck algebra against the formulas they replace.

``boundary_parts`` (the parity split of z -> +-delta/2), ``green_solve``,
``diff2`` and ``lincomb`` must give the same term maps (representation
equality ``==``, not ``.equal``) as a termwise boundary substitution, the
two-substitution Green correction, a chain of first derivatives and a
pairwise chain of ``diff``/``diff2``/``scale``/``+``.  The accumulator
behind them must give the map, in the same order, of adding its
contributions one at a time with ``RationalCoeff`` ``+``.  The zero test and the
order read in the delta basis must agree with the expansion over delta^R,
the integer growth orders with the Fractions of ``term_order``, and the
integer evaluation of a coefficient with its (lam, mu) form num/den.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

import pytest

from lamegap.coeffs import (
    LAM, MU, ONE, ZERO, CoeffError, CoeffPoleError, ParamPoly, RationalCoeff,
)
from lamegap.families import LAM_P_2MU, LAM_P_MU, alpha_range, build_family, lame_apply
from lamegap.neck import (
    DIM2, DIM3, NeckError, NeckScalar, _monomial_diff, _monomial_diff2, _sum_terms, green_solve,
    lincomb, term_order,
)


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


def lame_reference(u) -> list[NeckScalar]:
    """The Lame operator as the pairwise chain mu Lap u_i + (lam+mu) d_i div u."""
    axes = u.dim.axes
    div = NeckScalar.zero(u.dim)
    for j, comp in enumerate(u.components):
        div = div + comp.diff(axes[j])
    out = []
    for i, comp in enumerate(u.components):
        lap = NeckScalar.zero(u.dim)
        for ax in axes:
            lap = lap + comp.diff2(ax, ax)
        out.append(lap.scale(MU) + div.diff(axes[i]).scale(LAM_P_MU))
    return out


def chain_reference(dim, parts) -> NeckScalar:
    """sum of factor * d_axes scalar, one pairwise diff/diff2/scale/+ at a time."""
    acc = NeckScalar.zero(dim)
    for scal, axes, f in parts:
        if axes is not None:
            scal = scal.diff(axes[0]) if len(axes) == 1 else scal.diff2(*axes)
        acc = acc + scal.scale(f)
    return acc


def one_by_one(contributions) -> tuple[dict, bool]:
    """(key, coefficient) contributions added one at a time with ``+``: a
    key whose sum cancels is dropped, and re-enters at its next
    contribution.  Also whether any running sum cancelled."""
    out, cancelled = {}, False
    for k, c in contributions:
        if k in out:
            c = out[k] + c
        if c:
            out[k] = c
        elif out.pop(k, None) is not None:
            cancelled = True
    return out, cancelled


def lincomb_contributions(parts) -> list:
    """The (key, coefficient) contributions of ``lincomb``'s parts, part by
    part and term by term."""
    out = []
    for scal, axes, f in parts:
        nt = scal.dim.n_tangential
        idx = [scal.dim.axes.index(a) for a in axes or ()]
        for key, c in scal.terms.items():
            if not idx:
                mults = [(key, 1)]
            elif len(idx) == 1:
                mults = _monomial_diff(key, idx[0], nt)
            else:
                mults = _monomial_diff2(key, idx[0], idx[1], nt)
            out += [(k, c * f * RationalCoeff.from_int(m)) for k, m in mults]
    return out


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


def test_lame_apply_keeps_the_chain_and_its_term_order(all_families_depth3):
    # float evaluation sums in term order, so the fused operator must keep it
    for fam in all_families_depth3:
        for fld in fam.levels:
            got = lame_apply(fld).components
            ref = lame_reference(fld)
            assert list(got) == ref
            assert [list(c.terms) for c in got] == [list(c.terms) for c in ref]


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

    @settings(max_examples=60, deadline=None)
    @given(scalar_strategy(st), scalar_strategy(st))
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


def scalar_strategy(st, dim=None, ring=False):
    """Neck scalars over DIM2 or DIM3 (or the given dim) with Fraction
    coefficients, or with ring elements when ring is set."""
    gens = (ONE, MU, LAM, LAM_P_MU, LAM_P_2MU, ONE / MU, LAM_P_MU / LAM_P_2MU)

    @st.composite
    def scalars(draw):
        d = dim if dim is not None else draw(st.sampled_from((DIM2, DIM3)))
        terms = {}
        for _ in range(draw(st.integers(1, 5))):
            key = (
                tuple(draw(st.integers(0, 3)) for _ in range(d.n_tangential)),
                draw(st.integers(0, 5)),
                draw(st.integers(0, 2)),
                draw(st.integers(0, 4)),
            )
            num = draw(st.integers(-6, 6))
            if num:
                c = RationalCoeff.from_fraction(Fraction(num, draw(st.integers(1, 5))))
                terms[key] = c * draw(st.sampled_from(gens)) if ring else c
        return NeckScalar(d, terms)

    return scalars()


def test_lincomb_matches_the_pairwise_chain():
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings
    from hypothesis import strategies as st

    factors = (ONE, ZERO, MU, LAM_P_MU, LAM_P_2MU, -(ONE / MU), -(LAM_P_MU / LAM_P_2MU),
               RationalCoeff.from_fraction(Fraction(-3, 7)), (LAM + MU.scale(5)) / MU.scale(6))

    @st.composite
    def combinations(draw):
        dim = draw(st.sampled_from((DIM2, DIM3)))
        axes = st.one_of(
            st.none(),
            st.tuples(st.sampled_from(dim.axes)),
            st.tuples(st.sampled_from(dim.axes), st.sampled_from(dim.axes)),
        )
        parts = [
            (draw(scalar_strategy(st, dim, ring=True)), draw(axes), draw(st.sampled_from(factors)))
            for _ in range(draw(st.integers(1, 4)))
        ]
        return dim, parts

    @settings(max_examples=80, deadline=None)
    @given(combinations(), st.booleans())
    def check(comb, cancel):
        dim, parts = comb
        got = lincomb(dim, parts)
        chain = chain_reference(dim, parts)
        assert got == chain
        # the order of adding every contribution one at a time; the pairwise
        # chain cancels part by part, so its order is the same only when no
        # running sum of the contributions cancels
        ref, cancelled = one_by_one(lincomb_contributions(parts))
        assert list(got.terms.items()) == list(ref.items())
        if not cancelled:
            assert list(got.terms) == list(chain.terms)
        # the same parts again with negated factors cancel every term
        negated = [(scal, axes, -f) for scal, axes, f in parts]
        assert lincomb(dim, parts + negated).is_zero()
        if cancel:
            # a part and its negation around another part leave that part
            scal, axes, f = parts[0]
            rest = [(scal, axes, f), parts[-1], (scal, axes, -f)]
            got = lincomb(dim, rest)
            assert got == chain_reference(dim, [parts[-1]])
            ref, _ = one_by_one(lincomb_contributions(rest))
            assert list(got.terms.items()) == list(ref.items())

    check()


def test_sum_terms_adds_contributions_one_at_a_time():
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings
    from hypothesis import strategies as st

    gens = (ONE, MU, LAM_P_2MU, ONE / MU, LAM_P_MU / LAM_P_2MU, (LAM + MU.scale(5)) / MU.scale(6))
    coeffs = st.builds(
        lambda num, den, g: RationalCoeff.from_fraction(Fraction(num, den)) * g,
        st.integers(-4, 4).filter(bool), st.integers(1, 6), st.sampled_from(gens),
    )
    # few keys, coefficients and multipliers, so that running sums often cancel
    mults = st.lists(st.tuples(st.integers(0, 2), st.sampled_from((-2, -1, 1, 2))), max_size=3)
    rows = st.lists(st.tuples(st.sampled_from((ONE, -ONE, MU.scale(2))) | coeffs, mults),
                    max_size=8)

    def summed(drawn):
        got = _sum_terms([(x._t, x._c, m) for x, m in drawn])
        want, _ = one_by_one((k, x * RationalCoeff.from_int(n)) for x, m in drawn for k, n in m)
        assert list(got.items()) == list(want.items())
        return got

    @settings(max_examples=100, deadline=None)
    @given(rows, coeffs, coeffs, coeffs)
    def check(drawn, a, b, c):
        summed(drawn)
        got = summed([
            (a, [("mid", 1), ("end", 2)]),
            (b, [("never", 1)]),
            (a, [("mid", -1)]),  # mid cancels mid-way ...
            (c, [("mid", 3)]),  # ... and re-enters at the end
            (a, [("end", -2)]),  # end cancels at the end
        ])
        assert list(got) == ["never", "mid"]
        assert got["never"] == b and got["mid"] == c * RationalCoeff.from_int(3)

    check()


def test_lincomb_rejects_mixed_dimensions():
    with pytest.raises(NeckError):
        lincomb(DIM2, [(NeckScalar.one(DIM3), None, ONE)])


def test_integer_orders_match_term_order():
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @settings(max_examples=80, deadline=None)
    @given(scalar_strategy(st), scalar_strategy(st))
    def check(scal, other):
        if other.dim == scal.dim:
            scal = scal + other.mul_delta(1) - other.mul_z(1)
        if scal.is_zero():
            with pytest.raises(NeckError):
                scal.neck_order()
            return
        assert scal.neck_order() == min(map(term_order, scal.terms))
        basis = scal._delta_basis()
        if not basis:
            with pytest.raises(NeckError):
                scal.expanded_order()
            return
        want = min(Fraction(sum(p), 2) + q + e for (p, q, e) in basis)
        assert scal.expanded_order() == want

    check()


def test_coefficient_evaluation_matches_its_lam_mu_form():
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings
    from hypothesis import strategies as st

    l2m = ParamPoly({(1, 0): 1, (0, 1): 2})

    @st.composite
    def coeffs(draw):
        num = ParamPoly({
            (draw(st.integers(0, 3)), draw(st.integers(0, 3))): draw(st.integers(-9, 9))
            for _ in range(draw(st.integers(0, 4)))
        })
        c = draw(st.integers(1, 12)) * draw(st.sampled_from((1, -1)))
        den = (ParamPoly.mu() ** draw(st.integers(0, 3)) * l2m ** draw(st.integers(0, 3))).scale(c)
        return RationalCoeff(num, den)

    def divides(factor: ParamPoly, p: ParamPoly) -> bool:
        try:
            p.exact_div(factor)
        except CoeffError:
            return False
        return True

    @settings(max_examples=100, deadline=None)
    @given(coeffs(), st.fractions(-5, 5, max_denominator=7), st.fractions(-5, 5, max_denominator=7))
    def check(x, lam, mu):
        num, den = x.num, x.den
        if mu != 0 and lam + 2 * mu != 0:
            assert x.evaluate(lam, mu) == num.evaluate(lam, mu) / den.evaluate(lam, mu)
        # at mu = 0 (lam != 0) and at lam = -2mu (mu != 0) the value is a
        # pole exactly when the lowest-terms denominator has that factor
        for at, factor in (((lam or 1, Fraction(0)), ParamPoly.mu()), ((-2 * mu, mu), l2m)):
            if factor is l2m and mu == 0:
                continue
            if divides(factor, den):
                with pytest.raises(CoeffPoleError):
                    x.evaluate(*at)
            else:
                assert x.evaluate(*at) == num.evaluate(*at) / den.evaluate(*at)

    check()
