from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lamegap.coeffs import ONE, ZERO, RationalCoeff, parse
from lamegap.neck import DIM2, DIM3, NeckError, NeckScalar, green_solve


def T(dim=DIM2, coeff=ONE, p=None, q=0, s=0, r=0):
    return NeckScalar.term(dim, coeff, p=p, q=q, s=s, r=r)


z_over_delta = T(q=1, r=1)
half = NeckScalar.constant(DIM2, Fraction(1, 2))
profile = z_over_delta + half  # z/delta + 1/2


# -- arithmetic -------------------------------------------------------------


def test_add_merges_terms():
    assert (z_over_delta + z_over_delta) == T(coeff=parse("2"), q=1, r=1)


def test_mul_convolves():
    x1_over_delta = T(p=(1,), r=1)
    assert x1_over_delta * x1_over_delta == T(p=(2,), r=2)


def test_scale_zero():
    assert profile.scale(ZERO).is_zero()


def test_dimension_mismatch_raises():
    with pytest.raises(NeckError):
        T(DIM2) + T(DIM3, p=(0, 0))


# -- differentiation --------------------------------------------------------


def test_diff_inverse_delta():
    # d(1/delta)/dx1 = -2 x1 / delta^2
    got = T(r=1).diff("x1")
    assert got == T(coeff=parse("-2"), p=(1,), r=2)


def test_mixed_derivative_closed_form():
    # d^2(z/delta)/(dz dx1) = -2 x1/delta^2
    got = z_over_delta.diff("x1").diff("z")
    assert got == T(coeff=parse("-2"), p=(1,), r=2)


def test_diff_z_free():
    assert T(p=(2,), s=1, r=3).diff("z").is_zero()


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(0, 2), st.integers(0, 2), st.integers(0, 1), st.integers(0, 2)
        ),
        min_size=1,
        max_size=3,
    )
)
def test_mixed_partials_commute(keys):
    scal = NeckScalar(DIM2, {((p,), q, s, r): ONE for (p, q, s, r) in keys})
    a = scal.diff("x1").diff("z")
    b = scal.diff("z").diff("x1")
    assert a.equal(b)


# -- evaluation -------------------------------------------------------------


def test_eval_boundary_values_of_profile():
    eps = Fraction(1, 10)
    assert profile.evaluate([Fraction(0)], eps / 2, eps, 1, 1) == 1
    assert profile.evaluate([Fraction(0)], -eps / 2, eps, 1, 1) == 0


def test_eval_direct():
    # x1/delta^2 at x1=1, eps=1 -> 1/4
    v = T(p=(1,), r=2).evaluate([Fraction(1)], Fraction(7), Fraction(1), 1, 1)
    assert v == Fraction(1, 4)


def test_eval_at_zero_delta_raises_in_both_modes():
    # delta = eps + |x'|^2 = 0: z/delta has a pole, and so does every term
    # with r > 0; float mode must not reach a ZeroDivisionError in its loop
    for mode in ("exact", "float"):
        with pytest.raises(NeckError, match="requires eps"):
            z_over_delta.evaluate([0], 0, 0, 1, 1, mode=mode)
        with pytest.raises(NeckError, match="requires eps"):
            T(DIM3).evaluate([0.0, 0.0], 0.5, 0.0, 1, 1, mode=mode)


def test_eval_float_close_to_exact():
    pt = ([Fraction(1, 3)], Fraction(1, 7), Fraction(1, 10))
    a = profile.evaluate(*pt, 2, 3, mode="exact")
    b = profile.evaluate(*pt, 2, 3, mode="float")
    assert math.isclose(float(a), b, rel_tol=1e-12)


# -- semantic equality ------------------------------------------------------


def test_delta_cancellation_equal():
    # (eps + x1^2)/delta^2 == 1/delta
    lhs = T(s=1, r=2) + T(p=(2,), r=2)
    assert lhs.equal(T(r=1))


def test_not_equal():
    assert not T(q=1, r=1).equal(T(q=1, s=1, r=2))


def test_zero_vs_empty():
    assert NeckScalar.zero(DIM2).equal(T(coeff=ZERO))


def test_equal_implies_same_eval():
    lhs = T(s=1, r=2) + T(p=(2,), r=2)
    rhs = T(r=1)
    rng = random.Random(7)
    for _ in range(5):
        x = Fraction(rng.randint(-5, 5), 7)
        z = Fraction(rng.randint(-5, 5), 11)
        eps = Fraction(rng.randint(1, 9), 13)
        assert lhs.evaluate([x], z, eps, 3, 2) == rhs.evaluate([x], z, eps, 3, 2)


# -- boundary substitution --------------------------------------------------


def test_subst_kills_boundary_factor():
    # z^2 - delta^2/4 vanishes at z = +-delta/2
    scal = T(q=2) - T(coeff=parse("1"), r=0).mul_delta(2).scale(Fraction(1, 4))
    assert scal.substitute_boundary("+").is_zero()
    assert scal.substitute_boundary("-").is_zero()


def test_subst_profile():
    assert profile.substitute_boundary("+").equal(NeckScalar.one(DIM2))
    assert profile.substitute_boundary("-").is_zero()


# -- green solve ------------------------------------------------------------


def test_green_constant():
    # g = 2 -> w = z^2 - delta^2/4
    w = green_solve(NeckScalar.constant(DIM2, 2))
    expect = T(q=2) - NeckScalar.one(DIM2).mul_delta(2).scale(Fraction(1, 4))
    assert w.equal(expect)


def test_green_zero():
    assert green_solve(NeckScalar.zero(DIM2)).is_zero()


def test_green_corrector_closed_form():
    # green_solve of -kappa * d^2(z/delta)/(dx1 dz) with kappa=(l+m)/(l+2m)
    # equals kappa * (x1/delta^2) (z^2 - delta^2/4)
    kappa = parse("(l + m) / (l + 2*m)")
    rhs = z_over_delta.diff("x1").diff("z").scale(kappa).scale(-1)
    w = green_solve(rhs)
    expect = (T(p=(1,), r=2).scale(kappa)) * (
        T(q=2) - NeckScalar.one(DIM2).mul_delta(2).scale(Fraction(1, 4))
    )
    assert w.equal(expect)


@st.composite
def small_scalars(draw):
    n = draw(st.integers(1, 3))
    terms = {}
    for _ in range(n):
        key = (
            (draw(st.integers(0, 2)),),
            draw(st.integers(0, 3)),
            draw(st.integers(0, 1)),
            draw(st.integers(0, 2)),
        )
        num = draw(st.integers(-3, 3))
        if num:
            terms[key] = RationalCoeff.from_int(num)
    return NeckScalar(DIM2, terms)


@settings(max_examples=30, deadline=None)
@given(small_scalars())
def test_green_contract(g):
    w = green_solve(g)
    assert w.diff("z").diff("z").equal(g)
    assert w.substitute_boundary("+").expand_polynomial() == {}
    assert w.substitute_boundary("-").expand_polynomial() == {}


@settings(max_examples=30, deadline=None)
@given(small_scalars(), small_scalars(), small_scalars())
def test_ring_axioms(a, b, c):
    assert ((a + b) + c).equal(a + (b + c))
    assert (a * (b + c)).equal(a * b + a * c)
    assert (a * b).equal(b * a)


# -- orders / degrees --------------------------------------------------------


def test_neck_order_examples():
    assert T(p=(1,), q=1, r=2).neck_order() == Fraction(-1, 2)
    assert T(q=1, r=1).neck_order() == 0
    assert T(p=(2,), s=1, r=3).neck_order() == -1
    with pytest.raises(NeckError):
        NeckScalar.zero(DIM2).neck_order()


def test_expanded_order_is_the_order_of_the_function():
    # 1 - eps/delta - x^2/delta + eps equals eps: termwise order 0, order 1
    f = NeckScalar.one(DIM2) - T(s=1, r=1) - T(p=(2,), r=1) + T(s=1)
    assert f.equal(T(s=1))
    assert f.neck_order() == 0
    assert f.expanded_order() == 1 == T(s=1).expanded_order()
    # invariant under multiplying numerator and denominator by delta
    g = T(p=(1,), q=1, r=2)
    g_delta = T(p=(1,), q=1, s=1, r=3) + T(p=(3,), q=1, r=3)  # (x z delta)/delta^3
    assert g_delta.equal(g)
    assert g_delta.expanded_order() == g.expanded_order() == Fraction(-1, 2)
    with pytest.raises(NeckError):
        (T(r=1) - T(s=1, r=2) - T(p=(2,), r=2)).expanded_order()


def test_z_degree_examples():
    assert profile.z_degree() == 1
    assert (T(q=2) - NeckScalar.one(DIM2).mul_delta(2).scale(Fraction(1, 4))).z_degree() == 2
    assert NeckScalar.zero(DIM2).z_degree() == -1


def test_order_bound_soundness_sampled():
    rng = random.Random(42)
    for _ in range(25):
        nterms = rng.randint(1, 3)
        terms = {}
        for _ in range(nterms):
            key = ((rng.randint(0, 3),), rng.randint(0, 3), rng.randint(0, 2), rng.randint(0, 3))
            terms[key] = RationalCoeff.from_int(rng.randint(-5, 5))
        scal = NeckScalar(DIM2, terms)
        if scal.is_zero():
            continue
        order = scal.neck_order()
        # K from coefficient magnitudes at (lam, mu) = (2, 1)
        bound_const = sum(
            abs(c.evaluate(2, 1)) * Fraction(1, 2**q)
            for (p, q, s, r), c in scal.terms.items()
        )
        for _ in range(10):
            eps = Fraction(rng.randint(1, 100), 1000)
            x = Fraction(rng.randint(-100, 100), 100)
            delta = eps + x * x
            if x * x > delta:
                continue
            zmax = delta / 2
            z = zmax * Fraction(rng.randint(-100, 100), 100)
            val = scal.evaluate([x], z, eps, 2, 1)
            assert abs(val) <= bound_const * Fraction(delta) ** order + Fraction(1, 10**15)


# -- rendering ---------------------------------------------------------------


def test_render_deterministic():
    a = profile + T(p=(1,), r=2)
    assert a.render() == a.render()
    assert "z/d" in a.render()


def test_json_roundtrip_terms():
    obj = profile.to_json_obj()
    rebuilt = NeckScalar(
        DIM2,
        {
            (tuple(t["p"]), t["q"], t["s"], t["r"]): parse(t["coeff"])
            for t in obj
        },
    )
    assert rebuilt == profile
