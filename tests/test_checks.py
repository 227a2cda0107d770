from __future__ import annotations

from fractions import Fraction

import pytest

from lamegap.checks import (
    check_boundary,
    check_cancel_identity,
    check_residual_order,
    check_z_degree,
    fd_oracle,
    lower_bound_probe,
    residual_order_targets,
    run_suite,
)
from lamegap.coeffs import ONE, RationalCoeff
from lamegap.families import AuxFamily, build_family, lame_apply
from lamegap.neck import DIM2, DIM3, NeckField, NeckScalar


def _mutate_level(fam: AuxFamily, l: int, comp: int, extra: NeckScalar) -> AuxFamily:
    """Corrupt one component of one level and recompute residuals."""
    levels = list(fam.levels)
    comps = list(levels[l - 1].components)
    comps[comp] = comps[comp] + extra
    levels[l - 1] = NeckField(comps)
    out = AuxFamily(fam.dim, fam.alpha, fam.route, (), ())
    for v in levels:
        out = out._with_level(v)
    return out


# -- positive suite (depth 3 across the full alpha range) ---------------------


@pytest.mark.parametrize(
    "d,alpha",
    [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3), (3, 4), (3, 5), (3, 6)],
)
def test_all_checks_pass_depth3(families_depth3, d, alpha):
    fam = families_depth3[(d, alpha)]
    assert check_boundary(fam).passed
    assert check_cancel_identity(fam).passed
    rep = check_residual_order(fam)
    assert rep.passed
    assert rep.metadata["refined_ok"]
    assert check_z_degree(fam).passed


def test_recursion_route_passes_every_check_depth3():
    fams = [
        build_family(dim, alpha, 3, route="recursion")
        for dim in (DIM2, DIM3)
        for alpha in range(1, dim.d + 1)
    ]
    reports = run_suite(fams)
    assert len({(r.metadata["d"], r.metadata["alpha"]) for r in reports}) == 5
    assert [r.witness for r in reports if not r.passed] == []


# -- negative controls ---------------------------------------------------------


def test_boundary_negative_control(families_depth3):
    fam = families_depth3[(2, 1)]
    # drop the linear boundary correction from one green solve
    bad = _mutate_level(fam, 2, 0, NeckScalar.term(DIM2, ONE, q=1, r=1))
    rep = check_boundary(bad)
    assert not rep.passed
    assert rep.witness and "level 2" in rep.witness


# The witness texts are those of the check that substituted each side
# separately; the parity split must name the same level, component and side.
@pytest.mark.parametrize(
    "level,comp,extra,witness",
    [
        # odd in z: the parity split puts its trace x1/(2 delta) in O
        (
            2,
            0,
            NeckScalar.term(DIM2, ONE, p=(1,), q=1, r=2),
            "level 2 comp 1 side +: [((1)) / (2)]*x1/d",
        ),
        # even in z: its trace eps/(4 delta) goes to E
        (
            2,
            1,
            NeckScalar.term(DIM2, ONE, q=2, s=1, r=3),
            "level 2 comp 2 side +: [((1)) / (4)]*eps/d",
        ),
        # x1 (z/delta - 1/2)/delta vanishes on top and is -x1/delta on the bottom
        (
            2,
            1,
            NeckScalar.term(DIM2, ONE, p=(1,), q=1, r=2)
            - NeckScalar.term(DIM2, ONE, p=(1,), r=1).scale(Fraction(1, 2)),
            "level 2 comp 2 side -: [-1]*x1/d",
        ),
        # level 1 on top: the trace minus psi_1
        (
            1,
            0,
            NeckScalar.term(DIM2, ONE, p=(1,), q=1, r=2),
            "level 1 comp 1 side +: [((1)) / (2)]*x1/d",
        ),
    ],
)
def test_boundary_witness_names_level_component_and_side(
    families_depth3, level, comp, extra, witness
):
    bad = _mutate_level(families_depth3[(2, 1)], level, comp, extra)
    rep = check_boundary(bad)
    assert not rep.passed
    assert rep.witness == witness
    assert rep.metadata["level"] == level


def test_cancel_identity_negative_control(families_depth3):
    fam = families_depth3[(2, 1)]
    bad = _mutate_level(fam, 2, 1, NeckScalar.term(DIM2, ONE, q=2, s=1, r=2))
    rep = check_cancel_identity(bad)
    assert not rep.passed
    assert rep.witness


def test_residual_order_negative_control(families_depth3):
    fam = families_depth3[(2, 1)]
    # inject a slow term into a level: residual picks up a low-order piece
    bad = _mutate_level(fam, 3, 0, NeckScalar.term(DIM2, ONE, p=(1,), q=1, r=3))
    rep = check_residual_order(bad)
    assert not rep.passed
    assert "term" in (rep.witness or "")


def test_residual_order_refined_negative_control(families_depth3):
    # an x^3 z term in level 3 leaves f^3 comp 2 at order 1: it meets the
    # base bound l-2 = 1 but not the refined target 3/2; on the recursion
    # route the miss is confirmed by the expanded order
    for fam in (families_depth3[(2, 1)], build_family(DIM2, 1, 3, route="recursion")):
        bad = _mutate_level(fam, 3, 0, NeckScalar.term(DIM2, ONE, p=(3,), q=1))
        assert bad.f(3)[1].neck_order() == 1
        assert residual_order_targets(DIM2, 1, 3)[1] == Fraction(3, 2)
        rep = check_residual_order(bad)
        assert not rep.passed, fam.route
        assert "level 3 comp 2: order 1 < 3/2" in (rep.witness or ""), fam.route


def test_z_degree_negative_control(families_depth3):
    fam = families_depth3[(2, 1)]
    bad = _mutate_level(fam, 1, 0, NeckScalar.term(DIM2, ONE, q=7, r=7))
    assert not check_z_degree(bad).passed


def test_fd_oracle_negative_control():
    corrupted = NeckScalar.term(DIM2, ONE, p=(1,), r=2)

    class Lying(NeckScalar):
        __slots__ = ()

        def diff(self, axis):  # deliberately wrong derivative table
            return NeckScalar.term(DIM2, ONE, p=(1,), r=3)

    bad = Lying(DIM2, dict(corrupted.terms))
    rep = fd_oracle(bad, "x1", samples=5, eps=0.01, seed=3)
    assert not rep.passed


@pytest.mark.parametrize(
    "kwargs,name",
    [({"samples": -3}, "samples"), ({"samples": 0}, "samples"), ({"steps": ()}, "steps")],
)
def test_fd_oracle_rejects_an_empty_check(kwargs, name):
    # samples <= 0 passed after checking nothing; steps=() died in min()
    prof = NeckScalar.term(DIM2, ONE, q=1, r=1)
    args = {"samples": 5, **kwargs}
    with pytest.raises(ValueError, match=name):
        fd_oracle(prof, "z", eps=0.02, **args)


@pytest.mark.parametrize(
    "steps",
    [(0.0,), (1e-3, 1e-3), (float("nan"),), (1e-3, float("inf")), (1e-3, -1e-3)],
    ids=["zero", "repeated", "nan", "inf", "negative"],
)
def test_fd_oracle_rejects_a_degenerate_step(steps):
    # a zero step divided the central difference by zero, two equal steps
    # zeroed the Richardson factor, and a NaN step passed every gate
    prof = NeckScalar.term(DIM2, ONE, q=1, r=1)
    with pytest.raises(ValueError, match="steps must be finite, positive and distinct"):
        fd_oracle(prof, "z", samples=5, eps=0.02, steps=steps)


# -- fd oracle positive ----------------------------------------------------------


def test_fd_oracle_profile():
    prof = NeckScalar.term(DIM2, ONE, q=1, r=1) + NeckScalar.constant(DIM2, Fraction(1, 2))
    for axis in ("x1", "z"):
        rep = fd_oracle(prof, axis, samples=20, eps=0.02, seed=11)
        assert rep.passed, rep.witness


def test_fd_oracle_small_derivative_point(families_depth3):
    # central differences alone miss tol by h^2 truncation at this draw
    # (min rel err 1.0e-5); their Richardson combination does not
    comp = families_depth3[(3, 1)].v(3).components[0]
    rep = fd_oracle(comp, "z", samples=4, eps=0.05, seed=710162)
    assert rep.passed, rep.witness


def test_fd_oracle_depth3_component(families_depth3):
    comp = families_depth3[(2, 1)].v(3)[1]
    rep = fd_oracle(comp, "x1", samples=10, eps=0.05, seed=5)
    assert rep.passed, rep.witness
    rep = fd_oracle(comp, "z", samples=10, eps=0.05, seed=6)
    assert rep.passed, rep.witness


# -- lower bound probe -------------------------------------------------------------


@pytest.mark.parametrize(
    "m,target",
    [(1, -1.0), (2, -1.5), (3, -2.0), (4, -2.5), (5, -3.0), (6, -3.5), (7, -4.0), (8, -4.5)],
)
def test_lower_bound_slopes(families_depth3, m, target):
    fam = families_depth3[(2, 1)]
    for r in (Fraction(1, 10), Fraction(1, 20)):
        rep = lower_bound_probe(fam, m, r=r)
        assert rep.passed, rep.witness
        assert abs(rep.metadata["slope"] - target) <= 0.05


def test_lower_bound_exact_value_m1(families_depth3):
    # d_z (v^1)^(1)(r sqrt(eps), 0) = 1/((1+r^2) eps) exactly
    fam = families_depth3[(2, 1)]
    probe = fam.v(1)[0].diff("z")
    r, eps = Fraction(1, 10), Fraction(1, 10000)
    x1 = r * Fraction(1, 100)  # sqrt(eps) = 1/100 exactly
    got = probe.evaluate([x1], Fraction(0), eps, 1, 1)
    assert got == 1 / ((1 + r * r) * eps)


def test_lower_bound_grid_too_small(families_depth3):
    with pytest.raises(ValueError):
        lower_bound_probe(families_depth3[(2, 1)], 1, eps_grid=(1e-2, 1e-3))


def test_lower_bound_rejects_order_zero(families_depth3):
    # m = 0 used to report a failing slope of -1 against a target of -1/2
    with pytest.raises(ValueError, match="m must be at least 1"):
        lower_bound_probe(families_depth3[(2, 1)], 0)


def test_lower_bound_requires_alpha1(families_depth3):
    with pytest.raises(ValueError):
        lower_bound_probe(families_depth3[(2, 2)], 1)


# -- determinism / suite -----------------------------------------------------------


def test_refined_targets_shape():
    assert residual_order_targets(DIM2, 1, 2) == [Fraction(0), Fraction(1, 2)]
    assert residual_order_targets(DIM3, 3, 2) == [
        Fraction(1, 2),
        Fraction(1, 2),
        Fraction(0),
    ]


def test_suite_deterministic(families_depth3):
    fams = [families_depth3[(2, 1)], families_depth3[(2, 3)]]
    a = run_suite(fams)
    b = run_suite(fams)
    assert [r.to_json_obj() for r in a] == [r.to_json_obj() for r in b]
    assert all(r.passed for r in a)
