from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

import pytest

from lamegap.coeffs import ONE, parse
from lamegap.families import (
    AuxFamily,
    FamilyError,
    MAX_DEPTH,
    _Tables,
    build_family,
    extend_integral,
    lame_apply,
    rigid_basis,
    seed_level1,
)
from lamegap.neck import DIM2, DIM3, NeckField, NeckScalar

GOLDEN = Path(__file__).parent / "data"


def boundary_factor(dim):
    # z^2 - delta^2/4
    return NeckScalar.term(dim, ONE, q=2) - NeckScalar.one(dim).mul_delta(2).scale(
        Fraction(1, 4)
    )


# -- Lame operator -----------------------------------------------------------


def test_rigid_fields_in_kernel():
    for dim in (DIM2, DIM3):
        for psi in rigid_basis(dim):
            assert lame_apply(psi).is_zero()


def test_linear_field_in_kernel():
    u = NeckField([NeckScalar.term(DIM2, ONE, p=(1,)), NeckScalar.zero(DIM2)])
    assert lame_apply(u).is_zero()


def test_level1_residual_normal_structure():
    # second residual component equals mu * d_x1x1 (v^1)^(2)
    fam = build_family(DIM2, 1, 1)
    from lamegap.coeffs import MU

    v12 = fam.v(1)[1]
    assert fam.f(1)[1].equal(v12.diff("x1").diff("x1").scale(MU))


# -- seeds -------------------------------------------------------------------


def test_seed_2d_alpha1_matches_closed_form():
    v1 = seed_level1(DIM2, 1)
    kappa = parse("(l + m) / (l + 2*m)")
    corr = NeckScalar.term(DIM2, kappa, p=(1,), r=2) * boundary_factor(DIM2)
    assert v1[1].equal(corr)


def test_seed_2d_alpha2_factor():
    v1 = seed_level1(DIM2, 2)
    c = parse("(l + m) / m")
    corr = NeckScalar.term(DIM2, c, p=(1,), r=2) * boundary_factor(DIM2)
    assert v1[0].equal(corr)


def test_seed_3d_alpha3_corrector_pair():
    v1 = seed_level1(DIM3, 3)
    c = parse("(l + m) / m")
    bf = boundary_factor(DIM3)
    assert v1[0].equal(NeckScalar.term(DIM3, c, p=(1, 0), r=2) * bf)
    assert v1[1].equal(NeckScalar.term(DIM3, c, p=(0, 1), r=2) * bf)


def test_seed_rotation_plain_profile():
    v1 = seed_level1(DIM2, 3)
    assert v1[0].z_degree() == 2
    assert v1[1].z_degree() == 1


def test_seed_invalid_alpha():
    with pytest.raises(FamilyError):
        seed_level1(DIM2, 4)
    with pytest.raises(FamilyError):
        seed_level1(DIM3, 7)


# -- integral route level 2 (printed coefficients) ---------------------------


def test_extend_integral_2d_alpha1_P21():
    fam = build_family(DIM2, 1, 2)
    c = parse("(2*l + 3*m) / (3*(l + 2*m))")
    eps = NeckScalar.term(DIM2, ONE, s=1)
    x1sq = NeckScalar.term(DIM2, ONE, p=(2,))
    expect = (eps - x1sq.scale(3)).scale(c).mul_delta(-3).mul_z(1) * boundary_factor(DIM2)
    assert fam.v(2)[0].equal(expect)


def test_extend_integral_2d_alpha2_P21():
    fam = build_family(DIM2, 2, 2)
    c = parse("l / (3*m)")
    eps = NeckScalar.term(DIM2, ONE, s=1)
    x1sq = NeckScalar.term(DIM2, ONE, p=(2,))
    expect = (x1sq.scale(3) - eps).scale(c).mul_delta(-3).mul_z(1) * boundary_factor(DIM2)
    assert fam.v(2)[1].equal(expect)


def test_extend_integral_3d_alpha1_Q21():
    fam = build_family(DIM3, 1, 2)
    c = parse("-4*(l + m) / (3*(l + 2*m))")
    x1x2 = NeckScalar.term(DIM3, ONE, p=(1, 1))
    expect = x1x2.scale(c).mul_delta(-3).mul_z(1) * boundary_factor(DIM3)
    assert fam.v(2)[1].equal(expect)


def test_extend_integral_requires_level1():
    empty = AuxFamily(DIM2, 1, "integral", (), ())
    with pytest.raises(FamilyError):
        extend_integral(empty)


# -- recursion route ----------------------------------------------------------


def test_out_of_range_table_index_is_zero():
    t = _Tables(DIM2)
    assert t.get(3, 0).is_zero()
    assert t.get(3, 7).is_zero()


def test_recursion_rejects_rotations():
    with pytest.raises(FamilyError):
        build_family(DIM2, 3, 2, route="recursion")
    for alpha in (4, 5, 6):
        with pytest.raises(FamilyError):
            build_family(DIM3, alpha, 2, route="recursion")


@pytest.mark.parametrize("d,alpha", [(2, 1), (2, 2), (3, 1), (3, 2), (3, 3)])
def test_route_equivalence_depth3(d, alpha, families_depth3):
    dim = DIM2 if d == 2 else DIM3
    fam_i = families_depth3[(d, alpha)]
    fam_r = build_family(dim, alpha, 3, route="recursion")
    for l in range(1, 4):
        assert fam_i.v(l).equal(fam_r.v(l)), f"route mismatch at level {l}"


def test_recursion_f2_consistency_2d():
    # f^{2,(2)} = mu d_x1x1 (v^2)^(2) on the recursion route as well
    from lamegap.coeffs import MU

    fam = build_family(DIM2, 1, 2, route="recursion")
    assert fam.f(2)[1].equal(fam.v(2)[1].diff("x1").diff("x1").scale(MU))


# -- residual caching ----------------------------------------------------------


def test_residuals_are_partial_sums():
    fam = build_family(DIM2, 1, 3)
    acc = NeckField.zero(DIM2)
    for l in range(1, 4):
        acc = acc + lame_apply(fam.v(l))
        assert fam.f(l).equal(acc)


def test_residual_level_out_of_range():
    fam = build_family(DIM2, 1, 2)
    with pytest.raises(FamilyError):
        fam.f(3)


# -- golden files --------------------------------------------------------------


@pytest.mark.parametrize(
    "d,alpha", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3)]
)
def test_golden_levels_1_2(d, alpha):
    dim = DIM2 if d == 2 else DIM3
    fam = build_family(dim, alpha, 2)
    got = {
        "dim": d,
        "alpha": alpha,
        "levels": [fam.v(1).to_json_obj(), fam.v(2).to_json_obj()],
    }
    path = GOLDEN / f"family_d{d}_a{alpha}_levels12.json"
    expected = json.loads(path.read_text())
    assert got == expected


def test_depth_outside_cap_rejected():
    with pytest.raises(FamilyError):
        build_family(DIM2, 1, MAX_DEPTH + 1)
    with pytest.raises(FamilyError):
        build_family(DIM3, 1, 0)


def test_depth_cap_and_telemetry():
    with pytest.raises(FamilyError):
        build_family(DIM2, 1, 7)
    fam = build_family(DIM2, 1, 2)
    stats = fam.coefficient_stats()
    assert stats["terms"] > 0 and stats["max_coeff_bits"] >= 1


@pytest.mark.parametrize("d,alpha", [(2, 1), (2, 2), (3, 1), (3, 2), (3, 3)])
def test_route_equivalence_level5_invariant(d, alpha, families_depth5):
    dim = DIM2 if d == 2 else DIM3
    fam_i = families_depth5[(d, alpha)]
    fam_r = build_family(dim, alpha, 5, route="recursion")
    assert fam_i.v(5).equal(fam_r.v(5))
