"""Acceptance suite: one test per exit criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
summary.  Criteria 1-6 are exact/symbolic; criteria 7-10 drive the FEM
epsilon sweep at desk scale (a few minutes total).  3D numerics and the
|log eps| factors are out of numeric scope by design and are covered by
the exact certificates of criteria 1-4.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

import pytest

from lamegap.checks import (
    check_boundary,
    check_cancel_identity,
    check_residual_order,
    check_z_degree,
    fd_oracle,
    lower_bound_probe,
)
from lamegap.coeffs import MU, ONE, parse
from lamegap.families import build_family
from lamegap.neck import DIM2, DIM3, NeckScalar
from lamegap.studies import SweepConfig, run_studies


def announce(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status}" + (f"  [{detail}]" if detail else ""))
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="session")
def studies():
    cfg = SweepConfig(study_id="acceptance")
    t0 = time.time()
    out = run_studies(cfg)
    print(f"\n[studies ran in {time.time() - t0:.1f}s]")
    return out


def _boundary_factor(dim):
    return NeckScalar.term(dim, ONE, q=2) - NeckScalar.one(dim).mul_delta(2).scale(
        Fraction(1, 4)
    )


def _x(dim, i, e=1):
    p = tuple(e if j == i else 0 for j in range(dim.n_tangential))
    return NeckScalar.term(dim, ONE, p=p)


def _eps(dim):
    return NeckScalar.term(dim, ONE, s=1)


def test_criterion_1_printed_coefficients(families_depth5):
    t0 = time.time()
    checks: list[tuple[str, bool]] = []

    def expect(fam, level, comp, scalar, zpow=0):
        got = fam.v(level)[comp]
        want = scalar.mul_z(zpow) * _boundary_factor(fam.dim)
        return got.equal(want)

    # 2D alpha=1
    fam = families_depth5[(2, 1)]
    d2 = DIM2
    p12 = _x(d2, 0).scale(parse("(l + m)/(l + 2*m)")).mul_delta(-2)
    checks.append(("2D a1 P12,1", expect(fam, 1, 1, p12)))
    p21 = (_eps(d2) - _x(d2, 0, 2).scale(3)).scale(
        parse("(2*l + 3*m)/(3*(l + 2*m))")
    ).mul_delta(-3)
    checks.append(("2D a1 P21,1", expect(fam, 2, 0, p21, zpow=1)))

    # 2D alpha=2
    fam = families_depth5[(2, 2)]
    p12 = _x(d2, 0).scale(parse("(l + m)/m")).mul_delta(-2)
    checks.append(("2D a2 P12,1", expect(fam, 1, 0, p12)))
    p21 = (_x(d2, 0, 2).scale(3) - _eps(d2)).scale(parse("l/(3*m)")).mul_delta(-3)
    checks.append(("2D a2 P21,1", expect(fam, 2, 1, p21, zpow=1)))

    # 3D alpha=1,2 (translations)
    d3 = DIM3
    delta_num = NeckScalar.one(d3).mul_delta(1)
    for alpha in (1, 2):
        fam = families_depth5[(3, alpha)]
        ia, ib = alpha - 1, 2 - alpha
        p12 = _x(d3, ia).scale(parse("(l + m)/(l + 2*m)")).mul_delta(-2)
        checks.append((f"3D a{alpha} P12,1", expect(fam, 1, 2, p12)))
        part_a = (delta_num - _x(d3, ia, 2).scale(4)).scale(
            parse("(2*l + 3*m)/(l + 2*m)")
        )
        part_b = delta_num - _x(d3, ib, 2).scale(4)
        p21 = (part_a + part_b).scale(Fraction(1, 3)).mul_delta(-3)
        checks.append((f"3D a{alpha} P21,1", expect(fam, 2, ia, p21, zpow=1)))
        q21 = (_x(d3, 0) * _x(d3, 1)).scale(
            parse("-4*(l + m)/(3*(l + 2*m))")
        ).mul_delta(-3)
        checks.append((f"3D a{alpha} Q21,1", expect(fam, 2, ib, q21, zpow=1)))

    # 3D alpha=3 (normal translation)
    fam = families_depth5[(3, 3)]
    p12 = _x(d3, 0).scale(parse("(l + m)/m")).mul_delta(-2)
    q12 = _x(d3, 1).scale(parse("(l + m)/m")).mul_delta(-2)
    checks.append(("3D a3 P12,1", expect(fam, 1, 0, p12)))
    checks.append(("3D a3 Q12,1", expect(fam, 1, 1, q12)))
    # The defining ODE forces P21,1 = -(2l/(3m)) (eps - |x'|^2)/delta^3; the
    # printed form (-2l/3, no 1/m) is dimensionally inhomogeneous in (l, m)
    # and inconsistent with the identity suite.  Assert the forced value and
    # machine-document that it differs from the printed one exactly by 1/m.
    forced = (_eps(d3) - (_x(d3, 0, 2) + _x(d3, 1, 2))).scale(
        parse("-2*l/(3*m)")
    ).mul_delta(-3)
    printed = (_eps(d3) - (_x(d3, 0, 2) + _x(d3, 1, 2))).scale(
        parse("-2*l/3")
    ).mul_delta(-3)
    checks.append(("3D a3 P21,1 (ODE-forced)", expect(fam, 2, 2, forced, zpow=1)))
    checks.append(("3D a3 P21,1 differs from printed by 1/m", forced.scale(MU).equal(printed)))

    bad = [name for name, ok in checks if not ok]
    announce(
        "1 printed-coefficient reproduction",
        not bad,
        f"{len(checks)} coefficients exact, {time.time() - t0:.1f}s"
        + (f"; failing: {bad}" if bad else ""),
    )


def test_criterion_2_identity_suite(families_depth5):
    t0 = time.time()
    witnesses = []
    for key, fam in sorted(families_depth5.items()):
        for rep in (check_boundary(fam), check_cancel_identity(fam)):
            if not rep.passed:
                witnesses.append((key, rep.name, rep.witness))
    announce(
        "2 identity suite (m<=5, d in {2,3}, alpha in {1,2,3})",
        not witnesses,
        f"{time.time() - t0:.1f}s" + (f"; witnesses: {witnesses}" if witnesses else ""),
    )


def test_criterion_3_residual_orders(families_depth5):
    t0 = time.time()
    witnesses = []
    for key, fam in sorted(families_depth5.items()):
        rep = check_residual_order(fam)
        if not rep.passed:
            witnesses.append((key, rep.witness))
        zrep = check_z_degree(fam)
        if not zrep.passed:
            witnesses.append((key, zrep.witness))
    announce(
        "3 residual orders >= m-2 and z-degree caps (m=1..5)",
        not witnesses,
        f"{time.time() - t0:.1f}s" + (f"; witnesses: {witnesses}" if witnesses else ""),
    )


def test_criterion_4_route_equivalence(families_depth5):
    t0 = time.time()
    witnesses = []
    for d, alpha in ((2, 1), (2, 2), (3, 1), (3, 2), (3, 3)):
        dim = DIM2 if d == 2 else DIM3
        fam_i = families_depth5[(d, alpha)]
        fam_r = build_family(dim, alpha, 4, route="recursion")
        for l in range(1, 5):
            diff = fam_i.v(l) - fam_r.v(l)
            for ci, comp in enumerate(diff.components):
                if comp.expand_polynomial():
                    term = comp.sorted_terms()[0]
                    witnesses.append((d, alpha, l, ci + 1, str(term)))
    announce(
        "4 route equivalence through level 4",
        not witnesses,
        f"{time.time() - t0:.1f}s"
        + (f"; witness terms: {witnesses[:3]}" if witnesses else ""),
    )


def test_criterion_5_lower_bound_exponent(families_depth5):
    t0 = time.time()
    fam = families_depth5[(2, 1)]
    failures = []
    for m in (1, 2, 3, 4):
        for r in (Fraction(1, 10), Fraction(1, 20)):
            rep = lower_bound_probe(fam, m, r=r)
            if not rep.passed:
                failures.append((m, str(r), rep.witness))
    announce(
        "5 lower-bound exponent -(m+1)/2 (m=1..4, r in {1/10, 1/20})",
        not failures,
        f"{time.time() - t0:.1f}s" + (f"; {failures}" if failures else ""),
    )


def test_criterion_6_fd_oracle(families_depth5):
    t0 = time.time()
    rng = random.Random(2024)
    pool = []
    for d, alpha in ((2, 1), (2, 2), (2, 3)):
        fam = families_depth5[(d, alpha)]
        for l in (1, 2, 3):
            for comp in fam.v(l).components:
                if not comp.is_zero():
                    pool.append(comp)
    fam3 = families_depth5[(3, 1)]
    for l in (1, 2, 3):
        for comp in fam3.v(l).components:
            if not comp.is_zero():
                pool.append(comp)
    total = 0
    failures = []
    k = 0
    while total < 100:
        scal = pool[k % len(pool)]
        axis = rng.choice(scal.dim.axes)
        n = min(4, 100 - total)
        rep = fd_oracle(scal, axis, samples=n, eps=0.05, seed=rng.randrange(10**6))
        total += n
        if not rep.passed:
            failures.append(rep.witness)
        k += 1
    announce(
        "6 fd-vs-symbolic oracle (100 random triples, rel err < 1e-6)",
        not failures,
        f"{total} triples, {time.time() - t0:.1f}s" + (f"; {failures[:2]}" if failures else ""),
    )


def test_criterion_7_fem_blowup_rates(studies):
    rep = studies["rates"]
    detail = {name: round(c["value"], 4) for name, c in rep.checks.items()}
    announce("7 FEM blow-up rates (u11, u12 ~ -1; u13 ~ -0.5; full ~ -0.5)",
             rep.passed, str(detail))


def test_criterion_8_constant_asymptotics(studies):
    rep = studies["constants"]
    detail = {
        "dc1_slope": round(rep.checks["dc1_slope"]["value"], 4),
        "dc3_rel": f"{rep.checks['dc3_zero']['value']:.2e}",
        "bstar_spread": round(rep.checks["bstar11_stable"]["value"], 4),
    }
    announce("8 constant asymptotics (|C1-C2| ~ sqrt(eps), b*11 stable)",
             rep.passed, str(detail))


def test_criterion_9_neck_comparison(studies):
    rep = studies["compare"]
    detail = {
        "normalized_ratio": round(rep.checks["normalized_error_bounded"]["value"], 3),
        "control_slope": round(rep.checks["control_grad_max_slope"]["value"], 4),
    }
    announce("9 neck comparison (delta-normalized error bounded; control ~ 1/eps)",
             rep.passed, str(detail))


def test_criterion_10_symmetric_cancellation_and_holes(studies):
    rep_c = studies["cancel"]
    rep_h = studies["holes"]
    ok = rep_c.passed and rep_h.passed
    detail = {
        "control_slope": round(rep_c.checks["control_u11_slope"]["value"], 4),
        "rot_pair_max": round(rep_c.checks["rotation_pair_bound"]["value"], 6),
        "holes_slope": round(rep_h.checks["holes_slope"]["value"], 4),
    }
    announce("10 symmetric cancellation bounded; holes slope >= -0.6", ok, str(detail))
