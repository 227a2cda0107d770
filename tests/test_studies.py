from __future__ import annotations

import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from lamegap.config import ConfigError, parse_config_text
from lamegap.studies import (
    DEFAULT_TOLERANCES,
    RateFit,
    StudyError,
    StudyReport,
    SweepConfig,
    emit_report,
    rate_fit,
)

GOLDEN = Path(__file__).parent / "data"


# -- rate_fit -----------------------------------------------------------------


def test_rate_fit_exact_inverse():
    grid = [0.1, 0.05, 0.025, 0.0125]
    fit = rate_fit([(e, 1 / e) for e in grid])
    assert fit.slope == pytest.approx(-1.0, abs=1e-12)
    assert fit.r2 == pytest.approx(1.0, abs=1e-12)


def test_rate_fit_sqrt_with_prefactor():
    grid = [0.1, 0.05, 0.025, 0.0125]
    fit = rate_fit([(e, 3 * math.sqrt(e)) for e in grid])
    assert fit.slope == pytest.approx(0.5, abs=1e-12)
    assert fit.intercept == pytest.approx(math.log(3), abs=1e-12)


def test_rate_fit_quarter_power_correction():
    # independent oracle: numpy polyfit on the same synthetic series
    grid = np.logspace(-1, -3, 5)
    series = [(float(e), float((1 + e**0.25) / e)) for e in grid]
    fit = rate_fit(series)
    oracle = np.polyfit(np.log(grid), np.log([v for _, v in series]), 1)[0]
    assert fit.slope == pytest.approx(float(oracle), abs=1e-12)
    # the eps^{1/4} correction biases the fitted slope visibly above -1
    assert -1.0 < fit.slope < -0.9
    assert fit.slope == pytest.approx(-0.9386, abs=2e-3)


def test_rate_fit_guards():
    grid = [0.1, 0.05, 0.025, 0.0125]
    with pytest.raises(StudyError):
        rate_fit([(0.1, 1.0), (0.05, 2.0), (0.025, 3.0)])
    with pytest.raises(StudyError):
        rate_fit([(e, 0.0) for e in grid])
    fit = rate_fit([(e, v) for e, v in zip(grid, [1.0, -2.0, 4.0, -8.0])])
    assert fit.sign_change


def test_rate_fit_recovers_exponent_precisely():
    grid = [10 ** (-1 - k / 3) for k in range(6)]
    fit = rate_fit([(e, 7.3 * e ** (-1.5)) for e in grid])
    assert abs(fit.slope + 1.5) < 1e-12


# -- config -------------------------------------------------------------------


def test_config_defaults_and_overrides():
    cfg = parse_config_text(
        """
        # comment
        study.id = demo
        sweep.eps = 0.1, 0.05, 0.025, 0.0125
        material.lambda = 2.0
        mesh.nz = 10
        study.tolerance.u11_slope_lo = -1.2
        """
    )
    assert cfg.study_id == "demo"
    assert cfg.lam == 2.0
    assert cfg.nz == 10
    assert cfg.tol["u11_slope_lo"] == -1.2
    assert cfg.tol["u12_slope_lo"] == DEFAULT_TOLERANCES["u12_slope_lo"]


def test_config_unknown_key_rejected():
    with pytest.raises(ConfigError):
        parse_config_text("mesh.nzz = 8")
    with pytest.raises(ConfigError):
        parse_config_text("study.tolerance.u11_slope_low = -1.2")


def test_config_repeated_key_rejected():
    for text, key in [
        ("mesh.nz = 8\nmesh.nr = 8\n\nmesh.nz = 4\n", "mesh.nz"),
        ("study.tolerance.u11_slope_lo = -1.2\nstudy.tolerance.u11_slope_lo = -1.0",
         "study.tolerance.u11_slope_lo"),
        ("sweep.eps = 0.1, 0.05, 0.025, 0.0125\nsweep.eps = 0.2, 0.1, 0.05, 0.025", "sweep.eps"),
    ]:
        with pytest.raises(ConfigError) as exc:
            parse_config_text(text)
        lines = [n for n, line in enumerate(text.splitlines(), start=1) if line.startswith(key)]
        assert str(exc.value) == f"line {lines[1]}: key {key!r} repeats line {lines[0]}"


def test_config_grid_too_small():
    with pytest.raises(StudyError):
        parse_config_text("sweep.eps = 0.1, 0.05, 0.025")


def test_config_bad_value():
    with pytest.raises(ConfigError):
        parse_config_text("mesh.nz = eight")


# -- report serialization -------------------------------------------------------


def _synthetic_report() -> StudyReport:
    grid = [0.1, 0.05, 0.025, 0.0125]
    records = [{"eps": e, "value": 2.5 / e} for e in grid]
    from dataclasses import asdict

    fits = {"value": asdict(rate_fit([(r["eps"], r["value"]) for r in records]))}
    checks = {
        "value_slope": {
            "passed": True,
            "value": fits["value"]["slope"],
            "lo": -1.1,
            "hi": -0.9,
        }
    }
    cfg = SweepConfig(study_id="golden-tiny")
    return StudyReport("rates", "golden-tiny", cfg.to_json_obj(), records, fits, checks)


def test_report_roundtrip():
    rep = _synthetic_report()
    rep2 = StudyReport.from_json(rep.to_json())
    assert rep2.to_json() == rep.to_json()
    assert rep2.passed


def test_report_csv_columns():
    rep = _synthetic_report()
    lines = rep.to_csv().strip().splitlines()
    assert lines[0] == "study,quantity,eps,value,fit_slope,fit_r2,pass"
    assert len(lines) == 1 + 4


def test_report_golden(tmp_path):
    rep = _synthetic_report()
    got = rep.to_json() + "\n"
    expected = (GOLDEN / "study_golden_tiny.json").read_text()
    assert got == expected


def test_emit_report(tmp_path):
    rep = _synthetic_report()
    emit_report(rep, "json", str(tmp_path / "r.json"))
    emit_report(rep, "csv", str(tmp_path / "r.csv"))
    assert StudyReport.from_json((tmp_path / "r.json").read_text()).to_json() == rep.to_json()
    with pytest.raises(StudyError):
        emit_report(rep, "yaml", str(tmp_path / "r.yaml"))


# -- sweep config validation ------------------------------------------------------


def test_sweep_config_validation():
    with pytest.raises(StudyError):
        SweepConfig(eps_grid=(0.1, 0.05, 0.025))
    with pytest.raises(StudyError):
        SweepConfig(eps_grid=(0.1, 0.05, 0.025, -1.0))
    with pytest.raises(StudyError):
        SweepConfig(phi="nonsense")


def test_mesh_params_ct_scaling():
    cfg = SweepConfig(ct_eps_power=1 / 3)
    p_big = cfg.mesh_params(0.1)
    p_small = cfg.mesh_params(0.0125)
    assert p_big.ct == pytest.approx(0.35)
    assert p_small.ct == pytest.approx(0.35 * 0.5)


def test_constant_study_phi_sensitivity():
    # the sqrt(eps) law holds for an independent odd datum; the fitted
    # functional differs (sensitivity is reported, not assumed away)
    from lamegap.studies import RUNNERS

    base = RUNNERS["constants"](SweepConfig(study_id="phi-default"))
    alt = RUNNERS["constants"](SweepConfig(study_id="phi-cubic", phi="odd_cubic"))
    assert alt.checks["dc1_slope"]["passed"]
    assert alt.checks["bstar11_stable"]["passed"]
    b_base = base.records[0]["bstar11"]
    b_alt = alt.records[0]["bstar11"]
    assert abs(b_base - b_alt) > 1e-3 * abs(b_base)


def test_neck_comparison_depth_checked_before_meshing(monkeypatch):
    from lamegap.studies import RUNNERS

    def no_mesh(*args, **kwargs):
        raise AssertionError("meshed before the depth was checked")

    monkeypatch.setattr("lamegap.studies.generate_mesh", no_mesh)
    with pytest.raises(StudyError):
        RUNNERS["compare"](replace(SweepConfig(), compare_depth=0))


# -- node reads -------------------------------------------------------------------


@pytest.mark.parametrize("override", [{"nz": 7}, {"rho2": 0.75}])
def test_mid_gap_band_follows_the_mid_line(override):
    # odd nz puts the mid-gap nodes on edge midpoints; unequal radii bend
    # the mid-line (gamma1 + gamma2)/2 away from y = 0, where a y = 0 rule
    # keeps only the origin
    from lamegap.fem.mesh import generate_mesh
    from lamegap.studies import _EpsCase

    cfg = SweepConfig(**override)
    case = _EpsCase(cfg, 0.1)
    mesh = generate_mesh(case.geom, cfg.mesh_params(0.1))
    band = case.mid_gap(mesh)
    assert len(band) >= 5  # the stations 0, +-0.09, +-0.19
    x, y = mesh.nodes[band].T
    assert np.abs(x).max() <= 0.65 * cfg.neck_halfwidth
    mid = [(case.geom.gamma1(v) + case.geom.gamma2(v)) / 2 for v in x]
    assert np.abs(y - mid).max() <= 1e-9 * case.geom.eps
    if cfg.rho2 != cfg.rho1:
        assert np.count_nonzero(y == 0.0) == 1


@pytest.mark.parametrize("rho2", [1.0, 0.75])
def test_bstar_divides_by_the_root_of_the_local_gap(rho2):
    # near the origin the gap is eps + kappa x^2, kappa = (1/rho1 + 1/rho2)/2
    from lamegap.studies import _EpsCase, _record_constants

    cfg = SweepConfig(rho2=rho2, nr=8, arc_target=0.24)
    eps = 0.05
    rec = _record_constants(cfg, _EpsCase(cfg, eps))
    kappa = (1 / cfg.rho1 + 1 / cfg.rho2) / 2
    assert kappa == pytest.approx(1.0 if rho2 == 1.0 else 7 / 6, abs=1e-15)
    assert rec["bstar11"] == math.pi * cfg.mu * rec["dc1"] / math.sqrt(kappa * eps)
    assert rec["bstar12"] == math.pi * (cfg.lam + 2 * cfg.mu) * rec["dc2"] / math.sqrt(kappa * eps)
    if rho2 == 1.0:  # unit radii keep the unit-disk formula bit for bit
        assert rec["bstar11"] == math.pi * cfg.mu * rec["dc1"] / math.sqrt(eps)


def test_rates_small_eps_u13_slope():
    # at eps 1e-5 .. 1.25e-6 the mid-gap nodes resolve the neck; the
    # rotation rate must sit within 0.04 of the theoretical -1/2 (41 fixed
    # centerline points gave -0.452 here)
    from lamegap.studies import RUNNERS

    rep = RUNNERS["rates"](SweepConfig(study_id="small-eps", eps_grid=(1e-5, 5e-6, 2.5e-6, 1.25e-6)))
    assert rep.passed
    assert abs(rep.checks["u13_gap_max_slope"]["value"] + 0.5) <= 0.04


def test_holes_rigid_control_is_a_direct_bound():
    from lamegap.studies import _report_holes

    records = [
        {"eps": e, "holes_gap_max": e**-0.5, "holes_normalized": e**-0.4,
         "rigid_grad": 1 + 1e-12, "energy": 1.0, "boundary_work": 2.0}
        for e in (0.1, 0.05, 0.025, 0.0125)
    ]
    tol = dict(DEFAULT_TOLERANCES)
    fits, checks = _report_holes(tol, records)
    assert checks["rigid_control"] == {"passed": True, "value": pytest.approx(1e-12), "bound": 1e-8}
    assert "rigid_grad" not in fits
    # an eps-independent error of 2e-8 has slope 0 and used to pass
    for r in records:
        r["rigid_grad"] = 1 - 2e-8
    _, checks = _report_holes(tol, records)
    assert not checks["rigid_control"]["passed"]


# -- kept cases -------------------------------------------------------------------

KINDS = ("rates", "constants", "compare", "cancel", "holes")
COARSE = dict(nr=8, arc_target=0.24)


@pytest.fixture
def counts(monkeypatch):
    """Empty the kept cases and count meshes and factorizations from here on."""
    import scipy.sparse.linalg as spla

    from lamegap import studies

    monkeypatch.setattr(studies, "_CASES", {})
    tally = {"generate_mesh": 0, "splu": 0}

    def counted(name, fn):
        def call(*args, **kwargs):
            tally[name] += 1
            return fn(*args, **kwargs)

        return call

    monkeypatch.setattr(studies, "generate_mesh", counted("generate_mesh", studies.generate_mesh))
    monkeypatch.setattr(spla, "splu", counted("splu", spla.splu))
    return tally


def test_warm_and_cold_cases_give_identical_reports(monkeypatch, counts):
    from lamegap import studies

    cfg = SweepConfig(study_id="warm", **COARSE)
    warm = {kind: studies.RUNNERS[kind](cfg).to_json() for kind in KINDS}
    (cases,) = studies._CASES.values()
    systems = [s for case in cases.values() for s in case._systems.values()]
    assert systems and all(s._K is None and s._reduced is None for s in systems)
    for kind in KINDS:
        monkeypatch.setattr(studies, "_CASES", {})
        assert studies.RUNNERS[kind](cfg).to_json() == warm[kind], kind


@pytest.mark.parametrize(
    "change",
    [{"nr": 9}, {"lam": 2.0}, {"rho2": 0.75}, {"phi": "odd_cubic"},
     {"eps_grid": (0.12, 0.05, 0.025, 0.0125)}],
)
def test_a_solve_field_change_meshes_afresh(counts, change):
    from lamegap.studies import RUNNERS

    cfg = SweepConfig(**COARSE)
    RUNNERS["constants"](cfg)
    counts.update(generate_mesh=0, splu=0)
    RUNNERS["constants"](replace(cfg, **change))
    assert counts == {"generate_mesh": 4, "splu": 4}


@pytest.mark.parametrize(
    "change",
    [{"study_id": "other"}, {"eps_grid": (0.0125, 0.025, 0.05, 0.1)}, {"compare_depth": 3},
     {"tolerances": tuple(sorted({**DEFAULT_TOLERANCES, "dc3_rel_max": 1e-9}.items()))}],
)
def test_a_read_only_change_keeps_the_cases(counts, change):
    from lamegap import studies

    cfg = SweepConfig(**COARSE)
    studies.RUNNERS["constants"](cfg)
    kept = dict(studies._CASES)
    counts.update(generate_mesh=0, splu=0)
    studies.RUNNERS["constants"](replace(cfg, **change))
    assert counts == {"generate_mesh": 0, "splu": 0}
    assert studies._CASES.keys() == kept.keys()
    for key, cases in kept.items():
        assert all(studies._CASES[key][eps] is case for eps, case in cases.items())


def test_deeper_comparison_after_a_shallow_one_equals_a_cold_run(monkeypatch, counts):
    from lamegap import studies

    cfg = SweepConfig(study_id="depth", **COARSE)
    studies.RUNNERS["compare"](cfg)
    counts.update(generate_mesh=0, splu=0)
    warm = studies.RUNNERS["compare"](replace(cfg, compare_depth=3))
    assert counts == {"generate_mesh": 0, "splu": 0}
    monkeypatch.setattr(studies, "_CASES", {})
    cold = studies.RUNNERS["compare"](replace(cfg, compare_depth=3))
    assert warm.to_json() == cold.to_json()
    assert warm.config["compare_depth"] == 3


def test_kept_fields_are_read_only_and_released_energy_is_exact(counts):
    from lamegap import studies

    cfg = SweepConfig(**COARSE)
    report = studies.RUNNERS["holes"](cfg)
    (cases,) = studies._CASES.values()
    assert sorted(cases) == sorted(cfg.eps_grid)
    for rec in report.records:
        case = cases[rec["eps"]]
        fld = case.field(studies.solve_holes, studies.BOUNDARY_DATA[cfg.phi])
        assert fld.system._K is None
        with pytest.raises(ValueError):
            fld.u[0] = 1.0
        # K is assembled again, bit for bit
        assert fld.energy() == rec["energy"]
    assert counts["splu"] == 4
    _, c = cases[0.1].field(studies.solve_hard_inclusion, studies.BOUNDARY_DATA[cfg.phi])
    with pytest.raises(ValueError):
        c[0, 0] = 1.0
