from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from lamegap.cli import main
from lamegap.families import MAX_DEPTH
from lamegap.fem.assembly import assemble
from lamegap.fem.geometry import Geometry
from lamegap.fem.mesh import MeshParams, generate_mesh
from lamegap.fem.solve import (
    SolverError,
    gap_center_node,
    sample,
    solve_component,
    solve_hard_inclusion,
    solve_holes,
)
from lamegap.studies import BOUNDARY_DATA


def test_unknown_flag_exits_2(capsys):
    assert main(["aux", "verify", "--bogus"]) == 2


def test_help_exits_0():
    assert main(["--help"]) == 0


def test_aux_build_dump(tmp_path, capsys):
    out = tmp_path / "fam.json"
    code = main(
        ["aux", "build", "--dim", "3", "--alpha", "3", "--depth", "2", "--dump", str(out)]
    )
    assert code == 0
    obj = json.loads(out.read_text())
    assert obj["dim"] == 3 and obj["alpha"] == 3 and obj["depth"] == 2
    assert len(obj["levels"]) == 2
    # the level-2 normal component carries the u_13 seed coefficient terms
    rendered = obj["rendered"][1][2]
    assert "z" in rendered and "/d" in rendered


def test_aux_build_invalid_alpha(capsys):
    assert main(["aux", "build", "--dim", "2", "--alpha", "9", "--depth", "1"]) == 2


def test_aux_build_depth_over_cap_exits_2(capsys):
    over_cap = str(MAX_DEPTH + 1)
    assert main(["aux", "build", "--dim", "2", "--alpha", "1", "--depth", over_cap]) == 2
    assert "depth" in capsys.readouterr().err


def test_aux_verify_small(tmp_path, capsys):
    out = tmp_path / "verify.json"
    code = main(
        [
            "aux", "verify", "--dim", "2", "--alpha", "1", "--depth", "2",
            "--json", str(out),
        ]
    )
    assert code == 0
    rows = json.loads(out.read_text())
    assert all(r["status"] == "pass" for r in rows)
    names = {r["name"] for r in rows}
    assert {"boundary", "cancel_identity", "residual_order", "z_degree", "lower_bound"} <= names
    text = capsys.readouterr().out
    assert "checks passed" in text


def test_aux_verify_recursion_route_covers_the_translations(tmp_path, capsys):
    # --alpha 0 means the route's own scope: the d translations per dim
    out = tmp_path / "verify.json"
    assert main(["aux", "verify", "--route", "recursion", "--depth", "2", "--json", str(out)]) == 0
    rows = json.loads(out.read_text())
    assert all(r["status"] == "pass" for r in rows)
    cells = {(r["metadata"]["d"], r["metadata"]["alpha"]) for r in rows}
    assert cells == {(2, 1), (2, 2), (3, 1), (3, 2), (3, 3)}
    assert main(["aux", "verify", "--route", "recursion", "--dim", "2", "--alpha", "3"]) == 2
    assert "integral route" in capsys.readouterr().err


def test_fem_solve_cli(tmp_path, capsys):
    mesh_out = tmp_path / "mesh.txt"
    field_out = tmp_path / "field.csv"
    code = main(
        [
            "fem", "solve", "--eps", "0.1", "--problem", "component1",
            "--out", str(field_out), "--mesh-out", str(mesh_out), "--stride", "50",
        ]
    )
    assert code == 0
    header = field_out.read_text().splitlines()[0]
    assert header == "x,y,u1,u2,g11,g12,g21,g22"
    assert mesh_out.read_text().startswith("lamegap-mesh 1 ")


@pytest.mark.parametrize(
    "problem, solve",
    [
        *((f"component{a}", lambda system, a=a: solve_component(system, 1, a)) for a in (1, 2, 3)),
        ("hard", lambda system: solve_hard_inclusion(system, BOUNDARY_DATA["default_odd"])[0]),
        ("holes", lambda system: solve_holes(system, BOUNDARY_DATA["default_odd"])),
    ],
)
def test_fem_solve_export_equals_the_library_solve(tmp_path, capsys, problem, solve):
    field_out = tmp_path / "field.csv"
    argv = ["fem", "solve", "--eps", "0.1", "--nz", "4", "--grading", "0.5", "--problem", problem]
    assert main([*argv, "--stride", "7", "--out", str(field_out)]) == 0
    mesh = generate_mesh(Geometry(eps=0.1), MeshParams(nz=4, ct=0.5))
    fld = solve(assemble(mesh, 1.0, 1.0))
    idx = np.arange(0, mesh.n_nodes, 7)
    rows = np.column_stack(
        (mesh.nodes[idx], fld.u.reshape(-1, 2)[idx], sample(fld, idx, "gradient").reshape(-1, 4))
    )
    expected = ["x,y,u1,u2,g11,g12,g21,g22\n", *(",".join(map(repr, row)) + "\n" for row in rows.tolist())]
    # compared as lists of lines: a failure names the first row that differs
    assert field_out.read_text().splitlines(keepends=True) == expected


def test_fem_solve_hard_csv_cells_parse(tmp_path, capsys):
    field_out = tmp_path / "field.csv"
    code = main(
        ["fem", "solve", "--eps", "0.05", "--problem", "hard",
         "--stride", "50", "--out", str(field_out)]
    )
    assert code == 0
    header, *rows = field_out.read_text().splitlines()
    assert header == "x,y,u1,u2,g11,g12,g21,g22"
    assert rows
    for row in rows:
        cells = row.split(",")
        assert len(cells) == 8
        for cell in cells:
            float(cell)  # raises on reprs such as "np.float64(...)"


def test_gap_center_node_missing_is_a_solver_error():
    mesh = SimpleNamespace(nodes=np.array([(0.0, 0.5), (2e-11, 0.0)]))
    assert gap_center_node(mesh, 0.1) == 1
    with pytest.raises(SolverError, match="gap center"):
        gap_center_node(mesh, 1e-3)


def test_study_config_error(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("mesh.bogus = 3\n")
    assert main(["study", "constants", "--config", str(cfg)]) == 2


def test_study_and_report_roundtrip(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(
        "study.id = cli-test\n"
        "sweep.eps = 0.1, 0.05, 0.025, 0.0125\n"
    )
    out_json = tmp_path / "constants.json"
    out_csv = tmp_path / "constants.csv"
    code = main(
        [
            "study", "constants", "--config", str(cfg),
            "--json", str(out_json), "--out", str(out_csv),
        ]
    )
    assert code == 0
    obj = json.loads(out_json.read_text())
    assert obj["passed"] is True
    assert obj["config"]["study_id"] == "cli-test"
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "study,quantity,eps,value,fit_slope,fit_r2,pass"

    code = main(["report", str(out_json), "--out", str(tmp_path / "summary.json")])
    assert code == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert all(row["passed"] for row in summary)


def test_study_idempotent_outputs(tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("study.id = idem\nsweep.eps = 0.1, 0.05, 0.025, 0.0125\n")
    outs = []
    for k in (1, 2):
        path = tmp_path / f"r{k}.json"
        assert main(
            ["study", "constants", "--config", str(cfg), "--json", str(path)]
        ) == 0
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]


def test_study_tolerance_failure_exits_1(tmp_path, capsys):
    cfg = tmp_path / "impossible.cfg"
    cfg.write_text(
        "study.id = impossible\n"
        "sweep.eps = 0.1, 0.05, 0.025, 0.0125\n"
        "study.tolerance.dc1_slope_lo = 0.99\n"  # dc1 slope ~ 0.5 cannot reach
        "study.tolerance.dc1_slope_hi = 1.0\n"
    )
    assert main(["study", "constants", "--config", str(cfg)]) == 1
    assert "FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("stride", ["0", "-1"])
def test_fem_solve_rejects_nonpositive_stride(tmp_path, monkeypatch, capsys, stride):
    def no_mesh(*args, **kwargs):
        raise AssertionError("meshed before the stride was checked")

    monkeypatch.setattr("lamegap.cli.generate_mesh", no_mesh)
    field_out = tmp_path / "field.csv"
    code = main(
        ["fem", "solve", "--eps", "0.05", "--stride", stride, "--out", str(field_out)]
    )
    assert code == 2
    assert "--stride" in capsys.readouterr().err
    assert not field_out.exists()


@pytest.mark.parametrize("modulus", [["--lam", "inf"], ["--mu", "nan"]])
def test_fem_solve_rejects_nonfinite_moduli_before_meshing(monkeypatch, capsys, modulus):
    def no_mesh(*args, **kwargs):
        raise AssertionError("meshed before the moduli were checked")

    monkeypatch.setattr("lamegap.cli.generate_mesh", no_mesh)
    assert main(["fem", "solve", "--eps", "0.01", *modulus]) == 2
    assert "must be finite" in capsys.readouterr().err


@pytest.mark.parametrize(
    "line",
    [
        "sweep.eps = 0.1, 0.1, 0.1, 0.1",  # rate_fit would divide by zero
        "sweep.eps = 0.1, 0.1, 0.05, 0.025, 0.0125",  # a repeated point counts twice
        "sweep.eps = 0.1, nan, 0.025, 0.0125",
        "sweep.eps = 0.1, 0.05, inf, 0.0125",
        "compare.depth = 0",
        f"compare.depth = {MAX_DEPTH + 1}",
        "workers = 0",
        "material.lambda = inf",
        "study.tolerance.cancel_noise_floor = nan",
    ],
)
def test_study_rejects_unrunnable_config_before_meshing(tmp_path, monkeypatch, capsys, line):
    def no_mesh(*args, **kwargs):
        raise AssertionError("meshed before the config was checked")

    monkeypatch.setattr("lamegap.studies.generate_mesh", no_mesh)
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    assert main(["study", "compare", "--config", str(cfg)]) == 2
    assert "error:" in capsys.readouterr().err


def test_study_summary_shows_silent_state(monkeypatch, capsys):
    from lamegap.studies import RUNNERS, StudyReport

    def fake_runner(cfg):
        fit = {"slope": 0.5, "intercept": 0.0, "r2": 1.0, "residuals": [], "sign_change": True}
        checks = {
            "dc1_slope": {"passed": True, "value": 0.5, "near_zero_excluded": True},
            "cancel_bounded": {
                "passed": True, "value": None,
                "note": "cancellation sums below noise floor", "floor": 2.5e-7,
            },
        }
        return StudyReport("constants", "fake", {}, [], {"dc1": fit, "flat": {**fit, "sign_change": False}}, checks)

    monkeypatch.setitem(RUNNERS, "constants", fake_runner)
    assert main(["study", "constants"]) == 0
    out = capsys.readouterr().out
    assert "near-zero values excluded from the fit" in out
    assert "note: cancellation sums below noise floor (floor=2.5e-07)" in out
    assert "fit dc1: sign change across the sweep" in out
    assert "fit flat" not in out


def test_study_all_runs_every_study_from_one_pass(tmp_path, monkeypatch, capsys):
    import scipy.sparse.linalg as spla

    from lamegap import studies

    counts = {"generate_mesh": 0, "splu": 0}

    def counted(name, fn):
        def call(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return call

    monkeypatch.setattr(studies, "generate_mesh", counted("generate_mesh", studies.generate_mesh))
    monkeypatch.setattr(spla, "splu", counted("splu", spla.splu))
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("study.id = one-pass\nmesh.nr = 8\nmesh.arc_target = 0.24\n")  # default eps grid

    single = tmp_path / "single"
    single.mkdir()
    monkeypatch.setattr(studies, "_CASES", {})
    for kind in ("rates", "constants", "compare", "cancel", "holes"):
        assert main(
            ["study", kind, "--config", str(cfg),
             "--json", str(single / f"{kind}.json"), "--out", str(single / f"{kind}.csv")]
        ) == 0
    # the calls share the kept cases, so each mesh is made once; rates
    # solves all six component fields with the hard field on one factor per
    # eps, so constants and cancel factor nothing: the same work as study all
    assert counts == {"generate_mesh": 7, "splu": 11}

    counts.update(generate_mesh=0, splu=0)
    monkeypatch.setattr(studies, "_CASES", {})
    both = tmp_path / "all"
    assert main(["study", "all", "--config", str(cfg), "--json", str(both), "--out", str(both)]) == 0
    # 4 shared meshes plus the compare meshes below eps_max; per shared
    # system one factor for the components and hard field, one for holes
    assert counts == {"generate_mesh": 7, "splu": 11}
    names = sorted(p.name for p in single.iterdir())
    assert len(names) == 10 and sorted(p.name for p in both.iterdir()) == names
    for name in names:
        assert (both / name).read_bytes() == (single / name).read_bytes(), name


def test_cli_import_leaves_out_the_process_pool():
    # the studies run in one process: importing the CLI loads no process pool
    import lamegap

    src = str(Path(lamegap.__file__).resolve().parents[1])
    paths = [src, os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    probe = (
        "import sys, lamegap.cli; "
        "print(sorted({'concurrent.futures.process', 'multiprocessing'} & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def test_exchange_symmetry_checks_do_not_apply_to_unequal_radii(tmp_path, capsys):
    # dc3 = 0 and the cancellation bounds rest on a symmetry that exchanges
    # the inclusions; at rho2 = 0.75 dc3 is 0.41, far above its bound
    cfg = tmp_path / "unequal.cfg"
    cfg.write_text("geometry.rho2 = 0.75\nmesh.nr = 8\nmesh.arc_target = 0.24\n")
    exempt = {"constants": ["dc3_zero"], "cancel": ["cancel_bounded", "rotation_pair_bound"]}
    for kind, names in exempt.items():
        out = tmp_path / f"{kind}.json"
        assert main(["study", kind, "--config", str(cfg), "--json", str(out)]) == 0
        obj = json.loads(out.read_text())
        for name in names:
            check = obj["checks"][name]
            assert check["passed"] is None
            assert "rho1 == rho2 (rho1 = 1.0, rho2 = 0.75)" in check["reason"]
        assert obj["passed"] is True
        assert all(c["passed"] for n, c in obj["checks"].items() if n not in names)
    dc3 = json.loads((tmp_path / "constants.json").read_text())["checks"]["dc3_zero"]
    assert dc3["value"] > 1e6 * dc3["bound"]
    capsys.readouterr()
    assert main(["report", str(tmp_path / "constants.json"), str(tmp_path / "cancel.json")]) == 0
    shown = capsys.readouterr().out
    assert all(f"{name:<28} n/a" in shown for names in exempt.values() for name in names)


def test_unmeshable_radius_exits_2_with_the_mesh_error(tmp_path, capsys):
    cfg = tmp_path / "small.cfg"
    cfg.write_text("geometry.rho2 = 0.6\n")
    assert main(["study", "rates", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: non-positive Jacobian in 1 element(s); the worst, a neck element")


@pytest.mark.parametrize(
    "text, reason",
    [
        ("{}", "not a study report"),
        ("[1, 2]", "not a study report"),
        ('{"schema": "lamegap-study/2", "study": "rates"}', "not a study report"),
        ('{"schema": "lamegap-study/1", "study": "rates"}', "lacks study_id, config"),
    ],
)
def test_report_rejects_json_that_is_not_a_study_report(tmp_path, capsys, text, reason):
    path = tmp_path / "other.json"
    path.write_text(text)
    assert main(["report", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and reason in err


def _study_report_text(**values) -> str:
    obj = {"schema": "lamegap-study/1", "study": "rates", "study_id": "s", "config": {},
           "records": [], "fits": {}, "checks": {}}
    return json.dumps({**obj, **values})


@pytest.mark.parametrize(
    "values, reason",
    [
        ({"checks": {"a": 1}}, "'checks' does not map names"),
        ({"checks": []}, "'checks' does not map names"),
        ({"checks": {"a": {"value": 1.0}}}, "'checks' does not map names"),
        ({"checks": {"a": {"passed": 1}}}, "'checks' does not map names"),
        ({"records": {"eps": 0.1}}, "'records' is not a list of objects"),
        ({"records": [1]}, "'records' is not a list of objects"),
        ({"fits": []}, "'fits' is not an object of objects"),
        ({"fits": {"u11": 2}}, "'fits' is not an object of objects"),
    ],
)
def test_report_rejects_malformed_study_report_values(tmp_path, capsys, values, reason):
    path = tmp_path / "bad.json"
    path.write_text(_study_report_text(**values))
    assert main(["report", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and reason in err


def test_report_accepts_every_passed_state(tmp_path, capsys):
    checks = {"a": {"passed": True}, "b": {"passed": None, "reason": "r"}, "c": {"passed": False}}
    path = tmp_path / "ok.json"
    path.write_text(_study_report_text(checks=checks, records=[{"eps": 0.1}], fits={"u": {}}))
    assert main(["report", str(path)]) == 1
    shown = capsys.readouterr().out
    assert all(f"{name:<28} {status}" in shown for name, status in zip("abc", ("pass", "n/a", "FAIL")))


def test_zero_grading_exits_2_instead_of_hanging():
    # ct = 0 gave a zero station step, and the station loop never ended; run
    # in a subprocess with a timeout so that a hang fails this test
    import lamegap

    src = str(Path(lamegap.__file__).resolve().parents[1])
    paths = [src, os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    out = subprocess.run(
        [sys.executable, "-m", "lamegap.cli", "fem", "solve", "--eps", "0.01", "--grading", "0"],
        env=env, capture_output=True, text=True, timeout=30,
    )
    assert out.returncode == 2
    assert out.stderr == "error: grading (ct) must be finite and positive, got 0.0\n"


def test_zero_grading_in_a_config_file_exits_2(tmp_path, monkeypatch, capsys):
    def no_mesh(*args, **kwargs):
        raise AssertionError("meshed before the grading was checked")

    monkeypatch.setattr("lamegap.studies.generate_mesh", no_mesh)
    cfg = tmp_path / "grading.cfg"
    cfg.write_text("mesh.grading = 0\n")
    assert main(["study", "rates", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == "error: grading (ct) must be finite and positive, got 0.0\n"
