from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from lamegap.cli import main
from lamegap.families import MAX_DEPTH
from lamegap.fem.solve import SolverError, gap_center_node


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
    from lamegap.config import load_config

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
    for kind in ("rates", "constants", "compare", "cancel", "holes"):
        assert main(
            ["study", kind, "--config", str(cfg),
             "--json", str(single / f"{kind}.json"), "--out", str(single / f"{kind}.csv")]
        ) == 0
    assert counts == {"generate_mesh": 20, "splu": 24}

    counts.update(generate_mesh=0, splu=0)
    both = tmp_path / "all"
    assert main(["study", "all", "--config", str(cfg), "--json", str(both), "--out", str(both)]) == 0
    # 4 shared meshes plus the compare meshes below eps_max; per shared
    # system one factor each for the components, hard and holes patterns
    assert counts == {"generate_mesh": 7, "splu": 15}
    names = sorted(p.name for p in single.iterdir())
    assert len(names) == 10 and sorted(p.name for p in both.iterdir()) == names
    for name in names:
        assert (both / name).read_bytes() == (single / name).read_bytes(), name

    pooled = studies.run_studies(replace(load_config(str(cfg)), workers=2))
    for kind, report in pooled.items():
        assert report.records == json.loads((both / f"{kind}.json").read_text())["records"]
