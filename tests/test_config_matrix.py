"""The config-corner matrix: `study all` on {default grid, a 1e-3 grid, a
1e-5 grid} x {lam 1, 1e3} x {rho2 1, 0.75}, with the set of failing checks
of each cell pinned.  An empty set means the cell passes every applicable
check.  Every other entry is a known defect, listed where it is taken up
(ROADMAP items 5 and 6): a fix edits this table, and so does a new failure.
Slow (about a second a cell); deselected by default, run with
``pytest -m slow``."""

from __future__ import annotations

import json

import pytest

from lamegap.cli import main

pytestmark = pytest.mark.slow

# four eps, halving from the first
GRIDS = {
    "default": "0.1, 0.05, 0.025, 0.0125",
    "1e-3": "0.001, 0.0005, 0.00025, 0.000125",
    "1e-5": "1e-05, 5e-06, 2.5e-06, 1.25e-06",
}

# (grid, lam, rho2) -> "<study>.<check>" of every check that fails there
FAILING = {
    ("default", 1.0, 1.0): set(),
    ("default", 1.0, 0.75): {"compare.normalized_error_bounded"},
    ("default", 1e3, 1.0): {"compare.normalized_error_bounded", "compare.unnormalized_small"},
    ("default", 1e3, 0.75): {"compare.normalized_error_bounded", "holes.holes_slope"},
    ("1e-3", 1.0, 1.0): {"holes.rigid_control"},
    ("1e-3", 1.0, 0.75): {
        "compare.normalized_error_bounded", "holes.holes_slope", "holes.rigid_control",
    },
    ("1e-3", 1e3, 1.0): {"holes.rigid_control", "rates.u13_gap_max_slope"},
    ("1e-3", 1e3, 0.75): {
        "compare.normalized_error_bounded", "holes.holes_slope", "holes.rigid_control",
        "rates.u13_gap_max_slope",
    },
    ("1e-5", 1.0, 1.0): {"holes.rigid_control"},
    ("1e-5", 1.0, 0.75): {
        "compare.normalized_error_bounded", "holes.holes_slope", "holes.rigid_control",
    },
    ("1e-5", 1e3, 1.0): {"holes.rigid_control"},
    ("1e-5", 1e3, 0.75): {
        "compare.normalized_error_bounded", "holes.energy_balance", "holes.holes_slope",
        "holes.rigid_control",
    },
}


@pytest.mark.parametrize(
    "cell", sorted(FAILING), ids=[f"{g}-lam{lam:g}-rho2_{rho2:g}" for g, lam, rho2 in sorted(FAILING)]
)
def test_config_corner(tmp_path, capsys, cell):
    grid, lam, rho2 = cell
    cfg = tmp_path / "corner.cfg"
    cfg.write_text(f"sweep.eps = {GRIDS[grid]}\nmaterial.lambda = {lam!r}\ngeometry.rho2 = {rho2!r}\n")
    code = main(["study", "all", "--config", str(cfg), "--json", str(tmp_path)])
    failing = set()
    for kind in ("rates", "constants", "compare", "cancel", "holes"):
        checks = json.loads((tmp_path / f"{kind}.json").read_text())["checks"]
        failing |= {f"{kind}.{name}" for name, c in checks.items() if c["passed"] is False}
    assert failing == FAILING[cell]
    assert code == (1 if failing else 0)
