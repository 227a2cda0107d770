"""The certificate at the depth cap: every check at depth 8 on both routes,
its report pinned byte for byte (``verify_depth8`` in
``tests/data/exact_digests.json``), the insertion order of every term map
pinned (``term_order_depth8``), and the two routes agree at every level.  Slow (under a minute); deselected by default, run with
``pytest -m slow``."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from lamegap.cli import main
from lamegap.families import build_family
from lamegap.neck import DIM2, DIM3

from test_exact_digests import term_order_digests

pytestmark = pytest.mark.slow

DIGESTS = json.loads((Path(__file__).parent / "data" / "exact_digests.json").read_text())


# the lower-bound probe runs for m = 1..8 on both alpha = 1 families, at two radii
@pytest.mark.parametrize("route,n_checks", [("integral", 68), ("recursion", 52)])
def test_aux_verify_depth8_passes(tmp_path, capsys, route, n_checks):
    out = tmp_path / "verify.json"
    assert main(["aux", "verify", "--route", route, "--depth", "8", "--json", str(out)]) == 0
    assert f"{n_checks}/{n_checks} checks passed" in capsys.readouterr().out
    rows = json.loads(out.read_text())
    assert len(rows) == n_checks and all(r["status"] == "pass" for r in rows)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == DIGESTS["verify_depth8"][route]


@pytest.mark.parametrize("d,alpha", [(2, 1), (2, 2), (3, 1), (3, 2), (3, 3)])
def test_routes_agree_through_level8(d, alpha):
    dim = DIM2 if d == 2 else DIM3
    fam_i = build_family(dim, alpha, 8, route="integral")
    fam_r = build_family(dim, alpha, 8, route="recursion")
    for l in range(1, 9):
        assert fam_i.v(l).equal(fam_r.v(l)), f"level {l}"


def test_term_order_depth8_matches_its_digests():
    assert term_order_digests(8) == DIGESTS["term_order_depth8"]
