"""The exact outputs, pinned byte for byte: the SHA-256 of every
``aux build --depth 4 --dump`` that ``aux build`` accepts, and of
``aux verify --depth 4 --json`` on both routes.

The digests in ``tests/data/exact_digests.json`` were written by the
general-denominator coefficient field that the Laurent form replaced, so a
change of coefficient representation that moves any rendered coefficient,
term order or witness fails here.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from lamegap.cli import main
from lamegap.families import alpha_range
from lamegap.neck import DIM2, DIM3

DIGESTS = json.loads((Path(__file__).parent / "data" / "exact_digests.json").read_text())
ROUTES = ("integral", "recursion")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_every_family_dump_matches_its_digest(tmp_path, capsys):
    depth = str(DIGESTS["depth"])
    got = {}
    for dim in (DIM2, DIM3):
        for route in ROUTES:
            for alpha in alpha_range(dim, route):
                out = tmp_path / "family.json"
                argv = ["aux", "build", "--dim", str(dim.d), "--alpha", str(alpha),
                        "--depth", depth, "--route", route, "--dump", str(out)]
                assert main(argv) == 0
                got[f"d{dim.d}_a{alpha}_{route}"] = _sha256(out)
    capsys.readouterr()
    assert got == DIGESTS["build"]


def test_verify_reports_match_their_digests(tmp_path, capsys):
    got = {}
    for route in ROUTES:
        out = tmp_path / f"verify_{route}.json"
        argv = ["aux", "verify", "--depth", str(DIGESTS["depth"]), "--route", route,
                "--json", str(out)]
        assert main(argv) == 0
        got[route] = _sha256(out)
    capsys.readouterr()
    assert got == DIGESTS["verify"]
