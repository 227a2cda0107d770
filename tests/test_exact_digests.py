"""The exact outputs, pinned byte for byte: the SHA-256 of every
``aux build --depth 4 --dump`` that ``aux build`` accepts, of
``aux verify --depth 4 --json`` on both routes, and of the term maps of
every family at depth 6 in insertion order (``term_order_depth6``).

The digests in ``tests/data/exact_digests.json`` were written by the
general-denominator coefficient field that the Laurent form replaced, so a
change of coefficient representation that moves any rendered coefficient,
term order or witness fails here.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Iterable

from lamegap.cli import main
from lamegap.families import alpha_range, build_family
from lamegap.neck import DIM2, DIM3, NeckScalar

DIGESTS = json.loads((Path(__file__).parent / "data" / "exact_digests.json").read_text())
ROUTES = ("integral", "recursion")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _order_sha256(scalars: Iterable[NeckScalar]) -> str:
    """SHA-256 of ``repr(list(c._terms.items()))`` of each scalar, one line
    each: the dumps sort their terms, so only this sees insertion order,
    which float evaluation sums in."""
    h = hashlib.sha256()
    for c in scalars:
        h.update(repr(list(c._terms.items())).encode() + b"\n")
    return h.hexdigest()


def term_order_digests(depth: int) -> dict[str, dict[str, str]]:
    """Per family on both routes: the insertion-order digest of every
    component of every level and residual (``terms``), of ``diff`` of every
    level component along each axis (``diff``) and of its ``boundary_parts``
    (``boundary_parts``)."""
    out = {}
    for dim in (DIM2, DIM3):
        for route in ROUTES:
            for alpha in alpha_range(dim, route):
                fam = build_family(dim, alpha, depth, route=route)
                levels = [c for fld in fam.levels for c in fld.components]
                residuals = [c for fld in fam.residuals for c in fld.components]
                out[f"d{dim.d}_a{alpha}_{route}"] = {
                    "terms": _order_sha256(levels + residuals),
                    "diff": _order_sha256(c.diff(a) for c in levels for a in dim.axes),
                    "boundary_parts": _order_sha256(
                        part for c in levels for part in c.boundary_parts()
                    ),
                }
    return out


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


def test_term_order_matches_its_digests():
    assert term_order_digests(6) == DIGESTS["term_order_depth6"]
