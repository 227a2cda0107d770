"""`fem solve` and the eps-sweep studies describe the same problem by default.

The geometry defaults live on `Geometry`, the mesh defaults on `MeshParams`
and the material and boundary datum on `SweepConfig`; `SweepConfig` and the
`fem solve` parser read them from there.
"""

from __future__ import annotations

from dataclasses import asdict, fields, replace

import pytest

from lamegap.cli import build_parser
from lamegap.fem.geometry import Geometry
from lamegap.fem.mesh import MeshParams
from lamegap.studies import SweepConfig

GEOMETRY = ("R0", "rho1", "rho2")
MESH = tuple(f.name for f in fields(MeshParams))
# one value per MeshParams field, none of them its default
NON_DEFAULT = {
    "nz": 6, "ct": 0.3, "neck_halfwidth": 0.4, "arc_target": 0.2, "nr": 10,
    "radial_growth": 1.3, "collar_width": 0.02,
}


def test_sweep_config_defaults_are_geometry_and_mesh_defaults():
    cfg = SweepConfig()
    geom = Geometry(eps=0.1)
    assert {n: getattr(cfg, n) for n in GEOMETRY} == {n: getattr(geom, n) for n in GEOMETRY}
    assert {n: getattr(cfg, n) for n in MESH} == asdict(MeshParams())
    assert cfg.geometry(0.1) == geom
    assert cfg.mesh_params(max(cfg.eps_grid)) == MeshParams()


def test_fem_solve_defaults_are_the_shared_defaults():
    args = build_parser().parse_args(["fem", "solve", "--eps", "0.1"])
    cfg, geom, mesh = SweepConfig(), Geometry(eps=0.1), MeshParams()
    assert (args.R0, args.rho1, args.rho2) == (geom.R0, geom.rho1, geom.rho2)
    assert (args.nz, args.grading) == (mesh.nz, mesh.ct)
    assert (args.lam, args.mu, args.phi) == (cfg.lam, cfg.mu, cfg.phi)
    assert Geometry(eps=args.eps, R0=args.R0, rho1=args.rho1, rho2=args.rho2) == cfg.geometry(0.1)


def test_non_default_covers_every_mesh_field():
    assert set(NON_DEFAULT) == set(MESH)
    assert all(NON_DEFAULT[n] != getattr(MeshParams(), n) for n in MESH)


def test_every_mesh_field_reaches_mesh_params():
    assert SweepConfig(**NON_DEFAULT).mesh_params(0.1) == MeshParams(**NON_DEFAULT)
    # grading with eps scales ct and nothing else
    got = SweepConfig(**NON_DEFAULT).mesh_params(0.0125)
    assert got.ct == pytest.approx(NON_DEFAULT["ct"] / 2)
    assert replace(got, ct=NON_DEFAULT["ct"]) == MeshParams(**NON_DEFAULT)


def test_refined_keeps_the_fields_it_does_not_scale():
    params = MeshParams(**NON_DEFAULT)
    assert params.refined(2.0).neck_halfwidth == NON_DEFAULT["neck_halfwidth"]
    assert params.refined(1.0) == params
