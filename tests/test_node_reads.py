"""The array-valued node reads equal their per-node scalar rules bit for bit:
the Dirichlet vector of every boundary datum, and the mid-gap band."""

from __future__ import annotations

import numpy as np
import pytest

from lamegap.fem.geometry import Geometry
from lamegap.fem.mesh import BOUNDARIES, MeshParams, generate_mesh
from lamegap.fem.solve import _dirichlet
from lamegap.studies import BOUNDARY_DATA, SweepConfig, _EpsCase, _neck_nodes

EPS = 0.0125

MESHES = {
    "default": lambda: generate_mesh(Geometry(eps=EPS)),
    "coarse_sweep": lambda: generate_mesh(Geometry(eps=EPS), MeshParams(nr=8, arc_target=0.24)),
}


def scalar_dirichlet(mesh, data):
    g = np.zeros(2 * mesh.n_nodes)
    for tag, fn in data.items():
        for node in mesh.boundary_nodes(tag):
            x, y = mesh.nodes[node]
            g[2 * node], g[2 * node + 1] = fn(x, y)
    return g


@pytest.mark.parametrize("mesh_name", sorted(MESHES))
@pytest.mark.parametrize("datum", sorted(BOUNDARY_DATA))
def test_dirichlet_equals_the_per_node_loop(mesh_name, datum):
    mesh = MESHES[mesh_name]()
    for tag in BOUNDARIES:
        data = {tag: BOUNDARY_DATA[datum]}
        g = _dirichlet(mesh, data)
        assert np.array_equal(g, scalar_dirichlet(mesh, data))
        assert np.any(g != 0)


def scalar_mid_gap(case, mesh):
    nodes = _neck_nodes(mesh, 0.65 * case.cfg.neck_halfwidth)
    geom = case.geom
    on_line = [
        abs(y - (geom.gamma1(x) + geom.gamma2(x)) / 2) <= 1e-9 * geom.gap(x)
        for x, y in mesh.nodes[nodes].tolist()
    ]
    return nodes[on_line]


@pytest.mark.parametrize(
    "override, eps",
    [({}, 0.1), ({}, 0.0125), ({"nz": 7}, 0.1), ({"rho2": 0.75}, 0.1), ({}, 1e-6)],
)
def test_mid_gap_equals_the_scalar_rule(override, eps):
    cfg = SweepConfig(**override)
    case = _EpsCase(cfg, eps)
    band = case.mid_gap()
    assert len(band) >= 5
    assert np.array_equal(band, scalar_mid_gap(case, case.mesh))
