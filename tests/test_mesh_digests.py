"""The generated meshes, pinned byte for byte: the SHA-256 of each of the
five mesh arrays (nodes, tris, region, boundary_edges, boundary_tag; dtype
and shape included) for a fixed set of geometries and parameters.

The digests in ``tests/data/mesh_digests.json`` were written by the
registry-based generator that numbered every point through a dict keyed by
coordinates, so a change in node numbering, element or edge order, or in
any coordinate bit fails here.  Regenerate them only for a deliberate
change of the mesh: ``PYTHONPATH=src python tests/test_mesh_digests.py``.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from lamegap.fem.geometry import Geometry
from lamegap.fem.mesh import Mesh, MeshParams, add_inclusion_interiors, generate_mesh

DATA = Path(__file__).parent / "data" / "mesh_digests.json"
ARRAYS = ("nodes", "tris", "region", "boundary_edges", "boundary_tag")
EPS = 0.0125

MESHES = {
    "default": lambda: generate_mesh(Geometry(eps=EPS)),
    "coarse_sweep": lambda: generate_mesh(Geometry(eps=EPS), MeshParams(nr=8, arc_target=0.24)),
    "odd_nz3": lambda: generate_mesh(Geometry(eps=EPS), MeshParams(nz=3)),
    "rho2_0.75": lambda: generate_mesh(Geometry(eps=EPS, rho2=0.75)),
    "eps_1e-6": lambda: generate_mesh(Geometry(eps=1e-6)),
    "refined": lambda: generate_mesh(Geometry(eps=EPS), MeshParams().refined()),
    "interiors": lambda: add_inclusion_interiors(generate_mesh(Geometry(eps=EPS))),
}


def digests(mesh: Mesh) -> dict[str, str]:
    out = {}
    for name in ARRAYS:
        a = np.ascontiguousarray(getattr(mesh, name))
        h = hashlib.sha256(f"{a.dtype.str} {a.shape}\n".encode())
        h.update(a.tobytes())
        out[name] = h.hexdigest()
    return out


@pytest.mark.parametrize("name", sorted(MESHES))
def test_mesh_matches_its_digests(name):
    expected = json.loads(DATA.read_text())[name]
    assert digests(MESHES[name]()) == expected


if __name__ == "__main__":
    DATA.write_text(json.dumps({k: digests(f()) for k, f in MESHES.items()}, indent=1) + "\n")
    sys.stdout.write(f"wrote {DATA}\n")
