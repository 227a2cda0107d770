from __future__ import annotations

from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lamegap import studies
from lamegap.fem.assembly import AssemblyError, assemble
from lamegap.fem.geometry import Geometry, GeometryError
from lamegap.fem.mesh import (
    MeshError,
    MeshParams,
    add_inclusion_interiors,
    generate_mesh,
    read_mesh,
    write_mesh,
)
from lamegap.studies import DEFAULT_TOLERANCES, SweepConfig, SweepConfigError

# the benchmark's coarse sweep mesh
COARSE = MeshParams(nr=8, arc_target=0.24)


def test_geometry_validation():
    with pytest.raises(GeometryError):
        Geometry(eps=0.0)
    with pytest.raises(GeometryError):
        Geometry(eps=-0.1)
    with pytest.raises(GeometryError):
        Geometry(eps=0.1, R0=2.0)  # inclusions would poke out


def test_gap_matches_quadratic_model():
    g = Geometry(eps=0.05)
    assert g.gap(0.0) == pytest.approx(0.05)
    assert g.gap(0.1) == pytest.approx(g.gap_quadratic(0.1), rel=5e-3)


def test_mesh_valid_and_layered():
    g = Geometry(eps=0.05)
    m = generate_mesh(g, MeshParams(nz=8))
    m.validate()
    # nz layers across the gap at x=0: count nodes on the x=0 vertical line
    on_axis = np.isclose(m.nodes[:, 0], 0.0) & (np.abs(m.nodes[:, 1]) <= g.gap(0.0))
    corner_nodes = set(m.tris[:, :3].ravel().tolist())
    axis_corners = [i for i in np.nonzero(on_axis)[0] if i in corner_nodes]
    assert len(axis_corners) == 9  # nz + 1
    # a node sits exactly at the gap center
    assert np.isclose(np.linalg.norm(m.nodes, axis=1).min(), 0.0)


def test_neck_count_grows_as_eps_shrinks():
    counts = []
    for eps in (0.1, 0.05, 0.025, 0.0125):
        m = generate_mesh(Geometry(eps=eps))
        counts.append(len(m.elements_in("neck")))
    assert counts == sorted(counts)
    assert counts[-1] > counts[0]


def test_boundary_tags_form_closed_loops():
    m = generate_mesh(Geometry(eps=0.05))
    for tag in ("outer", "incl1", "incl2"):
        nodes = m.boundary_nodes(tag)
        assert len(nodes) > 10
    # boundary nodes actually lie on their circles
    g = m.geometry
    outer = m.nodes[m.boundary_nodes("outer")]
    assert np.allclose(np.hypot(outer[:, 0], outer[:, 1]), g.R0, atol=1e-9)
    inc1 = m.nodes[m.boundary_nodes("incl1")]
    c1 = g.center1
    assert np.allclose(np.hypot(inc1[:, 0] - c1[0], inc1[:, 1] - c1[1]), g.rho1, atol=1e-9)


def test_degenerate_requests_error():
    with pytest.raises(MeshError):
        generate_mesh(Geometry(eps=1e-13), MeshParams(nz=16))
    with pytest.raises(MeshError):
        generate_mesh(Geometry(eps=0.05), MeshParams(nz=1))
    with pytest.raises(MeshError):
        generate_mesh(Geometry(eps=0.05), MeshParams(neck_halfwidth=0.99))


NAN, INF = float("nan"), float("inf")


UNMESHABLE = [
    (lambda: MeshParams(ct=0.0), MeshError, r"grading \(ct\) must be finite and positive"),
    (lambda: MeshParams(ct=NAN), MeshError, r"grading \(ct\) must be finite and positive"),
    (lambda: MeshParams(arc_target=-0.1), MeshError, "arc_target"),
    (lambda: MeshParams(arc_target=INF), MeshError, "arc_target"),
    (lambda: MeshParams(neck_halfwidth=0.0), MeshError, "neck_halfwidth"),
    (lambda: MeshParams(collar_width=-0.01), MeshError, "collar_width"),
    (lambda: MeshParams(collar_width=0.0), MeshError, "collar_width"),
    (lambda: MeshParams(radial_growth=NAN), MeshError, "radial_growth"),
    (lambda: MeshParams(radial_growth=-1.25), MeshError, "radial_growth"),
    (lambda: MeshParams(nr=0), MeshError, "nr must be >= 1"),
    (lambda: MeshParams(nz=1), MeshError, "nz must be >= 2"),
    (lambda: Geometry(eps=NAN), GeometryError, "eps must be finite"),
    (lambda: Geometry(eps=INF), GeometryError, "eps must be finite"),
    (lambda: Geometry(eps=0.1, R0=INF), GeometryError, "R0 must be finite"),
    (lambda: Geometry(eps=0.1, rho1=NAN), GeometryError, "rho1 must be finite"),
    (lambda: Geometry(eps=0.1, rho2=INF), GeometryError, "rho2 must be finite"),
    (lambda: SweepConfig(ct=0.0), MeshError, r"grading \(ct\) must be finite"),
    (lambda: SweepConfig(neck_halfwidth=0.0), MeshError, "neck_halfwidth"),
    (lambda: SweepConfig(collar_width=-0.01), MeshError, "collar_width"),
    (lambda: SweepConfig(nr=0), MeshError, "nr must be >= 1"),
    (lambda: SweepConfig(R0=INF), GeometryError, "R0 must be finite"),
    (lambda: SweepConfig(rho1=NAN), GeometryError, "rho1 must be finite"),
    (lambda: SweepConfig(lam=INF), AssemblyError, "lam and mu must be finite"),
    (lambda: SweepConfig(mu=NAN), AssemblyError, "lam and mu must be finite"),
    (
        lambda: SweepConfig(
            tolerances=tuple(sorted({**DEFAULT_TOLERANCES, "cancel_noise_floor": NAN}.items()))
        ),
        SweepConfigError,
        "tolerance cancel_noise_floor must be finite",
    ),
    (
        lambda: SweepConfig(tolerances=(("u11_slope_lo", -1.1),)),
        SweepConfigError,
        "must name each default tolerance once: missing .*u11_slope_hi",
    ),
    (
        lambda: SweepConfig(tolerances=(*sorted(DEFAULT_TOLERANCES.items()), ("u11_slope", -1.0))),
        SweepConfigError,
        "must name each default tolerance once: unknown u11_slope$",
    ),
    (
        lambda: SweepConfig(tolerances=(*sorted(DEFAULT_TOLERANCES.items()), ("dc3_rel_max", 1.0))),
        SweepConfigError,
        "must name each default tolerance once: repeated dc3_rel_max$",
    ),
]


@pytest.mark.parametrize("make, error, match", UNMESHABLE, ids=range(len(UNMESHABLE)))
def test_parameters_that_cannot_mesh_fail_at_construction(make, error, match, monkeypatch):
    # before any mesh is built: generate_mesh is never reached
    monkeypatch.setattr(studies, "generate_mesh", None)
    with pytest.raises(error, match=match):
        make()


def test_refined_params():
    p = MeshParams().refined(2.0)
    assert p.nz == 16 and p.ct == pytest.approx(0.175)


def test_io_roundtrip(tmp_path):
    g = Geometry(eps=0.05)
    m = generate_mesh(g)
    path = tmp_path / "mesh.txt"
    write_mesh(m, str(path))
    m2 = read_mesh(str(path))
    m2.geometry = g
    m2.validate()
    assert np.array_equal(m2.tris, m.tris)
    assert np.array_equal(m2.boundary_edges, m.boundary_edges)
    assert np.allclose(m2.nodes, m.nodes, atol=0)


def _corrupt(lines: list[str], n_nodes: int) -> dict[str, list[str]]:
    """Broken copies of a written mesh file, by what is wrong with them."""
    header = lines[0].split()
    first_tri = lines[1 + n_nodes].split()
    first_tri[1] = str(n_nodes)  # one past the last node
    return {
        "truncated": lines[: len(lines) // 2],
        "short header": [" ".join(header[:4]) + "\n"] + lines[1:],
        "node index out of range": [*lines[: 1 + n_nodes], " ".join(first_tri) + "\n",
                                    *lines[2 + n_nodes:]],
    }


@pytest.mark.parametrize("case", ["truncated", "short header", "node index out of range"])
def test_read_mesh_rejects_a_broken_file(tmp_path, case):
    # a file cut in half raised IndexError, a three-field header ValueError,
    # and a node index past the end was read without complaint
    m = generate_mesh(Geometry(eps=0.05), COARSE)
    path = tmp_path / "mesh.txt"
    write_mesh(m, str(path))
    path.write_text("".join(_corrupt(path.read_text().splitlines(True), m.n_nodes)[case]))
    with pytest.raises(MeshError, match="mesh.txt"):
        read_mesh(str(path))


def test_read_mesh_round_trip_is_byte_equal(tmp_path):
    m = generate_mesh(Geometry(eps=0.05), COARSE)
    first, second = tmp_path / "a.txt", tmp_path / "b.txt"
    write_mesh(m, str(first))
    write_mesh(read_mesh(str(first)), str(second))
    assert first.read_bytes() == second.read_bytes()


def test_deterministic_generation():
    a = generate_mesh(Geometry(eps=0.025))
    b = generate_mesh(Geometry(eps=0.025))
    assert np.array_equal(a.nodes, b.nodes)
    assert np.array_equal(a.tris, b.tris)


@pytest.mark.parametrize("nz", (2, 3, 8))
def test_gap_center_is_a_node(nz):
    # x = 0 is a station and its column runs from -eps/2 to eps/2: the
    # origin is a corner for even nz and an edge midpoint for odd nz
    for rho2 in (1.0, 0.75):
        for eps in (0.1, 2e-4, 1e-6):
            mesh = generate_mesh(Geometry(eps=eps, rho2=rho2), MeshParams(nz=nz))
            r = np.hypot(mesh.nodes[:, 0], mesh.nodes[:, 1])
            k = r.argmin()
            assert r[k] <= 1e-9 * eps, (rho2, eps, r[k])
            assert (k in mesh.tris[:, :3]) == (nz % 2 == 0)


def test_inclusion_interiors():
    g = Geometry(eps=0.05)
    m = add_inclusion_interiors(generate_mesh(g))
    m.validate()
    assert len(m.elements_in("incl1")) > 100
    assert len(m.elements_in("incl2")) > 100
    # only the outer circle remains a boundary
    assert len(m.boundary_nodes("incl1")) == 0
    # no two nodes coincide
    assert len(np.unique(m.nodes, axis=0)) == m.n_nodes


def test_validate_rejects_broken_meshes():
    m = generate_mesh(Geometry(eps=0.05))
    dup = replace(m, tris=np.vstack([m.tris, m.tris[:1]]), region=np.append(m.region, m.region[0]))
    with pytest.raises(MeshError, match="non-conforming edge"):
        dup.validate()
    counts = Counter(
        tuple(sorted((int(t[a]), int(t[b])))) for t in m.tris for a, b in ((0, 1), (1, 2), (2, 0))
    )
    interior = next(e for e, c in counts.items() if c == 2)
    bedges = m.boundary_edges.copy()
    bedges[0, :2] = interior
    with pytest.raises(MeshError, match="boundary edge not on the mesh boundary"):
        replace(m, boundary_edges=bedges).validate()
    tris = m.tris.copy()
    tris[0, [1, 2]] = tris[0, [2, 1]]
    with pytest.raises(MeshError, match="non-positive element area"):
        replace(m, tris=tris).validate()


@pytest.mark.parametrize("rho2", [0.7, 0.6, 0.5])
def test_folded_curved_elements_fail_at_meshing(rho2):
    # with the default band half-width a curved neck element next to the
    # smaller inclusion folds over; that is a MeshError from generate_mesh,
    # naming the element, not an AssemblyError later
    with pytest.raises(
        MeshError,
        match=r"non-positive Jacobian in \d+ element\(s\); the worst, a neck element at "
        r"centroid \(-0\.\d+, -0\.\d+\), has det -\d\.\d+e-\d+ at a quadrature point",
    ):
        generate_mesh(Geometry(eps=0.0125, rho2=rho2))


def test_unequal_radii_that_mesh_also_assemble():
    mesh = generate_mesh(Geometry(eps=0.0125, rho2=0.75))
    assert assemble(mesh, 1.0, 1.0).K.shape == (2 * mesh.n_nodes, 2 * mesh.n_nodes)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(rho2=st.floats(0.25, 1.0), eps=st.floats(1e-4, 0.1))
def test_radius_ratios_mesh_and_assemble_or_fail_at_meshing(rho2, eps):
    # on the coarse sweep mesh every radius ratio either meshes and
    # assembles, or fails in generate_mesh with a MeshError; an
    # AssemblyError (or anything else) after meshing is a bug
    try:
        mesh = generate_mesh(Geometry(eps=eps, rho2=rho2), COARSE)
    except MeshError:
        return
    assert assemble(mesh, 1.0, 1.0).K.nnz > 0
