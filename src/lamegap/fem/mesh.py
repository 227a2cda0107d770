"""Graded conforming triangulation of the two-inclusion domain.

The domain splits into a structured neck band (|x1| <= neck_halfwidth,
between the two circle arcs, tangential spacing proportional to
sqrt(gap) and nz uniform layers across the gap) and an outer annulus
between the "snowman" ring (inclusion arcs + the two vertical band edges)
and the outer circle, meshed by radial spokes from the origin.  Both
blocks share nodes on the band edges, so the global mesh is conforming.
Quadratic (6-node) triangles; midpoints of boundary edges are snapped to
the circles, giving an isoparametric approximation of the curved arcs.
A generated mesh whose isoparametric map folds over (a non-positive
Jacobian at any quadrature point) is a MeshError.

Everything is deterministic for fixed inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .element import quadrature_jacobians
from .geometry import Geometry

REGIONS = ("bulk", "neck", "incl1", "incl2")
BOUNDARIES = ("outer", "incl1", "incl2")


class MeshError(ValueError):
    pass


@dataclass(frozen=True)
class MeshParams:
    """Mesh resolution knobs.

    nz: element layers across the gap (even keeps a node at (0,0)).
    ct: tangential spacing factor, dx ~ ct*sqrt(gap).
    neck_halfwidth: half-width R of the structured band.
    arc_target: target arc spacing on the inclusion circles outside the band.
    nr: radial element layers in the annulus.
    radial_growth: geometric grading ratio of the radial layers.
    collar_width: width of the normal-offset layer around the inclusions.

    Values that cannot mesh (nz < 2, nr < 1, a real knob that is not finite
    and positive) are a MeshError here, before any mesh is built.
    """

    nz: int = 8
    ct: float = 0.35
    neck_halfwidth: float = 0.45
    arc_target: float = 0.12
    nr: int = 16
    radial_growth: float = 1.25
    collar_width: float = 0.03

    def __post_init__(self) -> None:
        # each of these would hang the station loop, divide by zero or
        # mesh silently into garbage
        for name in ("ct", "neck_halfwidth", "arc_target", "radial_growth", "collar_width"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                # ct is set as --grading or mesh.grading
                label = "grading (ct)" if name == "ct" else name
                raise MeshError(f"{label} must be finite and positive, got {value!r}")
        if self.nz < 2:
            raise MeshError("nz must be >= 2")
        if self.nr < 1:
            raise MeshError(f"nr must be >= 1, got {self.nr!r}")

    def refined(self, factor: float = 2.0) -> "MeshParams":
        return MeshParams(
            nz=int(self.nz * factor),
            ct=self.ct / factor,
            neck_halfwidth=self.neck_halfwidth,
            arc_target=self.arc_target / factor,
            nr=int(self.nr * factor),
            radial_growth=self.radial_growth ** (1 / factor),
            collar_width=self.collar_width / factor,
        )


@dataclass
class Mesh:
    nodes: np.ndarray  # (N, 2)
    tris: np.ndarray  # (nE, 6) corner, corner, corner, mid01, mid12, mid20
    region: np.ndarray  # (nE,) index into REGIONS
    boundary_edges: np.ndarray  # (nB, 3) corner, corner, midpoint
    boundary_tag: np.ndarray  # (nB,) index into BOUNDARIES
    geometry: Geometry | None = None

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_elements(self) -> int:
        return len(self.tris)

    def boundary_nodes(self, tag: str) -> np.ndarray:
        k = BOUNDARIES.index(tag)
        sel = self.boundary_edges[self.boundary_tag == k]
        return np.unique(sel)

    def elements_in(self, region: str) -> np.ndarray:
        return np.nonzero(self.region == REGIONS.index(region))[0]

    def corner_areas(self) -> np.ndarray:
        p = self.nodes[self.tris[:, :3]]
        return 0.5 * (
            (p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
            - (p[:, 2, 0] - p[:, 0, 0]) * (p[:, 1, 1] - p[:, 0, 1])
        )

    def validate(self) -> None:
        areas = self.corner_areas()
        if len(areas) == 0 or areas.min() <= 0:
            raise MeshError("non-positive element area")
        # conformity: every corner edge shared by <= 2 elements; boundary
        # edges by exactly one
        n = self.n_nodes
        corners = self.tris[:, :3]
        edges = np.sort(np.stack([corners, np.roll(corners, -1, axis=1)], axis=-1), axis=-1)
        keys, counts = np.unique(edges[..., 0] * n + edges[..., 1], return_counts=True)
        if counts.max() > 2:
            raise MeshError("non-conforming edge (shared by >2 elements)")
        bedges = np.sort(self.boundary_edges[:, :2], axis=1)
        bkeys = bedges[:, 0] * n + bedges[:, 1]
        pos = np.minimum(np.searchsorted(keys, bkeys), len(keys) - 1)
        if not np.all((keys[pos] == bkeys) & (counts[pos] == 1)):
            raise MeshError("boundary edge not on the mesh boundary")


def _tangential_stations(geom: Geometry, params: MeshParams) -> list[float]:
    """Graded stations on [-R, R] with dx ~ ct * sqrt(gap)."""
    R = params.neck_halfwidth
    xs = [0.0]
    while xs[-1] < R:
        step = params.ct * math.sqrt(geom.gap(xs[-1]))
        xs.append(xs[-1] + step)
    # rescale the last interval so the band edge is hit exactly
    xs = [x * R / xs[-1] for x in xs]
    left = [-x for x in reversed(xs[1:])]
    return left + xs


def _quad_tris(a, b, c, d) -> np.ndarray:
    """The triangles (a, b, c), (a, c, d) of each quadrilateral cell, cells in
    the order of the corner index arrays."""
    return np.stack([a, b, c, a, c, d], axis=-1).reshape(-1, 3)


def generate_mesh(geom: Geometry, params: MeshParams | None = None) -> Mesh:
    """Mesh the domain block by block.  Each block is built as a coordinate
    array and its nodes are numbered by position: band grid, interior points
    of the top arc, of the bottom arc, collar, then the annulus layers
    outward."""
    params = params or MeshParams()
    if geom.eps / params.nz < 1e-12:
        raise MeshError(
            "gap eps too small for the requested layer count; "
            "increase eps or decrease nz (layer thickness underflows)"
        )
    if params.neck_halfwidth >= min(geom.rho1, geom.rho2) * 0.95:
        raise MeshError("neck_halfwidth must stay well inside the inclusion radii")
    R, nz, nr = params.neck_halfwidth, params.nz, params.nr
    c1, c2 = geom.center1, geom.center2
    tag1, tag2 = BOUNDARIES.index("incl1"), BOUNDARIES.index("incl2")

    # ---- structured neck band: nz + 1 levels at each station ------------
    xs = np.array(_tangential_stations(geom, params))
    lo = np.array([geom.gamma2(x) for x in xs.tolist()])[:, None]
    hi = np.array([geom.gamma1(x) for x in xs.tolist()])[:, None]
    y = lo + (hi - lo) * np.arange(nz + 1) / nz
    band = np.stack([np.broadcast_to(xs[:, None], y.shape), y], axis=-1).reshape(-1, 2)
    grid = np.arange(len(band)).reshape(len(xs), nz + 1)  # (station, level)
    band_tris = _quad_tris(grid[:-1, :-1], grid[1:, :-1], grid[1:, 1:], grid[:-1, 1:])
    # per station interval: the bottom-arc edge, then the top-arc edge
    band_edges = np.stack([grid[:-1, 0], grid[1:, 0], grid[1:, nz], grid[:-1, nz]],
                          axis=-1).reshape(-1, 2)
    band_tags = np.tile([tag2, tag1], len(xs) - 1)

    # ---- snowman ring ----------------------------------------------------
    def arc_points(center, rho, a0, a1):
        """Interior points of the ccw arc from angle a0 to a1."""
        n = max(2, int(math.ceil((a1 - a0) * rho / params.arc_target)))
        angs = [a0 + (a1 - a0) * t / n for t in range(1, n)]
        return np.array([(center[0] + rho * math.cos(a), center[1] + rho * math.sin(a))
                         for a in angs])

    # top arc of circle 1 from (R, gamma1(R)) ccw to (-R, gamma1(-R))
    a0 = math.atan2(geom.gamma1(R) - c1[1], R)
    a1 = math.atan2(geom.gamma1(-R) - c1[1], -R)
    top = arc_points(c1, geom.rho1, a0, a1 + 2 * math.pi if a1 < a0 else a1)
    # bottom arc of circle 2 from (-R, gamma2(-R)) ccw to (R, gamma2(R))
    b0 = math.atan2(geom.gamma2(-R) - c2[1], -R)
    b1 = math.atan2(geom.gamma2(R) - c2[1], R)
    bottom = arc_points(c2, geom.rho2, b0, b1 + 2 * math.pi if b1 < b0 else b1)
    # ccw from the bottom-right band corner: right band edge, top arc, left
    # band edge downward, bottom arc
    n_top, n_bot = len(top), len(bottom)
    ring = np.concatenate([grid[-1], len(band) + np.arange(n_top), grid[0, ::-1],
                           len(band) + n_top + np.arange(n_bot)])
    # boundary tag of the edge from ring[i] to ring[i + 1]; -1 on the band edges
    edge_tag = np.concatenate([np.full(nz, -1), np.full(n_top + 1, tag1),
                               np.full(nz, -1), np.full(n_bot + 1, tag2)])
    coords = np.concatenate([band, top, bottom])

    # ---- collar: one thin normal-offset layer around the snowman --------
    # Spokes from the origin graze the inclusion circles near the waist
    # corners; extruding one thin layer along the boundary normal first
    # keeps every cell there well-shaped.
    # A point's normal follows from its ring position: (+-1, 0) inside a
    # band edge, its circle's outward normal on an arc, and at a band corner
    # (on both) the normalized sum of the two.
    n_ring = len(ring)
    edge = [*[(1.0, 0.0)] * (nz + 1), *[None] * n_top, *[(-1.0, 0.0)] * (nz + 1), *[None] * n_bot]
    circle = [c2, *[None] * (nz - 1), *[c1] * (n_top + 2), *[None] * (nz - 1),
              *[c2] * (n_bot + 1)]
    normals = []
    for (x, y), n, c in zip(coords[ring].tolist(), edge, circle):
        if c is not None:
            d = math.hypot(x - c[0], y - c[1])
            nc = ((x - c[0]) / d, (y - c[1]) / d)
            if n is None:
                n = nc
            else:
                sx, sy = n[0] + nc[0], n[1] + nc[1]
                h = math.hypot(sx, sy)
                n = (sx / h, sy / h)
        normals.append(n)
    # cap the width so the corner nodes' tilted normals cannot leapfrog the
    # band-edge node spacing (which would fold the collar)
    w_c = min(params.collar_width, geom.gap(R) / params.nz)
    collar = coords[ring] + w_c * np.array(normals)

    # collar angles from the origin must be strictly increasing (mod 2 pi)
    angles = [math.atan2(y, x) for x, y in collar.tolist()]
    base = angles[0]
    unwrapped = []
    for a in angles:
        while a < base - 1e-12:
            a += 2 * math.pi
        unwrapped.append(a)
        base = a
    if unwrapped[-1] - unwrapped[0] >= 2 * math.pi:
        raise MeshError("collar ring is not star-shaped (geometry too extreme)")

    # ---- annulus: nr - 1 graded layers from the collar to the outer circle
    g = params.radial_growth
    weights = np.array([g**k for k in range(nr - 1)])
    s = np.concatenate([[0.0], np.cumsum(weights)])
    s /= s[-1]
    outer = np.array([(geom.R0 * math.cos(a), geom.R0 * math.sin(a)) for a in unwrapped])
    layers = collar + (outer - collar) * s[1:, None, None]  # (nr - 1, n_ring, 2)
    # node index (layer, ring position), the first position repeated at the end
    annulus = np.vstack([ring, len(coords) + np.arange(nr * n_ring).reshape(nr, n_ring)])
    annulus = np.column_stack([annulus, annulus[:, 0]])
    coords = np.concatenate([coords, collar, layers.reshape(-1, 2)])
    bulk_tris = _quad_tris(annulus[:-1, :-1], annulus[:-1, 1:], annulus[1:, 1:], annulus[1:, :-1])
    # per ring position: the outer-circle edge, then the inclusion-arc edge
    edges = np.stack([annulus[nr, 1:], annulus[nr, :-1], annulus[0, 1:], annulus[0, :-1]],
                     axis=-1).reshape(-1, 2, 2)
    tags = np.column_stack([np.full(n_ring, BOUNDARIES.index("outer")), edge_tag])
    keep = tags >= 0

    tris = np.concatenate([band_tris, bulk_tris])
    region = np.repeat([REGIONS.index("neck"), REGIONS.index("bulk")],
                       [len(band_tris), len(bulk_tris)])
    bedges = np.concatenate([band_edges, edges[keep]])
    btags = np.concatenate([band_tags, tags[keep]])
    mesh = _finalize(coords, tris, region, bedges, btags, geom)
    _check_jacobians(mesh)
    return mesh


def _check_jacobians(mesh: Mesh) -> None:
    """Reject a mesh whose isoparametric map has a non-positive Jacobian at
    a quadrature point of some element (a curved element folded over), so
    that it fails here and not in assembly."""
    det = quadrature_jacobians(mesh.nodes, mesh.tris)[1].min(axis=1)
    e = int(det.argmin())
    if det[e] <= 0:
        x, y = mesh.nodes[mesh.tris[e, :3]].mean(axis=0)
        raise MeshError(
            f"non-positive Jacobian in {int((det <= 0).sum())} element(s); the worst, a "
            f"{REGIONS[mesh.region[e]]} element at centroid ({x:.6g}, {y:.6g}), has det "
            f"{det[e]:.3e} at a quadrature point (geometry too extreme for the mesh parameters)"
        )


def add_inclusion_interiors(mesh: Mesh, n_rings: int = 8) -> Mesh:
    """Extend a mesh with fan-triangulated inclusion interiors.

    Used by the large-contrast cross-check; the interior elements carry the
    region tags 'incl1'/'incl2'.
    """
    geom = mesh.geometry
    if geom is None:
        raise MeshError("mesh carries no geometry")
    scale = 1 - np.arange(1, n_rings) / n_rings  # ring k sits at radius fraction scale[k-1]
    loops, points = [], []
    for tag, center in (("incl1", geom.center1), ("incl2", geom.center2)):
        bnodes = mesh.boundary_nodes(tag)
        # order the circle nodes by angle around the center
        ang = np.arctan2(mesh.nodes[bnodes, 1] - center[1], mesh.nodes[bnodes, 0] - center[0])
        ordered = bnodes[np.argsort(ang)]
        # keep only corner nodes of the boundary edges (drop midpoints)
        corners = mesh.boundary_edges[mesh.boundary_tag == BOUNDARIES.index(tag), :2]
        loop = ordered[np.isin(ordered, corners)]
        c = np.array(center)
        rings = c + (mesh.nodes[loop] - c) * scale[:, None, None]  # (n_rings - 1, m, 2)
        loops.append(loop)
        points += [rings.reshape(-1, 2), c[None]]
    coords, idx = _merge_nodes(mesh.nodes, np.concatenate(points))

    tris, region = [mesh.tris[:, :3]], [mesh.region]
    start = 0
    for tag, loop in zip(("incl1", "incl2"), loops):
        m = len(loop)
        stop = start + (n_rings - 1) * m
        rings = np.vstack([loop, idx[start:stop].reshape(n_rings - 1, m)])  # (n_rings, m)
        center_id = idx[stop]
        start = stop + 1
        a, d = rings[:-1], rings[1:]
        b, c = np.roll(a, -1, axis=1), np.roll(d, -1, axis=1)
        quads = np.stack([np.stack([a, c, b], axis=-1), np.stack([a, d, c], axis=-1)], axis=2)
        quads = quads.reshape(-1, 3)  # per ring and loop position: (a, c, b), (a, d, c)
        inner = rings[-1]
        fan = np.stack([inner, np.full(m, center_id), np.roll(inner, -1)], axis=-1)
        tris += [quads, fan]
        region.append(np.full(len(quads) + len(fan), REGIONS.index(tag)))

    # inclusion arcs become interior interfaces; only the outer circle stays
    # a domain boundary, but the arc midpoints must stay snapped so the old
    # curved nodes are reused
    keep = mesh.boundary_tag == BOUNDARIES.index("outer")
    return _finalize(
        coords, np.concatenate(tris), np.concatenate(region),
        mesh.boundary_edges[keep, :2], mesh.boundary_tag[keep], geom,
        snap=(mesh.boundary_edges[:, :2], mesh.boundary_tag),
    )


def _merge_nodes(coords: np.ndarray, new: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Append the rows of `new` to the node list `coords`: a row equal bit
    for bit to an earlier node (old or new) is that node, and the others
    become new nodes in row order.  Returns the extended node list and the
    node index of each row."""
    n0 = len(coords)
    pts = np.concatenate([coords, new])
    order = np.lexsort((pts[:, 1], pts[:, 0]))  # stable: equal rows stay in index order
    srt = pts[order]
    head = np.ones(len(pts), dtype=bool)
    head[1:] = (srt[1:] != srt[:-1]).any(axis=1)
    first = np.empty(len(pts), dtype=np.int64)  # first row equal to each row
    first[order] = order[head][np.cumsum(head) - 1]
    first = first[n0:]
    fresh = first == np.arange(n0, len(pts))
    number = n0 - 1 + np.cumsum(fresh)  # node index of each fresh row
    idx = first.copy()
    later = first >= n0
    idx[later] = number[first[later] - n0]
    return np.concatenate([coords, new[fresh]]), idx


def _finalize(coords, tris, region, bedges, btags, geom: Geometry, snap=None) -> Mesh:
    """Orient corners ccw, add quadratic midpoints, snap boundary arcs.

    Midpoints are numbered in order of first appearance (element edges 01,
    12, 20 in element order, then the boundary edges), after the corners;
    a midpoint equal to an existing node is that node.  The midpoint of a
    boundary edge is snapped to its circle, and so is that of an edge in
    `snap` (edges, tags); a boundary edge's tag wins over `snap`.
    """
    coords = np.asarray(coords, dtype=float)
    tris = np.array(tris, dtype=np.int64).reshape(-1, 3)
    bedges = np.asarray(bedges, dtype=np.int64).reshape(-1, 2)
    btags = np.asarray(btags, dtype=np.int8)
    p = coords[tris]
    cw = (p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1]) - (
        p[:, 2, 0] - p[:, 0, 0]
    ) * (p[:, 1, 1] - p[:, 0, 1]) < 0
    tris[cw] = tris[cw][:, [0, 2, 1]]

    n = len(coords)
    edges = np.concatenate([tris[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), bedges])
    keys = edges.min(axis=1) * n + edges.max(axis=1)
    ukeys, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    mid = (coords[edges[first, 0]] + coords[edges[first, 1]]) / 2  # one per key

    tagged, tags = bedges, btags
    if snap is not None:
        tagged = np.concatenate([np.asarray(snap[0], dtype=np.int64), bedges])
        tags = np.concatenate([np.asarray(snap[1], dtype=np.int8), btags])
    tkeys = (tagged.min(axis=1) * n + tagged.max(axis=1))[::-1]
    tkeys, last = np.unique(tkeys, return_index=True)  # the last entry of a key wins
    at = np.searchsorted(ukeys, tkeys)
    found = at < len(ukeys)
    found[found] = ukeys[at[found]] == tkeys[found]
    tag = np.full(len(ukeys), -1)
    tag[at[found]] = tags[::-1][last][found]
    circles = ((0.0, 0.0), geom.R0), (geom.center1, geom.rho1), (geom.center2, geom.rho2)
    for k, ((cx, cy), rho) in enumerate(circles):  # in BOUNDARIES order
        sel = tag == k
        dx, dy = mid[sel, 0] - cx, mid[sel, 1] - cy
        # math.hypot: np.hypot differs from it in the last bit on about 0.6% of inputs
        d = np.array([math.hypot(u, v) for u, v in zip(dx.tolist(), dy.tolist())])
        mid[sel, 0] = cx + dx * rho / d
        mid[sel, 1] = cy + dy * rho / d

    appear = np.argsort(first)  # keys in order of first appearance
    coords, node = _merge_nodes(coords, mid[appear])
    mid_node = np.empty(len(ukeys), dtype=np.int64)
    mid_node[appear] = node
    mids = mid_node[inverse]
    n_el = len(tris)
    mesh = Mesh(
        nodes=coords,
        tris=np.column_stack([tris, mids[: 3 * n_el].reshape(-1, 3)]),
        region=np.asarray(region, dtype=np.int8),
        boundary_edges=np.column_stack([bedges, mids[3 * n_el:]]),
        boundary_tag=btags,
        geometry=geom,
    )
    mesh.validate()
    return mesh


# ---------------------------------------------------------------------------
# ASCII export / import
# ---------------------------------------------------------------------------


def write_mesh(mesh: Mesh, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(f"lamegap-mesh 1 {mesh.n_nodes} {mesh.n_elements} {len(mesh.boundary_edges)}\n")
        for i, (x, y) in enumerate(mesh.nodes):
            fh.write(f"{i} {float(x)!r} {float(y)!r}\n")
        for i, tri in enumerate(mesh.tris):
            ns = " ".join(str(int(n)) for n in tri)
            fh.write(f"{i} {ns} {REGIONS[mesh.region[i]]}\n")
        for i, edge in enumerate(mesh.boundary_edges):
            ns = " ".join(str(int(n)) for n in edge)
            fh.write(f"{i} {ns} {BOUNDARIES[mesh.boundary_tag[i]]}\n")


def read_mesh(path: str) -> Mesh:
    with open(path) as fh:
        header = fh.readline().split()
        if header[:2] != ["lamegap-mesh", "1"]:
            raise MeshError(f"not a lamegap mesh file: {path}")
        n, ne, nb = (int(v) for v in header[2:5])
        nodes = np.empty((n, 2))
        for _ in range(n):
            parts = fh.readline().split()
            nodes[int(parts[0])] = (float(parts[1]), float(parts[2]))
        tris = np.empty((ne, 6), dtype=np.int64)
        region = np.empty(ne, dtype=np.int8)
        for _ in range(ne):
            parts = fh.readline().split()
            i = int(parts[0])
            tris[i] = [int(v) for v in parts[1:7]]
            region[i] = REGIONS.index(parts[7])
        bedges = np.empty((nb, 3), dtype=np.int64)
        btags = np.empty(nb, dtype=np.int8)
        for _ in range(nb):
            parts = fh.readline().split()
            i = int(parts[0])
            bedges[i] = [int(v) for v in parts[1:4]]
            btags[i] = BOUNDARIES.index(parts[4])
    return Mesh(nodes, tris, region, bedges, btags)
