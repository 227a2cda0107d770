"""Constrained solves on the two-inclusion geometry and field sampling.

Boundary handling is by DOF condensation: the full displacement vector is
u = T y + g, with g carrying prescribed Dirichlet values and T mapping the
reduced unknowns (free nodal DOFs plus, for hard inclusions, three rigid
parameters per inclusion) into nodal DOFs.  The reduced system T'KT is
symmetric positive definite and is solved by a sparse LU factorization.  A
constraint pattern (fixed DOF mask plus rigid node groups) is factorized
once per system: later solves with the same pattern and new boundary values
reuse the factor, and only the latest pattern is kept.  Every solve verifies
the relative backward error.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .assembly import ElasticitySystem, assemble, shape_functions, shape_gradients
from .geometry import Geometry
from .mesh import Mesh, MeshParams, add_inclusion_interiors, generate_mesh

RESIDUAL_TOL = 1e-10

PSI = (
    lambda x, y: (1.0, 0.0),
    lambda x, y: (0.0, 1.0),
    lambda x, y: (y, -x),
)


class SolverError(RuntimeError):
    pass


@dataclass
class DisplacementField:
    """Nodal coefficients of a quadratic vector field plus its system."""

    system: ElasticitySystem
    u: np.ndarray  # (2N,)
    rigid: np.ndarray | None = None  # (2, 3) hard-inclusion parameters
    _locator: "_Locator | None" = field(default=None, repr=False)

    @property
    def mesh(self) -> Mesh:
        return self.system.mesh

    def energy(self) -> float:
        return self.system.energy(self.u)

    def boundary_work(self) -> float:
        """u . (K u) accumulated over constrained DOFs (= u'Ku up to the
        solver residual, since interior rows of K u vanish)."""
        r = self.system.K @ self.u
        mask = np.zeros(len(self.u), dtype=bool)
        for tag in ("outer", "incl1", "incl2"):
            nodes = self.mesh.boundary_nodes(tag)
            mask[2 * nodes] = True
            mask[2 * nodes + 1] = True
        return float(self.u[mask] @ r[mask])

    def flux_pairing(self, tag: str, alpha: int) -> float:
        """Boundary pairing int_{boundary tag} (K u) . psi_alpha (nodal form)."""
        r = self.system.K @ self.u
        acc = 0.0
        for n in self.mesh.boundary_nodes(tag):
            x, y = self.mesh.nodes[n]
            px, py = PSI[alpha - 1](x, y)
            acc += r[2 * n] * px + r[2 * n + 1] * py
        return acc


# ---------------------------------------------------------------------------
# Condensation and linear solve
# ---------------------------------------------------------------------------


@dataclass
class _ReducedSystem:
    """T, A = T'KT, its LU factor and ||A||_inf for one constraint pattern."""

    key: tuple
    T: sp.csr_matrix
    A: sp.csr_matrix
    lu: spla.SuperLU
    norm_a: float


def _reduced_system(
    system: ElasticitySystem, fixed: np.ndarray, rigid_groups: Sequence[np.ndarray]
) -> _ReducedSystem:
    """The reduced system of `system` for the pattern (fixed DOF mask, rigid
    node groups).  Only the latest pattern is kept on the system."""
    groups = [np.asarray(nodes, dtype=np.int64) for nodes in rigid_groups]
    key = (fixed.tobytes(), tuple(nodes.tobytes() for nodes in groups))
    if system._reduced is not None and system._reduced.key == key:
        return system._reduced
    system._reduced = None  # release the old factor before building the new one

    n = system.n_dofs
    tied = np.zeros(n, dtype=bool)
    rows: list[np.ndarray] = []
    cols: list[np.ndarray] = []
    vals: list[np.ndarray] = []
    n_rigid = 3 * len(groups)
    for gi, nodes in enumerate(groups):
        clash = nodes[fixed[2 * nodes]]
        if len(clash):
            raise SolverError(f"node {clash[0]} both prescribed and rigid-tied")
        x, y = system.mesh.nodes[nodes].T
        base = np.full(len(nodes), 3 * gi)
        ones = np.ones(len(nodes))
        tied[2 * nodes] = tied[2 * nodes + 1] = True
        # u_x = c0 + c2 y,  u_y = c1 - c2 x
        rows += [2 * nodes, 2 * nodes + 1, 2 * nodes, 2 * nodes + 1]
        cols += [base, base + 1, base + 2, base + 2]
        vals += [ones, ones, y, -x]
    free_idx = np.nonzero(~(fixed | tied))[0]
    n_red = n_rigid + len(free_idx)
    rows.append(free_idx)
    cols.append(np.arange(n_rigid, n_red))
    vals.append(np.ones(len(free_idx)))
    T = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(n, n_red)
    ).tocsr()

    A = (T.T @ system.K @ T).tocsr()
    try:
        lu = spla.splu(A.tocsc())
    except RuntimeError as exc:
        raise SolverError(f"sparse factorization failed: {exc}") from exc
    norm_a = float(np.abs(A).sum(axis=1).max())
    system._reduced = _ReducedSystem(key, T, A, lu, norm_a)
    return system._reduced


def _condensed_solve(
    system: ElasticitySystem,
    prescribed: dict[int, tuple[float, float]],
    rigid_groups: Sequence[np.ndarray] = (),
) -> tuple[np.ndarray, np.ndarray]:
    """Solve K u = 0 with prescribed nodal values and rigid-tied node groups.

    Returns (u, c) where c stacks 3 rigid parameters per group.
    """
    n = system.n_dofs
    nodes = np.fromiter(prescribed, dtype=np.int64, count=len(prescribed))
    values = np.array(list(prescribed.values()), dtype=float).reshape(-1, 2)
    g = np.zeros(n)
    g[2 * nodes], g[2 * nodes + 1] = values[:, 0], values[:, 1]
    fixed = np.zeros(n, dtype=bool)
    fixed[2 * nodes] = fixed[2 * nodes + 1] = True
    red = _reduced_system(system, fixed, rigid_groups)

    A, lu = red.A, red.lu
    b = -(red.T.T @ (system.K @ g))
    y = lu.solve(b)
    # two steps of iterative refinement; high-contrast materials push the
    # raw factorization residual above the acceptance threshold
    for _ in range(2):
        y = y + lu.solve(b - A @ y)
    res = np.linalg.norm(A @ y - b)
    # backward-error normalization; plain ||b|| would be unattainable for
    # the high-contrast cross-check systems
    scale = max(red.norm_a * np.linalg.norm(y) + np.linalg.norm(b), 1e-300)
    if res / scale > RESIDUAL_TOL:
        raise SolverError(
            f"linear solve residual {res / scale:.3e} exceeds {RESIDUAL_TOL:.0e}"
        )
    u = red.T @ y + g
    n_rigid = 3 * len(rigid_groups)
    c = y[:n_rigid].reshape(-1, 3) if n_rigid else np.zeros((0, 3))
    return u, c


def _prescribe(mesh: Mesh, tag: str, fn: Callable[[float, float], tuple[float, float]], out: dict) -> None:
    for node in mesh.boundary_nodes(tag):
        x, y = mesh.nodes[node]
        out[int(node)] = fn(x, y)


# ---------------------------------------------------------------------------
# Problem-level solves
# ---------------------------------------------------------------------------


def _system(geom: Geometry, lam: float, mu: float, params: MeshParams | None,
            mesh: Mesh | None) -> ElasticitySystem:
    if mesh is None:
        mesh = generate_mesh(geom, params)
    return assemble(mesh, lam, mu)


def solve_component(
    geom: Geometry,
    lam: float,
    mu: float,
    i: int,
    alpha: int,
    params: MeshParams | None = None,
    mesh: Mesh | None = None,
    system: ElasticitySystem | None = None,
) -> DisplacementField:
    """u = psi_alpha on inclusion i, u = 0 on the other inclusion and outer."""
    if i not in (1, 2):
        raise ValueError("inclusion index must be 1 or 2")
    if alpha not in (1, 2, 3):
        raise ValueError("alpha must be 1, 2 or 3")
    system = system or _system(geom, lam, mu, params, mesh)
    mesh_ = system.mesh
    zero = lambda x, y: (0.0, 0.0)
    prescribed: dict[int, tuple[float, float]] = {}
    _prescribe(mesh_, "outer", zero, prescribed)
    _prescribe(mesh_, "incl1" if i == 2 else "incl2", zero, prescribed)
    _prescribe(mesh_, f"incl{i}", PSI[alpha - 1], prescribed)
    u, _ = _condensed_solve(system, prescribed)
    return DisplacementField(system, u)


def solve_hard_inclusion(
    geom: Geometry,
    lam: float,
    mu: float,
    phi: Callable[[float, float], tuple[float, float]],
    params: MeshParams | None = None,
    mesh: Mesh | None = None,
    system: ElasticitySystem | None = None,
) -> tuple[DisplacementField, np.ndarray]:
    """Energy minimum over fields rigid on each inclusion; returns C (2x3)."""
    system = system or _system(geom, lam, mu, params, mesh)
    mesh_ = system.mesh
    prescribed: dict[int, tuple[float, float]] = {}
    _prescribe(mesh_, "outer", phi, prescribed)
    groups = [mesh_.boundary_nodes("incl1"), mesh_.boundary_nodes("incl2")]
    u, c = _condensed_solve(system, prescribed, rigid_groups=groups)
    return DisplacementField(system, u, rigid=c), c


def solve_holes(
    geom: Geometry,
    lam: float,
    mu: float,
    phi: Callable[[float, float], tuple[float, float]],
    params: MeshParams | None = None,
    mesh: Mesh | None = None,
    system: ElasticitySystem | None = None,
) -> DisplacementField:
    """Traction-free inclusion boundaries, Dirichlet phi on the outer circle."""
    system = system or _system(geom, lam, mu, params, mesh)
    prescribed: dict[int, tuple[float, float]] = {}
    _prescribe(system.mesh, "outer", phi, prescribed)
    u, _ = _condensed_solve(system, prescribed)
    return DisplacementField(system, u)


def solve_large_contrast(
    geom: Geometry,
    lam: float,
    mu: float,
    phi: Callable[[float, float], tuple[float, float]],
    lam1: float = 1e6,
    mu1: float = 1e6,
    params: MeshParams | None = None,
) -> DisplacementField:
    """Finite-contrast cross-check: stiff elastic inclusions, no constraints."""
    base = generate_mesh(geom, params)
    mesh = add_inclusion_interiors(base)
    system = assemble(mesh, lam, mu, materials={"incl1": (lam1, mu1), "incl2": (lam1, mu1)})
    prescribed: dict[int, tuple[float, float]] = {}
    _prescribe(mesh, "outer", phi, prescribed)
    u, _ = _condensed_solve(system, prescribed)
    return DisplacementField(system, u)


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------


class _Locator:
    """Element lookup: centroid KD-tree plus reference-coordinate inversion."""

    def __init__(self, mesh: Mesh):
        from scipy.spatial import cKDTree

        self.mesh = mesh
        corners = mesh.nodes[mesh.tris[:, :3]]
        self.centroids = corners.mean(axis=1)
        self.tree = cKDTree(self.centroids)
        mids = mesh.nodes[mesh.tris[:, 3:]]
        expect = 0.5 * (corners + np.roll(corners, -1, axis=1))
        self.curved = np.abs(mids - expect).max(axis=(1, 2)) > 1e-12

    def invert(self, elem: int, p: np.ndarray, tol: float = 1e-9) -> np.ndarray | None:
        tri = self.mesh.tris[elem]
        pts = self.mesh.nodes[tri]
        a, b, c = pts[0], pts[1], pts[2]
        m = np.array([b - a, c - a]).T
        try:
            ref = np.linalg.solve(m, p - a)
        except np.linalg.LinAlgError:
            return None
        if self.curved[elem]:
            for _ in range(30):
                dn = shape_gradients(*ref)
                jac = pts.T @ dn
                x = shape_functions(*ref) @ pts
                try:
                    step = np.linalg.solve(jac, p - x)
                except np.linalg.LinAlgError:
                    return None
                ref = ref + step
                if np.abs(step).max() < 1e-14:
                    break
        xi, eta = ref
        if xi >= -tol and eta >= -tol and xi + eta <= 1 + tol:
            return ref
        return None

    def find(self, p: np.ndarray) -> tuple[int, np.ndarray]:
        _, cands = self.tree.query(p, k=min(16, len(self.centroids)))
        hits = []
        for e in np.atleast_1d(cands):
            ref = self.invert(int(e), p)
            if ref is not None:
                hits.append((int(e), ref))
        if not hits:
            # fall back to a wider scan before declaring the point outside
            for e in np.argsort(np.linalg.norm(self.centroids - p, axis=1))[:256]:
                ref = self.invert(int(e), p)
                if ref is not None:
                    hits.append((int(e), ref))
        if not hits:
            raise SolverError(f"point {tuple(p)} is outside the mesh")
        elem, ref = min(hits, key=lambda h: h[0])  # owner rule: lowest index
        return elem, ref


def sample(
    fld: DisplacementField,
    points: Sequence[Sequence[float]],
    order: str = "value",
) -> np.ndarray:
    """Evaluate the field ('value' -> (n,2)) or its gradient ('gradient' ->
    (n,2,2), rows du_i/dx_j) at interior points."""
    if fld._locator is None:
        fld._locator = _Locator(fld.mesh)
    loc = fld._locator
    out = []
    for p in np.asarray(points, dtype=float):
        elem, ref = loc.find(p)
        tri = fld.mesh.tris[elem]
        ue = fld.u[np.stack([2 * tri, 2 * tri + 1], axis=1)]  # (6, 2)
        if order == "value":
            out.append(shape_functions(*ref) @ ue)
        elif order == "gradient":
            dn = shape_gradients(*ref)
            pts = fld.mesh.nodes[tri]
            jac = pts.T @ dn
            g = dn @ np.linalg.inv(jac)  # (6, 2): dN_a/dx_j
            out.append(ue.T @ g)  # (2, 2): du_i/dx_j
        else:
            raise ValueError("order must be 'value' or 'gradient'")
    return np.array(out)


def gap_centerline_points(geom: Geometry, half_extent: float = 0.3, n: int = 41) -> np.ndarray:
    """Sample points on the gap centerline z = 0, graded toward the origin."""
    t = np.linspace(-1.0, 1.0, n)
    xs = half_extent * np.sign(t) * t * t
    return np.stack([xs, np.zeros_like(xs)], axis=1)
