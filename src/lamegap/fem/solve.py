"""Constrained solves on the two-inclusion geometry and field sampling.

Boundary handling is by DOF condensation: the full displacement vector is
u = T y + g, with g carrying prescribed Dirichlet values and T mapping the
reduced unknowns (free nodal DOFs plus, for hard inclusions, three rigid
parameters per inclusion) into nodal DOFs.  The reduced system A = T'KT is
symmetric positive definite (SPD), so it is factorized by SuperLU in
symmetric mode: a minimum-degree ordering of the pattern of A' + A, applied
to rows and columns alike, and diagonal pivots.  Because A is SPD, every
diagonal pivot is positive and the elimination is stable without row
interchanges, and the symmetric ordering keeps the fill under half that of
the default column ordering with partial pivoting.  A constraint pattern
(fixed DOF mask plus rigid node groups) is factorized once per system: later
solves with the same pattern and new boundary values reuse the factor, and
only the latest pattern is kept.  Every solve verifies the relative backward
error.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .assembly import ElasticitySystem, assemble, shape_functions, shape_gradients
from .geometry import Geometry
from .mesh import Mesh, MeshParams, add_inclusion_interiors, generate_mesh

RESIDUAL_TOL = 1e-10
# how far outside its reference triangle (in reference coordinates) a point
# may lie and still count as inside an element
CONTAIN_TOL = 1e-9
# reference coordinates of the six P2 nodes (corners, then the midpoints of
# edges 01, 12, 20), in the node order of Mesh.tris
NODE_REF = np.array([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (0.5, 0.0), (0.5, 0.5), (0.0, 0.5)])
# SuperLU arguments for the SPD reduced system: symmetric fill-reducing
# ordering and diagonal pivots (stable because A is SPD)
SPD_SPLU = {
    "permc_spec": "MMD_AT_PLUS_A",
    "diag_pivot_thresh": 0.0,
    "options": {"SymmetricMode": True},
}

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

    @property
    def mesh(self) -> Mesh:
        return self.system.mesh

    @property
    def _locator(self) -> "_Locator":
        """The point locator of the mesh, shared by every field on it."""
        if self.mesh._locator is None:
            self.mesh._locator = _Locator(self.mesh)
        return self.mesh._locator

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
        lu = spla.splu(A.tocsc(), **SPD_SPLU)
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


def solve_component(
    geom: Geometry,
    lam: float,
    mu: float,
    i: int,
    alpha: int,
    params: MeshParams | None = None,
    system: ElasticitySystem | None = None,
) -> DisplacementField:
    """u = psi_alpha on inclusion i, u = 0 on the other inclusion and outer."""
    if i not in (1, 2):
        raise ValueError("inclusion index must be 1 or 2")
    if alpha not in (1, 2, 3):
        raise ValueError("alpha must be 1, 2 or 3")
    system = system or assemble(generate_mesh(geom, params), lam, mu)
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
    system: ElasticitySystem | None = None,
) -> tuple[DisplacementField, np.ndarray]:
    """Energy minimum over fields rigid on each inclusion; returns C (2x3)."""
    system = system or assemble(generate_mesh(geom, params), lam, mu)
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
    system: ElasticitySystem | None = None,
) -> DisplacementField:
    """Traction-free inclusion boundaries, Dirichlet phi on the outer circle."""
    system = system or assemble(generate_mesh(geom, params), lam, mu)
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
    """Batched element lookup: centroid KD-tree plus reference-coordinate
    inversion (affine solve, then Newton steps on curved elements)."""

    def __init__(self, mesh: Mesh):
        from scipy.spatial import cKDTree

        corners = mesh.nodes[mesh.tris[:, :3]]
        self.tree = cKDTree(corners.mean(axis=1))
        self.nodes = mesh.nodes[mesh.tris]  # (nE, 6, 2)
        expect = 0.5 * (corners + np.roll(corners, -1, axis=1))
        self.curved = np.abs(self.nodes[:, 3:] - expect).max(axis=(1, 2)) > 1e-12
        a = corners[:, 0]
        self.affine = np.stack([corners[:, 1] - a, corners[:, 2] - a], axis=-1)  # (nE, 2, 2)
        # vertex stars: the elements with corner v are star[star_ptr[v]:star_ptr[v + 1]]
        self.corners = mesh.tris[:, :3]
        flat = self.corners.ravel()
        by_node = np.argsort(flat, kind="stable")
        self.star = by_node // 3
        self.star_ptr = np.searchsorted(flat[by_node], np.arange(len(mesh.nodes) + 1))

    def invert(
        self, cands: np.ndarray, points: np.ndarray, tol: float = CONTAIN_TOL
    ) -> tuple[np.ndarray, np.ndarray]:
        """Reference coordinates of points[i] in element cands[i, j] and a
        mask of those inside the reference triangle (to within tol)."""
        pts = self.nodes[cands]  # (n, k, 6, 2)
        rhs = points[:, None] - pts[:, :, 0]
        ref = np.linalg.solve(self.affine[cands], rhs[..., None])[..., 0]
        curved = np.nonzero(self.curved[cands])
        r, cp, target = ref[curved], pts[curved], points[curved[0]]
        cp_t = np.ascontiguousarray(cp.transpose(0, 2, 1))
        active = np.arange(len(r))
        step = np.zeros((0, 2))
        for _ in range(30):
            if not len(active):
                break
            xi, eta = r[active, 0], r[active, 1]
            jac = cp_t[active] @ shape_gradients(xi, eta)
            x = (shape_functions(xi, eta)[:, None] @ cp[active])[:, 0]
            # a singular Jacobian rejects the candidate (NaN fails every bound)
            singular = jac[:, 0, 0] * jac[:, 1, 1] - jac[:, 0, 1] * jac[:, 1, 0] == 0
            r[active[singular]] = np.nan
            active, jac, x = active[~singular], jac[~singular], x[~singular]
            step = np.linalg.solve(jac, (target[active] - x)[..., None])[..., 0]
            r[active] = r[active] + step
            moving = ~(np.abs(step).max(axis=1) < 1e-14)
            active, step = active[moving], step[moving]
        # Still moving after the cap: roundoff keeps converged candidates
        # stepping by about 1e-14; a last step above tol means the iteration
        # did not converge, so the candidate is rejected.
        r[active[~(np.abs(step).max(axis=1) <= tol)]] = np.nan
        ref[curved] = r
        xi, eta = ref[..., 0], ref[..., 1]
        return ref, (xi >= -tol) & (eta >= -tol) & (xi + eta <= 1 + tol)

    def find(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Owning element and reference coordinates for each row of an (n, 2)
        array.  The owner is the lowest-index element containing the point.
        The first hit is the lowest-index containing element among the 16
        nearest centroids (or the 256 nearest, for a point none of those 16
        contains).  A point inside it lies in no other element; a point on
        its boundary lies only in elements of the vertex stars of its
        corners, so those are scanned for a lower-index owner."""
        n_el = len(self.curved)
        elems = np.empty(len(points), dtype=np.int64)
        refs = np.empty((len(points), 2))
        todo = np.arange(len(points))
        # nearest 16 centroids first, then a wider scan for the points missed
        for k in (min(16, n_el), min(256, n_el)):
            if not len(todo):
                break
            _, cands = self.tree.query(points[todo], k=k)
            cands = cands.reshape(len(todo), k)
            ref, hit = self.invert(cands, points[todo])
            owner = np.where(hit, cands, n_el).argmin(axis=1)
            rows = np.nonzero(hit.any(axis=1))[0]
            elems[todo[rows]] = cands[rows, owner[rows]]
            refs[todo[rows]] = ref[rows, owner[rows]]
            todo = np.delete(todo, rows)
        if len(todo):
            raise SolverError(f"point {tuple(points[todo[0]].tolist())} is outside the mesh")
        xi, eta = refs[:, 0], refs[:, 1]
        edge = np.nonzero(np.minimum(np.minimum(xi, eta), 1 - xi - eta) <= CONTAIN_TOL)[0]
        if len(edge):
            elems[edge], refs[edge] = self._star_owner(points[edge], elems[edge], refs[edge])
        return elems, refs

    def _star_owner(
        self, points: np.ndarray, first: np.ndarray, ref0: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Lowest-index element containing each point among its first hit
        and the vertex stars of the first hit's corners."""
        starts = self.star_ptr[self.corners[first]]  # (n, 3)
        lens = self.star_ptr[self.corners[first] + 1] - starts
        k = np.arange(lens.max())
        idx = np.minimum(starts[..., None] + k, len(self.star) - 1)
        stars = np.where(k < lens[..., None], self.star[idx], first[:, None, None])
        cands = np.column_stack([first, stars.reshape(len(first), -1)])
        ref, hit = self.invert(cands, points)
        # the first hit stays a candidate whatever a second inversion gives
        ref[:, 0], hit[:, 0] = ref0, True
        owner = np.where(hit, cands, len(self.curved)).argmin(axis=1)
        rows = np.arange(len(first))
        return cands[rows, owner], ref[rows, owner]


def sample(
    fld: DisplacementField,
    points: Sequence[Sequence[float]],
    order: str = "value",
) -> np.ndarray:
    """Evaluate the field ('value' -> (n,2)) or its gradient ('gradient' ->
    (n,2,2), rows du_i/dx_j) at interior points."""
    if order not in ("value", "gradient"):
        raise ValueError("order must be 'value' or 'gradient'")
    elems, ref = fld._locator.find(np.asarray(points, dtype=float).reshape(-1, 2))
    return _evaluate(fld, elems, ref, order)


def sample_nodes(
    fld: DisplacementField,
    nodes: Sequence[int],
    order: str = "value",
) -> np.ndarray:
    """`sample` at mesh nodes, located by connectivity instead of by point
    location: each node is evaluated in the lowest-index element that
    contains it, at the exact reference coordinates of its local slot."""
    if order not in ("value", "gradient"):
        raise ValueError("order must be 'value' or 'gradient'")
    return _evaluate(fld, *_node_owners(fld.mesh, nodes), order)


def _node_owners(mesh: Mesh, nodes: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Lowest-index element containing each node and the node's reference
    coordinates there."""
    nodes = np.asarray(nodes, dtype=np.int64).reshape(-1)
    flat = mesh.tris.ravel()
    first = np.full(mesh.n_nodes, len(flat))  # first position of each node in flat
    np.minimum.at(first, flat, np.arange(len(flat)))
    pos = first[nodes]
    orphan = pos == len(flat)
    if orphan.any():
        raise SolverError(f"node {nodes[orphan][0]} is in no element")
    return pos // 6, NODE_REF[pos % 6]


def _evaluate(fld: DisplacementField, elems: np.ndarray, ref: np.ndarray, order: str) -> np.ndarray:
    """The field or its gradient at reference coordinates ref[i] of element
    elems[i]."""
    tris = fld.mesh.tris[elems]
    ue = fld.u[np.stack([2 * tris, 2 * tris + 1], axis=2)]  # (n, 6, 2)
    xi, eta = ref[:, 0], ref[:, 1]
    if order == "value":
        return (shape_functions(xi, eta)[:, None] @ ue)[:, 0]
    dn = shape_gradients(xi, eta)
    jac = np.ascontiguousarray(fld.mesh.nodes[tris].transpose(0, 2, 1)) @ dn
    g = dn @ np.linalg.inv(jac)  # (n, 6, 2): dN_a/dx_j
    return np.ascontiguousarray(ue.transpose(0, 2, 1)) @ g  # (n, 2, 2): du_i/dx_j


def gap_centerline_points(geom: Geometry, half_extent: float = 0.3, n: int = 41) -> np.ndarray:
    """Sample points on the gap centerline z = 0, graded toward the origin."""
    t = np.linspace(-1.0, 1.0, n)
    xs = half_extent * np.sign(t) * t * t
    return np.stack([xs, np.zeros_like(xs)], axis=1)
