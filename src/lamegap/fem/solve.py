"""Constrained solves on the two-inclusion geometry and field reads at nodes.

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
error.  The stiffness is read through `ElasticitySystem.K`, which assembles
it again after `ElasticitySystem.release`.
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
# Reading the field at mesh nodes
# ---------------------------------------------------------------------------


def sample(
    fld: DisplacementField,
    nodes: Sequence[int],
    order: str = "value",
) -> np.ndarray:
    """The field ('value' -> (n,2)) or its gradient ('gradient' -> (n,2,2),
    rows du_i/dx_j) at mesh nodes.  Each node is evaluated in the
    lowest-index element that holds it, at the exact reference coordinates
    of its local slot; a value is the node's own coefficient pair."""
    if order not in ("value", "gradient"):
        raise ValueError("order must be 'value' or 'gradient'")
    return _evaluate(fld, *_node_owners(fld.mesh, nodes), order)


def incident_gradients(fld: DisplacementField, nodes: Sequence[int]) -> np.ndarray:
    """The gradient at `nodes` in every element that holds one of them, one
    (2, 2) row per (element, node) incidence in element order.  A P2
    gradient jumps across element edges, so a node has one gradient per
    incident element; `sample` keeps only the lowest-index one."""
    held = np.isin(fld.mesh.tris, _checked_nodes(fld.mesh, nodes))
    elems, slots = np.nonzero(held)
    return _evaluate(fld, elems, NODE_REF[slots], "gradient")


def gap_center_node(mesh: Mesh, eps: float) -> int:
    """The mesh node at the origin.  The band always has one there: x = 0 is
    a station, and its column runs from -eps/2 to eps/2 (a corner for even
    nz, an edge midpoint for odd nz)."""
    r = np.hypot(mesh.nodes[:, 0], mesh.nodes[:, 1])
    k = int(r.argmin())
    if r[k] > 1e-9 * eps:
        raise SolverError(f"no mesh node within {1e-9 * eps:.1e} of the gap center")
    return k


def _checked_nodes(mesh: Mesh, nodes: Sequence[int]) -> np.ndarray:
    """`nodes` as a flat index array; an index outside [0, n_nodes) is a
    SolverError (numpy would wrap -1 to the last node)."""
    nodes = np.asarray(nodes, dtype=np.int64).reshape(-1)
    bad = (nodes < 0) | (nodes >= mesh.n_nodes)
    if bad.any():
        raise SolverError(f"node index {nodes[bad][0]} is outside [0, {mesh.n_nodes})")
    return nodes


def _node_owners(mesh: Mesh, nodes: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Lowest-index element containing each node and the node's reference
    coordinates there."""
    nodes = _checked_nodes(mesh, nodes)
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
