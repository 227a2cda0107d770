"""Constrained solves on the two-inclusion geometry and field reads at nodes.

Boundary handling is by DOF condensation: every problem prescribes all DOFs
on a set of boundaries, and the reduced system A is K restricted to the
other DOFs (index slicing).  A keeps K's element pattern, entries that
happen to cancel in assembly included, so the ordering depends on the mesh
and not on roundoff; pruning such zeros gave a minimum-degree ordering with
10-16% more fill on the default mesh at eps 0.0125.  A is symmetric
positive definite (SPD), so it is factorized by SuperLU in symmetric mode:
a minimum-degree ordering of the pattern of A' + A, applied to rows and
columns alike, and diagonal pivots.  Because A is SPD, every diagonal pivot
is positive and the elimination is stable without row interchanges, and the
symmetric ordering keeps the fill under half that of the default column
ordering with partial pivoting.  Supernodes are not relaxed: relaxation
only pads them with stored zeros (7-10% more stored L+U on the coarse sweep
mesh), and without it every factorization measured was 14-24% faster.  A
set of boundaries is factorized once per system and solved for a block of
right-hand sides; later solves on the same boundaries reuse the factor, and
only the latest factor is kept.  A block is one triangular solve, and every
column must pass a check of its relative backward error (no refinement).
A factor keeps the free DOF indices, one copy of A (the CSC matrix that
SuperLU factors, also used for the residual A y - b), ||A||_inf (row sums
of |A| read from its CSC arrays) and the SuperLU object with its L and U.

The component, hard-inclusion and holes solvers take the assembled
`ElasticitySystem`, which carries the mesh (with its `Geometry`), lam and
mu; they take nothing else that fixes the problem.  Only
`solve_large_contrast` meshes and assembles for itself, since it needs the
inclusion interiors and their own materials.

The component problems v_i^alpha and the hard-inclusion problem prescribe
the same boundaries (outer, incl1, incl2), so one factor per mesh serves
all of them.  A hard inclusion is solved as in Bao, Li & Li (2015): u =
v_0 + sum C_i^alpha v_i^alpha, where v_0 carries phi on the outer circle
and zero on both inclusions, and C solves the SPD 6x6 system M C = -r with
M = V'KV and r = V'K v_0 (V the six v_i^alpha).  The six v_i^alpha are
the caller's, when it has solved them already, so a hard solve adds one
column, v_0.  The holes and large-contrast problems prescribe the outer
circle only.  The stiffness is read through `ElasticitySystem.K`, which
assembles it again after `ElasticitySystem.release`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .assembly import ElasticitySystem, assemble
from .element import shape_functions, shape_gradients
from .geometry import Geometry
from .mesh import Mesh, MeshParams, add_inclusion_interiors, generate_mesh

RESIDUAL_TOL = 1e-10
# lam and mu of the inclusions in the large-contrast cross-check
STIFF_MODULUS = 1e6
# entries of |A| per step of _inf_norm (256 KB of doubles)
NORM_CHUNK = 1 << 15
# reference coordinates of the six P2 nodes (corners, then the midpoints of
# edges 01, 12, 20), in the node order of Mesh.tris
NODE_REF = np.array([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (0.5, 0.0), (0.5, 0.5), (0.0, 0.5)])
# SuperLU arguments for the SPD reduced system: symmetric fill-reducing
# ordering and diagonal pivots (stable because A is SPD), and no relaxed
# supernodes (relax=1, panel_size=1).  Relaxation pads supernodes with
# stored zeros: on the coarse sweep mesh at eps 0.0125 SuperLU's stored L+U
# is 415,730 (components) and 458,370 (holes) entries with the defaults and
# 377,818 and 429,282 without; relax/panel_size 2/2 and 1/4 store the same
# as 1/1 and are no faster.
SPD_SPLU = {
    "permc_spec": "MMD_AT_PLUS_A",
    "diag_pivot_thresh": 0.0,
    "relax": 1,
    "panel_size": 1,
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
    """Nodal coefficients of a quadratic vector field plus its system.  u
    is read-only from construction, so no reader of a kept field can
    change it for the others."""

    system: ElasticitySystem
    u: np.ndarray  # (2N,)

    def __post_init__(self):
        self.u.flags.writeable = False

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
        for tag in INCLUSION_BOUNDARIES:
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

# the Dirichlet boundaries of the component and hard-inclusion problems
INCLUSION_BOUNDARIES = ("outer", "incl1", "incl2")
# (i, alpha) of the six component problems v_i^alpha, in block column order
COMPONENTS = tuple((i, alpha) for i in (1, 2) for alpha in (1, 2, 3))


@dataclass
class _ReducedSystem:
    """K restricted to the DOFs off a set of Dirichlet boundaries, in the CSC
    form SuperLU factors (the only copy kept), its LU factor and ||A||_inf."""

    tags: tuple[str, ...]
    free: np.ndarray
    A: sp.csc_matrix
    lu: spla.SuperLU
    norm_a: float


def _reduced_system(system: ElasticitySystem, tags: tuple[str, ...]) -> _ReducedSystem:
    """The reduced system of `system` with every DOF on the boundaries `tags`
    prescribed.  Only the latest one is kept on the system."""
    if system._reduced is not None and system._reduced.tags == tags:
        return system._reduced
    system._reduced = None  # release the old factor before building the new one
    fixed = np.zeros(system.n_dofs, dtype=bool)
    for tag in tags:
        nodes = system.mesh.boundary_nodes(tag)
        fixed[2 * nodes] = fixed[2 * nodes + 1] = True
    free = np.nonzero(~fixed)[0]
    A = system.K[free][:, free].tocsc()
    try:
        lu = spla.splu(A, **SPD_SPLU)
    except RuntimeError as exc:
        raise SolverError(f"sparse factorization failed: {exc}") from exc
    system._reduced = _ReducedSystem(tags, free, A, lu, _inf_norm(A))
    return system._reduced


def _inf_norm(A: sp.csc_matrix) -> float:
    """||A||_inf, the largest row sum of |A|, from the CSC arrays.  |data| is
    taken NORM_CHUNK entries at a time: an nnz-long temporary next to the
    factor stays resident (2.4 MB more peak RSS on the export meshes)."""
    rows = np.zeros(A.shape[0])
    for s in range(0, A.nnz, NORM_CHUNK):
        part = slice(s, s + NORM_CHUNK)
        rows += np.bincount(A.indices[part], weights=np.abs(A.data[part]), minlength=A.shape[0])
    return float(rows.max())


def _check_backward_error(norm_a: float, residual: np.ndarray, x: np.ndarray, b: np.ndarray) -> None:
    """Reject a solve whose relative backward error ||A x - b|| / (||A|| ||x||
    + ||b||) exceeds RESIDUAL_TOL in any column; plain ||b|| would be
    unattainable for the high-contrast cross-check systems."""
    res = np.linalg.norm(residual, axis=0)
    scale = np.maximum(norm_a * np.linalg.norm(x, axis=0) + np.linalg.norm(b, axis=0), 1e-300)
    worst = float(np.max(res / scale))
    if worst > RESIDUAL_TOL:
        raise SolverError(f"linear solve residual {worst:.3e} exceeds {RESIDUAL_TOL:.0e}")


def _condensed_solve(system: ElasticitySystem, tags: tuple[str, ...], g: np.ndarray) -> np.ndarray:
    """Solve K u = 0 off the boundaries `tags` with u = g on them, one
    problem per column of g ((n,) or (n, k), zero off `tags`)."""
    red = _reduced_system(system, tags)
    b = -(system.K @ g)[red.free]
    y = red.lu.solve(b)
    # no refinement: the SPD systems built here solve to about 1e-17 raw
    _check_backward_error(red.norm_a, red.A @ y - b, y, b)
    u = g.copy()
    u[red.free] += y
    return u


def _dirichlet(mesh: Mesh, data: dict[str, Callable[[float, float], tuple[float, float]]]) -> np.ndarray:
    """The nodal DOF vector holding data[tag](x, y) at the nodes of each
    boundary tag and zero elsewhere.  Each datum is called once, on the
    coordinate arrays of its tag's nodes."""
    g = np.zeros(2 * mesh.n_nodes)
    for tag, fn in data.items():
        nodes = mesh.boundary_nodes(tag)
        g[2 * nodes], g[2 * nodes + 1] = fn(*mesh.nodes[nodes].T)
    return g


def _component_data(mesh: Mesh) -> np.ndarray:
    """The boundary data of the six component problems, one column each."""
    return np.column_stack(
        [_dirichlet(mesh, {f"incl{i}": PSI[alpha - 1]}) for i, alpha in COMPONENTS]
    )


def _rigid_system(K: sp.csr_matrix, V: np.ndarray, v0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """M = V'KV and r = V'K v0: the energy of v0 + V c is c'Mc/2 + r'c + const."""
    KV = K @ V
    return V.T @ KV, KV.T @ v0


# ---------------------------------------------------------------------------
# Problem-level solves
# ---------------------------------------------------------------------------


def solve_component(system: ElasticitySystem, i: int, alpha: int) -> DisplacementField:
    """v_i^alpha: u = psi_alpha on inclusion i, u = 0 on the other inclusion
    and outer (solved in the block of all six)."""
    if i not in (1, 2):
        raise ValueError("inclusion index must be 1 or 2")
    if alpha not in (1, 2, 3):
        raise ValueError("alpha must be 1, 2 or 3")
    return solve_components(system)[i, alpha]


def solve_components(system: ElasticitySystem) -> dict[tuple[int, int], DisplacementField]:
    """All six v_i^alpha by (i, alpha), solved as one block on one factor."""
    V = _condensed_solve(system, INCLUSION_BOUNDARIES, _component_data(system.mesh))
    return {ia: DisplacementField(system, v) for ia, v in zip(COMPONENTS, V.T.copy())}


def solve_hard_inclusion(
    system: ElasticitySystem,
    phi: Callable[[float, float], tuple[float, float]],
    components: dict[tuple[int, int], DisplacementField] | None = None,
) -> tuple[DisplacementField, np.ndarray]:
    """Energy minimum over fields rigid on each inclusion with u = phi on the
    outer circle, as u = v_0 + sum C_i^alpha v_i^alpha; returns the field
    and C (2x3).  `components` are the six v_i^alpha on `system` as
    `solve_components` returns them (solved here when not given); v_0 is
    solved on their factor."""
    if components is None:
        components = solve_components(system)
    if any(components[ia].system is not system for ia in COMPONENTS):
        raise ValueError("the component fields belong to another system")
    # v_0: phi on outer, zero on both inclusions
    g0 = _dirichlet(system.mesh, {"outer": phi})
    # V and v_0 as the columns of one (n, 7) array: V'KV depends on V's
    # memory layout at roundoff
    sol = np.empty((system.n_dofs, 7))
    for k, ia in enumerate(COMPONENTS):
        sol[:, k] = components[ia].u
    sol[:, 6] = _condensed_solve(system, INCLUSION_BOUNDARIES, g0)
    V, v0 = sol[:, :6], sol[:, 6]
    M, r = _rigid_system(system.K, V, v0)
    c = np.linalg.solve(M, -r)
    _check_backward_error(float(np.abs(M).sum(axis=1).max()), M @ c + r, c, r)
    c = c.reshape(2, 3)
    c.flags.writeable = False
    return DisplacementField(system, v0 + V @ c.ravel()), c


def solve_holes(
    system: ElasticitySystem, phi: Callable[[float, float], tuple[float, float]]
) -> DisplacementField:
    """Traction-free inclusion boundaries, Dirichlet phi on the outer circle."""
    g = _dirichlet(system.mesh, {"outer": phi})
    return DisplacementField(system, _condensed_solve(system, ("outer",), g))


def solve_large_contrast(
    geom: Geometry,
    lam: float,
    mu: float,
    phi: Callable[[float, float], tuple[float, float]],
    params: MeshParams | None = None,
) -> DisplacementField:
    """Finite-contrast cross-check: inclusions of lam = mu = STIFF_MODULUS, no constraints."""
    mesh = add_inclusion_interiors(generate_mesh(geom, params))
    stiff = (STIFF_MODULUS, STIFF_MODULUS)
    system = assemble(mesh, lam, mu, materials={"incl1": stiff, "incl2": stiff})
    g = _dirichlet(mesh, {"outer": phi})
    return DisplacementField(system, _condensed_solve(system, ("outer",), g))


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
