"""Quadratic-triangle elasticity assembly.

Isoparametric 6-node triangles, 7-point Gauss rule (degree 5, exact for the
products of quadratic-element gradients on affine elements), plane-strain
stiffness from the bilinear form

    a(u, w) = int lam (div u)(div w) + 2 mu e(u):e(w).

The element stiffness is written in 2x2 node blocks.  With g_a = grad N_a
and the three 6 x 6 Gram matrices Sxx_ab = sum_q w_q det J g_a,x g_b,x, Syy
(the same with y) and Sxy_ab = sum_q w_q det J g_a,x g_b,y, DOF 2a+i being
component i of node a,

    K_e[2a, 2b]         = (lam + 2 mu) Sxx_ab + mu Syy_ab
    K_e[2a + 1, 2b + 1] = (lam + 2 mu) Syy_ab + mu Sxx_ab
    K_e[2a, 2b + 1]     = lam Sxy_ab + mu Sxy_ba = K_e[2b + 1, 2a]

for the element's (lam, mu).  One product (2 nE, 6) @ (6, 14) gives the
Jacobians at all 7 points (`element.quadrature_jacobians`), and three
batched (nE, 6, 7) @ (nE, 7, 6) products give the Gram matrices.

Memory, per element (nE = 3744 on the default mesh at eps 1.3e-3): the
element blocks `ke` are 144 doubles (4.3 MB in all), the COO row and column
indices 144 int32 each (2.2 MB each).  The Jacobians, the two (nE, 7, 6)
adjugate gradients, their weighted copies and the three (nE, 6, 6) Gram
matrices add about 9 MB; they live only inside `_element_blocks` and are
freed before the COO -> CSR step, so that step's peak is the COO input plus
scipy's CSR output (tracemalloc peak of `assemble` 15.5 MB, against 24.9 MB
with the temporaries held across it).  The allocator keeps a freed
high-water mark resident, and the factor is allocated on top of it, so this
peak shows in the process RSS.  K keeps the buffers scipy returns: the
duplicate summation runs in place, and `data` and `indices` stay views of
COO-length arrays (539,136 entries for 348,284 nonzeros above).  Copying
them to exact size raised peak RSS on the benchmark inputs of seed 23
(export 98.2 -> 100.8 MB, sweep 79.5 -> 80.5 MB).

Assembly is numpy-vectorized over elements and deterministic: the COO
triplets are emitted in a fixed element order, so repeated runs produce
identical matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .element import QP_GRADIENTS, QW, quadrature_jacobians
from .mesh import Mesh, REGIONS


class AssemblyError(ValueError):
    pass


def check_ellipticity(lam: float, mu: float) -> None:
    if not (math.isfinite(lam) and math.isfinite(mu)):
        raise AssemblyError(f"lam and mu must be finite, got lam={lam}, mu={mu}")
    if not (mu > 0 and lam + 2 * mu > 0 and lam + mu >= 0):
        raise AssemblyError(
            f"non-elliptic parameters lam={lam}, mu={mu}: need mu>0, "
            "lam+2mu>0 and lam+mu>=0"
        )


@dataclass
class ElasticitySystem:
    """Assembled stiffness with its mesh and material table.

    `release` drops the stiffness and the factor; the next read of `K`
    assembles it again.  Assembly is deterministic, so that is the same
    matrix, bit for bit.
    """

    mesh: Mesh
    _K: sp.csr_matrix | None = field(repr=False, compare=False)
    lam: float
    mu: float
    materials: dict[str, tuple[float, float]]
    # reduced system of the latest set of prescribed boundaries, kept by fem.solve
    _reduced: object = field(default=None, init=False, repr=False, compare=False)

    @property
    def K(self) -> sp.csr_matrix:
        if self._K is None:
            self._K = assemble(self.mesh, self.lam, self.mu, self.materials)._K
        return self._K

    def release(self) -> None:
        """Drop the stiffness matrix and the latest factor."""
        self._K = self._reduced = None

    @property
    def n_dofs(self) -> int:
        return 2 * self.mesh.n_nodes

    def energy(self, u: np.ndarray) -> float:
        return 0.5 * float(u @ (self.K @ u))


def assemble(
    mesh: Mesh,
    lam: float,
    mu: float,
    materials: dict[str, tuple[float, float]] | None = None,
) -> ElasticitySystem:
    """Assemble the global stiffness matrix.

    `materials` optionally overrides (lam, mu) per region name, used by the
    large-contrast cross-check for the inclusion interiors.
    """
    check_ellipticity(lam, mu)
    materials = materials or {}
    for name, (la, m) in materials.items():
        if name not in REGIONS:
            raise AssemblyError(f"unknown region {name!r}")
        check_ellipticity(la, m)

    lam_e = np.full(mesh.n_elements, float(lam))
    mu_e = np.full(mesh.n_elements, float(mu))
    for name, (la, m) in materials.items():
        sel = mesh.region == REGIONS.index(name)
        lam_e[sel] = la
        mu_e[sel] = m

    ke = _element_blocks(mesh, lam_e, mu_e)
    tris = mesh.tris.astype(np.int32)
    dofs = np.stack([2 * tris, 2 * tris + 1], axis=2).reshape(-1, 12)
    rows = np.repeat(dofs, 12, axis=1).ravel()
    cols = np.tile(dofs, (1, 12)).ravel()
    n = 2 * mesh.n_nodes
    K = sp.coo_matrix((ke.ravel(), (rows, cols)), shape=(n, n)).tocsr()
    return ElasticitySystem(mesh, K, lam, mu, dict(materials))


def _element_blocks(mesh: Mesh, lam_e: np.ndarray, mu_e: np.ndarray) -> np.ndarray:
    """The element stiffness matrices as (nE, 6, 2, 6, 2) node blocks for the
    per-element (lam_e, mu_e).  The Jacobians, gradients and Gram matrices
    die with this frame, before the sparse build."""
    J, det = quadrature_jacobians(mesh.nodes, mesh.tris)
    if np.any(det <= 0):
        raise AssemblyError("non-positive Jacobian in assembly")
    # det(J) dN_a/dx and det(J) dN_a/dy at every point, (nE, 7, 6), from the
    # adjugate of J; the weights w/det(J) restore w det(J) g'g
    d_xi, d_eta = QP_GRADIENTS[..., 0], QP_GRADIENTS[..., 1]
    gx = J[1, :, :, 1, None] * d_xi - J[1, :, :, 0, None] * d_eta
    gy = J[0, :, :, 0, None] * d_eta - J[0, :, :, 1, None] * d_xi
    w = (QW / det)[..., None]
    gxt, wgy = gx.transpose(0, 2, 1), w * gy
    sxx = gxt @ (w * gx)  # (nE, 6, 6): sum_q w det g_a,x g_b,x
    syy = gy.transpose(0, 2, 1) @ wgy
    sxy = gxt @ wgy
    # 2x2 node blocks; DOF 2a+i is component i of node a
    lam_e, mu_e = lam_e[:, None, None], mu_e[:, None, None]
    ke = np.empty((mesh.n_elements, 6, 2, 6, 2))
    ke[:, :, 0, :, 0] = (lam_e + 2 * mu_e) * sxx + mu_e * syy
    ke[:, :, 1, :, 1] = (lam_e + 2 * mu_e) * syy + mu_e * sxx
    xy = lam_e * sxy + mu_e * sxy.transpose(0, 2, 1)
    ke[:, :, 0, :, 1] = xy
    ke[:, :, 1, :, 0] = xy.transpose(0, 2, 1)
    return ke
