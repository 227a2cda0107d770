"""Quadratic-triangle elasticity assembly.

Isoparametric 6-node triangles, 7-point Gauss rule (degree 5, exact for the
products of quadratic-element gradients on affine elements), plane-strain
stiffness from the bilinear form

    a(u, w) = int lam (div u)(div w) + 2 mu e(u):e(w).

The element stiffness is written in strain-displacement form: at each
quadrature point, B (3 x 12) maps the element DOFs to the engineering strain
(e11, e22, 2 e12), D (3 x 3) is the plane-strain constitutive matrix of the
element's (lam, mu), and the point adds w det(J) B' D B.  The quadrature
points are looped over, so only per-point (nE, 12, 12) arrays exist.

Assembly is numpy-vectorized over elements and deterministic: the COO
triplets are emitted in a fixed element order, so repeated runs produce
identical matrices.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .mesh import Mesh, REGIONS


class AssemblyError(ValueError):
    pass


# 7-point rule on the reference triangle {xi>=0, eta>=0, xi+eta<=1}, degree 5
_A1 = 0.0597158717897698
_B1 = 0.4701420641051151
_A2 = 0.7974269853530873
_B2 = 0.1012865073234563
QP = np.array(
    [
        [1 / 3, 1 / 3],
        [_A1, _B1],
        [_B1, _A1],
        [_B1, _B1],
        [_A2, _B2],
        [_B2, _A2],
        [_B2, _B2],
    ]
)
QW = np.array(
    [
        0.225,
        0.1323941527885062,
        0.1323941527885062,
        0.1323941527885062,
        0.1259391805448271,
        0.1259391805448271,
        0.1259391805448271,
    ]
) * 0.5  # reference triangle area factor


def shape_functions(xi: float | np.ndarray, eta: float | np.ndarray) -> np.ndarray:
    """N_a at (xi, eta); shape (..., 6) for array arguments."""
    l0 = 1 - xi - eta
    return np.stack(
        [
            l0 * (2 * l0 - 1),
            xi * (2 * xi - 1),
            eta * (2 * eta - 1),
            4 * l0 * xi,
            4 * xi * eta,
            4 * eta * l0,
        ],
        axis=-1,
    )


def shape_gradients(xi: float | np.ndarray, eta: float | np.ndarray) -> np.ndarray:
    """d N_a / d(xi, eta), shape (..., 6, 2)."""
    l0 = 1 - xi - eta
    zero = np.zeros(np.shape(l0))
    corner = 1 - 4 * l0
    d_xi = [corner, 4 * xi - 1, zero, 4 * (l0 - xi), 4 * eta, -4 * eta]
    d_eta = [corner, zero, 4 * eta - 1, -4 * xi, 4 * xi, 4 * (l0 - eta)]
    return np.stack([np.stack(d_xi, axis=-1), np.stack(d_eta, axis=-1)], axis=-1)


def check_ellipticity(lam: float, mu: float) -> None:
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

    coords = mesh.nodes[mesh.tris]  # (nE, 6, 2)
    n_el = mesh.n_elements
    D = np.zeros((n_el, 3, 3))
    D[:, 0, 0] = D[:, 1, 1] = lam_e + 2 * mu_e
    D[:, 0, 1] = D[:, 1, 0] = lam_e
    D[:, 2, 2] = mu_e
    B = np.zeros((n_el, 3, 12))
    ke = np.zeros((n_el, 12, 12))
    for (xi, eta), w in zip(QP, QW):
        dn = shape_gradients(xi, eta)  # (6, 2)
        jac = np.einsum("eai,aj->eij", coords, dn)  # (nE, 2, 2)
        det = jac[:, 0, 0] * jac[:, 1, 1] - jac[:, 0, 1] * jac[:, 1, 0]
        if np.any(det <= 0):
            raise AssemblyError("non-positive Jacobian in assembly")
        inv = np.empty_like(jac)
        inv[:, 0, 0] = jac[:, 1, 1]
        inv[:, 1, 1] = jac[:, 0, 0]
        inv[:, 0, 1] = -jac[:, 0, 1]
        inv[:, 1, 0] = -jac[:, 1, 0]
        inv /= det[:, None, None]
        g = dn @ inv  # (nE, 6, 2): dN_a/dx_i
        # strain-displacement matrix; DOF 2a+i is component i of node a
        B[:, 0, 0::2] = B[:, 2, 1::2] = g[:, :, 0]
        B[:, 1, 1::2] = B[:, 2, 0::2] = g[:, :, 1]
        ke += B.transpose(0, 2, 1) @ ((w * det)[:, None, None] * D @ B)

    dofs = np.empty((n_el, 12), dtype=np.int64)
    dofs[:, 0::2] = 2 * mesh.tris
    dofs[:, 1::2] = 2 * mesh.tris + 1
    rows = np.repeat(dofs, 12, axis=1).ravel()
    cols = np.tile(dofs, (1, 12)).ravel()
    n = 2 * mesh.n_nodes
    K = sp.coo_matrix((ke.ravel(), (rows, cols)), shape=(n, n)).tocsr()
    return ElasticitySystem(mesh, K, lam, mu, dict(materials))
