"""The 6-node quadratic triangle: shape functions, the 7-point rule and the
isoparametric Jacobians at its points.

Shared by `mesh` (which rejects a mesh with a non-positive Jacobian at any
quadrature point) and `assembly` (which integrates with them), so that
neither imports the other for it.
"""

from __future__ import annotations

import numpy as np

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


# reference gradients at the quadrature points, (7, 6, 2), and the same as one
# (6, 14) matrix whose column 2q+j is dN_a/dxi_j at point q
QP_GRADIENTS = shape_gradients(QP[:, 0], QP[:, 1])
_QP_GRADIENT_COLUMNS = np.ascontiguousarray(QP_GRADIENTS.transpose(1, 0, 2).reshape(6, 14))


def quadrature_jacobians(nodes: np.ndarray, tris: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The Jacobians d(x, y)/d(xi, eta) at the 7 quadrature points of every
    element, from one product (2 nE, 6) @ (6, 14).  Returns J, shape (2, nE,
    7, 2) with J[i, e, q, j] = dx_i/dxi_j, and det J, shape (nE, 7)."""
    coords = nodes.T[:, tris].reshape(-1, 6)  # row i*nE + e: coordinate i of element e's nodes
    J = (coords @ _QP_GRADIENT_COLUMNS).reshape(2, len(tris), 7, 2)
    det = J[0, :, :, 0] * J[1, :, :, 1] - J[0, :, :, 1] * J[1, :, :, 0]
    return J, det
