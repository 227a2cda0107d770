"""What the FEM path keeps in memory: the assembly's transient peak and the
one reduced matrix a factor keeps."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

import lamegap.fem.solve as solve_mod
from lamegap.fem.assembly import assemble
from lamegap.fem.geometry import Geometry
from lamegap.fem.mesh import MeshParams, generate_mesh
from lamegap.fem.solve import INCLUSION_BOUNDARIES

LAM, MU = 1.0, 1.0
COARSE = MeshParams(nr=8, arc_target=0.24)


def test_assembly_peak_stays_under_budget():
    # default mesh at eps 1.3e-3 (3744 elements): the COO input and scipy's
    # CSR output take 15.5 MB; with the element temporaries (Jacobians,
    # gradients, Gram matrices) still alive at the sparse build it was 24.9 MB
    mesh = generate_mesh(Geometry(eps=1.3e-3))
    assert mesh.n_elements == 3744
    tracemalloc.start()
    try:
        assemble(mesh, LAM, MU)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 17e6


@pytest.mark.parametrize("tags", [INCLUSION_BOUNDARIES, ("outer",)])
def test_factor_keeps_one_csc_matrix(tags):
    system = assemble(generate_mesh(Geometry(eps=0.05), COARSE), LAM, MU)
    red = solve_mod._reduced_system(system, tags)
    assert red.A.format == "csc"
    kept = [v for v in vars(red).values() if sp.issparse(v)]
    assert len(kept) == 1 and kept[0] is red.A
    free = red.free
    assert (red.A != system.K[free][:, free]).nnz == 0
    # ||A||_inf from the CSC arrays, in several chunks the last of them
    # partial, is the largest row sum of |A|
    assert red.A.nnz % solve_mod.NORM_CHUNK and red.A.nnz > 2 * solve_mod.NORM_CHUNK
    assert red.norm_a == pytest.approx(float(np.abs(red.A).sum(axis=1).max()), rel=1e-14)
