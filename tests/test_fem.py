from __future__ import annotations

from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve

import lamegap.fem.solve as solve_mod
from lamegap.fem.assembly import AssemblyError, assemble
from lamegap.fem.element import QP, QW, shape_functions, shape_gradients
from lamegap.fem.geometry import Geometry
from lamegap.fem.mesh import REGIONS, MeshParams, add_inclusion_interiors, generate_mesh
from lamegap.fem.solve import (
    INCLUSION_BOUNDARIES,
    RESIDUAL_TOL,
    DisplacementField,
    SolverError,
    NODE_REF,
    PSI,
    _check_backward_error,
    _condensed_solve,
    _dirichlet,
    _rigid_system,
    gap_center_node,
    incident_gradients,
    sample,
    solve_component,
    solve_components,
    solve_hard_inclusion,
    solve_holes,
    solve_large_contrast,
)

LAM, MU = 1.0, 1.0
COARSE = MeshParams(nr=8, arc_target=0.24)


@pytest.fixture(scope="module")
def setup05():
    geom = Geometry(eps=0.05)
    mesh = generate_mesh(geom)
    system = assemble(mesh, LAM, MU)
    return geom, mesh, system


def dirichlet_everywhere(mesh, system, fn):
    g = _dirichlet(mesh, {tag: fn for tag in INCLUSION_BOUNDARIES})
    return DisplacementField(system, _condensed_solve(system, INCLUSION_BOUNDARIES, g))


# -- element sanity ----------------------------------------------------------


def test_shape_functions_partition_of_unity():
    for xi, eta in QP:
        assert shape_functions(xi, eta).sum() == pytest.approx(1.0)
        assert shape_gradients(xi, eta).sum(axis=0) == pytest.approx([0.0, 0.0])


def test_shape_functions_accept_arrays():
    xi, eta = QP[:, 0], QP[:, 1]
    n, dn = shape_functions(xi, eta), shape_gradients(xi, eta)
    assert n.shape == (7, 6) and n.flags.c_contiguous
    assert dn.shape == (7, 6, 2) and dn.flags.c_contiguous
    for q, (a, b) in enumerate(QP):
        assert np.array_equal(n[q], shape_functions(a, b))
        assert np.array_equal(dn[q], shape_gradients(a, b))


def test_quadrature_exactness_degree2():
    # integral of xi^2 over the reference triangle is 1/12
    val = sum(w * xi**2 for (xi, eta), w in zip(QP, QW))
    assert val == pytest.approx(1 / 12, abs=1e-15)


def test_ellipticity_guard(setup05):
    _, mesh, _ = setup05
    with pytest.raises(AssemblyError):
        assemble(mesh, 1.0, -1.0)
    with pytest.raises(AssemblyError):
        assemble(mesh, -3.0, 1.0)


def test_stiffness_symmetric(setup05):
    _, _, system = setup05
    assert abs(system.K - system.K.T).max() < 1e-12


# -- patch tests --------------------------------------------------------------


def reference_stiffness(mesh, lam, mu, materials=None):
    """Global stiffness from the index form of the bilinear form, one
    quadrature point at a time:
    K[2a+i, 2b+j] += w det (lam g_a,i g_b,j + mu (g_a,j g_b,i + delta_ij g_a.g_b))."""
    lam_e = np.full(mesh.n_elements, float(lam))
    mu_e = np.full(mesh.n_elements, float(mu))
    for name, (la, m) in (materials or {}).items():
        sel = mesh.region == REGIONS.index(name)
        lam_e[sel], mu_e[sel] = la, m
    coords = mesh.nodes[mesh.tris]
    n_el = mesh.n_elements
    ke = np.zeros((n_el, 12, 12))
    for (xi, eta), w in zip(QP, QW):
        dn = shape_gradients(xi, eta)
        jac = np.einsum("eai,aj->eij", coords, dn)
        g = np.einsum("aj,eji->eai", dn, np.linalg.inv(jac))
        gg = np.einsum("eai,ebi->eab", g, g)
        blk = (
            lam_e[:, None, None, None, None] * np.einsum("eai,ebj->eaibj", g, g)
            + mu_e[:, None, None, None, None] * np.einsum("eaj,ebi->eaibj", g, g)
            + mu_e[:, None, None, None, None]
            * gg[:, :, None, :, None]
            * np.eye(2)[None, None, :, None, :]
        )
        ke += (w * np.linalg.det(jac))[:, None, None] * blk.reshape(n_el, 12, 12)
    dofs = np.empty((n_el, 12), dtype=np.int64)
    dofs[:, 0::2] = 2 * mesh.tris
    dofs[:, 1::2] = 2 * mesh.tris + 1
    rows = np.repeat(dofs, 12, axis=1).ravel()
    cols = np.tile(dofs, (1, 12)).ravel()
    n = 2 * mesh.n_nodes
    return sp.coo_matrix((ke.ravel(), (rows, cols)), shape=(n, n)).tocsr()


def test_assembly_matches_reference_stiffness(setup05):
    # the Gram-matrix kernel against the index form, on the default mesh, the
    # large-contrast mesh and the coarse mesh at eps 1e-6 (about 3e-15 relative
    # there, at lam 1 and 1e3), with the reference's sparsity pattern
    _, mesh, system = setup05
    stiff = {"incl1": (1e6, 1e6), "incl2": (1e6, 1e6)}
    contrast = add_inclusion_interiors(generate_mesh(Geometry(eps=0.05)))
    thin = generate_mesh(Geometry(eps=1e-6), COARSE)
    for mesh_, lam, materials, K in (
        (mesh, LAM, None, system.K),
        (contrast, LAM, stiff, assemble(contrast, LAM, MU, materials=stiff).K),
        (thin, 1.0, None, assemble(thin, 1.0, MU).K),
        (thin, 1e3, None, assemble(thin, 1e3, MU).K),
    ):
        ref = reference_stiffness(mesh_, lam, MU, materials)
        assert K.indptr.dtype == K.indices.dtype == np.int32
        assert K.has_canonical_format and ref.has_canonical_format
        assert np.array_equal(K.indptr, ref.indptr) and np.array_equal(K.indices, ref.indices)
        assert abs(K - ref).max() <= 1e-12 * abs(ref).max()


def test_assembly_rejects_a_folded_element(setup05):
    # generate_mesh rejects folded curved elements itself; assembly keeps the
    # check for meshes read from files or extended with inclusion interiors
    _, mesh, _ = setup05
    nodes = mesh.nodes.copy()
    a, b, c, mid01 = mesh.tris[0, :4]
    nodes[mid01] = nodes[c] + 2 * (nodes[c] - (nodes[a] + nodes[b]) / 2)  # across the far corner
    folded = replace(mesh, nodes=nodes)
    folded.validate()  # the corner triangles are untouched
    with pytest.raises(AssemblyError, match="non-positive Jacobian"):
        assemble(folded, LAM, MU)


def test_linear_patch_reproduced(setup05):
    _, mesh, system = setup05
    lin = lambda x, y: (0.3 * x + 0.1 * y, -0.2 * x + 0.05 * y)
    fld = dirichlet_everywhere(mesh, system, lin)
    nodes = np.arange(mesh.n_nodes)
    vals = sample(fld, nodes, "value")
    expect = np.array([lin(x, y) for x, y in mesh.nodes])
    assert np.abs(vals - expect).max() < 1e-12
    ge = np.array([[0.3, 0.1], [-0.2, 0.05]])
    assert np.abs(sample(fld, nodes, "gradient") - ge).max() < 1e-11
    assert np.abs(incident_gradients(fld, nodes) - ge).max() < 1e-11


def test_rigid_field_zero_energy(setup05):
    _, mesh, system = setup05
    rig = lambda x, y: (0.7 + 0.2 * y, -0.1 - 0.2 * x)
    fld = dirichlet_everywhere(mesh, system, rig)
    assert abs(fld.energy()) < 1e-10


def test_manufactured_cubic_convergence():
    # u = grad(x^4 - 6x^2y^2 + y^4) is Lame-harmonic for every (lam, mu)
    exact = lambda x, y: (4 * x**3 - 12 * x * y * y, -12 * x * x * y + 4 * y**3)
    grad_exact = lambda x, y: np.array(
        [
            [12 * x * x - 12 * y * y, -24 * x * y],
            [-24 * x * y, -12 * x * x + 12 * y * y],
        ]
    )
    errs = []
    for factor in (1.0, 2.0):
        geom = Geometry(eps=0.1)
        mesh = generate_mesh(geom, MeshParams().refined(factor))
        system = assemble(mesh, 2.0, 1.0)
        fld = dirichlet_everywhere(mesh, system, exact)
        # energy-norm error via elementwise quadrature of |grad(u_h - u)|^2
        total = 0.0
        coords = mesh.nodes[mesh.tris]
        ue = fld.u[
            np.stack([2 * mesh.tris, 2 * mesh.tris + 1], axis=2)
        ]  # (nE, 6, 2)
        for (xi, eta), w in zip(QP, QW):
            dn = shape_gradients(xi, eta)
            jac = np.einsum("eai,aj->eij", coords, dn)
            det = jac[:, 0, 0] * jac[:, 1, 1] - jac[:, 0, 1] * jac[:, 1, 0]
            inv = np.empty_like(jac)
            inv[:, 0, 0], inv[:, 1, 1] = jac[:, 1, 1], jac[:, 0, 0]
            inv[:, 0, 1], inv[:, 1, 0] = -jac[:, 0, 1], -jac[:, 1, 0]
            inv /= det[:, None, None]
            g = np.einsum("aj,eji->eai", dn, inv)
            gh = np.einsum("eak,eai->eki", ue, g)  # (nE, 2, 2)
            n = shape_functions(xi, eta)
            xq = np.einsum("a,eai->ei", n, coords)
            gx = np.array([grad_exact(x, y) for x, y in xq])
            total += float((w * det * ((gh - gx) ** 2).sum(axis=(1, 2))).sum())
        errs.append(np.sqrt(total))
    rate = np.log2(errs[0] / errs[1])
    assert rate > 1.7, f"energy-norm rate {rate} below 2"


# -- problem solves ------------------------------------------------------------


def _mirror_pairs(mesh, half_extent=0.3):
    """(node at (x, 0), node at (-x, 0)) for every x in (0, half_extent]."""
    on_line = np.nonzero((mesh.nodes[:, 1] == 0.0) & (np.abs(mesh.nodes[:, 0]) <= half_extent))[0]
    at = {float(mesh.nodes[n, 0]): int(n) for n in on_line}
    return np.array([(n, at[-x]) for x, n in at.items() if x > 0])


def test_component_symmetry(setup05):
    geom, mesh, system = setup05
    fld = solve_component(system, 1, 1)
    pairs = _mirror_pairs(mesh)
    assert len(pairs) >= 5
    right = sample(fld, pairs[:, 0], "value")
    left = sample(fld, pairs[:, 1], "value")
    # u^(1) even in x1 on the center line, up to discretization asymmetry
    # (the triangle split direction is not mirror-symmetric)
    assert left[:, 0] == pytest.approx(right[:, 0], rel=2e-3)


def test_component_requires_valid_args(setup05):
    geom, _, system = setup05
    with pytest.raises(ValueError):
        solve_component(system, 3, 1)
    with pytest.raises(ValueError):
        solve_component(system, 1, 5)


def test_gap_gradient_matches_leading_term(setup05):
    # d_z u^(1)(0,0) ~ 1/delta(0) = 1/eps for the leading profile z/delta
    geom, _, system = setup05
    fld = solve_component(system, 1, 1)
    g0 = sample(fld, [gap_center_node(system.mesh, geom.eps)], "gradient")[0]
    assert g0[0, 1] == pytest.approx(1 / geom.eps, rel=0.02)


def test_hard_inclusion_rigid_data_exact(setup05):
    geom, _, system = setup05
    fld, c = solve_hard_inclusion(system, lambda x, y: (1.0, 0.0))
    # exact solution is the global translation
    assert np.allclose(c, [[1, 0, 0], [1, 0, 0]], atol=1e-9)
    assert abs(fld.energy()) < 1e-9


def test_hard_inclusion_constraint_consistency(setup05):
    geom, _, system = setup05
    # large lam on a thin gap: the solve must still pass the residual gate
    thin = Geometry(eps=1e-3)
    large_lam = assemble(generate_mesh(thin), 1e3, MU)
    for geom, lam, system in ((geom, LAM, system), (thin, 1e3, large_lam)):
        mesh = system.mesh
        fld, c = solve_hard_inclusion(system, lambda x, y: (y, x + y))
        nodes = mesh.boundary_nodes("incl1")
        x, y = mesh.nodes[nodes, 0], mesh.nodes[nodes, 1]
        expect_x = c[0, 0] + c[0, 2] * y
        expect_y = c[0, 1] - c[0, 2] * x
        assert np.abs(fld.u[2 * nodes] - expect_x).max() < 1e-12
        assert np.abs(fld.u[2 * nodes + 1] - expect_y).max() < 1e-12


def test_hard_inclusion_lu_fill_bounded(setup05):
    # the symmetric minimum-degree ordering keeps the factor sparse; the
    # default column ordering with partial pivoting gave about 14
    geom, _, system = setup05
    solve_hard_inclusion(system, lambda x, y: (y, x + y))
    red = system._reduced
    assert (red.lu.L.nnz + red.lu.U.nnz) / red.A.nnz <= 8


def test_factor_stores_no_relaxed_supernodes():
    # SuperLU's stored L+U (lu.nnz, which counts the zeros that relaxed
    # supernodes are padded with; L.nnz + U.nnz does not) on the coarse mesh
    # at eps 0.0125; SuperLU's default relax/panel_size store 415,730 and 458,370
    system = assemble(generate_mesh(Geometry(eps=0.0125), COARSE), LAM, MU)
    for tags, stored in ((INCLUSION_BOUNDARIES, 377_818), (("outer",), 429_282)):
        red = solve_mod._reduced_system(system, tags)
        assert red.lu.nnz <= stored, tags


def test_hard_inclusion_odd_symmetry(setup05):
    geom, _, system = setup05
    _, c = solve_hard_inclusion(system, lambda x, y: (y, x + y))
    assert c[0, 2] == pytest.approx(c[1, 2], abs=1e-10)  # rotations equal
    assert c[0, 0] == pytest.approx(-c[1, 0], rel=1e-8)


def test_reciprocity(setup05):
    geom, _, system = setup05
    for alpha in (1, 3):
        fld = solve_component(system, 1, alpha)
        energy = fld.energy()
        pairing = 0.5 * fld.flux_pairing("incl1", alpha)
        assert energy == pytest.approx(pairing, rel=1e-8)


def test_holes_rigid_exact(setup05):
    geom, _, system = setup05
    fld = solve_holes(system, lambda x, y: (y, -x))
    assert abs(fld.energy()) < 1e-9
    g0 = sample(fld, [gap_center_node(system.mesh, geom.eps)], "gradient")[0]
    assert np.abs(g0 - [[0, 1], [-1, 0]]).max() < 1e-6


def test_energy_balance(setup05):
    geom, _, system = setup05
    fld = solve_holes(system, lambda x, y: (y, x + y))
    assert 2 * fld.energy() == pytest.approx(fld.boundary_work(), rel=1e-8)


def test_energy_is_the_correctly_rounded_sum(setup05):
    # a BLAS dot splits a long sum over its threads, so its last bits
    # followed the CPUs the process could run on (the holes report differed
    # between one and two CPUs on the default mesh); the exact sum does not.
    # A rigid rotation's energy is all cancellation, so every bit shows
    geom, _, system = setup05
    u = solve_holes(system, lambda x, y: (y, -x)).u
    assert len(u) > 10_000
    exact = sum(map(Fraction, (u * (system.K @ u)).tolist()), Fraction(0))
    assert system.energy(u) == 0.5 * float(exact)


def test_one_factorization_per_constraint_pattern(setup05, monkeypatch):
    geom, mesh, _ = setup05
    calls = []
    raw_splu = solve_mod.spla.splu

    def counting_splu(a, *args, **kwargs):
        calls.append(a.shape)
        return raw_splu(a, *args, **kwargs)

    monkeypatch.setattr(solve_mod.spla, "splu", counting_splu)
    system = assemble(mesh, LAM, MU)
    shared = {
        (i, alpha): solve_component(system, i, alpha)
        for i in (1, 2)
        for alpha in (1, 2, 3)
    }
    assert len(calls) == 1
    # the hard solve prescribes the same boundaries: u = v_0 + sum C v_i^alpha
    phi = lambda x, y: (y, x + y)
    hard, c = solve_hard_inclusion(system, phi)
    assert len(calls) == 1
    solve_component(system, 1, 1)
    assert len(calls) == 1
    # only the latest factor is kept
    solve_holes(system, phi)
    solve_component(system, 1, 1)
    assert len(calls) == 3

    for (i, alpha), fld in shared.items():
        fresh = solve_component(assemble(mesh, LAM, MU), i, alpha)
        assert np.array_equal(fld.u, fresh.u)
    fresh_hard, fresh_c = solve_hard_inclusion(assemble(mesh, LAM, MU), phi)
    assert np.array_equal(hard.u, fresh_hard.u)
    assert np.array_equal(c, fresh_c)


class _CountingLU:
    """A SuperLU factor that records the shape of every right-hand side."""

    def __init__(self, lu):
        self.lu, self.rhs = lu, []

    def solve(self, b):
        self.rhs.append(b.shape)
        return self.lu.solve(b)


@pytest.fixture
def counted_factors(monkeypatch):
    """Every factor made while the test runs, as a _CountingLU."""
    made = []
    raw_splu = solve_mod.spla.splu

    def counting_splu(a, *args, **kwargs):
        made.append(_CountingLU(raw_splu(a, *args, **kwargs)))
        return made[-1]

    monkeypatch.setattr(solve_mod.spla, "splu", counting_splu)
    return made


def test_one_triangular_solve_per_block(setup05, counted_factors):
    geom, mesh, _ = setup05
    factors = counted_factors
    system = assemble(mesh, LAM, MU)
    phi = lambda x, y: (y, x + y)
    solve_hard_inclusion(system, phi)
    solve_components(system)
    solve_holes(system, phi)
    n_comp, n_holes = factors[0].lu.shape[0], factors[1].lu.shape[0]
    # no refinement: the hard solve is the 6-column component block and the
    # v_0 column, then the component block again on the same factor; one
    # holes column
    assert factors[0].rhs == [(n_comp, 6), (n_comp,), (n_comp, 6)]
    assert factors[1].rhs == [(n_holes,)]


def test_backward_error_gate_rejects_a_column_above_the_tolerance():
    assert RESIDUAL_TOL == 1e-10
    n = 50
    x, b = np.ones((n, 2)), np.ones((n, 2))
    # with ||A|| = 1 a column's measure is ||r|| / (||x|| + ||b||), and
    # ||unit|| = 2 sqrt(n) = ||x|| + ||b||
    unit = np.full(n, 2.0)
    residual = np.column_stack([0.5 * RESIDUAL_TOL * unit, 0.5 * RESIDUAL_TOL * unit])
    _check_backward_error(1.0, residual, x, b)
    residual[:, 1] *= 4
    with pytest.raises(SolverError, match="residual 2.000e-10 exceeds 1e-10"):
        _check_backward_error(1.0, residual, x, b)


def test_hard_solve_reuses_given_component_fields(counted_factors):
    geom = Geometry(eps=0.05)
    mesh = generate_mesh(geom, COARSE)
    phi = lambda x, y: (y, x + y)
    fresh, c_fresh = solve_hard_inclusion(assemble(mesh, LAM, MU), phi)
    system = assemble(mesh, LAM, MU)
    comps = solve_components(system)
    fld, c = solve_hard_inclusion(system, phi, components=comps)
    n = counted_factors[0].lu.shape[0]
    # without fields: the component block, then v_0; with them: v_0 only
    assert counted_factors[0].rhs == [(n, 6), (n,)]
    assert counted_factors[1].rhs == [(n, 6), (n,)]
    assert np.array_equal(fld.u, fresh.u) and np.array_equal(c, c_fresh)
    other = solve_components(assemble(mesh, LAM, MU))
    with pytest.raises(ValueError, match="another system"):
        solve_hard_inclusion(system, phi, components=other)


def test_hard_solve_matches_the_seven_column_block():
    # [V | v_0] solved as one 7-column block, in its (n, 7) layout, gives the
    # same bits: each column's solve is independent of its block, and V'KV
    # is computed on the same memory layout
    geom = Geometry(eps=0.05)
    system = assemble(generate_mesh(geom, COARSE), LAM, MU)
    phi = lambda x, y: (y, x + y)
    fld, c = solve_hard_inclusion(system, phi)
    g = np.column_stack([solve_mod._component_data(system.mesh), _dirichlet(system.mesh, {"outer": phi})])
    sol = _condensed_solve(system, INCLUSION_BOUNDARIES, g)
    V, v0 = sol[:, :6], sol[:, 6]
    M, r = _rigid_system(system.K, V, v0)
    c_block = np.linalg.solve(M, -r)
    assert np.array_equal(c.ravel(), c_block)
    assert np.array_equal(fld.u, v0 + V @ c_block)


def test_study_case_solves_only_v0_for_the_hard_field(counted_factors):
    from lamegap.studies import BOUNDARY_DATA, SweepConfig, _EpsCase

    cfg = SweepConfig(nr=8, arc_target=0.24)
    case = _EpsCase(cfg, 0.05)
    case.component(1, 1)
    fld, c = case.hard()
    assert case.hard()[0] is fld
    n = counted_factors[0].lu.shape[0]
    assert len(counted_factors) == 1 and counted_factors[0].rhs == [(n, 6), (n,)]
    system = assemble(generate_mesh(case.geom, cfg.mesh_params(0.05)), cfg.lam, cfg.mu)
    ref, c_ref = solve_hard_inclusion(system, BOUNDARY_DATA[cfg.phi])
    assert np.array_equal(fld.u, ref.u) and np.array_equal(c, c_ref)


def test_condensed_solve_rejects_a_factor_that_does_not_solve_a(setup05, monkeypatch):
    # the factor of A + 1e-4 ||A|| I leaves a backward error near 5e-5
    _, mesh, _ = setup05
    raw_splu = solve_mod.spla.splu

    def perturbed_splu(a, *args, **kwargs):
        shift = 1e-4 * np.abs(a).sum(axis=1).max()
        return raw_splu((a + shift * sp.identity(a.shape[0])).tocsc(), *args, **kwargs)

    monkeypatch.setattr(solve_mod.spla, "splu", perturbed_splu)
    g = _dirichlet(mesh, {"outer": lambda x, y: (y, x + y)})
    for tags in (INCLUSION_BOUNDARIES, ("outer",)):
        with pytest.raises(SolverError, match="exceeds 1e-10"):
            _condensed_solve(assemble(mesh, LAM, MU), tags, g)


@pytest.fixture
def raw_backward_errors(monkeypatch):
    """The relative backward error of every column each gate call sees."""
    seen = []
    raw_check = solve_mod._check_backward_error

    def recording_check(norm_a, residual, x, b):
        res = np.linalg.norm(residual, axis=0)
        seen.extend(np.atleast_1d(res / (norm_a * np.linalg.norm(x, axis=0) + np.linalg.norm(b, axis=0))))
        raw_check(norm_a, residual, x, b)

    monkeypatch.setattr(solve_mod, "_check_backward_error", recording_check)
    return seen


ODD_PHI = lambda x, y: (y, x + y)
HEADROOM_PROBLEMS = {
    "components": lambda geom, lam: solve_components(assemble(generate_mesh(geom, COARSE), lam, MU)),
    "hard": lambda geom, lam: solve_hard_inclusion(assemble(generate_mesh(geom, COARSE), lam, MU), ODD_PHI),
    "holes": lambda geom, lam: solve_holes(assemble(generate_mesh(geom, COARSE), lam, MU), ODD_PHI),
    "large_contrast": lambda geom, lam: solve_large_contrast(geom, lam, MU, ODD_PHI, params=COARSE),
}


@pytest.mark.parametrize(
    "eps, lam, rho2", [(0.1, 1.0, 1.0), (1e-6, 1.0, 1.0), (1e-3, 1e3, 1.0), (0.1, 1.0, 0.75)]
)
@pytest.mark.parametrize("problem", sorted(HEADROOM_PROBLEMS))
def test_single_solve_backward_error_headroom(problem, eps, lam, rho2, raw_backward_errors):
    # one triangular solve per block, with no refinement, stays four orders
    # of magnitude under the gate (at most 3e-17 for the blocks and 7e-17 for
    # the hard 6x6 system on these meshes)
    HEADROOM_PROBLEMS[problem](Geometry(eps=eps, rho2=rho2), lam)
    assert raw_backward_errors
    assert max(raw_backward_errors) <= 1e-14


def _rigid_tied_reference(system, phi):
    """The hard-inclusion field from the rigid-tied condensation u = T y + g:
    y stacks three rigid parameters per inclusion (u_x = c1 + c3 y,
    u_y = c2 - c3 x on its boundary) and the interior DOFs, g holds phi on
    the outer circle, and T'KT y = -T'K g is solved directly."""
    mesh, n = system.mesh, system.n_dofs
    g = _dirichlet(mesh, {"outer": phi})
    fixed = np.zeros(n, dtype=bool)
    rows, cols, vals = [], [], []
    for k, tag in enumerate(INCLUSION_BOUNDARIES):
        nodes = mesh.boundary_nodes(tag)
        fixed[2 * nodes] = fixed[2 * nodes + 1] = True
        if tag == "outer":
            continue
        x, y = mesh.nodes[nodes].T
        base, ones = np.full(len(nodes), 3 * (k - 1)), np.ones(len(nodes))
        rows += [2 * nodes, 2 * nodes + 1, 2 * nodes, 2 * nodes + 1]
        cols += [base, base + 1, base + 2, base + 2]
        vals += [ones, ones, y, -x]
    free = np.nonzero(~fixed)[0]
    rows.append(free)
    cols.append(np.arange(6, 6 + len(free)))
    vals.append(np.ones(len(free)))
    T = sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(n, 6 + len(free))
    )
    y = spsolve((T.T @ system.K @ T).tocsc(), -(T.T @ (system.K @ g)))
    return T @ y + g, y[:6].reshape(2, 3)


@pytest.mark.parametrize("eps, lam", [(0.1, 1.0), (1e-6, 1.0), (1e-3, 1e3)])
def test_hard_inclusion_decomposition_matches_rigid_tied_reference(eps, lam):
    # u = v_0 + sum C_i^alpha v_i^alpha with M C = -r reproduces the energy
    # minimum over fields rigid on each inclusion
    geom = Geometry(eps=eps)
    system = assemble(generate_mesh(geom, MeshParams(nr=8, arc_target=0.24)), lam, MU)
    phi = lambda x, y: (y, x + y)
    fld, c = solve_hard_inclusion(system, phi)
    u_ref, c_ref = _rigid_tied_reference(system, phi)
    assert np.abs(fld.u - u_ref).max() <= 1e-10 * np.abs(u_ref).max()
    assert np.abs(c - c_ref).max() <= 1e-10 * np.abs(c_ref).max()
    # a rigid inclusion is in equilibrium: the hard field exerts no force or
    # torque on it, against the pairing of each v_i^alpha with its own psi
    comps = solve_components(system)
    for (i, alpha), v in comps.items():
        own = v.flux_pairing(f"incl{i}", alpha)
        assert abs(fld.flux_pairing(f"incl{i}", alpha)) <= 1e-10 * abs(own)
    V = np.column_stack([comps[ia].u for ia in sorted(comps)])
    v0 = _condensed_solve(system, INCLUSION_BOUNDARIES, _dirichlet(system.mesh, {"outer": phi}))
    M, r = _rigid_system(system.K, V, v0)
    assert np.abs(M - M.T).max() <= 1e-12 * np.abs(M).max()
    assert np.allclose(fld.u, v0 + V @ np.linalg.solve(M, -r).ravel(), rtol=0, atol=1e-12)


def test_component_block_columns_carry_their_boundary_data(setup05):
    geom, mesh, system = setup05
    block = solve_components(system)
    assert list(block) == [(i, alpha) for i in (1, 2) for alpha in (1, 2, 3)]
    for (i, alpha), fld in block.items():
        u = fld.u.reshape(-1, 2)
        nodes = mesh.boundary_nodes(f"incl{i}")
        psi = np.array([PSI[alpha - 1](x, y) for x, y in mesh.nodes[nodes]])
        assert np.array_equal(u[nodes], psi)
        for tag in ("outer", f"incl{3 - i}"):
            assert not u[mesh.boundary_nodes(tag)].any()


def test_large_contrast_cross_check():
    geom = Geometry(eps=0.05)
    system = assemble(generate_mesh(geom), LAM, MU)
    hard = solve_component(system, 1, 1)
    # large-contrast approximation of the hard-inclusion component problem is
    # not directly comparable; compare the full problems instead
    phi = lambda x, y: (y, x + y)
    rigid, _ = solve_hard_inclusion(system, phi)
    contrast = solve_large_contrast(geom, LAM, MU, phi)
    g1 = sample(rigid, [gap_center_node(rigid.mesh, geom.eps)], "gradient")[0]
    g2 = sample(contrast, [gap_center_node(contrast.mesh, geom.eps)], "gradient")[0]
    assert np.abs(g1 - g2).max() / np.abs(g1).max() < 0.05


def test_every_solver_returns_read_only_fields():
    # fields kept by a study case are read by several studies; each solver's
    # fields are read-only from construction, not only the ones a case keeps
    geom = Geometry(eps=0.1)
    system = assemble(generate_mesh(geom, COARSE), LAM, MU)
    hard, c = solve_hard_inclusion(system, ODD_PHI)
    arrays = [fld.u for fld in solve_components(system).values()]
    arrays += [hard.u, c, solve_holes(system, ODD_PHI).u]
    arrays.append(solve_large_contrast(geom, LAM, MU, ODD_PHI, params=COARSE).u)
    for arr in arrays:
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1.0


def test_sample_outside_errors(setup05):
    # numpy would wrap -1 to the last node and raise a bare IndexError for
    # n_nodes; both are rejected as solver errors
    geom, mesh, system = setup05
    fld = solve_component(system, 1, 1)
    for bad in (-1, mesh.n_nodes):
        for order in ("value", "gradient"):
            with pytest.raises(SolverError, match="outside"):
                sample(fld, [bad], order)
        with pytest.raises(SolverError, match="outside"):
            incident_gradients(fld, [bad])


def test_sample_batch_matches_single_points(setup05):
    geom, mesh, system = setup05
    fld = solve_component(system, 1, 1)
    origin = gap_center_node(mesh, geom.eps)
    arc = mesh.boundary_nodes("incl1")
    arc = arc[np.abs(mesh.nodes[arc, 0]) <= 0.3][::3]  # curved elements
    line = _mirror_pairs(mesh).ravel()  # gap centerline
    bulk = np.nonzero(np.hypot(*mesh.nodes.T) > 2.0)[0][::97]
    nodes = np.concatenate([[origin], arc, line, bulk])
    for order in ("value", "gradient"):
        batch = sample(fld, nodes, order)
        single = np.array([sample(fld, [n], order)[0] for n in nodes])
        assert np.array_equal(batch, single)
    owners = np.nonzero((mesh.tris == origin).any(axis=1))[0]
    assert len(owners) > 1  # a vertex shared by several elements
    elems, _ = solve_mod._node_owners(mesh, [origin])
    assert elems[0] == owners.min()


def test_sample_nodes_matches_sample(setup05):
    # values are the nodal coefficients; gradients are the isoparametric
    # gradient, computed here independently, in the lowest incident element
    geom, mesh, system = setup05
    fld = solve_component(system, 1, 1)
    nodes = np.arange(mesh.n_nodes)
    assert np.array_equal(sample(fld, nodes, "value"), fld.u.reshape(-1, 2))
    held, at = np.unique(mesh.tris.ravel(), return_index=True)
    assert np.array_equal(held, nodes)
    el, slot = at // 6, at % 6
    dn = np.stack([shape_gradients(xi, eta) for xi, eta in NODE_REF[slot]])
    coords = mesh.nodes[mesh.tris[el]]
    jac = np.einsum("nai,naj->nij", coords, dn)
    g = np.einsum("naj,nji->nai", dn, np.linalg.inv(jac))
    ue = fld.u[np.stack([2 * mesh.tris[el], 2 * mesh.tris[el] + 1], axis=2)]
    want = np.einsum("nak,nai->nki", ue, g)
    got = sample(fld, nodes, "gradient")
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_node_owner_is_the_lowest_incident_element(setup05):
    # node 0, the band corner (-R, gamma2(-R)), is vertex 0 of the long thin
    # element 0
    _, mesh, _ = setup05
    elems, ref = solve_mod._node_owners(mesh, [0])
    assert elems.tolist() == [0]
    assert ref.tolist() == [[0.0, 0.0]]
    # the midpoint of the first edge of element 0 is in no other element
    with pytest.raises(SolverError, match="in no element"):
        solve_mod._node_owners(replace(mesh, tris=mesh.tris[1:]), [mesh.tris[0, 3]])


def _sweep_mesh(eps):
    """The mesh of the default SweepConfig at eps."""
    from lamegap.studies import SweepConfig

    cfg = SweepConfig()
    geom = cfg.geometry(eps)
    return geom, generate_mesh(geom, cfg.mesh_params(eps))


@pytest.mark.parametrize("eps", [0.1, 0.05, 0.025, 0.0125])
def test_find_owner_matches_a_full_scan(eps):
    # the owner of a node is the lowest-index element holding it, found by
    # connectivity; a scan of every element's node list gives the same one,
    # on the z = 0 centerline, where elements meet along their edges, and
    # on every 7th node
    geom, mesh = _sweep_mesh(eps)
    line = np.nonzero((mesh.nodes[:, 1] == 0.0) & (np.abs(mesh.nodes[:, 0]) <= 0.45 * 0.65))[0]
    nodes = np.concatenate([line, np.arange(0, mesh.n_nodes, 7)])
    elems, ref = solve_mod._node_owners(mesh, nodes)
    scan = np.array([np.nonzero((mesh.tris == n).any(axis=1))[0].min() for n in nodes])
    assert np.array_equal(elems, scan)
    slots = np.nonzero(mesh.tris[scan] == nodes[:, None])[1]
    assert np.array_equal(ref, NODE_REF[slots])
    assert elems[len(line)] == 0  # node 0


@pytest.fixture(scope="module")
def sweep01():
    return _sweep_mesh(0.1)


def test_sample_at_every_node_matches_sample_nodes(sweep01):
    # every incidence of every node, in element order, is one row of
    # incident_gradients; sample reads the first incidence of each node
    geom, mesh = sweep01
    fld = solve_component(assemble(mesh, LAM, MU), 1, 1)
    nodes = np.arange(mesh.n_nodes)
    every = incident_gradients(fld, nodes)
    assert every.shape == (6 * mesh.n_elements, 2, 2)
    _, first = np.unique(mesh.tris.ravel(), return_index=True)
    assert np.array_equal(every[first], sample(fld, nodes, "gradient"))
    # P2 gradients jump across element edges: a node's incident gradients
    # differ, so a maximum over the band must look at all of them
    origin = gap_center_node(mesh, geom.eps)
    at_origin = incident_gradients(fld, [origin])
    assert len(at_origin) > 1 and np.ptp(at_origin[:, 0, 1]) > 0


def test_sample_batch_with_outside_point_errors(setup05):
    geom, mesh, system = setup05
    fld = solve_component(system, 1, 1)
    with pytest.raises(SolverError, match="outside"):
        sample(fld, [0, 1, mesh.n_nodes + 5, 2], "gradient")
    with pytest.raises(SolverError, match="outside"):
        sample(fld, np.array([0, -3, 2]), "value")


def test_mesh_independence():
    for eps in (0.05, 0.0125):
        geom = Geometry(eps=eps)
        vals = []
        for params in (MeshParams(), MeshParams(nz=16, ct=0.175)):
            fld = solve_component(assemble(generate_mesh(geom, params), LAM, MU), 1, 1)
            vals.append(sample(fld, [gap_center_node(fld.mesh, eps)], "gradient")[0][0, 1])
        assert abs(vals[0] - vals[1]) / abs(vals[1]) < 0.02


def test_energy_minimality_spot_check(setup05):
    # perturbing interior DOFs of the solved field cannot decrease the energy
    geom, mesh, system = setup05
    fld, _ = solve_hard_inclusion(system, lambda x, y: (y, x + y))
    bnodes = np.concatenate([mesh.boundary_nodes(t) for t in ("outer", "incl1", "incl2")])
    interior = np.setdiff1d(np.arange(mesh.n_nodes), bnodes)
    rng = np.random.default_rng(5)
    e0 = fld.energy()
    for _ in range(5):
        du = np.zeros_like(fld.u)
        pick = rng.choice(interior, size=50, replace=False)
        du[2 * pick] = rng.normal(scale=1e-3, size=50)
        du[2 * pick + 1] = rng.normal(scale=1e-3, size=50)
        assert system.energy(fld.u + du) >= e0 - 1e-12 * max(e0, 1.0)


def test_bulk_element_quality(setup05):
    # isotropic shape quality in the bulk (the neck band is intentionally
    # anisotropic and excluded): 2*r_in/r_circ stays above a floor
    _, mesh, _ = setup05
    bulk = mesh.elements_in("bulk")
    p = mesh.nodes[mesh.tris[bulk, :3]]
    a = np.linalg.norm(p[:, 1] - p[:, 0], axis=1)
    b = np.linalg.norm(p[:, 2] - p[:, 1], axis=1)
    c = np.linalg.norm(p[:, 0] - p[:, 2], axis=1)
    s = (a + b + c) / 2
    area = np.sqrt(np.maximum(s * (s - a) * (s - b) * (s - c), 0))
    r_in = area / s
    r_circ = a * b * c / (4 * np.maximum(area, 1e-300))
    quality = 2 * r_in / r_circ
    # a few sheared cells sit where the radial spokes graze the waist
    # corners; they are valid (positive Jacobians) but low-quality
    assert quality.min() > 0.005
    assert np.median(quality) > 0.4
