from functools import lru_cache
from math import comb

import numpy as np
import pytest
import scipy.sparse as sp

from curlest import _poly
from curlest import femsys as fem
from curlest import mesh as msh
from curlest import polyspace as ps
from curlest.errors import UnsupportedDegree
from _helpers import (MU1, cg_solve, colamd_factor, colamd_solve, covariant_basis,
                      cube_H, cube_j, element_dof_matrix, hash_node_registry,
                      inspace_H, inspace_u, jittered_cube, loop_curlcurl_mass,
                      loop_gradient, loop_Hh, loop_interpolate_nedelec,
                      loop_nedelec_dofs, loop_project_current, relabelled_cube,
                      solve_cube, two_tet_mesh)

RNG = np.random.default_rng(17)


# ---------------------------------------------------------------------------
# dof maps
# ---------------------------------------------------------------------------

def test_whitney_dof_count_two_tets():
    m = two_tet_mesh()
    dm = fem.build_dofmap(m, 1)
    assert dm.n_dofs == m.n_edges == 9
    assert dm.boundary_mask.all()      # every edge lies on the hull
    assert dm.n_free == 0


def test_dofmap_degree_bounds():
    m = two_tet_mesh()
    with pytest.raises(UnsupportedDegree):
        fem.build_dofmap(m, 4)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_random_conforming_field_tangential_continuity(k):
    m = msh.unit_cube_mesh(1 if k == 3 else 2)
    dm = fem.build_dofmap(m, k)
    u = fem.FieldCoefficients(dm, RNG.standard_normal(dm.n_dofs))
    poly = fem.nedelec_field_to_poly(m, dm, u)
    scale = max(poly.norm(), 1.0)
    assert fem.tangential_jump_norms(m, poly).max() < 1e-11 * scale


@lru_cache(maxsize=None)
def _registry_mesh(name):
    if name.startswith("cube"):
        return msh.unit_cube_mesh(int(name[4:]))
    if name == "jittered":
        return jittered_cube(2)
    if name == "lbrick":
        return msh.l_brick_mesh(1)
    # seeded random bisection sequences: stretched, irregularly numbered tets
    rng = np.random.default_rng(int(name[6:]))
    m = msh.unit_cube_mesh(1)
    for _ in range(4):
        m = msh.refine(m, set(rng.choice(m.n_tets, size=max(1, m.n_tets // 3),
                                         replace=False).tolist()))
    return m


REGISTRY_MESHES = ["cube1", "cube2", "cube3", "jittered", "bisect0", "bisect1",
                   "bisect2", "lbrick"]


def test_lagrange_registry_counts():
    for m in (msh.unit_cube_mesh(2), _registry_mesh("bisect0")):
        for k in (1, 2, 3, 4):
            n = (m.n_vertices + (k - 1) * m.n_edges + comb(k - 1, 2) * m.n_faces
                 + comb(k - 1, 3) * m.n_tets)
            reg = fem.build_node_registry(m, k)
            assert (reg.degree, reg.n_nodes) == (k, n)
            if k <= fem.MAX_DEGREE:
                assert fem.build_dofmap(m, k).registry.n_nodes == n


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("name", REGISTRY_MESHES)
def test_registry_matches_hash_oracle(name, k):
    m = _registry_mesh(name)
    got = fem.build_node_registry(m, k)
    ref = hash_node_registry(m, k)
    for key in ("tet_nodes", "kind", "entity", "boundary", "incident",
                "incident_ptr"):
        assert np.array_equal(getattr(got, key), getattr(ref, key)), key
    assert got.points.tobytes() == ref.points.tobytes()


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------

def test_all_boundary_single_tet_gives_empty_system():
    m = msh.build_mesh(np.array([[0., 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]),
                       [[0, 1, 2, 3]])
    dm = fem.build_dofmap(m, 1)
    A = fem.assemble_curlcurl(m, dm, MU1)
    assert A.shape == (0, 0)


@pytest.mark.parametrize("k", [1, 2])
def test_stiffness_symmetric(k):
    m = msh.unit_cube_mesh(2)
    dm = fem.build_dofmap(m, k)
    A = fem.assemble_curlcurl(m, dm, MU1)
    assert abs(A - A.T).max() <= 1e-12 * abs(A).max()


@pytest.mark.parametrize("k", [1, 2, 3])
def test_gradients_span_stiffness_kernel(k):
    m = msh.unit_cube_mesh(2 if k < 3 else 1)
    dm = fem.build_dofmap(m, k)
    A = fem.assemble_curlcurl(m, dm, MU1)
    if dm.G.shape[1] == 0:
        pytest.skip("no interior scalar dofs on this mesh")
    gq = dm.G @ RNG.standard_normal(dm.G.shape[1])
    assert np.linalg.norm(A @ gq) <= 1e-10 * max(1.0, np.linalg.norm(gq)) * abs(A).max()


def test_stiffness_kernel_dimension_is_interior_node_count():
    # the null space of the constrained curl-curl matrix is exactly the span
    # of the discrete gradients of interior scalar dofs
    m = msh.unit_cube_mesh(2)
    dm = fem.build_dofmap(m, 1)
    A = fem.assemble_curlcurl(m, dm, MU1).toarray()
    w = np.linalg.eigvalsh(A)
    n_null = int((w < 1e-10 * w.max()).sum())
    assert n_null == (~dm.registry.boundary).sum() == dm.G.shape[1]


def test_rhs_zero_current():
    m = msh.unit_cube_mesh(1)
    dm = fem.build_dofmap(m, 1)
    j = fem.CurrentDensity(func=lambda p: np.zeros((len(p), 3)))
    assert not fem.assemble_rhs(m, dm, j).any()


def test_rhs_constant_current_orthogonal_to_gradients():
    m = msh.unit_cube_mesh(2)
    dm = fem.build_dofmap(m, 1)
    j = fem.CurrentDensity(func=lambda p: np.tile([1.0, 0, 0], (len(p), 1)))
    b = fem.assemble_rhs(m, dm, j)
    resid = dm.G.T @ b[dm.free]
    assert np.abs(resid).max() < 1e-12 * max(np.abs(b).max(), 1.0)


def _slow_rhs(mesh, dm, j_func, exactness=10):
    """Independent assembler: per-element loop straight from definitions."""
    rule = ps.quadrature("tet", exactness)
    geom = mesh.geom()
    b = np.zeros(dm.n_dofs)
    for t in range(mesh.n_tets):
        phys_eval = covariant_basis(mesh, dm.degree, t)
        V = element_dof_matrix(mesh, dm.degree, t)
        pts = geom.v0[t] + rule.points @ geom.J[t].T
        jv = j_func(pts)
        vals = phys_eval(pts)
        b_gen = geom.detJ[t] * np.einsum("q,qci,qc->i", rule.weights, vals, jv)
        b[dm.cell_dofs[t]] += np.linalg.solve(V.T, b_gen)
    return b


@pytest.mark.parametrize(
    "k, make_mesh", [(k, msh.unit_cube_mesh) for k in (1, 2, 3)]
    + [(k, jittered_cube) for k in (1, 2, 3)],
    ids=["1", "2", "3", "1-jittered", "2-jittered", "3-jittered"])
def test_rhs_against_slow_assembler(k, make_mesh):
    m = make_mesh(2)
    dm = fem.build_dofmap(m, k)
    b_fast = fem.assemble_rhs(m, dm, fem.CurrentDensity(func=cube_j),
                              exactness=10)
    b_slow = _slow_rhs(m, dm, cube_j)
    scale = np.abs(b_slow).max()
    assert np.abs(b_fast - b_slow).max() < 1e-10 * scale


# ---------------------------------------------------------------------------
# the stacked element map against per-tet loops
# ---------------------------------------------------------------------------

MU_JUMP = fem.MaterialField({0: 1.0, 1: 100.0})


@pytest.mark.parametrize("k", [1, 2, 3])
def test_nedelec_dofmap_matches_loop(k):
    m = jittered_cube(2)
    dm = fem.build_dofmap(m, k)
    cell_dofs, mask = loop_nedelec_dofs(m, k)
    assert dm.cell_dofs.dtype == np.int64
    assert np.array_equal(dm.cell_dofs, cell_dofs)
    assert np.array_equal(dm.boundary_mask, mask)
    assert dm.n_dofs == len(mask)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_stacked_assembly_matches_per_tet_loops(k):
    m = jittered_cube(2, tag_fn=lambda c: int(c[0] > 0.5))
    dm = fem.build_dofmap(m, k)
    A_ref, M_ref = loop_curlcurl_mass(m, dm, MU_JUMP.per_tet(m))
    free = np.ix_(dm.free, dm.free)
    free_nodes = np.nonzero(~dm.registry.boundary)[0]
    for fast, ref in ((fem.assemble_curlcurl(m, dm, MU_JUMP), A_ref[free]),
                      (fem.assemble_mass(m, dm), M_ref[free]),
                      (dm.G, loop_gradient(m, dm)[np.ix_(dm.free, free_nodes)])):
        assert fast.shape == ref.shape
        assert np.abs(fast.toarray() - ref).max() <= 1e-12 * np.abs(ref).max()
    u = RNG.standard_normal(dm.n_dofs)
    Hh = fem.compute_Hh(m, dm, fem.FieldCoefficients(dm, u), MU_JUMP)
    ref = loop_Hh(m, dm, u, MU_JUMP.per_tet(m))
    assert np.abs(Hh.coeffs - ref).max() <= 1e-12 * np.abs(ref).max()


# ---------------------------------------------------------------------------
# gradient correction
# ---------------------------------------------------------------------------

def test_correction_fixed_point():
    m = msh.unit_cube_mesh(2)
    dm = fem.build_dofmap(m, 1)
    b = fem.assemble_rhs(m, dm, fem.CurrentDensity(func=cube_j))
    b1 = fem.gradient_correction(dm, b)
    b2 = fem.gradient_correction(dm, b1)
    assert np.linalg.norm(b2 - b1) <= 1e-12 * max(np.linalg.norm(b1), 1e-30)
    resid = dm.G.T @ b1[dm.free]
    assert np.abs(resid).max() <= 1e-12 * max(np.abs(b1).max(), 1e-30)


def test_correction_annihilates_pure_gradients():
    dm = fem.build_dofmap(msh.unit_cube_mesh(2), 1)
    b = np.zeros(dm.n_dofs)
    b[dm.free] = dm.G @ RNG.standard_normal(dm.G.shape[1])
    b1 = fem.gradient_correction(dm, b)
    assert np.linalg.norm(b1) <= 1e-10 * np.linalg.norm(b)


# ---------------------------------------------------------------------------
# solving
# ---------------------------------------------------------------------------

def test_zero_rhs_zero_curl():
    m, dm, u, Hh, _ = solve_cube(1, 1)
    dm0 = fem.build_dofmap(m, 1)
    A = fem.assemble_curlcurl(m, dm0, MU1)
    u0 = fem.solve_magnetostatic(A, np.zeros(dm0.n_dofs), dm0,
                                 fem.assemble_mass(m, dm0))
    H0 = fem.compute_Hh(m, dm0, u0, MU1)
    assert H0.norm() < 1e-12


def _corrected_system(m, dm, data):
    """Free-dof curl-curl matrix and gradient-corrected load of a level."""
    A = fem.assemble_curlcurl(m, dm, MU1)
    b = fem.gradient_correction(dm, fem.assemble_rhs(m, dm, data))
    return A, b[dm.free]


@pytest.mark.parametrize("backend", ["direct", "cg"])
def test_solver_residual_below_tolerance(backend):
    # the library's direct solve and the CG oracle both reach the tolerance
    m, dm, u, Hh, data = solve_cube(2, 1)
    A, b = _corrected_system(m, dm, data)
    x = u.values[dm.free] if backend == "direct" else cg_solve(A, b)
    assert np.linalg.norm(A @ x - b) <= 1e-9 * np.linalg.norm(b)


def test_inconsistent_rhs_raises_no_convergence():
    # a load vector with a kernel component cannot be solved to tolerance on
    # the singular system; refinement stalls and says so
    m = msh.unit_cube_mesh(2)
    dm = fem.build_dofmap(m, 1)
    A = fem.assemble_curlcurl(m, dm, MU1)
    M = fem.assemble_mass(m, dm)
    b = np.zeros(dm.n_dofs)
    b[dm.free] = RNG.standard_normal(dm.n_free)
    with pytest.raises(fem.NoConvergence):
        fem.solve_magnetostatic(A, b, dm, M)


def test_singular_shifted_system_raises_no_convergence():
    # with a zero mass the shift vanishes and the curl-curl kernel leaves the
    # factorisation an exactly zero pivot column on this mesh
    m = msh.unit_cube_mesh(3)
    dm = fem.build_dofmap(m, 1)
    A = fem.assemble_curlcurl(m, dm, MU1)
    b = fem.assemble_rhs(m, dm, fem.CurrentDensity(func=cube_j))
    b = fem.gradient_correction(dm, b)
    with pytest.raises(fem.NoConvergence, match="exactly singular"):
        fem.solve_magnetostatic(A, b, dm, mass=sp.csr_matrix(A.shape))


def test_non_finite_correction_stops_refinement_at_once():
    # a tiny diagonal pivot that partial pivoting would step over: the
    # symmetric-mode factor divides by it and the first correction overflows
    m = msh.unit_cube_mesh(1)
    dm = fem.build_dofmap(m, 2)
    n = dm.n_free
    tiny = np.array([[1e-310, 1.0], [1.0, 1e-310]])
    A = sp.block_diag([tiny, sp.identity(n - 2)], format="csr")
    b = np.zeros(dm.n_dofs)
    b[dm.free] = 1.0
    with pytest.raises(fem.NoConvergence, match="refinement step 1 gave a non-finite"):
        fem.solve_magnetostatic(A, b, dm, mass=sp.csr_matrix(A.shape))
    u = colamd_solve(A, b[dm.free], sp.csr_matrix(A.shape))
    assert np.abs(A @ u - b[dm.free]).max() < 1e-12


@pytest.mark.parametrize("k, n", [(1, 3), (2, 2), (3, 2)])
def test_symmetric_factor_matches_colamd_oracle(k, n):
    m = relabelled_cube(n, seed=k)
    dm = fem.build_dofmap(m, k)
    A = fem.assemble_curlcurl(m, dm, MU1)
    M = fem.assemble_mass(m, dm)
    G = dm.G
    raw = fem.assemble_rhs(m, dm, fem.CurrentDensity(func=cube_j))
    raw[dm.free] += G @ np.random.default_rng(k).standard_normal(G.shape[1])
    b = fem.gradient_correction(dm, raw)
    scale = abs(G).sum(axis=0).max() * np.abs(raw[dm.free]).max()
    assert np.abs(G.T @ b[dm.free]).max() <= 1e-13 * scale
    H = fem.compute_Hh(m, dm, fem.solve_magnetostatic(A, b, dm, mass=M), MU1)
    ref = np.zeros(dm.n_dofs)
    ref[dm.free] = colamd_solve(A, b[dm.free], M)
    Href = fem.compute_Hh(m, dm, fem.FieldCoefficients(dm, ref), MU1)
    assert H.plus(Href.scale(-1.0)).norm() <= 1e-11 * Href.norm()


def test_symmetric_factor_halves_colamd_fill():
    # nnz(L) + nnz(U) repeats exactly on a fixed mesh (symmetric mode
    # 482,868, COLAMD 1,485,288); a dense factor coming back fails here
    m = relabelled_cube(3)
    dm = fem.build_dofmap(m, 3)
    A = fem.assemble_curlcurl(m, dm, MU1)
    K = A + 1e-10 * (A.diagonal().sum() / A.shape[0]) * fem.assemble_mass(m, dm)
    sym, ref = fem._factor_spd(K), colamd_factor(K)
    assert 2 * (sym.L.nnz + sym.U.nnz) <= ref.L.nnz + ref.U.nnz


@pytest.mark.parametrize("k", [1, 2, 3])
def test_backends_agree_on_field(k):
    m, dm, _, H1, data = solve_cube(2, k)
    A, b = _corrected_system(m, dm, data)
    u2 = np.zeros(dm.n_dofs)
    u2[dm.free] = cg_solve(A, b)
    H2 = fem.compute_Hh(m, dm, fem.FieldCoefficients(dm, u2), MU1)
    assert H1.plus(H2.scale(-1.0)).norm() < 1e-8 * H1.norm()


def test_galerkin_orthogonality():
    m, dm, u, Hh, data = solve_cube(2, 2)
    A, b = _corrected_system(m, dm, data)
    resid = A @ u.values[dm.free] - b
    scale = np.linalg.norm(b)
    for _ in range(50):
        w = RNG.standard_normal(dm.n_free)
        assert abs(w @ resid) <= 1e-9 * scale * np.linalg.norm(w)


@pytest.mark.parametrize("k", [1, 2])
def test_error_decreases_monotonically(k):
    errs = []
    for n in ([2, 4, 8] if k == 1 else [1, 2, 4]):
        m, dm, u, Hh, _ = solve_cube(n, k)
        errs.append(fem.l2_error_against(m, MU1, Hh, cube_H, 2 * k + 4))
    assert errs[0] > errs[1] > errs[2]


def test_interpolation_reproduces_in_space_field():
    # the quadratic potential lies in the degree-2 space; dof interpolation
    # reproduces it and its curl exactly
    m = msh.unit_cube_mesh(2)
    dm = fem.build_dofmap(m, 2)
    u = fem.interpolate_nedelec(m, dm, inspace_u)
    poly = fem.nedelec_field_to_poly(m, dm, u)
    err = fem.l2_error_against(m, MU1, poly, inspace_u, 8)
    assert err < 1e-12
    Hh = fem.compute_Hh(m, dm, u, MU1)
    assert fem.l2_error_against(m, MU1, Hh, inspace_H, 8) < 1e-11
    assert fem.tangential_jump_norms(m, Hh).max() < 1e-12


# ---------------------------------------------------------------------------
# current projection
# ---------------------------------------------------------------------------

def test_project_constant_current():
    m = msh.unit_cube_mesh(1)
    jp = fem.project_current(m, lambda p: np.tile([1.0, 2.0, 3.0], (len(p), 1)), 1)
    pts = RNG.random((4, 3)) * 0.2
    vals = jp.field.eval(np.arange(m.n_tets), pts)
    assert np.abs(vals - np.array([1.0, 2.0, 3.0])).max() < 1e-12


def test_projection_reproduces_member_fields():
    # a global field of the div-conforming structure v + x w
    def member(p):
        base = np.stack([1 + p[:, 1], 2 - p[:, 0], p[:, 2]], axis=1)
        return base + p * (0.5 * p[:, 0] - p[:, 2])[:, None]

    m = msh.unit_cube_mesh(2)
    jp = fem.project_current(m, member, 2)
    rule = ps.quadrature("tet", 6)
    tets = np.arange(m.n_tets)
    vals = jp.field.eval(tets, rule.points)
    pts = m.geom().map_points(tets, rule.points)
    exact = member(pts.reshape(-1, 3)).reshape(vals.shape)
    assert np.abs(vals - exact).max() < 1e-10


def test_projection_of_manufactured_current_is_exact_at_degree_three():
    m = msh.unit_cube_mesh(2)
    jp = fem.project_current(m, cube_j, 3)
    err = fem.l2_error_against(m, MU1, jp.field, cube_j, 10)
    assert err < 1e-10
    v = jp.validate(m)
    assert v["max_div"] < 1e-9 * v["scale"]
    assert v["max_flux_jump"] < 1e-10 * v["scale"]


def test_projection_flux_continuity_low_degree():
    m = msh.unit_cube_mesh(2)
    jp = fem.project_current(m, cube_j, 1)
    v = jp.validate(m)
    assert v["max_flux_jump"] < 1e-10 * v["scale"]
    assert v["max_div"] < 1e-9 * v["scale"]


def wavy(p):
    # analytic and in no polynomial space, so every quadrature point counts
    x, y, z = p[:, 0], p[:, 1], p[:, 2]
    return np.stack([np.sin(3 * y) * z, np.cos(2 * x + z), x * np.exp(y)], axis=1)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_stacked_interpolation_and_projection_match_per_tet_loops(k):
    m = jittered_cube(2)
    dm = fem.build_dofmap(m, k)
    got = fem.interpolate_nedelec(m, dm, wavy).values
    ref = loop_interpolate_nedelec(m, dm, wavy)
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()
    # projections compared as fields, per tet in L2: their monomial
    # coefficients amplify the roundoff of the small solves
    got = fem.project_current(m, wavy, k).field
    ref = fem.BrokenPolyField(m, k, loop_project_current(m, wavy, k))
    diff = got.plus(ref.scale(-1.0)).mu_norms()
    assert (diff / ref.mu_norms()).max() <= 1e-12


# ---------------------------------------------------------------------------
# H_h and the element curls
# ---------------------------------------------------------------------------

def test_lowest_order_element_currents_vanish():
    m, dm, u, Hh, _ = solve_cube(2, 1)
    jh = Hh.curl()
    assert jh.norm() < 1e-13 * max(1.0, Hh.norm())


def test_gradient_potential_has_zero_field():
    m = msh.unit_cube_mesh(2)
    dm = fem.build_dofmap(m, 2)
    q = RNG.standard_normal(dm.G.shape[1])
    vals = np.zeros(dm.n_dofs)
    vals[dm.free] = dm.G @ q
    u = fem.FieldCoefficients(dm, vals)
    Hh = fem.compute_Hh(m, dm, u, MU1)
    assert Hh.norm() < 1e-12 * max(1.0, np.abs(q).max())


def test_elementwise_stokes_identity():
    # integration-by-parts oracle: (curl H, w)_T = (H, curl w)_T + boundary
    m = msh.unit_cube_mesh(1)
    dm = fem.build_dofmap(m, 2)
    u = fem.FieldCoefficients(dm, RNG.standard_normal(dm.n_dofs))
    Hh = fem.compute_Hh(m, dm, u, MU1)
    jh = Hh.curl()
    rule = ps.quadrature("tet", 8)
    tri = ps.quadrature("tri", 8)
    geom = m.geom()
    w_const = np.array([0.3, -1.1, 0.7])  # constant test field, curl w = 0
    for t in range(m.n_tets):
        lhs = geom.detJ[t] * np.einsum(
            "q,qc,c->", rule.weights, jh.eval_one(t, rule.points), w_const)
        rhs = 0.0
        for f in m.tet_faces[t]:
            pts = fem.face_rule_points(m, f, tri)
            n = m.face_normal(f)
            if m.face_tets[f, 0] != t:
                n = -n
            vals = Hh.eval_one(t, geom.ref_coords(t, pts))
            rhs += 2.0 * m.face_areas()[f] * np.einsum(
                "q,qc,c->", tri.weights, np.cross(n[None, :], vals), w_const)
        scale = max(abs(lhs), 1.0)
        assert abs(lhs - rhs) < 1e-10 * scale


def test_field_coefficients_length_checked():
    m = msh.unit_cube_mesh(1)
    dm = fem.build_dofmap(m, 1)
    with pytest.raises(ValueError):
        fem.FieldCoefficients(dm, np.zeros(dm.n_dofs + 1))


def test_material_field_validation():
    with pytest.raises(ValueError):
        fem.MaterialField({1: -2.0})
    mf = fem.MaterialField({1: 1.0, 2: 1000.0})
    assert mf.mu_min == 1.0 and mf.mu_max == 1000.0
    m = msh.unit_cube_mesh(1, tag_fn=lambda c: 7)
    with pytest.raises(ValueError, match="tag 7 "):
        mf.per_tet(m)
    m2 = msh.unit_cube_mesh(2, tag_fn=lambda c: 1 + int(c[0] > 0.5))
    assert (mf.per_tet(m2) == np.where(m2.subdomain_tag == 1, 1.0, 1000.0)).all()
    with pytest.raises(ValueError, match="tag 2 "):   # between the keys
        fem.MaterialField({1: 1.0, 3: 2.0}).per_tet(m2)
    # scalar permeability ignores tags entirely
    assert (fem.MaterialField(2.5).per_tet(m) == 2.5).all()
