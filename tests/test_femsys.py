import copy
import dataclasses
import re
from functools import lru_cache
from math import comb

import numpy as np
import pytest
import scipy.sparse as sp

from curlest import _poly
from curlest import adapt as adm
from curlest import bench
from curlest import femsys as fem
from curlest import mesh as msh
from curlest import polyspace as ps
from curlest.errors import UnsupportedDegree
from _helpers import (MU1, cg_solve, colamd_factor, covariant_basis,
                      dense_minnorm_solve, qr_gauge, shifted_solve,
                      cube_H, cube_j, element_dof_matrix, eval_one,
                      face_rule_points, hash_node_registry, inspace_H,
                      inspace_u, jittered_cube, node_points,
                      coo_discrete_gradient, loop_curlcurl_mass,
                      loop_gradient, loop_Hh,
                      loop_interpolate_nedelec, loop_nedelec_dofs,
                      loop_project_current, nedelec_element_matrices,
                      nedelec_field_to_poly, ref_coords,
                      relabelled_cube, solve_cube, two_tet_mesh,
                      validate_current)

RNG = np.random.default_rng(17)


# ---------------------------------------------------------------------------
# dof maps
# ---------------------------------------------------------------------------

def test_whitney_dof_count_two_tets():
    m = two_tet_mesh()
    dm = fem.build_dofmap(m, 1)
    assert dm.n_dofs == m.n_edges == 9
    assert dm.layout.boundary.all()      # every edge lies on the hull
    assert dm.n_free == 0


def test_dofmap_degree_bounds():
    m = two_tet_mesh()
    for k in (0, 5):
        with pytest.raises(UnsupportedDegree):
            fem.build_dofmap(m, k)
    assert fem.build_dofmap(m, 4).n_dofs == m.n_edges * 4 + m.n_faces * 12 + m.n_tets * 12


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_random_conforming_field_tangential_continuity(k):
    m = msh.unit_cube_mesh(1 if k >= 3 else 2)
    dm = fem.build_dofmap(m, k)
    u = fem.FieldCoefficients(dm, RNG.standard_normal(dm.n_dofs))
    poly = nedelec_field_to_poly(m, dm, u)
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
        for k in range(1, ps.MAX_DEGREE + 1):
            n = (m.n_vertices + (k - 1) * m.n_edges + comb(k - 1, 2) * m.n_faces
                 + comb(k - 1, 3) * m.n_tets)
            reg = fem.build_node_registry(m, k)
            assert (reg.degree, reg.n_nodes) == (k, n)
            assert fem.build_dofmap(m, k).registry.n_nodes == n


def _assert_relabelled(m, got, ref, ref_points):
    """``got`` is ``ref`` with its nodes renumbered: perm[i] is the id in
    ``got`` of node i of ``ref``, whose nodes sit at ``ref_points``."""
    perm = np.full(ref.n_nodes, -1)
    perm[ref.tet_nodes] = got.tet_nodes
    assert got.n_nodes == ref.n_nodes
    assert np.array_equal(np.sort(perm), np.arange(ref.n_nodes))      # a bijection
    assert np.array_equal(perm[ref.tet_nodes], got.tet_nodes)
    for key in ("kind", "entity", "boundary"):
        assert np.array_equal(getattr(got, key)[perm], getattr(ref, key)), key
    assert node_points(m, got)[perm].tobytes() == ref_points.tobytes()


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("name", REGISTRY_MESHES)
def test_registry_matches_hash_oracle(name, k):
    # the oracle numbers nodes by first occurrence, the registry by entity;
    # they must name the same nodes.  Control: two labels swapped inside one
    # tet are no relabelling
    m = _registry_mesh(name)
    got = fem.build_node_registry(m, k)
    ref, points = hash_node_registry(m, k)
    _assert_relabelled(m, got, ref, points)
    swapped = got.tet_nodes.copy()
    swapped[0, [0, 1]] = swapped[0, [1, 0]]
    with pytest.raises(AssertionError):
        _assert_relabelled(m, dataclasses.replace(got, tet_nodes=swapped), ref, points)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_registry_numbers_nodes_by_entity(k):
    # vertex v is node v; edge e's nodes are n_v + (k-1) e + j, running from
    # its lower-gid end; at k = 3 face f's node sits at its centroid, and at
    # k = 4 tet t's node at its centroid
    for m in (relabelled_cube(2), _registry_mesh("bisect1")):
        reg = fem.build_node_registry(m, k)
        points = node_points(m, reg)
        nodes = ps.lagrange_nodes(k)
        vert = nodes.kind == ps.NODE_VERTEX
        assert np.array_equal(reg.tet_nodes[:, vert], m.tets[:, nodes.entity[vert]])
        assert np.array_equal(points[:m.n_vertices], m.vertices)
        lo, hi = np.sort(m.edges, axis=1).T
        j = np.arange(1, k)
        want = ((k - j) * m.vertices[lo][..., None] + j * m.vertices[hi][..., None]) / k
        ids = m.n_vertices + (k - 1) * np.arange(m.n_edges)[:, None] + j - 1
        assert np.allclose(points[ids], want.transpose(0, 2, 1), rtol=0, atol=1e-15)
        assert (reg.kind[ids] == ps.NODE_EDGE).all()
        assert np.array_equal(reg.entity[ids], np.broadcast_to(
            np.arange(m.n_edges)[:, None], ids.shape))
        faces = m.n_vertices + (k - 1) * m.n_edges
        if k == 3:
            centroid = m.vertices[m.faces].mean(axis=1)
            assert np.allclose(points[faces:faces + m.n_faces], centroid,
                               rtol=0, atol=1e-15)
        if k == 4:
            cells = faces + 3 * m.n_faces
            assert np.allclose(points[cells:], m.vertices[m.tets].mean(axis=1),
                               rtol=0, atol=1e-15)


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
    assert not fem.assemble_rhs(m, dm, j).values.any()


def test_rhs_constant_current_orthogonal_to_gradients():
    m = msh.unit_cube_mesh(2)
    dm = fem.build_dofmap(m, 1)
    j = fem.CurrentDensity(func=lambda p: np.tile([1.0, 0, 0], (len(p), 1)))
    b = fem.assemble_rhs(m, dm, j).values
    resid = dm.G.T @ b[dm.free]
    assert np.abs(resid).max() < 1e-12 * max(np.abs(b).max(), 1.0)


def _slow_rhs(mesh, dm, j_at, exactness=10):
    """Independent assembler: per-element loop straight from definitions;
    ``j_at(t, pts)`` is the current at physical points of tet t."""
    rule = ps.quadrature("tet", exactness)
    geom = mesh.geom()
    b = np.zeros(dm.n_dofs)
    for t in range(mesh.n_tets):
        phys_eval = covariant_basis(mesh, dm.degree, t)
        V = element_dof_matrix(mesh, dm.degree, t)
        pts = geom.v0[t] + rule.points @ geom.J[t].T
        jv = j_at(t, pts)
        vals = phys_eval(pts)
        b_gen = geom.absdet[t] * np.einsum("q,qci,qc->i", rule.weights, vals, jv)
        b[dm.cell_dofs[t]] += np.linalg.solve(V.T, b_gen)
    return b


@pytest.mark.parametrize(
    "k, make_mesh", [(k, msh.unit_cube_mesh) for k in (1, 2, 3)]
    + [(k, jittered_cube) for k in (1, 2, 3)],
    ids=["1", "2", "3", "1-jittered", "2-jittered", "3-jittered"])
def test_rhs_against_slow_assembler(k, make_mesh):
    m = make_mesh(2)
    dm = fem.build_dofmap(m, k)
    # cube_j is quadratic, so the library's 2k+4 rule integrates it exactly
    b_fast = fem.assemble_rhs(m, dm, fem.CurrentDensity(func=cube_j)).values
    b_slow = _slow_rhs(m, dm, lambda t, p: cube_j(p))
    assert np.abs(b_fast - b_slow).max() < 1e-10 * np.abs(b_slow).max()
    # a projected current is a degree-k field, which the 2k+2 rule
    # integrates against the basis exactly, and so does the library's rule
    jp = fem.project_current(m, cube_j, k)
    b_fast = fem.assemble_rhs(m, dm, jp).values
    b_slow = _slow_rhs(m, dm, lambda t, p: jp.field.eval_points([t], p[None])[0],
                       exactness=2 * k + 2)
    assert np.abs(b_fast - b_slow).max() < 1e-10 * np.abs(b_slow).max()


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
    assert np.array_equal(dm.layout.boundary, mask)
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


@pytest.mark.parametrize("make_mesh", [msh.l_brick_mesh, jittered_cube])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_owner_row_gradient_matches_averaged_build(make_mesh, k):
    # G from one owner tet per dof against G summed over every tet that
    # holds the dof and averaged.  In exact arithmetic every tet gives the
    # same row, and its entries at nodes off the closure of the dof's entity
    # are zero.  So a computed local entry is its exact value plus a
    # rounding error, and rho, the largest computed entry that is zero in
    # exact arithmetic, measures that error on this mesh.  The owner row is
    # one tet's value and the averaged entry a mean of such values, so they
    # differ by at most 2 rho; an entry the owner row drops (a node outside
    # the owner tet) is an average of exact zeros, at most rho.
    m = make_mesh(2)
    dm = fem.build_dofmap(m, k)
    G = fem.discrete_gradient(dm)
    want, locG = coo_discrete_gradient(nedelec_element_matrices(m, k), dm.cell_dofs,
                                       dm.layout.boundary, dm.registry)
    size = np.abs(locG)
    # exact zeros and exact nonzeros are many orders apart, so the split
    # between them is unambiguous
    assert not ((size > 1e-11) & (size < 1e-7)).any()
    rho = size[size <= 1e-11].max()
    assert G.shape == want.shape
    assert abs(G - want).max() <= 2 * rho
    # the owner rows hold no entry that the averaged build does not
    assert set(zip(*G.nonzero())) <= set(zip(*want.nonzero()))
    assert G.nnz < want.nnz


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


PROBLEMS = bench.builtin_problems()


def _load(name, n, k):
    spec = PROBLEMS[name]
    m = spec.make_mesh(n)
    dm = fem.build_dofmap(m, k)
    return m, dm, fem.assemble_rhs(m, dm, spec.current())


@pytest.mark.parametrize("name, k", [("cube_poly", 1), ("cube_poly", 2),
                                     ("cube_poly", 3), ("lbrick_singular", 2)])
def test_scalar_load_is_the_gradient_load(name, k):
    # assembled without G, the scalar load is G^T b to the rounding of
    # either side; on the consistent cube data both sides are roundoff
    _, dm, load = _load(name, 2, k)
    b = load.values[dm.free]
    scale = (abs(dm.G).T @ np.abs(b)).max()
    assert load.scalar.shape == (dm.G.shape[1],)
    assert np.abs(load.scalar - dm.G.T @ b).max() <= 1e-13 * scale


def _solve_with_row(name, m, k):
    spec = PROBLEMS[name]
    row = {}
    dm, _, Hh, _ = adm.solve_level(m, spec.mu, spec.current(),
                                   adm.RunConfig(degree=k), row)
    return dm, Hh, row


@pytest.mark.parametrize("name, k, levels", [
    ("cube_poly", 1, 3), ("cube_poly", 3, 2), ("cube_jump_mu_100", 2, 2),
    ("lbrick_singular", 1, 3), ("lbrick_singular", 2, 2)])
def test_correction_runs_only_where_the_load_needs_it(name, k, levels):
    # consistent data are left as they are on every level; the r^(-1/3)
    # current of the L-brick is integrated inexactly, and its levels with
    # free scalar nodes are corrected
    m = PROBLEMS[name].make_mesh(1)
    corrected = []
    for _ in range(levels):
        dm, _, row = _solve_with_row(name, m, k)
        assert row["grad_corrected"] == (row["grad_load_ratio"] > 1.0)
        if (~dm.registry.boundary).any():
            corrected.append(row["grad_corrected"])
        m = msh.refine(m, range(0, m.n_tets, 3))
    assert corrected
    assert all(corrected) if name == "lbrick_singular" else not any(corrected)


def test_consistent_level_builds_no_gradient(monkeypatch):
    calls = []
    build = fem.discrete_gradient

    def counted(*args):
        calls.append(1)
        return build(*args)
    monkeypatch.setattr(fem, "discrete_gradient", counted)
    _solve_with_row("cube_poly", msh.unit_cube_mesh(2), 2)
    assert calls == []
    _solve_with_row("lbrick_singular", PROBLEMS["lbrick_singular"].make_mesh(2), 2)
    assert calls == [1]


@pytest.mark.parametrize("name, k", [("cube_poly", 3), ("cube_jump_mu_100", 2)])
def test_skipped_correction_matches_forced_correction(name, k):
    # the two loads differ by roundoff, and each solve is accepted at
    # relative residual RESIDUAL_TOL, so the fields are compared at that
    # tolerance (they differ by 5e-14 at k=3 and 1e-15 on the jump problem)
    spec = PROBLEMS[name]
    m, dm, load = _load(name, 2, k)
    assert load.consistent
    A = fem.assemble_curlcurl(m, dm, spec.mu)
    fields = [fem.compute_Hh(m, dm, fem.solve_magnetostatic(A, b, dm), spec.mu)
              for b in (fem.gradient_correction(dm, load),
                        fem.gradient_correction(dm, load.values.copy()))]
    assert np.array_equal(fields[0].coeffs, _solve_with_row(name, m, k)[1].coeffs)
    diff = fields[0].plus(fields[1].scale(-1.0)).norm()
    assert diff <= fem.RESIDUAL_TOL * fields[1].norm()


def test_changed_load_is_still_corrected():
    _, dm, load = _load("cube_poly", 2, 2)
    assert load.consistent
    with pytest.raises(ValueError):
        load.values[dm.free] += 1.0
    b = load.values.copy()
    b[dm.free] += dm.G @ RNG.standard_normal(dm.G.shape[1])
    b1 = fem.gradient_correction(dm, b)
    assert np.abs(dm.G.T @ b1[dm.free]).max() <= 1e-12 * np.abs(b).max()
    assert np.abs(b1 - load.values).max() <= 1e-10 * np.abs(b).max()


def test_load_without_free_nodes_is_consistent():
    _, dm, load = _load("lbrick_singular", 1, 1)
    assert len(load.scalar) == 0
    assert load.gradient_ratio == 0.0 and load.consistent


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
    u0 = fem.solve_magnetostatic(A, np.zeros(dm0.n_dofs), dm0)
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
    # a load vector with a gradient part has no solution on the singular
    # system: the gauged block still solves, and the residual check on all
    # free rows fails on the one gauge row and names its dof and edge.
    # Control: the same load after the gradient correction solves
    m = msh.unit_cube_mesh(2)
    dm = fem.build_dofmap(m, 1)
    assert len(dm.gauge) == 1
    A = fem.assemble_curlcurl(m, dm, MU1)
    b = np.zeros(dm.n_dofs)
    b[dm.free] = RNG.standard_normal(dm.n_free)
    i = dm.gauge[0]
    named = f"free dof {i} (dof {dm.free[i]}, edge {dm.free[i]})"
    with pytest.raises(fem.NoConvergence, match=re.escape(named)):
        fem.solve_magnetostatic(A, b, dm)
    row = {}
    fem.solve_magnetostatic(A, fem.gradient_correction(dm, b), dm, row)
    assert row["solve_resid_rel"] <= fem.RESIDUAL_TOL


def test_gauged_assembled_system_solves_to_tolerance():
    # the gauged block of the assembled curl-curl matrix is positive
    # definite, so the corrected load solves to the tolerance on every free
    # row, with the gauge dofs at zero.  Control: a gradient added to the
    # load makes the same system fail the residual check
    m = msh.unit_cube_mesh(3)
    dm = fem.build_dofmap(m, 1)
    A = fem.assemble_curlcurl(m, dm, MU1)
    b = fem.assemble_rhs(m, dm, fem.CurrentDensity(func=cube_j))
    b = fem.gradient_correction(dm, b)
    row = {}
    u = fem.solve_magnetostatic(A, b, dm, row)
    bf = b[dm.free]
    rel = np.linalg.norm(bf - A @ u.values[dm.free]) / np.linalg.norm(bf)
    assert rel == row["solve_resid_rel"] <= fem.RESIDUAL_TOL
    assert row["gauge_dofs"] == len(dm.gauge) == dm.G.shape[1]
    assert not u.values[dm.free[dm.gauge]].any()
    bad = b.copy()
    bad[dm.free] += dm.G @ RNG.standard_normal(dm.G.shape[1])
    with pytest.raises(fem.NoConvergence, match="was the load gradient-corrected"):
        fem.solve_magnetostatic(A, bad, dm)


def test_gauge_of_the_wrong_size_raises_before_factoring():
    # negative control of the structural check: a cached gauge that lacks
    # one dof leaves a free Lagrange node unfixed, and the solve names both
    # counts.  Control: the dof map's own gauge solves
    m = msh.unit_cube_mesh(2)
    dm = fem.build_dofmap(m, 2)
    A = fem.assemble_curlcurl(m, dm, MU1)
    b = fem.gradient_correction(dm, fem.assemble_rhs(m, dm, fem.CurrentDensity(func=cube_j)))
    n_nodes = int((~dm.registry.boundary).sum())
    assert len(dm.gauge) == n_nodes
    short = copy.copy(dm)
    short.gauge = dm.gauge[:-1]
    named = f"the gauge fixes {n_nodes - 1} dofs for {n_nodes} free Lagrange nodes"
    with pytest.raises(fem.NoConvergence, match=re.escape(named)):
        fem.solve_magnetostatic(A, b, short)
    row = {}
    fem.solve_magnetostatic(A, b, dm, row)
    assert row["solve_resid_rel"] <= fem.RESIDUAL_TOL


def test_structurally_singular_gauged_block_raises_no_convergence():
    # an empty row and column at a dof outside the gauge: the zero pivot is
    # in the structure of the gauged block, so the check does not rest on
    # how assembly rounds.  Control: the same deletion at the gauge dof
    # leaves the block whole, and a load that is zero there solves
    m = msh.unit_cube_mesh(1)
    dm = fem.build_dofmap(m, 2)
    assert len(dm.gauge) == 1
    for dead in (dm.ungauged[len(dm.ungauged) // 2], dm.gauge[0]):
        live = np.delete(np.arange(dm.n_free), dead)
        A = sp.csr_matrix((np.ones(len(live)), (live, live)), shape=(dm.n_free,) * 2)
        b = np.zeros(dm.n_dofs)
        b[dm.free[live]] = 1.0
        if dead in dm.gauge:
            u = fem.solve_magnetostatic(A, b, dm)
            assert np.array_equal(u.values, b)
        else:
            with pytest.raises(fem.NoConvergence, match="exactly singular"):
                fem.solve_magnetostatic(A, b, dm)


def test_non_finite_gauged_solve_raises():
    # a tiny diagonal pivot that partial pivoting would step over, on two
    # dofs outside the gauge: the symmetric-mode factor divides by it and
    # the solve overflows.  Control: COLAMD with partial pivoting solves
    # the same system
    m = msh.unit_cube_mesh(1)
    dm = fem.build_dofmap(m, 2)
    n = dm.n_free
    a, c = dm.ungauged[:2]
    A = sp.identity(n, format="lil")
    A[a, a] = A[c, c] = 1e-310
    A[a, c] = A[c, a] = 1.0
    A = A.tocsr()
    b = np.zeros(dm.n_dofs)
    b[dm.free] = 1.0
    with pytest.raises(fem.NoConvergence, match="non-finite"):
        fem.solve_magnetostatic(A, b, dm)
    u = colamd_factor(A).solve(b[dm.free])
    assert np.abs(A @ u - b[dm.free]).max() < 1e-12


@pytest.mark.parametrize("k, n", [(1, 3), (2, 2), (3, 2)])
def test_symmetric_factor_matches_colamd_oracle(k, n):
    # the symmetric-mode factor of the gauged block against a COLAMD factor
    # with partial pivoting of the same block.  (The shifted solve on a
    # COLAMD factor is no oracle at this tolerance: it stops at relative
    # residual 1e-10, which leaves its field 9e-11 from the gauged one at
    # k = 1, n = 3; see the dense-reference test for which side is off.)
    m = relabelled_cube(n, seed=k)
    dm = fem.build_dofmap(m, k)
    A = fem.assemble_curlcurl(m, dm, MU1)
    G = dm.G
    raw = fem.assemble_rhs(m, dm, fem.CurrentDensity(func=cube_j)).values.copy()
    raw[dm.free] += G @ np.random.default_rng(k).standard_normal(G.shape[1])
    b = fem.gradient_correction(dm, raw)
    scale = abs(G).sum(axis=0).max() * np.abs(raw[dm.free]).max()
    assert np.abs(G.T @ b[dm.free]).max() <= 1e-13 * scale
    H = fem.compute_Hh(m, dm, fem.solve_magnetostatic(A, b, dm), MU1)
    C = dm.ungauged
    ref = np.zeros(dm.n_dofs)
    ref[dm.free[C]] = colamd_factor(A[C][:, C]).solve(b[dm.free[C]])
    Href = fem.compute_Hh(m, dm, fem.FieldCoefficients(dm, ref), MU1)
    assert H.plus(Href.scale(-1.0)).norm() <= 1e-11 * Href.norm()


def test_symmetric_factor_halves_colamd_fill():
    # nnz(L) + nnz(U) repeats exactly on a fixed mesh: on the gauged block
    # symmetric mode gives 228,712 and COLAMD 743,666, and the symmetric
    # factor of the shifted A + eps M had 482,868; a dense factor coming
    # back fails here
    m = relabelled_cube(3)
    dm = fem.build_dofmap(m, 3)
    A = fem.assemble_curlcurl(m, dm, MU1)
    C = dm.ungauged
    sym, ref = fem._factor_spd(A[C][:, C]), colamd_factor(A[C][:, C])
    assert 2 * (sym.L.nnz + sym.U.nnz) <= ref.L.nnz + ref.U.nnz
    eps = 1e-10 * (A.diagonal().sum() / A.shape[0])
    shifted = fem._factor_spd(A + eps * fem.assemble_mass(m, dm))
    assert 2 * (sym.L.nnz + sym.U.nnz) <= shifted.L.nnz + shifted.U.nnz


# ---------------------------------------------------------------------------
# the tree-cotree gauge
# ---------------------------------------------------------------------------

def _boundary_chords(m):
    """Interior edges whose two vertices lie on the boundary."""
    ends = m.boundary_vertex[m.edges].all(axis=1)
    return np.nonzero(ends & ~m.boundary_edge)[0]


def _refined_jump_mesh():
    m = PROBLEMS["cube_jump_mu_100"].make_mesh(2)
    return msh.refine(m, range(0, m.n_tets, 3))


GAUGE_MESHES = {
    "relabelled_cube_2": lambda: relabelled_cube(2, seed=3),
    "relabelled_cube_3": lambda: relabelled_cube(3, seed=1),
    "l_brick": lambda: msh.l_brick_mesh(2),
    "refined_jump": _refined_jump_mesh,
    "chord_cube_1": lambda: msh.unit_cube_mesh(1),
    "chord_cube_2": lambda: msh.unit_cube_mesh(2),
    "jittered_cube_3": lambda: jittered_cube(3),
}


def _rank(G, rows):
    """Numerical rank of a row selection of G: singular values above 1e-12
    times G's largest entry count."""
    if rows.size == 0:
        return 0
    return np.linalg.matrix_rank(rows, tol=1e-12 * np.abs(G.data).max())


@lru_cache(maxsize=None)
def _gauge_case(name, k):
    m = GAUGE_MESHES[name]()
    dm = fem.build_dofmap(m, k)
    return m, dm, dm.G[dm.gauge].toarray()


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("name", list(GAUGE_MESHES))
def test_gauge_block_is_square_and_nonsingular(name, k):
    m, dm, GR = _gauge_case(name, k)
    if name.startswith("chord"):
        assert len(_boundary_chords(m))
    assert GR.shape == (dm.G.shape[1],) * 2
    assert len(np.unique(dm.gauge)) == len(dm.gauge)
    assert np.array_equal(np.sort(np.concatenate([dm.gauge, dm.ungauged])),
                          np.arange(dm.n_free))
    assert _rank(dm.G, GR) == len(GR)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("name", list(GAUGE_MESHES))
def test_gauge_conditioning_is_near_the_qr_selection(name, k):
    # the dense column-pivoted QR of G^T picks its rows greedily for
    # conditioning; the entity-by-entity selection is within 10x of it.
    # The one-tet-wide cube has no free node at k = 1
    _, dm, GR = _gauge_case(name, k)
    if not GR.size:
        assert dm.G.shape[1] == 0 and (name, k) == ("chord_cube_1", 1)
        return
    ref = np.linalg.cond(dm.G[qr_gauge(dm.G)].toarray())
    assert np.linalg.cond(GR) <= 10 * ref


def _gauge_offsets(dm):
    """The kind, entity and offset in its entity of every gauge dof."""
    dofs = dm.free[dm.gauge]
    kind, entity = dm.layout.locate(dofs)
    return kind, entity, dofs - dm.layout.first[dm.layout.base[kind] + entity]


@pytest.mark.parametrize("k", [1, 2, 3])
def test_gauge_picks_below_degree_four_are_the_fixed_offsets(k):
    # besides the tree edges' lowest moments, moments 1..k-1 of every free
    # edge and, at k = 3, moment 2 of every free face: the one rule picks
    # the offsets that the gauge fixed by hand before, so the k <= 3
    # solves keep their gauge.  No cell has a Lagrange node
    m, dm, _ = _gauge_case("l_brick", k)
    kind, entity, off = _gauge_offsets(dm)
    edge = (kind == ps.NODE_EDGE) & (off > 0)
    assert (np.bincount(off[edge], minlength=k)[1:] == (~m.boundary_edge).sum()).all()
    face = kind == ps.NODE_FACE
    assert np.array_equal(np.sort(entity[face]),
                          np.nonzero(~m.boundary_face)[0] if k == 3 else [])
    assert (off[face] == 2).all()
    assert not (kind == ps.NODE_CELL).any()


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_gauge_maps_gradients_only_where_cells_have_nodes(monkeypatch, k):
    # the gauge visits only the kinds with Lagrange nodes of their own, and
    # below k = 4 no cell has one: no gradient block is mapped over the tets
    dm = fem.build_dofmap(GAUGE_MESHES["l_brick"](), k)
    calls, mapped = [], fem._mapped_gradients
    monkeypatch.setattr(fem, "_mapped_gradients",
                        lambda *args: calls.append(args) or mapped(*args))
    assert len(dm.gauge) == (~dm.registry.boundary).sum()
    assert len(calls) == (k == 4)


def test_degree_four_face_pick_is_well_conditioned_on_every_reference_face():
    # every free face fixes moments 2, 6 and 11, one pick that serves a face
    # whichever local face of its owner tet it is: the picked rows are well
    # conditioned on the reference block of each of the four.  Control: the
    # first three moments are singular to roundoff
    m, dm, _ = _gauge_case("jittered_cube_3", 4)
    kind, entity, off = _gauge_offsets(dm)
    face = kind == ps.NODE_FACE
    assert np.array_equal(np.unique(entity[face]), np.nonzero(~m.boundary_face)[0])
    assert np.array_equal(off[face].reshape(-1, 3), np.tile([2, 6, 11], (face.sum() // 3, 1)))
    nodes, C = ps.lagrange_nodes(4), fem._ref_tables(4).C
    width = fem._nedelec_width(4)[ps.NODE_FACE]
    first = fem._local_columns(fem._nedelec_width(4), ps.NODE_FACE).start
    for f in range(4):
        block = C[first + f * width:first + (f + 1) * width,
                  (nodes.kind == ps.NODE_FACE) & (nodes.entity == f)]
        assert np.linalg.cond(block[[2, 6, 11]]) <= 10
        assert np.linalg.cond(block[:3]) >= 1e10


@pytest.mark.parametrize("name", ["chord_cube_1", "jittered_cube_3"])
def test_degree_four_cell_pick_is_the_largest_entry_of_its_mapped_block(name):
    # kron(I, vol6 J^-T) mixes the components of the cell moments, so each
    # tet picks its own: one moment, at the largest entry of its mapped
    # block, which is nonzero.  Control: on the Kuhn cube the moment that
    # tet 0 picks sees no cell node gradient on another tet
    m, dm, _ = _gauge_case(name, 4)
    cols = fem._local_columns(dm.layout.width, ps.NODE_CELL)
    cell = ps.lagrange_nodes(4).kind == ps.NODE_CELL
    block = np.abs(fem._mapped_gradients(dm, cell)[:, 0, cols])
    picked = np.isin(dm.layout.ids(ps.NODE_CELL, np.arange(m.n_tets)),
                     dm.free[dm.gauge])
    assert (picked.sum(axis=1) == 1).all()
    assert (block[picked] >= (1.0 - 1e-8) * block.max(axis=1)).all()
    assert block[picked].min() >= 1e-8 * block.max()
    if name == "chord_cube_1":
        fixed = np.argmax(picked[0])
        assert block[:, fixed].min() <= 1e-12 * block.max()


def test_gauge_leaves_out_edges_between_boundary_vertices():
    # at k = 1 the moment of such an edge sees no interior vertex hat, so
    # its row of G is zero and a selection holding it is singular.  The
    # spanning forest merges the boundary vertices into one root, which
    # makes these edges loops that no tree holds
    m, dm, _ = _gauge_case("chord_cube_2", 1)
    chords = np.searchsorted(dm.free, _boundary_chords(m))
    assert not np.isin(chords, dm.gauge).any()
    assert abs(dm.G[chords]).max() <= 1e-14
    R = dm.gauge.copy()
    R[0] = chords[0]
    assert _rank(dm.G, dm.G[R].toarray()) == len(R) - 1


@pytest.mark.parametrize("n", [2, 3])
def test_gauged_eta_is_closer_to_the_dense_reference(n):
    # the shifted solve (A + eps M, refined against A) stops at relative
    # residual 1e-10, and on the k = 1 cube that leaves eta_h 3.5e-11
    # (n = 2) and 6.4e-11 (n = 3) from a dense minimum-norm reference; the
    # gauged direct solve is at roundoff, 4e-16 and 2e-15.  (At k = 3 both
    # sit on the roundoff floor of step 1, near 1e-13 on these meshes.)
    spec = PROBLEMS["cube_poly"]
    m = relabelled_cube(n, seed=1)
    cfg = adm.RunConfig(degree=1)
    dm = fem.build_dofmap(m, 1)
    A, b = _corrected_system(m, dm, spec.current())
    full = np.zeros(dm.n_dofs)
    full[dm.free] = b
    sols = {"gauged": fem.solve_magnetostatic(A, full, dm).values[dm.free],
            "shifted": shifted_solve(A, b, fem.assemble_mass(m, dm)),
            "reference": dense_minnorm_solve(A, b)}
    eta = {}
    for name, u in sols.items():
        full[dm.free] = u
        Hh = fem.compute_Hh(m, dm, fem.FieldCoefficients(dm, full), spec.mu)
        eta[name] = adm.estimate_level(dm, spec.mu, spec.current(), Hh,
                                       cfg).result.eta_h
    gap = {name: abs(eta[name] / eta["reference"] - 1.0)
           for name in ("gauged", "shifted")}
    assert gap["gauged"] <= 1e-14
    assert 100 * gap["gauged"] < gap["shifted"]


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
        errs.append(fem.l2_error_against(m, MU1, Hh, cube_H))
    assert errs[0] > errs[1] > errs[2]


def test_interpolation_reproduces_in_space_field():
    # the quadratic potential lies in the degree-2 space; dof interpolation
    # reproduces it and its curl exactly
    m = msh.unit_cube_mesh(2)
    dm = fem.build_dofmap(m, 2)
    u = fem.interpolate_nedelec(m, dm, inspace_u)
    poly = nedelec_field_to_poly(m, dm, u)
    err = fem.l2_error_against(m, MU1, poly, inspace_u)
    assert err < 1e-12
    Hh = fem.compute_Hh(m, dm, u, MU1)
    assert fem.l2_error_against(m, MU1, Hh, inspace_H) < 1e-11
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
    err = fem.l2_error_against(m, MU1, jp.field, cube_j)
    assert err < 1e-10
    v = validate_current(jp, m)
    assert v["max_div"] < 1e-9 * v["scale"]
    assert v["max_flux_jump"] < 1e-10 * v["scale"]


def test_projection_flux_continuity_low_degree():
    m = msh.unit_cube_mesh(2)
    jp = fem.project_current(m, cube_j, 1)
    v = validate_current(jp, m)
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
        lhs = geom.absdet[t] * np.einsum(
            "q,qc,c->", rule.weights, eval_one(jh, t, rule.points), w_const)
        rhs = 0.0
        for f in m.tet_faces[t]:
            pts = face_rule_points(m, f, tri)
            n = m.face_normals()[f]
            if m.face_tets[f, 0] != t:
                n = -n
            vals = eval_one(Hh, t, ref_coords(m, t, pts))
            rhs += 2.0 * m.face_areas()[f] * np.einsum(
                "q,qc,c->", tri.weights, np.cross(n[None, :], vals), w_const)
        scale = max(abs(lhs), 1.0)
        assert abs(lhs - rhs) < 1e-10 * scale


def test_field_coefficients_length_checked():
    m = msh.unit_cube_mesh(1)
    dm = fem.build_dofmap(m, 1)
    with pytest.raises(ValueError):
        fem.FieldCoefficients(dm, np.zeros(dm.n_dofs + 1))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_material_field_rejects_non_finite_values(bad):
    with pytest.raises(ValueError, match="tag 2 has"):
        fem.MaterialField({1: 1.0, 2: bad})
    with pytest.raises(ValueError, match="tag 0 has"):
        fem.MaterialField(bad)


def test_quadrature_past_the_cap_raises():
    # a degree-7 field would need a degree-14 rule for its norm: refused, not
    # integrated inexactly
    m = msh.unit_cube_mesh(1)
    f = fem.BrokenPolyField(m, 7, np.zeros((m.n_tets, 3, _poly.n_monomials(3, 7))))
    with pytest.raises(UnsupportedDegree):
        f.mu_norms()


def test_material_field_validation():
    with pytest.raises(ValueError):
        fem.MaterialField({1: -2.0})
    with pytest.raises(ValueError, match="empty"):
        fem.MaterialField({})
    mf = fem.MaterialField({1: 1.0, 2: 1000.0})
    assert mf.values == {1: 1.0, 2: 1000.0}
    m = msh.unit_cube_mesh(1, tag_fn=lambda c: 7)
    with pytest.raises(ValueError, match="tag 7 "):
        mf.per_tet(m)
    m2 = msh.unit_cube_mesh(2, tag_fn=lambda c: 1 + int(c[0] > 0.5))
    assert (mf.per_tet(m2) == np.where(m2.subdomain_tag == 1, 1.0, 1000.0)).all()
    with pytest.raises(ValueError, match="tag 2 "):   # between the keys
        fem.MaterialField({1: 1.0, 3: 2.0}).per_tet(m2)
    # a map with one key is a map: it names one tag, not the whole mesh
    with pytest.raises(ValueError, match="tag 2 "):
        fem.MaterialField({1: 5.0}).per_tet(m2)
    assert (fem.MaterialField({7: 5.0}).per_tet(m) == 5.0).all()
    # scalar permeability ignores tags entirely
    assert (fem.MaterialField(2.5).per_tet(m) == 2.5).all()
    assert (fem.MaterialField(2.5).per_tet(m2) == 2.5).all()


def test_current_without_callback_or_field_raises():
    m = msh.unit_cube_mesh(1)
    with pytest.raises(ValueError, match="neither a callback nor a field"):
        fem.CurrentDensity().eval_elements(m, [0], ps.quadrature("tet", 2).points)
