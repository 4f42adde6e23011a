"""The matrix-product kernels against the einsum forms they replaced.

Each kernel reorders its sums, so it is pinned to its einsum oracle to 1e-13
relative to the oracle's largest entry, at k = 1..3 on a relabelled, jittered
two-material mesh; the per-entity norm helper, to 1e-14.  The Vandermonde keeps its powers and its product order,
so it is pinned bitwise.

The free x free sparse matrices are summed into the dof map's CSR pattern;
they are pinned to the COO -> CSR -> free-slice oracle, whose pattern they
reproduce exactly, and their summation holds one stack of element blocks
at most.  The element maps by the reference tables, which are in the dof
basis of the reference tet, and the per-tet scalings are pinned to the
direct inverse of the element dof matrices.  The face
kernels' exact 2k' rule is checked against the loop oracles, which integrate
at 2k' + 4.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from curlest import _poly
from curlest import equilibrate as eqm
from curlest import femsys as fem
from curlest import mesh as msh
from curlest import polyspace as ps

from _helpers import (coo_assemble_free, cube_j, einsum_assemble_curlcurl,
                      einsum_assemble_mass, einsum_assemble_rhs,
                      einsum_compute_Hh, einsum_curl, einsum_div, einsum_eval,
                      element_inverses, element_maps,
                      einsum_grad, einsum_map_points, einsum_partials,
                      einsum_step2, einsum_vandermonde, face_rule_points,
                      frame_eval, jittered_cube, loop_face_multipliers,
                      loop_jump_norms, space_eval)

TOL = 1e-13
MU = fem.MaterialField({0: 1.0, 1: 100.0})


def assert_pinned(got, want, tol=TOL):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= tol * np.abs(want).max()


def assert_pinned14(got, want):
    assert_pinned(got, want, 1e-14)


@pytest.fixture(scope="module")
def mesh():
    m = jittered_cube(2, tag_fn=lambda c: int(c[0] > 0.5))
    assert set(np.unique(m.subdomain_tag)) == {0, 1}
    return m


def random_field(rng, mesh, degree, ncomp=3):
    nm = _poly.n_monomials(3, degree)
    return fem.BrokenPolyField(mesh, degree, rng.standard_normal((mesh.n_tets, ncomp, nm)))


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("degree", range(7))
@pytest.mark.parametrize("npts", [1, 7, 125, 5000])
def test_vandermonde_is_bitwise_the_product_form(dim, degree, npts):
    pts = np.random.default_rng(npts).uniform(-1.5, 1.5, (npts, dim))
    assert np.array_equal(_poly.vandermonde(dim, degree, pts),
                          einsum_vandermonde(dim, degree, pts))


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("degree", range(5))
def test_vandermonde_gathers_the_per_monomial_powers_bitwise(dim, degree):
    # the powers of each axis are taken once and gathered by exponent: the
    # same pow calls as raising every point to every monomial's exponent,
    # multiplied in the same order, and laid out C-ordered as before
    pts = np.random.default_rng(degree).uniform(-1.5, 1.5, (2000, dim))
    exps = _poly.exponents(dim, degree)
    want = pts[:, 0:1] ** exps[:, 0]
    for a in range(1, dim):
        want *= pts[:, a:a + 1] ** exps[:, a]
    got = _poly.vandermonde(dim, degree, pts)
    assert np.array_equal(got, want) and got.flags.c_contiguous


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_face_traces_match_mapped_points(mesh, k):
    # the local-face tables against mapping every face point through J^-1.
    # Both evaluate the same polynomial of degree k at reference points
    # within the reference tet; the mapped point carries the rounding of
    # the physical point, of x - v0 and of the 3-term product with J^-1,
    # whose own error is at most cond(J) u relative, so its coordinates
    # are off by delta <= (16 + 2 cond(J)) u X |J^-1|_inf with X the largest
    # vertex coordinate.  A monomial of degree <= k moves by at most k delta
    # there, and each path rounds its monomials and its n_mono-term sum by
    # (n_mono + 2k) u, all relative to the sum of |coefficients|.
    rng = np.random.default_rng(k)
    rule = ps.quadrature("tri", 2 * k)
    field = random_field(rng, mesh, k)
    faces = mesh.internal_faces()
    geom = mesh.geom()
    u = np.finfo(float).eps / 2
    X = np.abs(mesh.vertices).max()
    nm = _poly.n_monomials(3, k)
    for side in (0, 1):
        tets = mesh.face_tets[faces, side]
        want = field.eval_points(tets, face_rule_points(mesh, faces, rule))
        got = fem.face_traces(mesh, field, faces, side)
        Jinv_inf = np.abs(geom.Jinv[tets]).sum(axis=2).max(axis=1)
        delta = (16 + 2 * np.linalg.cond(geom.J[tets], np.inf)) * u * X * Jinv_inf
        size = np.abs(field.coeffs[tets]).sum(axis=2)                 # (F, comp)
        bound = (k * delta[:, None] + 2 * (nm + 2 * k) * u) * size
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <= bound[:, None, :])
        # every row of the table is read on each side
        assert set(mesh.face_local[faces, side]) == {0, 1, 2, 3}


@pytest.mark.parametrize("kp", [1, 2, 3, 4])
def test_step1_reference_tables(kp):
    # the gradients G of the non-constant monomials and the complement Z on
    # which estimator step 1 solves its curl problem
    tab = fem._ref_tables(kp)
    nR, nB = tab.G.shape
    eps = np.finfo(float).eps
    assert nB == _poly.n_monomials(3, kp) - 1 and nR == ps.dim_nedelec_tet(kp)
    sv = np.linalg.svd(tab.G, compute_uv=False)
    assert sv[-1] > 1e-8 * sv[0]                       # full column rank
    # the curls of the gradients vanish up to roundoff: the tabulated curls
    # and the dofs carry errors of a few eps relative to their largest
    # entries, and the products sum nR terms
    curls = tab.curls.reshape(-1, nR)
    assert (np.abs(curls @ tab.G).max()
            <= nR * eps * np.abs(curls).max() * np.abs(tab.G).max())
    # Z: orthonormal, orthogonal to the gradients on the reference tet
    # (B Z = 0 in the identity metric), and with G a basis of the space
    nZ = tab.Z.shape[1]
    assert nZ == nR - nB
    assert np.abs(tab.Z.T @ tab.Z - np.eye(nZ)).max() <= nR * eps
    Bref = tab.TVG.reshape(9, nB, nR)[[0, 4, 8]].sum(axis=0)
    assert np.abs(Bref @ tab.Z).max() <= nR * eps * np.abs(Bref).max()
    sv = np.linalg.svd(np.hstack([tab.Z, tab.G / sv[0]]), compute_uv=False)
    assert sv[-1] > 1e-8 * sv[0]


@pytest.mark.parametrize("kp", [1, 2, 3, 4])
def test_reference_pair_tables_match_einsum(kp):
    # CC, VV and TVG as one product of weighted values against the
    # 3-operand einsums: both sum the same q products of tabulated values
    # of the dof basis, in another order, so they agree to q u of the
    # summed magnitudes
    tab = fem._ref_tables(kp)
    w = tab.rule.weights
    v = _poly.vandermonde(3, kp, tab.rule.points)
    vals = np.einsum("qm,icm->qci", v, tab.coeffs)
    grads = np.einsum("qm,bmn->qbn", v, _poly.diff_stack(3, kp))[:, :, 1:]
    u = np.finfo(float).eps / 2
    for got, f, g, spec in ((tab.CC, tab.curls, tab.curls, "abij"),
                            (tab.VV, vals, vals, "abij"),
                            (tab.TVG, vals, grads, "abji")):
        want = np.einsum(f"q,qai,qbj->{spec}", w, f, g).reshape(9, -1)
        size = np.einsum(f"q,qai,qbj->{spec}", w, np.abs(f), np.abs(g)).reshape(9, -1)
        assert np.all(np.abs(got - want) <= 2 * len(w) * u * size)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_map_points_and_eval_match_einsum(mesh, k):
    rng = np.random.default_rng(k)
    rule = ps.quadrature("tet", 2 * k + 2)
    tets = rng.integers(0, mesh.n_tets, 2 * mesh.n_tets)
    geom = mesh.geom()
    pts = geom.map_points(tets, rule.points)
    assert_pinned(pts, einsum_map_points(geom, tets, rule.points))
    # the (N, 3) points an analytic callback gets share the map's memory
    # and hold each coordinate in a contiguous column
    flat = pts.reshape(-1, 3)
    assert np.shares_memory(flat, pts) and flat.flags.f_contiguous
    for ncomp in (1, 3, 9):
        field = random_field(rng, mesh, k, ncomp)
        assert_pinned(field.eval(tets, rule.points), einsum_eval(field, tets, rule.points))
        assert_pinned(field.eval([5], rule.points), einsum_eval(field, [5], rule.points))


def test_sq_norms_match_einsum(mesh):
    # the three layouts the norm helper reads: a C-ordered (T, q, c) array,
    # the transposed view BrokenPolyField.eval returns, and step 2's metric
    # form v^T g^-1 v of covariant components v, the tangential field
    # E^T g^-1 v squared
    rng = np.random.default_rng(7)
    rule = ps.quadrature("tet", 6)
    w = rule.weights
    x = rng.standard_normal((mesh.n_tets, len(w), 3))
    want = np.einsum("q,tqc,tqc->t", w, x, x)
    assert_pinned14(fem.sq_norms(x.copy(), w), want)

    vals = random_field(rng, mesh, 2).eval(np.arange(mesh.n_tets), rule.points)
    assert not vals.flags.c_contiguous
    want = np.einsum("q,tqc,tqc->t", w, vals, vals)
    assert_pinned14(fem.sq_norms(vals, w), want)

    faces = mesh.internal_faces()
    tri = fem._face_rule(2)
    v = mesh.vertices[mesh.faces[faces]]
    E = v[:, 1:] - v[:, :1]
    ginv = np.linalg.inv(E @ E.transpose(0, 2, 1))
    r = rng.standard_normal((2, len(faces), len(tri.weights), 2))
    want = np.einsum("q,sfqa,fab,sfqb->sf", tri.weights, r, ginv, r)
    assert_pinned14(fem.sq_norms(r @ (ginv @ E), tri.weights), want)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_derivatives_match_einsum(mesh, k):
    rng = np.random.default_rng(k)
    vec, scalar = random_field(rng, mesh, k), random_field(rng, mesh, k, 1)
    assert_pinned(vec.partials(), einsum_partials(vec))
    assert_pinned(vec.curl().coeffs, einsum_curl(vec))
    assert_pinned(vec.div().coeffs, einsum_div(vec))
    assert_pinned(scalar.grad().coeffs, einsum_grad(scalar))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_assembly_and_Hh_match_einsum(mesh, k):
    dm = fem.build_dofmap(mesh, k)
    assert_pinned(fem.assemble_curlcurl(mesh, dm, MU).toarray(),
                  einsum_assemble_curlcurl(mesh, dm, MU).toarray())
    assert_pinned(fem.assemble_mass(mesh, dm).toarray(),
                  einsum_assemble_mass(mesh, dm).toarray())
    for j in (fem.CurrentDensity(func=cube_j), fem.project_current(mesh, cube_j, k)):
        assert_pinned(fem.assemble_rhs(mesh, dm, j).values,
                      einsum_assemble_rhs(mesh, dm, j))
    u = fem.FieldCoefficients(dm, np.random.default_rng(k).standard_normal(dm.n_dofs))
    assert_pinned(fem.compute_Hh(mesh, dm, u, MU).coeffs,
                  einsum_compute_Hh(mesh, dm, u, MU))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_step2_face_kernels_match_einsum(mesh, k):
    # random broken fields: every face carries an O(1) jump and an O(1)
    # jump divergence, so no output but the mean sits at roundoff level
    rng = np.random.default_rng(k)
    Hh = random_field(rng, mesh, k)
    corr = eqm.ElementCorrection(Hhat=random_field(rng, mesh, k), resid=None,
                                 oscillation=None, jdelta_norm=None,
                                 ortho_resid=None, degree=k)
    got = eqm.step2_face_multipliers(mesh, Hh, corr, k)
    want = einsum_step2(mesh, Hh, corr, k)
    for key in ("resid", "jnorm", "div_norm"):
        assert_pinned(getattr(got, key), want[key])
    # the multipliers by their values at the face points: the oracle stores
    # them in face-frame monomials, step 2 in each face's affine
    # coordinates, and at k = 3 the face systems' conditioning reaches the
    # coefficients, not the polynomials they represent
    faces = got.internal_faces
    pts = face_rule_points(mesh, faces, ps.quadrature("tri", 2 * k + 2))
    want_vals = frame_eval(mesh, faces, k, want["lam"], pts)
    assert_pinned(got.eval(np.arange(got.n_faces), pts), want_vals)
    # |(lambda, 1)_f| is a constraint residual: compare it with the size of
    # the integral it cancels
    scale = 2.0 * mesh.face_areas().max() * np.abs(want_vals).max()
    assert np.abs(got.mean_abs - want["mean_abs"]).max() <= TOL * scale


@pytest.mark.parametrize("kp", [1, 2, 3, 4])
def test_face_rule_is_exact(mesh, kp):
    # the library integrates the traces of degree-k' fields at the 2k' face
    # rule, the loop oracles at 2k' + 4: both exact, so they agree to
    # roundoff.  Random broken fields give every face an O(1) jump and an
    # O(1) step-2 residual, so every output is compared relative to its size
    rng = np.random.default_rng(kp)
    Hh = random_field(rng, mesh, kp)
    corr = eqm.ElementCorrection(Hhat=random_field(rng, mesh, kp), resid=None,
                                 oscillation=None, jdelta_norm=None,
                                 ortho_resid=None, degree=kp)
    got = eqm.step2_face_multipliers(mesh, Hh, corr, kp)
    want = loop_face_multipliers(mesh, Hh, corr, kp)

    def rel(a, b):
        return np.abs(a - b).max() / np.abs(b).max()

    for key in ("resid", "jnorm", "div_norm"):
        assert rel(getattr(got, key), want[key]) <= 1e-12, key
    faces = got.internal_faces
    pts = face_rule_points(mesh, faces, ps.quadrature("tri", 2 * kp + 2))
    assert rel(got.eval(np.arange(got.n_faces), pts),
               frame_eval(mesh, faces, kp, want["lam"], pts)) <= 1e-12
    assert rel(fem.tangential_jump_norms(mesh, Hh), loop_jump_norms(mesh, Hh)[0]) <= 1e-12


def assert_same_csr(got, want):
    """Same canonical pattern exactly, values pinned."""
    want = want.copy()
    want.sum_duplicates()
    assert got.shape == want.shape and got.has_canonical_format
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    if want.nnz:
        assert_pinned(got.data, want.data)


def oracle_recorder(monkeypatch):
    """Have fem._assemble_free also run the COO oracle on its input."""
    pairs, assemble = [], fem._assemble_free

    def recorded(dofmap, blocks):
        want = coo_assemble_free(dofmap, blocks)
        pairs.append((assemble(dofmap, blocks), want))
        return pairs[-1][0]
    monkeypatch.setattr(fem, "_assemble_free", recorded)
    return pairs


@pytest.mark.parametrize("k", [1, 2, 3])
def test_free_pattern_assembly_matches_coo_oracle(mesh, k, monkeypatch):
    dm = fem.build_dofmap(mesh, k)
    assert dm.slot.dtype == dm.indices.dtype == dm.indptr.dtype == np.int32
    pairs = oracle_recorder(monkeypatch)
    A = fem.assemble_curlcurl(mesh, dm, MU)
    M = fem.assemble_mass(mesh, dm)
    assert pairs[0][0] is A and pairs[1][0] is M
    for got, want in pairs:
        assert_same_csr(got, want)
    # a non-symmetric block with no zero entries fills every slot
    n = dm.cell_dofs.shape[1]
    blocks = np.random.default_rng(k).standard_normal((mesh.n_tets, n, n))
    got = fem._assemble_free(dm, blocks)
    assert_same_csr(got, coo_assemble_free(dm, blocks))


def _assembly_peak(m, dm, mu):
    """Peak traced memory of one curl-curl assembly, its caches filled."""
    fem.assemble_curlcurl(m, dm, mu)
    tracemalloc.start()
    try:
        fem.assemble_curlcurl(m, dm, mu)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_assembly_holds_one_block_stack_at_most(monkeypatch):
    # curl-curl assembly at k = 3 makes one (T, n, n) stack of element
    # blocks and the CSR arrays, and no copy of the (T, n, n) slot map
    m = msh.unit_cube_mesh(3)
    dm = fem.build_dofmap(m, 3)
    mu = fem.MaterialField(1.0)
    T, n, _ = dm.slot.shape
    nnz = len(dm.indices)
    bound = 1.1 * (T * n * n * 8 + nnz * 8 + dm.indices.nbytes + dm.indptr.nbytes)
    assert _assembly_peak(m, dm, mu) < bound
    want = fem.assemble_curlcurl(m, dm, mu)

    # negative control: np.bincount sums the same entries in the same
    # order, bitwise alike, but casts the int32 slots to an int64 copy
    def bincount_free(dofmap, blocks):
        data = np.bincount(dofmap.slot.ravel(), blocks.ravel(), minlength=nnz + 1)
        return sp.csr_matrix((data[:nnz], dofmap.indices, dofmap.indptr),
                             shape=(dofmap.n_free, dofmap.n_free))
    monkeypatch.setattr(fem, "_assemble_free", bincount_free)
    assert np.array_equal(fem.assemble_curlcurl(m, dm, mu).data, want.data)
    assert _assembly_peak(m, dm, mu) > bound


@pytest.mark.parametrize("k", [1, 2, 3])
def test_free_pattern_is_canonical_and_symmetric(mesh, k):
    dm = fem.build_dofmap(mesh, k)
    A = fem.assemble_mass(mesh, dm)
    assert A.has_canonical_format
    assert np.all(np.diff(dm.indptr) > 0)
    P = A.copy()
    P.data[:] = 1.0
    assert (P != P.T).nnz == 0
    # every slot is a pattern position or the one dump slot, and the dump
    # slot takes exactly the entries that touch a boundary dof
    nnz = len(dm.indices)
    fixed = dm.layout.boundary[dm.cell_dofs]
    assert np.array_equal(dm.slot == nnz, fixed[:, :, None] | fixed[:, None, :])
    assert np.array_equal(np.unique(dm.slot[dm.slot < nnz]), np.arange(nnz))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_free_pattern_on_one_tet(k, monkeypatch):
    # every edge and face is on the boundary: at k = 1 and 2 no dof is
    # free, at k = 3 only the cell's own dofs are
    m = msh.build_mesh(ps.TET_VERTS, [[0, 1, 2, 3]])
    dm = fem.build_dofmap(m, k)
    assert dm.n_free == (3 if k == 3 else 0)
    assert (dm.slot == len(dm.indices)).sum() == dm.slot.size - dm.n_free ** 2
    pairs = oracle_recorder(monkeypatch)
    fem.assemble_curlcurl(m, dm, fem.MaterialField(1.0))
    fem.assemble_mass(m, dm)
    for got, want in pairs:
        assert_same_csr(got, want)
    b = np.zeros(dm.n_dofs)
    u, _ = fem.solve_magnetostatic(pairs[0][0], b, dm)
    assert not u.values.any()


@pytest.mark.parametrize("k", [1, 2, 3])
def test_reference_tables_are_in_the_dof_basis(mesh, k):
    # the reference tables and the dof map's per-tet scalings against
    # V_t^-1 from np.linalg.inv of the element dof matrices, applied to
    # tables of the basis of reference_space that the oracle integrates
    # itself, on tets of both orientations: element blocks V_t^-T A V_t^-1
    # (with a metric that is not symmetric, so that rows and columns are
    # told apart), loads V_t^-T b and curls of the coefficients V_t^-1 u_loc
    assert set(mesh.geom().sign) == {-1.0, 1.0}
    dm = fem.build_dofmap(mesh, k)
    tab = fem._ref_tables(k)
    Vinv = element_inverses(mesh, k)
    T, n, _ = Vinv.shape
    assert not any(isinstance(v, np.ndarray) and v.shape == (T, n, n) and v.dtype.kind == "f"
                   for v in vars(dm).values())
    rng = np.random.default_rng(k)
    space = ps.reference_space(ps.NEDELEC1_TET, k)
    w, v = tab.rule.weights, _poly.vandermonde(3, k, tab.rule.points)
    vals = np.einsum("qm,icm->qci", v, space.coeffs)
    curls = np.einsum("qm,iam->qai", v, space.curl_coeffs())
    K = rng.standard_normal((T, 9))
    for f, table in ((curls, tab.CC), (vals, tab.VV)):
        A = (K @ np.einsum("q,qai,qbj->abij", w, f, f).reshape(9, -1)).reshape(T, n, n)
        assert_pinned(fem._element_blocks(dm, K, table),
                      Vinv.transpose(0, 2, 1) @ A @ Vinv)
    jhat = rng.standard_normal((T, len(w) * 3))
    got = jhat @ tab.wvals
    dm.apply_map(got, inverse=True)
    b = jhat @ (w[:, None, None] * vals).reshape(-1, n)
    assert_pinned(got, np.einsum("tji,tj->ti", Vinv, b))
    u_loc = rng.standard_normal((T, n))
    got = u_loc.copy()
    dm.apply_map(got, inverse=True, transpose=True)
    assert_pinned(got @ tab.dof_curls,
                  np.einsum("tij,tj->ti", Vinv, u_loc) @ space.curl_coeffs().reshape(n, -1))
    # the tables hold that basis, and its canonical dofs are the identity,
    # up to the rounding of its values: a value sums n_m monomial terms of
    # magnitude at most sum |coeffs| on the reference tet, and every
    # functional weighs the values by less than 2 in sum (measured: at most
    # 0.05 of this bound)
    assert np.array_equal(tab.coeffs, space.coeffs)
    nm = space.coeffs.shape[2]
    bound = 2 * nm * (np.finfo(float).eps / 2) * np.abs(space.coeffs).sum(axis=(1, 2))
    dofs = ps.nedelec_dof_matrix(ps.TET_VERTS, k, lambda p: space_eval(space, p))
    assert np.all(np.abs(dofs - np.eye(n)) <= bound)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_unscale_inverts_the_element_map(mesh, k):
    # the forward map gives x S_t^T, and the inverse map undoes it:
    # x S_t^-1 S_t = x and x S_t^-T S_t^T = x, with S_t from its definition
    # (element_maps).
    # Degree 1 has no face or interior columns, degree 2 no interior ones.
    # Degree 4, above the global spaces' range, has 6 face rows per face and
    # 4 interior monomials: the dof map of degree 3 is given the entity
    # layout of degree 4, as the face factors and cell maps are the same
    dm = fem.build_dofmap(mesh, min(k, 3))
    dm = dataclasses.replace(
        dm, degree=k, layout=fem._EntityLayout(mesh, fem._nedelec_width(k)))
    S = element_maps(mesh, k)
    assert dm.face_scale.shape == (mesh.n_tets, 4, 2)
    x = np.random.default_rng(k).standard_normal(S.shape[:2])
    y = x.copy()
    dm.apply_map(y)
    assert_pinned(y, np.einsum("ti,tji->tj", x, S))
    for transpose, Sm in ((False, S), (True, S.transpose(0, 2, 1))):
        y = x.copy()
        dm.apply_map(y, inverse=True, transpose=transpose)
        assert_pinned(np.einsum("ti,tij->tj", y, Sm), x)
