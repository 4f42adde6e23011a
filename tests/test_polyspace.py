import math

import numpy as np
import pytest

from curlest import _poly
from curlest import polyspace as ps
from curlest.errors import UnsupportedDegree, WrongKind
from _helpers import (P_SCALAR_TRI, RT_TANGENTIAL_TRI, TRI_KINDS, any_space,
                      curl2d_coeffs, dim_p_tet, dim_p_tri, dim_rt_tri,
                      div_coeffs, element_maps, eval_scalar, jittered_cube,
                      unisolvence_matrix)

RNG = np.random.default_rng(42)


def monomial_integral(exp):
    # closed-form factorial formula, independent of the library helper
    num = 1
    for a in exp:
        num *= math.factorial(int(a))
    return num / math.factorial(int(sum(exp)) + len(exp))


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

def test_rule_weight_sums_match_reference_measures():
    assert abs(ps.quadrature("tet", 1).weights.sum() - 1.0 / 6.0) < 1e-14
    assert abs(ps.quadrature("tri", 3).weights.sum() - 0.5) < 1e-14
    assert abs(ps.quadrature("segment", 5).weights.sum() - 1.0) < 1e-14


def test_tri_rule_degree_two_closed_forms():
    rule = ps.quadrature("tri", 2)
    x, y = rule.points[:, 0], rule.points[:, 1]
    assert abs(np.dot(rule.weights, x ** 2) - 1.0 / 12.0) < 1e-14
    assert abs(np.dot(rule.weights, x * y) - 1.0 / 24.0) < 1e-14
    assert abs(np.dot(rule.weights, y ** 2) - 1.0 / 12.0) < 1e-14


@pytest.mark.parametrize("domain,dim", [("tri", 2), ("tet", 3)])
def test_monomial_sweep_exactness_eight(domain, dim):
    rule = ps.quadrature(domain, 8)
    worst = 0.0
    for exp in _poly.exponents(dim, 8):
        val = np.dot(rule.weights, np.prod(rule.points ** exp, axis=1))
        worst = max(worst, abs(val - monomial_integral(exp)))
    assert worst < 1e-12


def test_quadrature_degree_cap():
    with pytest.raises(UnsupportedDegree):
        ps.quadrature("tet", 13)


# ---------------------------------------------------------------------------
# space dimensions and unisolvence
# ---------------------------------------------------------------------------

DIMS = {
    ps.P_SCALAR_TET: dim_p_tet,
    ps.NEDELEC1_TET: ps.dim_nedelec_tet,
    ps.RT_TET: ps.dim_rt_tet,
    P_SCALAR_TRI: dim_p_tri,
    RT_TANGENTIAL_TRI: dim_rt_tri,
}
# the library's tetrahedral kinds, then the triangle spaces behind step 2
ALL_KINDS = ps.KINDS + TRI_KINDS


def test_library_kinds_are_the_tetrahedral_spaces():
    assert ps.KINDS == (ps.P_SCALAR_TET, ps.NEDELEC1_TET, ps.RT_TET)


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_dim_formula_matches_numerical_rank(kind, k):
    space = any_space(kind, k)
    assert space.dim == DIMS[kind](k)
    # oracle: rank of the basis sampled at random points
    pts = RNG.random((3 * space.dim, space.sdim)) * 0.3
    vals = space.eval(pts).reshape(len(pts) * space.ncomp, space.dim)
    assert np.linalg.matrix_rank(vals, tol=1e-8) == space.dim


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_unisolvence_identity(kind, k):
    space = any_space(kind, k)
    U = unisolvence_matrix(space)
    assert np.abs(U - np.eye(space.dim)).max() < 1e-10


# largest |functionals - I| of the corrected bases, measured 2.2e-16,
# 2.3e-15, 1.1e-13, 3.5e-12 (edge) and 1.1e-16, 3.6e-15, 1.8e-13, 9.1e-12
# (face) at k = 1..4; the bounds allow about 4x
CORRECTED_BOUNDS = {ps.NEDELEC1_TET: (1e-15, 1e-14, 4e-13, 1.5e-11),
                    ps.RT_TET: (5e-16, 1.5e-14, 8e-13, 4e-11)}


@pytest.mark.parametrize("kind", [ps.NEDELEC1_TET, ps.RT_TET])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_reference_functionals_of_the_corrected_basis_are_I(kind, k):
    space = ps.reference_space(kind, k)
    V = ps.reference_dofs(kind, k, space.coeffs)
    assert V.shape == (space.dim, space.dim)
    assert np.abs(V - np.eye(space.dim)).max() <= CORRECTED_BOUNDS[kind][k - 1]


def test_edge_space_k2_condition_number():
    space = ps.reference_space(ps.NEDELEC1_TET, 2)
    U = unisolvence_matrix(space)
    assert np.linalg.cond(U) < 1e6


def test_p1_vertices_identity():
    space = ps.reference_space(ps.P_SCALAR_TET, 1)
    vals = eval_scalar(space, ps.TET_VERTS[:, :3] @ np.eye(3))
    assert np.abs(vals - np.eye(4)).max() < 1e-13


def test_whitney_count_and_edge_moments():
    space = ps.reference_space(ps.NEDELEC1_TET, 1)
    assert space.dim == 6
    U = unisolvence_matrix(space)
    assert np.abs(U - np.eye(6)).max() < 1e-12


# ---------------------------------------------------------------------------
# curls and mappings
# ---------------------------------------------------------------------------

def test_whitney_curls_constant():
    space = ps.reference_space(ps.NEDELEC1_TET, 1)
    pts = RNG.random((5, 3)) * 0.3
    curls = np.einsum("qm,iam->iqa", _poly.vandermonde(3, 1, pts),
                      space.curl_coeffs())
    for i in range(6):
        assert np.abs(curls[i] - curls[i][0]).max() < 1e-13


@pytest.mark.parametrize("k", [1, 2, 3])
def test_divergence_of_curl_vanishes(k):
    space = ps.reference_space(ps.NEDELEC1_TET, k)
    cc = space.curl_coeffs()
    D = _poly.diff_stack(3, k)
    div = np.einsum("cmn,icn->im", D, cc)
    assert np.abs(div).max() < 1e-11


@pytest.mark.parametrize("k", [1, 2, 3])
def test_lifted_gradients_are_curl_free(k):
    # represent grad(psi) in the edge space via the coefficient algebra, then
    # check its curl vanishes
    P = ps.reference_space(ps.P_SCALAR_TET, k)
    N = ps.reference_space(ps.NEDELEC1_TET, k)
    D = _poly.diff_stack(3, k)
    A = N.coeffs.reshape(N.dim, -1).T
    for _ in range(5):
        psi = RNG.standard_normal(P.dim) @ P.coeffs[:, 0, :]
        grad = np.einsum("bmn,n->bm", D, psi)
        grad /= np.linalg.norm(grad)
        x, res, *_ = np.linalg.lstsq(A, grad.ravel(), rcond=None)
        assert np.linalg.norm(A @ x - grad.ravel()) < 1e-10
        curl = np.einsum("i,iam->am", x, N.curl_coeffs())
        assert np.abs(curl).max() < 1e-11


def test_eval_curl_wrong_kind():
    with pytest.raises(WrongKind):
        ps.reference_space(ps.RT_TET, 1).curl_coeffs()
    scalar = ps.reference_space(ps.P_SCALAR_TET, 1)
    with pytest.raises(WrongKind):
        ps.reference_dofs(ps.P_SCALAR_TET, 1, scalar.coeffs)


def test_eval_basis_degree_out_of_range():
    with pytest.raises(UnsupportedDegree):
        ps.reference_space(ps.NEDELEC1_TET, 5)


def test_covariant_preserves_tangential_trace():
    # quadrature oracle on 20 random affine tets: the tangential line moment
    # of the mapped field along a mapped edge equals the reference moment
    space = ps.reference_space(ps.NEDELEC1_TET, 2)
    seg = ps.quadrature("segment", 8)
    s = seg.points[:, 0]
    a_ref, b_ref = ps.TET_VERTS[1], ps.TET_VERTS[3]
    pts_ref = a_ref + s[:, None] * (b_ref - a_ref)
    t_ref = b_ref - a_ref
    vals_ref = space.eval(pts_ref)
    mom_ref = np.einsum("q,qci,c->i", seg.weights, vals_ref, t_ref)
    for _ in range(20):
        J = RNG.standard_normal((3, 3))
        if np.linalg.det(J) < 0:
            J[:, [0, 1]] = J[:, [1, 0]]
        if abs(np.linalg.det(J)) < 0.1:
            continue
        shift = RNG.standard_normal(3)
        a, b = J @ a_ref + shift, J @ b_ref + shift
        t_phys = b - a
        vals_phys = np.einsum("ba,qbn->qan", np.linalg.inv(J), vals_ref)
        mom_phys = np.einsum("q,qci,c->i", seg.weights, vals_phys, t_phys)
        assert np.abs(mom_phys - mom_ref).max() < 1e-10 * max(1, np.abs(mom_ref).max())


def smooth_field(p):
    x, y, z = p[:, 0], p[:, 1], p[:, 2]
    return np.stack([np.sin(x + 2.0 * y), np.cos(y - z), x * y * z + np.exp(z)], axis=1)


def pulled_back(m, M):
    """field_eval of smooth_field pulled back from every tet of m: at
    reference points, f(F_t(x)) @ M_t with the tets on the field axis."""
    geom = m.geom()

    def field_eval(p):
        pts = geom.v0[:, None, :] + p @ geom.J.transpose(0, 2, 1)     # (T, q, 3)
        f = smooth_field(pts.reshape(-1, 3)).reshape(pts.shape)
        return (f @ M).transpose(1, 2, 0)

    return field_eval


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_pulled_back_functionals_match_physical_functionals(k):
    # jittered, relabelled cube: every tet has its own shape, and its
    # ascending vertex order is of either orientation.  The reference
    # functionals of the covariant pull-back J^T f, mapped by S_t, are the
    # physical ones of f; those of the Piola pull-back det J J^-1 j keep the
    # face fluxes, and sign(det J) J maps their interior moments
    m = jittered_cube(2)
    geom = m.geom()
    assert set(geom.sign) == {-1.0, 1.0}
    ned = ps.nedelec_dof_matrix(ps.TET_VERTS, k, pulled_back(m, geom.J))
    det = (geom.sign * geom.absdet)[:, None, None]
    rt = ps.rt_dof_matrix(ps.TET_VERTS, k, pulled_back(m, det * geom.Jinv.transpose(0, 2, 1)))
    assert ned.shape == (ps.dim_nedelec_tet(k), m.n_tets)
    assert rt.shape == (ps.dim_rt_tet(k), m.n_tets)
    S = element_maps(m, k)
    n_face = 4 * dim_p_tri(k - 1)

    def one(p):
        return smooth_field(p)[:, :, None]

    for t in range(m.n_tets):
        verts = m.vertices[m.tets[t]]
        want = ps.nedelec_dof_matrix(verts, k, one)[:, 0]
        assert np.abs(S[t] @ ned[:, t] - want).max() <= 1e-13 * np.abs(want).max()
        want = ps.rt_dof_matrix(verts, k, one)[:, 0]
        got = rt[:, t].copy()
        got[n_face:] = (got[n_face:].reshape(-1, 3) @ (geom.sign[t] * geom.J[t]).T).ravel()
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


# ---------------------------------------------------------------------------
# Lagrange nodes
# ---------------------------------------------------------------------------

def test_lagrange_node_counts():
    n1 = ps.lagrange_nodes(1)
    assert n1.n_nodes == 4 and (n1.kind == ps.NODE_VERTEX).all()
    n2 = ps.lagrange_nodes(2)
    assert n2.n_nodes == 10
    assert (n2.kind == ps.NODE_VERTEX).sum() == 4
    assert (n2.kind == ps.NODE_EDGE).sum() == 6
    n3 = ps.lagrange_nodes(3)
    assert n3.n_nodes == 20
    # enumeration oracle: count multi-indices by their zero pattern
    from itertools import product
    kinds = {1: 0, 2: 0, 3: 0, 4: 0}
    for m in product(range(4), repeat=4):
        if sum(m) == 3:
            kinds[sum(1 for a in m if a > 0)] += 1
    assert (n3.kind == ps.NODE_VERTEX).sum() == kinds[1] == 4
    assert (n3.kind == ps.NODE_EDGE).sum() == kinds[2] == 12
    assert (n3.kind == ps.NODE_FACE).sum() == kinds[3] == 4
    assert (n3.kind == ps.NODE_CELL).sum() == kinds[4] == 0


def test_node_count_matches_space_dim():
    for k in (1, 2, 3, 4):
        assert ps.lagrange_nodes(k).n_nodes == dim_p_tet(k)


# ---------------------------------------------------------------------------
# exact sequences and mass matrices
# ---------------------------------------------------------------------------

def _rep_residual(target, basis_coeffs):
    A = basis_coeffs.reshape(basis_coeffs.shape[0], -1).T
    b = np.asarray(target).ravel()
    x, *_ = np.linalg.lstsq(A, b, rcond=None)
    return np.linalg.norm(A @ x - b) / max(np.linalg.norm(b), 1e-30)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_exact_sequence_3d(k):
    P = ps.reference_space(ps.P_SCALAR_TET, k)
    N = ps.reference_space(ps.NEDELEC1_TET, k)
    D = ps.reference_space(ps.RT_TET, k)
    Pm1 = ps.reference_space(ps.P_SCALAR_TET, k - 1)
    Dst = _poly.diff_stack(3, k)
    nm1 = _poly.n_monomials(3, k - 1)
    eps = np.zeros((3, 3, 3))
    for i, j, l in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        eps[i, j, l] = 1.0
        eps[i, l, j] = -1.0
    for _ in range(10):
        psi = RNG.standard_normal(P.dim) @ P.coeffs[:, 0, :]
        grad = np.einsum("bmn,n->bm", Dst, psi)
        assert _rep_residual(grad, N.coeffs) < 1e-10
        v = np.einsum("i,icm->cm", RNG.standard_normal(N.dim), N.coeffs)
        curl = np.einsum("abc,bmn,cn->am", eps, Dst, v)
        assert _rep_residual(curl, D.coeffs) < 1e-10
        w = np.einsum("i,icm->cm", RNG.standard_normal(D.dim), D.coeffs)
        div = np.einsum("cmn,cn->m", Dst, w)
        assert np.abs(div[nm1:]).max() <= 1e-10 * max(1.0, np.abs(div).max())
        assert _rep_residual(div[:nm1], Pm1.coeffs[:, 0, :]) < 1e-10


@pytest.mark.parametrize("k", [1, 2, 3])
def test_exact_sequence_2d(k):
    Pf = any_space(P_SCALAR_TRI, k)
    Rf = any_space(RT_TANGENTIAL_TRI, k)
    c2 = curl2d_coeffs(Pf)
    for i in range(Pf.dim):
        if np.linalg.norm(c2[i]) > 1e-12:
            assert _rep_residual(c2[i], Rf.coeffs) < 1e-10
    # kernel of the surface curl on the scalar space is the constants
    rank = np.linalg.matrix_rank(c2.reshape(Pf.dim, -1), tol=1e-10)
    assert rank == Pf.dim - 1
    # exactness: div-free subspace dimension equals the curl image dimension
    kerdim = Rf.dim - np.linalg.matrix_rank(div_coeffs(Rf), tol=1e-10)
    assert kerdim == rank


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("k", [1, 2, 3])
def test_mass_matrix_spd(kind, k):
    space = any_space(kind, k)
    rule = ps.quadrature("tri" if space.sdim == 2 else "tet", 2 * k)
    vals = space.eval(rule.points)
    M = np.einsum("q,qci,qcj->ij", rule.weights, vals, vals)
    assert np.abs(M - M.T).max() < 1e-12 * max(1, np.abs(M).max())
    assert np.linalg.eigvalsh(M).min() > 0.0
