import copy
import dataclasses
import tracemalloc

import numpy as np
import pytest

from curlest import _poly
from curlest import adapt as adm
from curlest import bench
from curlest import equilibrate as eqm
from curlest import femsys as fem
from curlest import mesh as msh
from curlest import polyspace as ps
from curlest import residual
from _helpers import (MU1, cube_H, cube_j, dim_p_tri, edge_faces, eval_one,
                      face_coefficients, face_frame, face_index,
                      face_rule_points, frame_coords, frame_eval, inspace_j,
                      inspace_u, jittered_cube, loop_edge_sums,
                      loop_face_multipliers, loop_face_solve, loop_jump_norms,
                      loop_step1, loop_step3, node_points, normal_jump_norms,
                      randomly_bisected, ref_coords, relabelled_cube, solve_cube,
                      solve_node_patch, solve_single_face, space_eval)

RNG = np.random.default_rng(23)


def _estimate_cube(n, k, kp=None, strict=False):
    m, dm, u, Hh, data = solve_cube(n, k, strict_a2=strict, aux=kp)
    reg = dm.registry if kp in (None, k) else fem.build_node_registry(m, kp)
    out = eqm.estimate(m, MU1, data, Hh, reg, strict_a2=strict)
    return m, Hh, data, out


# ---------------------------------------------------------------------------
# step 1
# ---------------------------------------------------------------------------

def test_step1_zero_residual_current():
    # interpolate an in-space potential: the residual current vanishes and so
    # does the correction
    m = msh.unit_cube_mesh(2)
    dm = fem.build_dofmap(m, 2)
    u = fem.interpolate_nedelec(m, dm, inspace_u)
    Hh = fem.compute_Hh(m, dm, u, MU1)
    j = fem.CurrentDensity(func=inspace_j)
    corr = eqm.step1_element_corrections(m, MU1, j, Hh, 2)
    assert corr.Hhat.mu_norms().max() < 1e-11
    assert corr.resid.max() < 1e-11


def test_step1_lowest_order_residual_is_data():
    # at degree one the element currents vanish, so the residual current is
    # the data itself; the curl constraint is then checked by quadrature
    m, dm, u, Hh, data = solve_cube(2, 1)
    corr = eqm.step1_element_corrections(m, MU1, data, Hh, 1)
    rule = ps.quadrature("tet", 6)
    tets = np.arange(m.n_tets)
    jv = data.eval_elements(m, tets, rule.points)
    jn = np.sqrt(np.einsum("q,tqc->t", rule.weights, jv ** 2) * m.geom().absdet)
    assert np.abs(corr.jdelta_norm - jn).max() < 1e-12 * jn.max()
    # curl constraint holds up to the projection residual reported by step 1
    cv = corr.Hhat.curl().eval(tets, rule.points)
    diff_sq = np.einsum("q,tqc->t", rule.weights, (cv - jv) ** 2) * m.geom().absdet
    assert np.abs(np.sqrt(diff_sq) - corr.resid).max() < 1e-10 * max(jn.max(), 1)


def _reference_tet_mesh():
    return msh.build_mesh(np.array([[0., 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]),
                          [[0, 1, 2, 3]])


def _brute_force_step1(mesh, mu_val, jd_func, kp):
    """Independent dense assembly of the local saddle problem on one tet,
    straight from quadrature and the reference basis."""
    space = ps.reference_space(ps.NEDELEC1_TET, kp)
    rule = ps.quadrature("tet", 2 * kp + 4)
    geom = mesh.geom()
    J, Jinv = geom.J[0], geom.Jinv[0]
    det = np.linalg.det(J)
    pts = geom.map_points([0], rule.points)[0]
    vals = np.einsum("ba,qbn->qan", Jinv, space_eval(space, rule.points))
    curls = np.einsum("ab,qbn->qan", J, np.einsum(
        "qm,iam->qai", _poly.vandermonde(3, kp, rule.points),
        space.curl_coeffs()).transpose(0, 1, 2)) / det
    grads_mono = np.einsum("qm,bmn->qbn",
                           _poly.vandermonde(3, kp, rule.points),
                           _poly.diff_stack(3, kp))[:, :, 1:]
    pg = np.einsum("ba,qbn->qan", Jinv, grads_mono)
    w = rule.weights * abs(det)
    jd = jd_func(pts)
    nR = space.dim
    A = np.einsum("q,qai,qaj->ij", w, curls, curls)
    B = mu_val * np.einsum("q,qai,qal->li", w, vals, pg)
    g = np.einsum("q,qai,qa->i", w, curls, jd)
    nB = B.shape[0]
    S = np.zeros((nR + nB, nR + nB))
    S[:nR, :nR] = A
    S[:nR, nR:] = B.T
    S[nR:, :nR] = B
    rhs = np.concatenate([g, np.zeros(nB)])
    sol = np.linalg.solve(S, rhs)
    h = sol[:nR]
    hv = np.einsum("qan,n->qa", vals, h)
    cv = np.einsum("qan,n->qa", curls, h)
    return pts, hv, cv, w


@pytest.mark.parametrize("kp", [1, 2, 3])
def test_step1_roundtrip_on_reference_tet(kp):
    # residual current manufactured as the curl of a random in-space field;
    # the correction recovers the curl exactly, is gradient orthogonal, and
    # cannot have more energy than the generating field
    m = _reference_tet_mesh()
    space = ps.reference_space(ps.NEDELEC1_TET, kp)
    for trial in range(6):
        coef = RNG.standard_normal(space.dim)
        vref = np.einsum("i,icm->cm", coef, space.coeffs)
        vphys = m.geom().Jinv[0].T @ vref
        vcurl = (m.geom().J[0] @ np.einsum("i,iam->am", coef,
                                           space.curl_coeffs())) / np.linalg.det(m.geom().J[0])
        vfield = fem.BrokenPolyField(m, kp, vphys[None])
        vcurl_field = fem.BrokenPolyField(m, kp, vcurl[None])

        def jd_func(p):
            xhat = ref_coords(m, 0, p)
            return eval_one(vcurl_field, 0, xhat)

        j = fem.CurrentDensity(func=jd_func)
        Hh0 = fem.BrokenPolyField(m, 1, np.zeros((1, 3, 4)))
        corr = eqm.step1_element_corrections(m, MU1, j, Hh0, kp)
        jd_scale = max(corr.jdelta_norm.max(), 1e-30)
        assert corr.resid.max() < 1e-10 * jd_scale
        assert corr.ortho_resid.max() < 1e-10 * jd_scale
        # energy comparison: gradient-orthogonal projection shrinks energy
        assert corr.Hhat.norm() <= vfield.norm() * (1 + 1e-10)
        # cross-check against the independent dense oracle
        pts, hv, cv, w = _brute_force_step1(m, 1.0, jd_func, kp)
        hv2 = eval_one(corr.Hhat, 0, ref_coords(m, 0, pts))
        assert np.abs(hv - hv2).max() < 1e-9 * max(1.0, np.abs(hv).max())


def test_step1_modes_agree_on_compatible_data():
    # the saddle solve against the least-squares solve tested with a full
    # div-conforming basis
    m, dm, u, Hh, data = solve_cube(2, 1)
    c1 = eqm.step1_element_corrections(m, MU1, data, Hh, 3)
    c2, *_ = loop_step1(m, MU1, data, Hh, 3, mode="lstsq_dk")
    diff = c1.Hhat.plus(c2.Hhat.scale(-1.0)).norm()
    assert diff < 1e-9 * max(c1.Hhat.norm(), 1e-30)


def test_step1_rejects_lower_auxiliary_degree():
    m, dm, u, Hh, data = solve_cube(1, 2)
    with pytest.raises(ValueError):
        eqm.step1_element_corrections(m, MU1, data, Hh, 1)


# ---------------------------------------------------------------------------
# step 2
# ---------------------------------------------------------------------------

def test_step2_zero_for_continuous_field():
    m = msh.unit_cube_mesh(2)
    dm = fem.build_dofmap(m, 2)
    u = fem.interpolate_nedelec(m, dm, inspace_u)
    Hh = fem.compute_Hh(m, dm, u, MU1)
    corr = eqm.step1_element_corrections(
        m, MU1, fem.CurrentDensity(func=inspace_j), Hh, 2)
    fm = eqm.step2_face_multipliers(m, Hh, corr, 2)
    assert fm.lam_scale < 1e-10
    assert fm.jnorm.max() < 1e-10


def test_step2_multiplier_count():
    m, Hh, data, out = _estimate_cube(2, 1)
    assert out.multipliers.n_faces == len(m.internal_faces())


@pytest.mark.parametrize("kp", [1, 2, 3])
@pytest.mark.parametrize("form", ["weak", "strong"])
def test_step2_roundtrip(kp, form):
    # manufacture face data as the surface curl of a zero-mean polynomial and
    # recover it on a single internal face
    m = msh.unit_cube_mesh(1)
    f = int(m.internal_faces()[0])
    fr = face_frame(m, f)
    hf = m.face_diameters()[f]
    rule = ps.quadrature("tri", 2 * kp)
    area = m.face_areas()[f]
    nm2 = _poly.n_monomials(2, kp)
    D2 = _poly.diff_stack(2, kp)
    for trial in range(4):
        lam0 = RNG.standard_normal(nm2)
        xi = frame_coords(m, f, face_rule_points(m, f, rule))
        v = _poly.vandermonde(2, kp, xi)
        lam0 -= np.zeros(nm2)
        mean = 2 * area * np.einsum("q,qm,m->", rule.weights, v, lam0) / (2 * area)
        lam0[0] -= mean / float(
            2 * area * np.einsum("q,qm->m", rule.weights, v)[0] / (2 * area))
        # 3D data: -n x grad(lam0) evaluated through the frame
        grads = np.einsum("qm,bmn,n->qb", v, D2, lam0) / hf
        data3d = (grads[:, 1:2] * fr.t1[None, :] - grads[:, 0:1] * fr.t2[None, :])

        # compared by the values at the face rule points
        if form == "weak":
            vals, resid = solve_single_face(m, f, data3d, kp)
        else:
            lam, resid, *_ = loop_face_solve(m, f, data3d, rule, kp, form)
            vals = v @ lam
        vals0 = v @ lam0
        scale = max(np.abs(vals0).max(), 1e-30)
        tol = 1e-10 if form == "weak" else 1e-9
        assert np.abs(vals - vals0).max() < tol * scale
        assert resid < tol * scale


def test_step2_forms_agree_on_pipeline_data():
    m, dm, u, Hh, data = solve_cube(2, 1)
    corr = eqm.step1_element_corrections(m, MU1, data, Hh, 3)
    f1 = eqm.step2_face_multipliers(m, Hh, corr, 3)
    lam2 = loop_face_multipliers(m, Hh, corr, 3, form="strong")["lam"]
    # compared where lam_scale is measured: at the face rule points
    faces = f1.internal_faces
    pts = face_rule_points(m, faces, ps.quadrature("tri", 8))
    scale = max(f1.lam_scale, 1e-30)
    vals, vals2 = f1.eval(np.arange(f1.n_faces), pts), frame_eval(m, faces, 3, lam2, pts)
    assert np.abs(vals - vals2).max() < 1e-9 * scale


def test_step2_zero_mean_invariant():
    m, Hh, data, out = _estimate_cube(2, 2)
    areas = m.face_areas()[out.multipliers.internal_faces]
    tol = 1e-11 * areas * max(out.multipliers.lam_scale, 1.0)
    assert (out.multipliers.mean_abs <= tol).all()


def test_step2_equation_residual_invariant():
    # -n x grad(lambda) reproduces the face data within the reported residual
    m, Hh, data, out = _estimate_cube(2, 3)  # native-A2 data: consistent
    fm = out.multipliers
    assert (fm.resid <= 1e-9 * np.maximum(fm.jnorm, fm.jnorm.max() * 1e-3)).all()


# ---------------------------------------------------------------------------
# edge compatibility
# ---------------------------------------------------------------------------

def _assert_cycle_sums_vanish(m, out):
    # the edge-sum oracle and step 3's patch residual, which certifies the
    # same condition, both at roundoff
    rep = eqm.check_edge_compatibility(m, out.multipliers)
    scale = max(rep.lam_scale, 1e-30)
    assert rep.max_abs.max(initial=0.0) <= 1e-9 * scale
    assert rep.variation.max(initial=0.0) <= 1e-9 * scale
    assert out.phi.max_residual <= 1e-9 * scale


def test_edge_compat_zero_for_zero_multipliers():
    m, Hh, data, out = _estimate_cube(2, 1)
    fm = out.multipliers
    fm.lam[:] = 0.0
    rep = eqm.check_edge_compatibility(m, fm)
    assert rep.max_abs.max(initial=0.0) == 0.0
    assert rep.variation.max(initial=0.0) == 0.0


def test_edge_compat_perturbation_linearity():
    m, Hh, data, out = _estimate_cube(2, 1)
    fm = out.multipliers
    rep0 = eqm.check_edge_compatibility(m, fm)
    # pick an interior edge and one adjacent face; shift that multiplier by a
    # constant and check the signed response
    e = int(m.internal_edges()[0])
    f = int(edge_faces(m, e)[0])
    idx = face_index(fm, f)
    _, n_fe = msh.edge_face_normals(m, e, f)
    sign = float(np.dot(m.face_normals()[f], n_fe))
    epsv = 0.37
    s = ps.quadrature("segment", 8).points[:, 0]
    a, b = m.edges[e]
    pts = m.vertices[a] + s[:, None] * (m.vertices[b] - m.vertices[a])

    def r_e(fmx):
        r = np.zeros(len(pts))
        for ff in edge_faces(m, e):
            ii = face_index(fmx, ff)
            _, nfe = msh.edge_face_normals(m, e, ff)
            sg = float(np.dot(m.face_normals()[ff], nfe))
            r += sg * fmx.eval(ii, pts)
        return r

    before = r_e(fm)
    fm.lam[idx, 0] += epsv
    after = r_e(fm)
    assert np.abs(after - before - sign * epsv).max() < 1e-12


def test_edge_compat_native_a2_pipeline():
    # constant current: the data is natively compatible at any degree, so the
    # cycle sums vanish on the solved pipeline
    m = msh.unit_cube_mesh(2)
    from curlest import adapt as adm
    j = fem.CurrentDensity(func=lambda p: np.tile([1.0, 0, 0], (len(p), 1)))
    cfg = adm.RunConfig(degree=1)
    dm, u, Hh, data = adm.solve_level(m, MU1, j, cfg)
    out = eqm.estimate(m, MU1, j, Hh, dm.registry)
    _assert_cycle_sums_vanish(m, out)


def test_edge_compat_strict_projected_pipeline():
    m, Hh, data, out = _estimate_cube(2, 1, strict=True)
    _assert_cycle_sums_vanish(m, out)


# ---------------------------------------------------------------------------
# batched face kernels against the per-face and per-edge loops
# ---------------------------------------------------------------------------

MU_JUMP = fem.MaterialField({0: 1.0, 1: 100.0})


def wave_j(p):
    # curl of (0, 0, sin 3x cos 2y): divergence-free and in no polynomial
    # space, so the face data keeps an in-plane divergence at every degree
    x, y = p[:, 0], p[:, 1]
    return np.stack([-2.0 * np.sin(3 * x) * np.sin(2 * y),
                     -3.0 * np.cos(3 * x) * np.cos(2 * y), np.zeros_like(x)],
                    axis=1)


@pytest.fixture(scope="module", params=[1, 2, 3])
def jump_level(request):
    """Jittered two-material cube (mu 1 / 100) solved and estimated at k."""
    k = request.param
    m = jittered_cube(2, tag_fn=lambda c: int(c[0] > 0.5))
    j = fem.CurrentDensity(func=wave_j)
    dm, u, Hh, data = adm.solve_level(m, MU_JUMP, j, adm.RunConfig(degree=k))
    return m, Hh, eqm.estimate(m, MU_JUMP, data, Hh, dm.registry)


def _rel_err(got, want):
    return np.abs(got - want).max() / np.abs(want).max()


def _eta_from(m, Hh, corr, kp):
    fm = eqm.step2_face_multipliers(m, Hh, corr, kp)
    return eqm.step4_estimator(m, MU_JUMP, corr,
                               eqm.step3_reconstruct_phi(
                                   m, fm, fem.build_node_registry(m, kp)))


def _assert_step1_near_loop(m, kp, got, ref, ref_curl, size, h, cond):
    """The batched step 1 against its per-tet saddle loop (``loop_step1``),
    within what each tet's conditioning allows.

    Both solve the same reference problem for h.  Step 1 solves it as A_Z y
    = Z^T r and (B G) lam = B Z y, each by a backward-stable solve, so its h
    is within a small multiple of eps cond |h| of the exact solution, with
    cond = cond(A_Z) + cond(B G) (Higham, Accuracy and Stability of
    Numerical Algorithms, sec. 7.1).  The saddle's a priori bound, eps
    cond(S), is up to 10^4 times looser, but on this mesh the loop's h sat
    within 0.44 eps cond |h| of a 40-digit solve of its own system, and
    step 1's within 0.38.  So the two differ by at most delta = 4 eps cond
    |h|, and the maps to the field and to its curl carry that difference
    by their norms."""
    nR = ps.dim_nedelec_tet(kp)
    N = ps.reference_space(ps.NEDELEC1_TET, kp)
    eps = np.finfo(float).eps
    geom = m.geom()
    delta = 4 * eps * cond * np.linalg.norm(h, axis=1)
    Ncoef = N.coeffs.reshape(nR, -1)
    Ccoef = N.curl_coeffs().reshape(nR, -1)
    # the field: |J^-T| |h| |N| bounds the rounding of either path's
    # nR-term sum and 3-term map
    absH = np.abs(geom.Jinv.transpose(0, 2, 1)) @ (np.abs(h) @ np.abs(Ncoef)).reshape(m.n_tets, 3, -1)
    field_bound = (np.linalg.norm(geom.Jinv, 2, axis=(1, 2)) * np.linalg.norm(Ncoef, 2)
                   * delta)[:, None, None] + (nR + 3) * eps * absH
    assert np.all(np.abs(got.Hhat.coeffs - ref.Hhat.coeffs) <= field_bound)
    # the curl: differentiating Hhat against mapping the reference curls by
    # J / det J.  Along either path a coefficient is rounded by at most
    # nR + n_mono + 7 operations: the sum over the nR basis coefficients,
    # the 3-term maps by J^-T and J, the n_mono-term reference derivative
    # and the 3-term chain rule, the division by det J and the curl's
    # subtraction (Higham, sec. 3.1)
    gamma = nR + _poly.n_monomials(3, kp) + 7
    curl_map = (np.linalg.norm(geom.J, 2, axis=(1, 2)) * np.linalg.norm(Ccoef, 2)
                / geom.absdet)
    assert np.all(np.abs(got.Hhat.curl().coeffs - ref_curl.coeffs)
                  <= gamma * eps / 2 * size + (curl_map * delta)[:, None, None])


def test_step1_matches_loop_oracle(jump_level):
    # batched step 1 against the per-tet loop, at k' = k and k + 1, on the
    # analytic current and on its div-conforming projection
    m, Hh, out = jump_level
    k = Hh.degree
    for kp in (k, k + 1):
        for j in (fem.CurrentDensity(func=wave_j), fem.project_current(m, wave_j, kp)):
            got = eqm.step1_element_corrections(m, MU_JUMP, j, Hh, kp)
            ref, *oracle = loop_step1(m, MU_JUMP, j, Hh, kp)
            _assert_step1_near_loop(m, kp, got, ref, *oracle)
            assert _rel_err(got.jdelta_norm, ref.jdelta_norm) <= 1e-14
            # roundoff-level on projected data, so relative to the data; by
            # the triangle inequality the curl residual moves by at most the
            # norm of the curl of the difference of the two corrections
            jscale = ref.jdelta_norm.max()
            diff = dataclasses.replace(got, Hhat=got.Hhat.plus(ref.Hhat.scale(-1.0)))
            assert np.all(np.abs(got.resid - ref.resid)
                          <= diff.Hhat.curl().mu_norms() + 1e-14 * jscale)
            assert np.abs(got.ortho_resid - ref.ortho_resid).max() <= 1e-14 * jscale
            # steps 2-4 are linear in the correction, so eta_T moves by at
            # most the estimate of that difference alone, plus roundoff
            res, res_ref = _eta_from(m, Hh, got, kp), _eta_from(m, Hh, ref, kp)
            moved = _eta_from(m, Hh.scale(0.0), diff, kp)
            assert np.all(np.abs(res.eta_T - res_ref.eta_T)
                          <= moved.eta_T + 1e-14 * res_ref.eta_T.max())
            assert abs(res.eta_h - res_ref.eta_h) <= moved.eta_h + 1e-14 * res_ref.eta_h


@pytest.mark.parametrize("fault", ["no projection", "short complement"])
def test_step1_oracle_catches_a_faulty_step1(jump_level, monkeypatch, fault):
    # negative controls of _assert_step1_near_loop: a step 1 that skips the
    # gradient projection (G = 0 adds nothing back), and one whose
    # complement misses a direction (Z loses its first column).  At k' = 1
    # the projection is void: Z holds the fields c x (x - centroid), whose
    # mean, their pairing with the gradients, vanishes on every tet
    m, Hh, out = jump_level
    kp = Hh.degree + 1
    tab = copy.copy(fem._ref_tables(kp))
    if fault == "no projection":
        tab.G = np.zeros_like(tab.G)
    else:
        tab.Z = tab.Z[:, 1:]
        nR = len(tab.Z)
        tab.ZCCZ = (tab.Z.T @ tab.CC.reshape(9, nR, nR) @ tab.Z).reshape(9, -1)
        tab.wcurlZ = (tab.rule.weights[:, None, None] * tab.curls).reshape(-1, nR) @ tab.Z
    monkeypatch.setattr(eqm, "_ref_tables", lambda degree: tab)
    j = fem.CurrentDensity(func=wave_j)
    got = eqm.step1_element_corrections(m, MU_JUMP, j, Hh, kp)
    monkeypatch.undo()
    ref, *oracle = loop_step1(m, MU_JUMP, j, Hh, kp)
    with pytest.raises(AssertionError):
        _assert_step1_near_loop(m, kp, got, ref, *oracle)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_estimate_on_a_mesh_without_internal_faces(k):
    # one tet: every face is a boundary face, so steps 2 and 3 have nothing
    # to solve, phi = 0 and the estimate is the step-1 correction alone
    m = msh.build_mesh(ps.TET_VERTS, [[0, 1, 2, 3]])
    j = fem.CurrentDensity(func=cube_j)
    dm, u, Hh, data = adm.solve_level(m, MU1, j, adm.RunConfig(degree=k))
    out = eqm.estimate(m, MU1, data, Hh, dm.registry)
    assert out.multipliers.n_faces == 0 and out.multipliers.lam.shape == (0, dim_p_tri(k))
    assert not out.phi.phi.any() and out.phi.max_residual == 0.0
    assert np.array_equal(out.result.Htilde.coeffs, out.correction.Hhat.coeffs)
    assert out.result.eta_h == out.correction.Hhat.norm(MU1.per_tet(m))
    rep = eqm.verify_equilibrium(m, MU1, data, Hh, out)
    assert rep["face_resid"] == 0.0
    # the element residual is step 1's oscillation; cube_j (degree 2) is
    # in the curl range at k = 3, so equilibrium holds there
    assert abs(rep["elem_resid"] - out.correction.oscillation) <= 1e-12 * rep["j_norm"]
    assert (rep["elem_resid_rel"] <= eqm.EQUILIBRIUM_TOL) == (k == 3)
    assert not residual.compute_residual_estimator(
        m, out.correction.jdelta_norm, Hh, k).face_sq.any()


def test_singular_step1_system_names_the_tet():
    # permeability 0 on one subdomain (written past the constructor's check)
    # zeroes the multiplier block of its tets, so the stacked solve fails
    m = jittered_cube(2, tag_fn=lambda c: int(c[0] > 0.5))
    j = fem.CurrentDensity(func=wave_j)
    dm, u, Hh, data = adm.solve_level(m, MU_JUMP, j, adm.RunConfig(degree=1))
    mu = fem.MaterialField({0: 1.0, 1: 100.0})
    mu.values[1] = 0.0
    with pytest.raises(eqm.LocalSolveSingular) as exc:
        eqm.step1_element_corrections(m, mu, j, Hh, 1)
    assert m.subdomain_tag[exc.value.tet] == 1
    assert exc.value.value < 1e-12
    assert f"tet {exc.value.tet}:" in str(exc.value)


def test_nan_field_names_the_tet():
    m, dm, u, Hh, data = solve_cube(2, 1)
    t = 7
    bad = fem.BrokenPolyField(m, Hh.degree, Hh.coeffs.copy())
    bad.coeffs[t] = np.nan
    with pytest.raises(eqm.LocalSolveSingular) as exc:
        eqm.step1_element_corrections(m, MU1, data, bad, 1)
    assert exc.value.tet == t and np.isnan(exc.value.value)
    assert f"tet {t}:" in str(exc.value)


def test_step2_matches_loop_oracle(jump_level):
    m, Hh, out = jump_level
    fm = out.multipliers
    kp = fm.degree
    ref = loop_face_multipliers(m, Hh, out.correction, kp)
    for key in ("jnorm", "div_norm"):
        assert _rel_err(getattr(fm, key), ref[key]) <= 1e-12, key
    for key in ("resid", "mean_abs"):   # roundoff-level on compatible data
        assert np.abs(getattr(fm, key) - ref[key]).max() <= 1e-12 * fm.lam_scale
    # the multipliers by their values at the face rule points: the loop
    # stores them in face-frame monomials
    pts = face_rule_points(m, fm.internal_faces, ps.quadrature("tri", 2 * kp + 2))
    ref_vals = frame_eval(m, fm.internal_faces, kp, ref["lam"], pts)
    assert _rel_err(fm.eval(np.arange(fm.n_faces), pts), ref_vals) <= 1e-12
    # the estimator built on the loop multipliers
    loop_fm = dataclasses.replace(fm, lam=face_coefficients(ref_vals, kp))
    phi = eqm.step3_reconstruct_phi(m, loop_fm, out.phi.registry)
    res = eqm.step4_estimator(m, MU_JUMP, out.correction, phi)
    assert _rel_err(out.result.eta_T, res.eta_T) <= 1e-12
    assert abs(out.result.eta_h - res.eta_h) <= 1e-12 * res.eta_h


def test_lam_scale_is_the_largest_multiplier_at_the_face_rule_points(jump_level):
    m, Hh, out = jump_level
    fm = out.multipliers
    rule = ps.quadrature("tri", 2 * fm.degree)
    vals = np.abs(fm.eval(np.arange(fm.n_faces),
                          face_rule_points(m, fm.internal_faces, rule)))
    assert abs(fm.lam_scale - vals.max()) <= 1e-14 * vals.max()


def _step3_against_loop(m, Hh, out):
    fm = out.multipliers
    got = eqm.step3_reconstruct_phi(m, fm, out.phi.registry)
    ref = loop_step3(m, fm, fm.degree)
    assert _rel_err(got.phi, ref.phi) <= 1e-12
    assert abs(got.max_residual - ref.max_residual) <= 1e-12 * fm.lam_scale
    res = eqm.step4_estimator(m, MU_JUMP, out.correction, ref)
    assert _rel_err(out.result.eta_T, res.eta_T) <= 1e-12
    assert abs(out.result.eta_h - res.eta_h) <= 1e-12 * res.eta_h


def test_step3_matches_loop_oracle(jump_level):
    _step3_against_loop(*jump_level)
    # random bisection: vertex and edge patches of many shapes
    m = randomly_bisected(5, seed=7)
    j = fem.CurrentDensity(func=wave_j)
    dm, u, Hh, data = adm.solve_level(m, MU_JUMP, j,
                                      adm.RunConfig(degree=jump_level[1].degree))
    _step3_against_loop(m, Hh, eqm.estimate(m, MU_JUMP, data, Hh, dm.registry))


def test_step3_names_the_node_of_largest_residual(jump_level):
    m, Hh, out = jump_level
    # one perturbed face: a few patches lose consistency, one the most
    _, bumped = _bump_one_face(m, out.multipliers, _edge_between_boundary_vertices(m))
    got = eqm.step3_reconstruct_phi(m, bumped, out.phi.registry)
    ref = loop_step3(m, bumped, bumped.degree)
    assert got.max_residual > 1e-9 * bumped.lam_scale
    assert got.worst_node_name == ref.worst_node_name


def test_step3_worst_node_is_stable_under_roundoff(monkeypatch):
    # the first level of `curlest run cube_poly --degree 2`: by symmetry two
    # vertices share the largest patch residual, so roundoff alone would
    # pick between them; the lowest id within 1e-12 of the largest is named
    # however each face's multiplier is rounded.  Negative control: a real
    # bump moves the name (test_step3_names_the_node_of_largest_residual)
    spec = bench.builtin_problems()["cube_poly"]
    cfg = adm.RunConfig(degree=2)
    m = spec.make_mesh(spec.uniform_res[2][0])
    dm, u, Hh, data = adm.solve_level(m, spec.mu, spec.current(), cfg)
    fm = adm.estimate_level(dm, spec.mu, data, Hh, cfg).multipliers
    resid = []
    solve = eqm.solve_node_patches

    def recorded(*args):
        x, r = solve(*args)
        resid.append(r)
        return x, r

    monkeypatch.setattr(eqm, "solve_node_patches", recorded)
    want = eqm.step3_reconstruct_phi(m, fm, dm.registry)
    tied = np.nonzero(resid[0] >= (1.0 - 1e-12) * resid[0].max())[0]
    assert len(tied) >= 2 and want.worst_node == tied.min()
    assert want.max_residual > 1e-3 * fm.lam_scale     # a tie of real residuals
    rng = np.random.default_rng(0)
    for _ in range(40):
        lam = fm.lam * (1.0 + 1e-15 * rng.choice([-1.0, 1.0], (fm.n_faces, 1)))
        got = eqm.step3_reconstruct_phi(m, dataclasses.replace(fm, lam=lam), dm.registry)
        assert got.worst_node_name == want.worst_node_name


def test_step3_matches_loop_oracle_above_solve_degree():
    # k = 3 < k' = 4: face and cell nodes, degree-4 registry
    m = jittered_cube(2, tag_fn=lambda c: int(c[0] > 0.5))
    j = fem.CurrentDensity(func=wave_j)
    dm, u, Hh, data = adm.solve_level(m, MU_JUMP, j, adm.RunConfig(degree=3))
    _step3_against_loop(m, Hh, eqm.estimate(m, MU_JUMP, data, Hh,
                                            fem.build_node_registry(m, 4)))


@pytest.mark.parametrize("k, kp", [(1, 1), (2, 3), (3, 4)])
def test_step3_matches_loop_oracle_in_every_orientation(k, kp):
    # the relabelled cube puts its internal faces at each of the 4 local
    # faces on both sides, so step 3 reads every row of its node table.  At
    # k' = 4 each face has three nodes of its own, whose local positions
    # differ from one local face to another
    m = relabelled_cube(3)
    internal = m.internal_faces()
    for side in (0, 1):
        assert set(m.face_local[internal, side]) == {0, 1, 2, 3}
    j = fem.CurrentDensity(func=wave_j)
    dm, u, Hh, data = adm.solve_level(m, MU_JUMP, j, adm.RunConfig(degree=k))
    _step3_against_loop(m, Hh, eqm.estimate(m, MU_JUMP, data, Hh,
                                            fem.build_node_registry(m, kp)))


def test_step3_names_a_node_missing_from_the_minus_tet():
    # negative control of the node lookup: T- of one internal face holds
    # another id in place of the face's own node, which lies on no other
    # face's closure; control: the intact registry reconstructs
    m = relabelled_cube(3)
    j = fem.CurrentDensity(func=wave_j)
    dm, u, Hh, data = adm.solve_level(m, MU_JUMP, j, adm.RunConfig(degree=3))
    fm = eqm.estimate(m, MU_JUMP, data, Hh, dm.registry).multipliers
    reg = dm.registry
    f = int(m.internal_faces()[7])
    g = int(np.nonzero((reg.kind == ps.NODE_FACE) & (reg.entity == f))[0][0])
    tm = m.face_tets[f, 1]
    bad = reg.tet_nodes.copy()
    bad[tm, bad[tm] == g] = 0
    with pytest.raises(eqm.OrphanNode) as exc:
        eqm.step3_reconstruct_phi(m, fm, dataclasses.replace(reg, tet_nodes=bad))
    assert (exc.value.node, exc.value.kind, exc.value.entity) == (g, ps.NODE_FACE, f)
    assert f"node {g}: tet {tm} of face {f}" in str(exc.value)
    eqm.step3_reconstruct_phi(m, fm, reg)


def test_edge_sums_match_loop_oracle(jump_level):
    m, Hh, out = jump_level
    rep = eqm.check_edge_compatibility(m, out.multipliers)
    max_abs, variation = loop_edge_sums(m, out.multipliers)
    assert np.abs(rep.max_abs - max_abs).max() <= 1e-12 * rep.lam_scale
    assert np.abs(rep.variation - variation).max() <= 1e-12 * rep.lam_scale
    # random multipliers: the sums are O(1), so signs and incidences show
    fm = dataclasses.replace(out.multipliers, lam=RNG.standard_normal(
        out.multipliers.lam.shape))
    rep = eqm.check_edge_compatibility(m, fm)
    max_abs, variation = loop_edge_sums(m, fm)
    assert _rel_err(rep.max_abs, max_abs) <= 1e-12
    assert _rel_err(rep.variation, variation) <= 1e-12


def test_jump_norms_match_loop_oracle(jump_level):
    m, Hh, out = jump_level
    tang, norm = loop_jump_norms(m, Hh)
    assert _rel_err(fem.tangential_jump_norms(m, Hh), tang) <= 1e-12
    assert _rel_err(normal_jump_norms(m, Hh), norm) <= 1e-12


def test_face_kernels_memory_peak():
    # the batched kernels hold (tets or faces, points, ...) temporaries; each
    # call's traced peak on the 1296-tet, 2376-internal-face cube at k=1
    # stays below 10 MB
    m, dm, u, Hh, data = solve_cube(6, 1)
    corr = eqm.step1_element_corrections(m, MU1, data, Hh, 1)
    fm = eqm.step2_face_multipliers(m, Hh, corr, 1)
    calls = {"step1": lambda: eqm.step1_element_corrections(m, MU1, data, Hh, 1),
             "step2": lambda: eqm.step2_face_multipliers(m, Hh, corr, 1),
             "edge_check": lambda: eqm.check_edge_compatibility(m, fm),
             "jump_norms": lambda: fem.tangential_jump_norms(m, Hh)}
    peaks = {}
    tracemalloc.start()
    try:
        for name, call in calls.items():
            call()                          # fill the mesh and table caches
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            call()
            peaks[name] = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert max(peaks.values()) < 10 * 2 ** 20, peaks


def test_singular_face_system_names_the_face():
    # a zero area on one face (written into the mesh's cached areas) zeroes
    # its system, so the batched solve fails on that face alone
    m = msh.unit_cube_mesh(2)
    faces = m.internal_faces()
    m.face_areas()[faces[3]] = 0.0
    rule = ps.quadrature("tri", 2)
    jump = np.ones((len(faces), len(rule.weights), 3))
    with pytest.raises(eqm.FaceSolveSingular) as exc:
        eqm._face_multiplier_solve(m, faces, jump, 1)
    assert exc.value.face == faces[3] and exc.value.value == 0.0
    assert f"face {faces[3]}" in str(exc.value)


def test_nan_trace_names_the_face():
    m, dm, u, Hh, data = solve_cube(2, 1)
    corr = eqm.step1_element_corrections(m, MU1, data, Hh, 1)
    t = 7
    bad = fem.BrokenPolyField(m, Hh.degree, Hh.coeffs.copy())
    bad.coeffs[t] = np.nan
    with pytest.raises(eqm.FaceSolveSingular) as exc:
        eqm.step2_face_multipliers(m, bad, corr, 1)
    assert exc.value.face in m.tet_faces[t]
    assert not m.boundary_face[exc.value.face]
    assert f"face {exc.value.face}" in str(exc.value)


# ---------------------------------------------------------------------------
# step 3
# ---------------------------------------------------------------------------

def test_node_patch_solver_zero_data():
    sol, resid = solve_node_patch(4, [(0, 1), (1, 2), (2, 3)], [0., 0., 0.])
    assert np.abs(sol).max() < 1e-14 and resid < 1e-14


def test_node_patch_prefix_sum_oracle():
    # consistent ring data: the least-squares solution matches the explicit
    # zero-mean prefix-sum construction
    rng = np.random.default_rng(5)
    for trial in range(50):
        mring = int(rng.integers(3, 9))
        phi_star = rng.standard_normal(mring)
        phi_star -= phi_star.mean()
        pairs = [(i, (i + 1) % mring) for i in range(mring)]
        values = [phi_star[a] - phi_star[b] for a, b in pairs]
        sol, resid = solve_node_patch(mring, pairs, values)
        assert resid < 1e-12 * max(1.0, np.abs(values).max())
        assert np.abs(sol - phi_star).max() < 1e-10


def test_step3_face_interior_half_values():
    m, Hh, data, out = _estimate_cube(1, 3, kp=3)
    reg = out.phi.registry
    fm = out.multipliers
    points = node_points(m, reg)
    checked = 0
    for g in range(reg.n_nodes):
        if reg.kind[g] != ps.NODE_FACE or m.boundary_face[reg.entity[g]]:
            continue
        f = int(reg.entity[g])
        val = float(fm.eval(face_index(fm, f), points[g][None, :])[0])
        tp, tm = m.face_tets[f]
        tets, _ = np.nonzero(reg.tet_nodes == g)
        got = dict(zip(tets, out.phi.phi[reg.tet_nodes == g]))
        assert abs(got[tp] - 0.5 * val) < 1e-12 * max(1, abs(val))
        assert abs(got[tm] + 0.5 * val) < 1e-12 * max(1, abs(val))
        checked += 1
    assert checked > 0


def test_step3_zero_for_zero_multipliers():
    m, Hh, data, out = _estimate_cube(2, 1)
    fm = out.multipliers
    fm.lam[:] = 0.0
    phi = eqm.step3_reconstruct_phi(m, fm, out.phi.registry)
    assert np.abs(phi.phi).max() == 0.0


def test_step3_jump_matches_multiplier_polynomials():
    # the jump of the reconstructed potential equals the multiplier on every
    # internal face, checked at quadrature points
    m, Hh, data, out = _estimate_cube(2, 2, kp=2, strict=True)
    poly = out.phi.poly(m)
    rule = ps.quadrature("tri", 6)
    fm = out.multipliers
    scale = max(fm.lam_scale, 1e-30)
    for ii, f in enumerate(fm.internal_faces):
        pts = face_rule_points(m, f, rule)
        tp, tm = m.face_tets[f]
        jump = (eval_one(poly, tp, ref_coords(m, tp, pts))
                - eval_one(poly, tm, ref_coords(m, tm, pts)))[:, 0]
        lam = fm.eval(ii, pts)
        assert np.abs(jump - lam).max() < 1e-9 * scale


def test_step3_mean_condition():
    m, Hh, data, out = _estimate_cube(2, 1)
    reg = out.phi.registry
    for g in range(reg.n_nodes):
        vals = out.phi.phi[reg.tet_nodes == g]
        assert abs(sum(vals)) < 1e-10 * max(1.0, np.abs(vals).max())


# ---------------------------------------------------------------------------
# step 4
# ---------------------------------------------------------------------------

def test_step4_zero_inputs():
    m, Hh, data, out = _estimate_cube(1, 1)
    out.correction.Hhat.coeffs[:] = 0.0
    out.phi.phi[:] = 0.0
    res = eqm.step4_estimator(m, MU1, out.correction, out.phi)
    assert res.eta_h == 0.0


def test_step4_constant_field_closed_form():
    m = msh.unit_cube_mesh(1)
    nm = _poly.n_monomials(3, 1)
    coeffs = np.zeros((m.n_tets, 3, nm))
    c = np.array([0.4, -1.2, 2.0])
    coeffs[0, :, 0] = c
    corr = eqm.ElementCorrection(
        Hhat=fem.BrokenPolyField(m, 1, coeffs), resid=np.zeros(m.n_tets),
        oscillation=0.0, jdelta_norm=np.zeros(m.n_tets),
        ortho_resid=np.zeros(m.n_tets), degree=1)
    reg = fem.build_node_registry(m, 1)
    phi = eqm.NodalPotential(reg, np.zeros((m.n_tets, 4)), 0.0, 0, reg.node_name(0))
    res = eqm.step4_estimator(m, MU1, corr, phi)
    V = m.geom().absdet[0] / 6
    assert abs(res.eta_T[0] - np.linalg.norm(c) * np.sqrt(V)) < 1e-13
    assert res.eta_T[1:].max() == 0.0


def test_step4_additivity():
    m, Hh, data, out = _estimate_cube(2, 2)
    res = out.result
    assert abs(res.eta_h ** 2 - (res.eta_T ** 2).sum()) <= 1e-12 * res.eta_h ** 2


# ---------------------------------------------------------------------------
# verify_equilibrium and global invariants
# ---------------------------------------------------------------------------

def test_equilibrium_native_degree_three():
    m, Hh, data, out = _estimate_cube(1, 3, kp=3)
    rep = eqm.verify_equilibrium(m, MU1, data, Hh, out)
    assert rep["ok"]
    assert rep["elem_resid_rel"] <= 1e-9
    assert rep["face_resid_rel"] <= 1e-9
    assert rep["ortho_rel_max"] <= 1e-9


def test_equilibrium_projected_low_degree():
    m, Hh, data, out = _estimate_cube(2, 1, strict=True)
    assert data.is_polynomial
    rep = eqm.verify_equilibrium(m, MU1, data, Hh, out)
    assert rep["ok"]
    assert rep["elem_resid_rel"] <= 1e-9
    assert rep["face_resid_rel"] <= 1e-9


def test_equilibrium_negative_control_without_step3():
    m, Hh, data, out = _estimate_cube(2, 1, strict=True)
    out.phi.phi[:] = 0.0
    res = eqm.step4_estimator(m, MU1, out.correction, out.phi)
    broken = eqm.EquilibrationOutput(out.correction, out.multipliers,
                                     out.phi, res)
    rep = eqm.verify_equilibrium(m, MU1, data, Hh, broken)
    assert rep["face_resid_rel"] > 0.1       # jump stays at its original size
    assert rep["ok"] is False


def test_relabelled_cube_keeps_eta_and_step1_needs_the_sign_of_det_J(monkeypatch):
    # the Kuhn cube and a relabelled copy store the same tets in other
    # vertex orders, each of either orientation; the k = 3 estimates agree
    # to roundoff.  Negative control: step 1 with every det J taken as
    # positive loses the element equilibrium on the negatively oriented tets
    spec = bench.builtin_problems()["cube_poly"]
    cfg = adm.RunConfig(degree=3)
    eta = []
    for m in (msh.unit_cube_mesh(3), relabelled_cube(3)):
        dm, _, Hh, data = adm.solve_level(m, spec.mu, spec.current(), cfg)
        out = adm.estimate_level(dm, spec.mu, data, Hh, cfg)
        assert eqm.verify_equilibrium(m, spec.mu, data, Hh, out)["ok"]
        eta.append(out.result.eta_h)
    assert abs(eta[1] - eta[0]) <= 1e-11 * eta[0]
    geom = m.geom()
    monkeypatch.setattr(geom, "sign", np.ones_like(geom.sign))
    out = adm.estimate_level(dm, spec.mu, data, Hh, cfg)
    rep = eqm.verify_equilibrium(m, spec.mu, data, Hh, out)
    assert not rep["ok"] and rep["elem_resid_rel"] > 1e-3


def test_zero_error_fixed_point():
    # potential representable in the space, data matching its double curl:
    # every pipeline stage returns zero
    m = msh.unit_cube_mesh(2)
    dm = fem.build_dofmap(m, 2)
    u = fem.interpolate_nedelec(m, dm, inspace_u)
    Hh = fem.compute_Hh(m, dm, u, MU1)
    j = fem.CurrentDensity(func=inspace_j)
    out = eqm.estimate(m, MU1, j, Hh, dm.registry)
    assert out.result.eta_h <= 1e-8 * max(1.0, np.linalg.norm([3.0]))


def test_gauge_independence():
    m, dm, u, Hh, data = solve_cube(2, 2)
    out1 = eqm.estimate(m, MU1, data, Hh, dm.registry)
    err1 = fem.l2_error_against(m, MU1, Hh, cube_H)
    u2 = fem.FieldCoefficients(dm, u.values.copy())
    u2.values[dm.free] += dm.G @ RNG.standard_normal(dm.G.shape[1])
    Hh2 = fem.compute_Hh(m, dm, u2, MU1)
    out2 = eqm.estimate(m, MU1, data, Hh2, dm.registry)
    err2 = fem.l2_error_against(m, MU1, Hh2, cube_H)
    assert abs(out1.result.eta_h - out2.result.eta_h) <= 1e-9 * out1.result.eta_h
    assert abs(err1 - err2) <= 1e-9 * err1


def test_renumbering_invariance():
    rng = np.random.default_rng(5)
    m1 = msh.unit_cube_mesh(2)
    perm = rng.permutation(m1.n_vertices)
    inv = np.empty_like(perm)
    inv[perm] = np.arange(len(perm))
    order = rng.permutation(m1.n_tets)
    m2 = msh.build_mesh(m1.vertices[perm], inv[m1.tets][order],
                        m1.subdomain_tag[order])

    from curlest import adapt as adm

    def run(m, kp):
        cfg = adm.RunConfig(degree=1, aux_degree=kp)
        j = fem.CurrentDensity(func=cube_j)
        dm, u, Hh, data = adm.solve_level(m, MU1, j, cfg)
        out = adm.estimate_level(dm, MU1, data, Hh, cfg)
        return out.result.eta_h, fem.l2_error_against(m, MU1, Hh, cube_H)

    for kp in (1, 3):
        (e1, r1), (e2, r2) = run(m1, kp), run(m2, kp)
        assert abs(e1 - e2) <= 1e-10 * e1
        assert abs(r1 - r2) <= 1e-12 * r1


def test_reliability_native_a2():
    # with natively polynomial data the estimator bounds the error with no
    # oscillation correction at all
    for k, n in [(1, 2), (1, 4), (2, 2), (3, 1), (3, 2)]:
        m, dm, u, Hh, data = solve_cube(n, k, aux=3)
        out = eqm.estimate(m, MU1, data, Hh, fem.build_node_registry(m, 3))
        err = fem.l2_error_against(m, MU1, Hh, cube_H)
        assert out.result.eta_h >= err * (1.0 - 1e-8)


def test_estimate_rerun_bitwise():
    # two runs on the same inputs give the same bits
    m, dm, u, Hh, data = solve_cube(4, 1)
    out1 = eqm.estimate(m, MU1, data, Hh, dm.registry)
    out2 = eqm.estimate(m, MU1, data, Hh, dm.registry)
    assert out1.result.eta_h == out2.result.eta_h
    assert (out1.result.eta_T == out2.result.eta_T).all()


def test_strict_mode_rejects_divergent_data():
    m, dm, u, Hh, data = solve_cube(2, 1, strict_a2=True)
    bad = fem.CurrentDensity(func=data.func, field=fem.BrokenPolyField(
        m, data.field.degree, data.field.coeffs.copy()))
    t = 13
    bad.field.coeffs[t, 0, 1] += 1.0     # x-dependence in one tet: div != 0
    with pytest.raises(eqm.DataIncompatible) as exc:
        eqm.step1_element_corrections(m, MU1, bad, Hh, 1, strict_a2=True)
    # the error names that tet and its div_norm * h_min / jscale, with
    # jscale the largest element norm of the data
    jd = bad.field.plus(Hh.curl().scale(-1.0))
    ratio = jd.div().mu_norms()[t] * m.h_min_edge() / bad.field.mu_norms().max()
    assert exc.value.tet == t
    assert exc.value.value == pytest.approx(ratio, rel=1e-12)
    assert f"tet {t}:" in str(exc.value)


def test_strict_mode_rejects_incompatible_face_data():
    # unprojected low-degree data leaves an element residual, so the face
    # data picks up a genuine in-plane divergence that strict mode must flag
    m, dm, u, Hh, data = solve_cube(2, 1)
    corr = eqm.step1_element_corrections(m, MU1, data, Hh, 1)
    assert corr.oscillation > 1e-3   # data genuinely incompatible at k'=1
    with pytest.raises(eqm.FaceIncompatible) as exc:
        eqm.step2_face_multipliers(m, Hh, corr, 1, strict=True)
    # the error names the face with the largest div_norm and its ratio to
    # jscale, the largest face norm of the curl of the corrected field
    fm = eqm.step2_face_multipliers(m, Hh, corr, 1)
    faces, rule = fm.internal_faces, ps.quadrature("tri", 2)
    curl = Hh.plus(corr.Hhat).curl().eval_points(
        m.face_tets[faces, 0], face_rule_points(m, faces, rule))
    jscale = np.sqrt(2.0 * m.face_areas()[faces]
                     * np.einsum("q,fqc,fqc->f", rule.weights, curl, curl)).max()
    ratio = fm.div_norm / jscale
    worst = int(np.argmax(ratio))
    assert exc.value.face == fm.internal_faces[worst]
    assert exc.value.value == pytest.approx(ratio[worst], rel=1e-12)
    assert f"face {exc.value.face}" in str(exc.value)


def _edge_between_boundary_vertices(m):
    """An interior edge whose two vertices lie on the boundary."""
    ie = m.internal_edges()
    return int(ie[m.boundary_vertex[m.edges[ie]].all(axis=1)][0])


def _bump_one_face(m, fm, e):
    """fm with 1e-6 lam_scale added to the multiplier of the first face
    around interior edge e; returns that face and the perturbed copy."""
    f = int(edge_faces(m, e)[0])
    lam = fm.lam.copy()
    lam[face_index(fm, f), 0] += 1e-6 * fm.lam_scale
    return f, dataclasses.replace(fm, lam=lam)


def _assert_patch_names_face_node(err, m, f):
    assert err.kind in (ps.NODE_VERTEX, ps.NODE_EDGE)
    assert err.entity in (m.faces[f] if err.kind == ps.NODE_VERTEX
                          else m.face_edges[f])


@pytest.mark.parametrize("k, kp", [(2, 2), (3, 4)])
def test_step3_residual_flags_a_perturbed_multiplier(k, kp):
    # negative control of step 3's certificate of the edge cycle condition:
    # cube_jump_mu_100's data are compatible, so the patch residual sits at
    # roundoff until one multiplier around an interior edge between two
    # boundary vertices moves by 1e-6 lam_scale
    spec = bench.builtin_problems()["cube_jump_mu_100"]
    m = spec.initial_mesh()
    cfg = adm.RunConfig(degree=k, aux_degree=kp)
    dm, u, Hh, data = adm.solve_level(m, spec.mu, spec.current(), cfg)
    out = adm.estimate_level(dm, spec.mu, data, Hh, cfg)
    fm, reg = out.multipliers, out.phi.registry
    assert out.phi.max_residual <= 1e-9 * fm.lam_scale
    f, bumped = _bump_one_face(m, fm, _edge_between_boundary_vertices(m))
    assert eqm.step3_reconstruct_phi(m, bumped, reg).max_residual > 1e-9 * fm.lam_scale
    assert eqm.check_edge_compatibility(m, bumped).max_abs.max() > 1e-9 * fm.lam_scale
    with pytest.raises(eqm.InconsistentPatch) as exc:
        eqm.step3_reconstruct_phi(m, bumped, reg, strict=True)
    _assert_patch_names_face_node(exc.value, m, f)


def _broken_jump_multipliers(m, kp, rng):
    """Multipliers lambda_f = psi_{T+} - psi_{T-} of a random broken P_k'
    potential psi, fitted by their values at the face rule points: every
    cycle sum telescopes to zero."""
    internal = m.internal_faces()
    psi = fem.BrokenPolyField(m, kp, rng.standard_normal(
        (m.n_tets, 1, _poly.n_monomials(3, kp))))
    pts = face_rule_points(m, internal, ps.quadrature("tri", 2 * kp + 2))
    vals = (psi.eval_points(m.face_tets[internal, 0], pts)
            - psi.eval_points(m.face_tets[internal, 1], pts))[:, :, 0]
    v = m.vertices[m.faces[internal]]
    E = v[:, 1:] - v[:, :1]
    zero = np.zeros(len(internal))
    # no field lies behind these multipliers: their own size scales them
    scale = float(np.abs(vals).max())
    return eqm.FaceMultiplier(kp, internal, face_coefficients(vals, kp), v[:, 0],
                              E.transpose(0, 2, 1) @ np.linalg.inv(E @ E.transpose(0, 2, 1)),
                              zero, zero, zero, zero, scale, scale)


@pytest.mark.parametrize("kp", [1, 2, 3, 4])
def test_step3_certifies_cycle_sums_of_broken_jumps(kp):
    # compatible multipliers by construction: step 3's residual and the
    # edge-sum oracle both at roundoff.  The one interior edge of
    # unit_cube_mesh(1) joins two boundary vertices, so at k' = 1 only the
    # boundary vertices' patches certify it; perturbing one of its faces
    # must show there
    rng = np.random.default_rng(kp)
    for m in (msh.unit_cube_mesh(1), jittered_cube(2)):
        fm = _broken_jump_multipliers(m, kp, rng)
        reg = fem.build_node_registry(m, kp)
        scale = fm.lam_scale
        assert eqm.step3_reconstruct_phi(m, fm, reg).max_residual <= 1e-9 * scale
        rep = eqm.check_edge_compatibility(m, fm)
        assert rep.max_abs.max() <= 1e-9 * scale
        assert rep.variation.max() <= 1e-9 * scale
        f, bumped = _bump_one_face(m, fm, _edge_between_boundary_vertices(m))
        assert eqm.step3_reconstruct_phi(m, bumped, reg).max_residual > 1e-9 * scale
        with pytest.raises(eqm.InconsistentPatch) as exc:
            eqm.step3_reconstruct_phi(m, bumped, reg, strict=True)
        _assert_patch_names_face_node(exc.value, m, f)


def test_strict_mode_rejects_inconsistent_multipliers():
    m, Hh, data, out = _estimate_cube(2, 1, strict=True)
    fm = out.multipliers
    fm.lam[0, 0] += 10.0 * max(fm.lam_scale, 1.0)   # break one face constant
    with pytest.raises(eqm.InconsistentPatch) as exc:
        eqm.step3_reconstruct_phi(m, fm, out.phi.registry, strict=True)
    # the error names a node of the broken face and its residual over the
    # largest face trace of the corrected field
    err = exc.value
    f = fm.internal_faces[0]
    assert err.kind in (ps.NODE_VERTEX, ps.NODE_EDGE)
    assert err.entity in (m.faces[f] if err.kind == ps.NODE_VERTEX else m.face_edges[f])
    phi = eqm.step3_reconstruct_phi(m, fm, out.phi.registry)
    assert err.value == pytest.approx(phi.max_residual / fm.trace_scale, rel=1e-12)
    assert f"node {err.node} " in str(err)


def test_equilibrium_on_irregular_bisected_mesh():
    # several rounds of random bisection produce stretched elements with
    # arbitrary face orientations; with compatible data the pipeline must
    # stay exact there too
    m = randomly_bisected(6, seed=99)
    j = fem.CurrentDensity(func=cube_j)
    cfg = adm.RunConfig(degree=2)
    dm, u, Hh, data = adm.solve_level(m, MU1, j, cfg)
    out = eqm.estimate(m, MU1, j, Hh, fem.build_node_registry(m, 3))  # solve's data
    rep = eqm.verify_equilibrium(m, MU1, j, Hh, out)
    assert rep["ok"]
    assert rep["elem_resid_rel"] <= 1e-9
    assert rep["face_resid_rel"] <= 1e-9
    _assert_cycle_sums_vanish(m, out)
    err = fem.l2_error_against(m, MU1, Hh, cube_H)
    assert out.result.eta_h >= err * (1 - 1e-8)
    assert out.result.eta_h <= 2.5 * err
