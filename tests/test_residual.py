import numpy as np
import pytest

from curlest import _poly
from curlest import adapt as adm
from curlest import equilibrate as eqm
from curlest import femsys as fem
from curlest import mesh as msh
from curlest import polyspace as ps
from curlest import residual as res
from _helpers import (MU1, cube_j, einsum_curl, einsum_eval, einsum_map_points,
                      face_frame, inspace_j, inspace_u, jittered_cube,
                      two_tet_mesh)

RNG = np.random.default_rng(31)


def residual_estimator(m, j, Hh, k):
    """The residual estimator with its volume term from step 1 at k' = k."""
    jd = eqm.step1_element_corrections(m, MU1, j, Hh, k).jdelta_norm
    return res.compute_residual_estimator(m, jd, Hh, k)


def test_exact_field_gives_zero():
    # a smooth in-space potential with matching data: both terms vanish
    m = msh.unit_cube_mesh(2)
    dm = fem.build_dofmap(m, 2)
    u = fem.interpolate_nedelec(m, dm, inspace_u)
    Hh = fem.compute_Hh(m, dm, u, MU1)
    rr = residual_estimator(m, fem.CurrentDensity(func=inspace_j), Hh, 2)
    assert rr.mu_h < 1e-10


def test_lowest_order_volume_term_is_data_only():
    m = msh.unit_cube_mesh(1)
    dm = fem.build_dofmap(m, 1)
    u = fem.FieldCoefficients(dm, RNG.standard_normal(dm.n_dofs))
    Hh = fem.compute_Hh(m, dm, u, MU1)
    jconst = np.array([0.3, 0.7, -0.2])
    j = fem.CurrentDensity(func=lambda p: np.tile(jconst, (len(p), 1)))
    rr = residual_estimator(m, j, Hh, 1)
    hT = m.tet_diameters()
    expected = hT ** 2 * np.dot(jconst, jconst) * (m.geom().absdet / 6)
    assert np.abs(rr.vol_T - expected).max() < 1e-12 * expected.max()


def test_volume_weight_closed_form():
    # zero field and constant data: the residual is j itself, so each volume
    # term is h_T^2/k^2 |j|^2 |T| exactly and every face term vanishes
    m = msh.unit_cube_mesh(2)
    jconst = np.array([0.3, 0.7, -0.2])
    j = fem.CurrentDensity(func=lambda p: np.tile(jconst, (len(p), 1)))
    hT = m.tet_diameters()
    for k in (1, 2, 3):
        Hh = fem.BrokenPolyField(
            m, k, np.zeros((m.n_tets, 3, _poly.n_monomials(3, k))))
        rr = residual_estimator(m, j, Hh, k)
        expected = hT ** 2 / k ** 2 * np.dot(jconst, jconst) * (m.geom().absdet / 6)
        assert np.abs(rr.vol_T - expected).max() < 1e-12 * expected.max()
        assert not rr.face_sq.any()


def test_constant_jump_closed_form():
    # hand-built broken field with a constant tangential jump on the single
    # internal face: contribution is h_f/k |g|^2 A exactly
    m = two_tet_mesh()
    f = int(m.internal_faces()[0])
    n = m.face_normals()[f]
    t1 = face_frame(m, f).t1
    nm = _poly.n_monomials(3, 1)
    coeffs = np.zeros((m.n_tets, 3, nm))
    coeffs[0, :, 0] = t1          # plus side: tangent field
    coeffs[1, :, 0] = 0.0
    Hh = fem.BrokenPolyField(m, 1, coeffs)
    j = fem.CurrentDensity(func=lambda p: np.zeros((len(p), 3)))
    for k in (1, 2, 3):
        rr = residual_estimator(m, j, Hh, k)
        A = m.face_areas()[f]
        hf = m.face_diameters()[f]
        gsq = 1.0  # |n x t1| = 1
        assert abs(rr.face_sq[f] - hf / k * gsq * A) < 1e-12


def test_totals_additive():
    m = msh.unit_cube_mesh(2)
    dm = fem.build_dofmap(m, 1)
    u = fem.FieldCoefficients(dm, RNG.standard_normal(dm.n_dofs))
    Hh = fem.compute_Hh(m, dm, u, MU1)
    j = fem.CurrentDensity(func=lambda p: np.tile([1.0, 0, 0], (len(p), 1)))
    rr = residual_estimator(m, j, Hh, 1)
    total_sq = rr.vol_T.sum() + rr.face_sq.sum()
    assert abs(rr.mu_h ** 2 - total_sq) <= 1e-12 * rr.mu_h ** 2


def test_volume_term_quarters_under_structured_halving():
    # frozen field (zero) and frozen data: on the halved structured mesh each
    # element's diameter halves, so the volume term scales by 1/4 per element
    jconst = np.array([1.0, -2.0, 0.5])
    j = fem.CurrentDensity(func=lambda p: np.tile(jconst, (len(p), 1)))
    vals = {}
    for n in (2, 4):
        m = msh.unit_cube_mesh(n)
        Hh = fem.BrokenPolyField(m, 1, np.zeros((m.n_tets, 3, 4)))
        rr = residual_estimator(m, j, Hh, 1)
        # per-element value, identical across the structured mesh families
        vals[n] = rr.vol_T.sum() / 1.0  # total over the fixed domain
    # halving h multiplies each element's h_T^2 by 1/4 at fixed field
    assert abs(vals[4] / vals[2] - 0.25) < 1e-12



@pytest.mark.parametrize("k", [1, 2, 3])
def test_volume_term_matches_einsum_oracle(k):
    # a solved level with analytic data at k = k': the volume term is
    # h_T^2/k^2 ||j - curl H_h||_T^2 at the data rule, integrated here with
    # einsum from the oracle point map and broken-field evaluation
    m = jittered_cube(2)
    j = fem.CurrentDensity(func=cube_j)
    cfg = adm.RunConfig(degree=k)
    dm, _, Hh, data = adm.solve_level(m, MU1, j, cfg)
    out = adm.estimate_level(dm, MU1, data, Hh, cfg)
    rr = res.compute_residual_estimator(m, out.correction.jdelta_norm, Hh, k)

    rule = ps.quadrature("tet", fem._data_exactness(k))
    tets = np.arange(m.n_tets)
    pts = einsum_map_points(m.geom(), tets, rule.points)
    curl = fem.BrokenPolyField(m, k, einsum_curl(Hh))
    diff = (cube_j(pts.reshape(-1, 3)).reshape(pts.shape)
            - einsum_eval(curl, tets, rule.points))
    want = (m.tet_diameters() ** 2 / k ** 2 * m.geom().absdet
            * np.einsum("q,tqc,tqc->t", rule.weights, diff, diff))
    assert np.abs(rr.vol_T - want).max() <= 1e-13 * want.max()
    face_sq = m.face_diameters() / k * fem.tangential_jump_norms(m, Hh) ** 2
    assert rr.mu_h == pytest.approx(np.sqrt(want.sum() + face_sq.sum()), rel=1e-13)
