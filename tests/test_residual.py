import numpy as np

from curlest import _poly
from curlest import femsys as fem
from curlest import mesh as msh
from curlest import residual as res
from _helpers import MU1, face_frame, inspace_j, inspace_u, two_tet_mesh

RNG = np.random.default_rng(31)


def test_exact_field_gives_zero():
    # a smooth in-space potential with matching data: both terms vanish
    m = msh.unit_cube_mesh(2)
    dm = fem.build_dofmap(m, 2)
    u = fem.interpolate_nedelec(m, dm, inspace_u)
    Hh = fem.compute_Hh(m, dm, u, MU1)
    rr = res.compute_residual_estimator(
        m, fem.CurrentDensity(func=inspace_j), Hh, 2)
    assert rr.mu_h < 1e-10


def test_lowest_order_volume_term_is_data_only():
    m = msh.unit_cube_mesh(1)
    dm = fem.build_dofmap(m, 1)
    u = fem.FieldCoefficients(dm, RNG.standard_normal(dm.n_dofs))
    Hh = fem.compute_Hh(m, dm, u, MU1)
    jconst = np.array([0.3, 0.7, -0.2])
    j = fem.CurrentDensity(func=lambda p: np.tile(jconst, (len(p), 1)))
    rr = res.compute_residual_estimator(m, j, Hh, 1)
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
        rr = res.compute_residual_estimator(m, j, Hh, k)
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
        rr = res.compute_residual_estimator(m, j, Hh, k)
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
    rr = res.compute_residual_estimator(m, j, Hh, 1)
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
        rr = res.compute_residual_estimator(m, j, Hh, 1)
        # per-element value, identical across the structured mesh families
        vals[n] = rr.vol_T.sum() / 1.0  # total over the fixed domain
    # halving h multiplies each element's h_T^2 by 1/4 at fixed field
    assert abs(vals[4] / vals[2] - 0.25) < 1e-12

