"""The matrix-product kernels against the einsum forms they replaced.

Each kernel reorders its sums, so it is pinned to its einsum oracle to 1e-13
relative to the oracle's largest entry, at k = 1..3 on a relabelled, jittered
two-material mesh.  The Vandermonde keeps its powers and its product order,
so it is pinned bitwise.
"""

import numpy as np
import pytest

from curlest import _poly
from curlest import equilibrate as eqm
from curlest import femsys as fem
from curlest import polyspace as ps

from _helpers import (cube_j, einsum_assemble_mass, einsum_assemble_rhs,
                      einsum_compute_Hh, einsum_curl, einsum_div, einsum_eval,
                      einsum_grad, einsum_map_points, einsum_partials,
                      einsum_step2, einsum_vandermonde, jittered_cube)

TOL = 1e-13
MU = fem.MaterialField({0: 1.0, 1: 100.0})


def assert_pinned(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= TOL * np.abs(want).max()


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


@pytest.mark.parametrize("k", [1, 2, 3])
def test_map_points_and_eval_match_einsum(mesh, k):
    rng = np.random.default_rng(k)
    rule = ps.quadrature("tet", 2 * k + 2)
    tets = rng.integers(0, mesh.n_tets, 2 * mesh.n_tets)
    geom = mesh.geom()
    assert_pinned(geom.map_points(tets, rule.points),
                  einsum_map_points(geom, tets, rule.points))
    for ncomp in (1, 3, 9):
        field = random_field(rng, mesh, k, ncomp)
        assert_pinned(field.eval(tets, rule.points), einsum_eval(field, tets, rule.points))
        assert_pinned(field.eval([5], rule.points), einsum_eval(field, [5], rule.points))


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
    assert_pinned(fem.assemble_mass(mesh, dm).toarray(),
                  einsum_assemble_mass(mesh, dm).toarray())
    for j in (fem.CurrentDensity(func=cube_j), fem.project_current(mesh, cube_j, k)):
        assert_pinned(fem.assemble_rhs(mesh, dm, j), einsum_assemble_rhs(mesh, dm, j))
    u = fem.FieldCoefficients(dm, np.random.default_rng(k).standard_normal(dm.n_dofs))
    assert_pinned(fem.compute_Hh(mesh, dm, u, MU).coeffs,
                  einsum_compute_Hh(mesh, dm, u, MU))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_step2_face_kernels_match_einsum(mesh, k):
    # random broken fields: every face carries an O(1) jump and an O(1)
    # jump divergence, so no output but the mean sits at roundoff level
    rng = np.random.default_rng(k)
    Hh = random_field(rng, mesh, k)
    corr = eqm.ElementCorrection(Hhat=random_field(rng, mesh, k), Hhat_curl=None,
                                 resid=None, jdelta_norm=None, ortho_resid=None,
                                 degree=k)
    got = eqm.step2_face_multipliers(mesh, Hh, corr, k)
    want = einsum_step2(mesh, Hh, corr, k)
    for key in ("resid", "jnorm", "div_norm"):
        assert_pinned(getattr(got, key), want[key])
    # the multipliers by their values at the face points, which is what
    # step 3 reads: the face systems' conditioning at k = 3 reaches the
    # scaled-monomial coefficients, not the polynomials they represent
    idx = np.arange(got.n_faces)
    pts = fem.face_rule_points(mesh, got.internal_faces, ps.quadrature("tri", 2 * k + 2))
    vals = got.eval(idx, pts)
    got.lam = want["lam"]
    want_vals = got.eval(idx, pts)
    assert_pinned(vals, want_vals)
    # |(lambda, 1)_f| is a constraint residual: compare it with the size of
    # the integral it cancels
    scale = 2.0 * mesh.face_areas().max() * np.abs(want_vals).max()
    assert np.abs(got.mean_abs - want["mean_abs"]).max() <= TOL * scale
