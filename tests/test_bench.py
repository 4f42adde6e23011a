import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
import sympy

from curlest import adapt as adm
from curlest import bench
from curlest import cli
from curlest import equilibrate as eqm
from curlest import femsys as fem
from curlest import mesh as msh
from curlest import polyspace as ps
from _helpers import (MU1, consistency_check, cube_H, eval_one, lbrick_samples,
                      ref_coords, sample_points, solve_cube)

RNG = np.random.default_rng(3)


# ---------------------------------------------------------------------------
# problem definitions
# ---------------------------------------------------------------------------

def test_builtin_problem_names():
    probs = bench.builtin_problems()
    assert {"cube_poly", "lbrick_singular", "cube_jump_mu_10",
            "cube_jump_mu_100", "cube_jump_mu_1000"} <= set(probs)


def test_cube_poly_center_value():
    u = bench.cube_poly_u(np.array([[0.5, 0.5, 0.5]]))[0]
    assert np.abs(u - 1.0 / 16.0).max() < 1e-15


def test_cube_poly_boundary_trace_vanishes():
    # each potential component vanishes on the faces where its tangential
    # trace is taken
    rng = np.random.default_rng(0)
    for axis in range(3):
        for side in (0.0, 1.0):
            pts = rng.random((40, 3))
            pts[:, axis] = side
            u = bench.cube_poly_u(pts)
            n = np.zeros(3)
            n[axis] = 1.0
            assert np.abs(np.cross(n[None, :], u)).max() < 1e-14


def test_cube_poly_symbolic_double_curl():
    # symbolic oracle: regenerate the data from the potential and compare
    # with the shipped closed form
    x, y, z = sympy.symbols("x y z")
    u = sympy.Matrix([y * (1 - y) * z * (1 - z),
                      x * (1 - x) * z * (1 - z),
                      x * (1 - x) * y * (1 - y)])

    def curl(v):
        return sympy.Matrix([
            sympy.diff(v[2], y) - sympy.diff(v[1], z),
            sympy.diff(v[0], z) - sympy.diff(v[2], x),
            sympy.diff(v[1], x) - sympy.diff(v[0], y)])

    H = curl(u)
    j = curl(H)
    div_j = sympy.simplify(sympy.diff(j[0], x) + sympy.diff(j[1], y)
                           + sympy.diff(j[2], z))
    assert div_j == 0
    fH = sympy.lambdify((x, y, z), H, "numpy")
    fj = sympy.lambdify((x, y, z), j, "numpy")
    pts = RNG.random((50, 3))
    H_num = np.stack([np.asarray(fH(*p)).ravel() for p in pts])
    j_num = np.stack([np.asarray(fj(*p)).ravel() for p in pts])
    assert np.abs(H_num - bench.cube_poly_H(pts)).max() < 1e-12
    assert np.abs(j_num - bench.cube_poly_j(pts)).max() < 1e-12


def test_consistency_check_runs():
    probs = bench.builtin_problems()
    assert consistency_check(probs["cube_poly"]) < 1e-8
    # the L-brick's r^(-1/3) fields have third derivatives ~ r^(-10/3): at
    # the sample's nearest point to the edge (r = 0.082) the central-
    # difference truncation is ~1e-8 relative (measured 7.6e-9), so allow
    # 1e-6, far below what a transcription error shows
    assert consistency_check(probs["lbrick_singular"], tol=1e-6) < 1e-6


def test_consistency_check_catches_transcription_error():
    spec = bench.builtin_problems()["cube_poly"]
    broken = bench.ProblemSpec(
        name="broken", make_mesh=spec.make_mesh, base_res=2, mu=spec.mu,
        j_func=lambda p: 1.1 * bench.cube_poly_j(p),
        exact_u=spec.exact_u, exact_H=spec.exact_H)
    with pytest.raises(ValueError):
        consistency_check(broken)


def test_cube_poly_divergence_free_data():
    # central-difference divergence of the shipped data at random points
    pts = RNG.random((100, 3)) * 0.9 + 0.05
    h = 1e-5
    div = np.zeros(len(pts))
    for a in range(3):
        dp = np.zeros(3)
        dp[a] = h
        div += (bench.cube_poly_j(pts + dp)[:, a]
                - bench.cube_poly_j(pts - dp)[:, a]) / (2 * h)
    assert np.abs(div).max() < 1e-8


def test_lbrick_potential_boundary_trace():
    spec = bench.builtin_problems()["lbrick_singular"]
    m = msh.l_brick_mesh(1)
    for f in np.nonzero(m.boundary_face)[0]:
        c = m.vertices[m.faces[f]].mean(axis=0)[None, :]
        n = m.face_normals()[f]
        u = spec.exact_u(c)[0]
        assert np.linalg.norm(np.cross(n, u)) < 1e-9


def test_lbrick_data_divergence_free():
    # each central difference truncates at (h^2/6)|d^3 j_a|; near the edge
    # j ~ r^(-1/3), whose third derivatives are ~ |j| r^-3, so the three
    # terms stay below h^2 max|j| / r_min^3 (2.7e-3 here; measured 2.6e-5)
    spec = bench.builtin_problems()["lbrick_singular"]
    pts = sample_points(spec, 30, np.random.default_rng(9))
    h = 2e-4
    div = np.zeros(len(pts))
    for a in range(3):
        dp = np.zeros(3)
        dp[a] = h
        div += (spec.j_func(pts + dp)[:, a] - spec.j_func(pts - dp)[:, a]) / (2 * h)
    r_min = np.hypot(pts[:, 0], pts[:, 1]).min()
    assert np.abs(div).max() < h ** 2 * np.abs(spec.j_func(pts)).max() / r_min ** 3


def test_lbrick_samples_avoid_the_removed_quadrant():
    pts = lbrick_samples(10 ** 4, np.random.default_rng(3))
    x, y, z = pts.T
    assert ((np.abs(x) < 1) & (np.abs(y) < 1) & (z > 0) & (z < 1)).all()
    assert ((x < -0.02) | (y > 0.02)).all()     # in the L, 0.02 from the cut
    assert np.hypot(x, y).min() > 0.02          # so away from the edge too


def test_lbrick_symbolic_oracle():
    # regenerate u, H = curl u and j = curl H from the stream function, on
    # the code's angle branch, and compare with the shipped closed forms
    x, y, z = sympy.symbols("x y z", real=True)
    s = (x ** 2 + y ** 2) ** sympy.Rational(1, 3) * sympy.cos(2 * sympy.atan2(y, x) / 3)
    psi = (z * (1 - z)) ** 2 * ((1 - x ** 2) * (1 - y ** 2)) ** 2 * s
    u = sympy.Matrix([sympy.diff(psi, y), -sympy.diff(psi, x), 0])

    def curl(v):
        return sympy.Matrix([
            sympy.diff(v[2], y) - sympy.diff(v[1], z),
            sympy.diff(v[0], z) - sympy.diff(v[2], x),
            sympy.diff(v[1], x) - sympy.diff(v[0], y)])

    H = curl(u)
    branch = {"atan2": lambda b, a: bench._lbrick_angle(a, b)}
    pts = lbrick_samples(200, np.random.default_rng(11))
    for expr, closed in ((u, bench.lbrick_u), (H, bench.lbrick_H),
                         (curl(H), bench.lbrick_j)):
        f = sympy.lambdify((x, y, z), list(expr), modules=[branch, "numpy"])
        ref = np.stack([np.broadcast_to(c, len(pts)) for c in f(*pts.T)], axis=1)
        rel = np.abs(closed(pts) - ref).max(axis=1) / np.abs(ref).max(axis=1)
        assert rel.max() < 1e-12, (closed.__name__, rel.max())


def test_lbrick_strict_a2_stops_at_the_reentrant_edge():
    # the RT moments of the r^(-1/3) current are integrated inexactly, so
    # the projected data is not solenoidal on the tets at the edge
    spec = bench.builtin_problems()["lbrick_singular"]
    m = spec.make_mesh(1)
    with pytest.raises(eqm.DataIncompatible) as exc:
        adm.run_level(spec, m, adm.RunConfig(degree=2, strict_a2=True,
                                             estimator="eq"))
    corners = m.vertices[m.tets[exc.value.tet]]
    assert (np.abs(corners[:, :2]).max(axis=1) == 0.0).any()
    # measured 9.4e-2 of the data's scale, far above roundoff
    assert exc.value.value > 1e-3


def test_jump_problem_tags_align_with_interface():
    spec = bench.builtin_problems()["cube_jump_mu_1000"]
    m = spec.initial_mesh()
    mu_t = spec.mu.per_tet(m)
    for t in range(m.n_tets):
        c = m.vertices[m.tets[t]].mean(axis=0)
        expected = 1.0 if (c[1] < 0.5 and c[2] < 0.5) else 1000.0
        assert mu_t[t] == expected


# ---------------------------------------------------------------------------
# error computation
# ---------------------------------------------------------------------------

def test_error_of_exact_interpolant_vanishes():
    from _helpers import inspace_H, inspace_u
    m = msh.unit_cube_mesh(2)
    dm = fem.build_dofmap(m, 2)
    u = fem.interpolate_nedelec(m, dm, inspace_u)
    Hh = fem.compute_Hh(m, dm, u, MU1)
    assert fem.l2_error_against(m, MU1, Hh, inspace_H) < 1e-9


def test_error_of_zero_field_is_field_norm():
    # analytic oracle via symbolic integration of |H|^2 over the cube
    import sympy
    x, y, z = sympy.symbols("x y z")
    g = lambda s: s * (1 - s)
    H = sympy.Matrix([2 * g(x) * (z - y), 2 * g(y) * (x - z), 2 * g(z) * (y - x)])
    norm_sq = sympy.integrate(sympy.integrate(sympy.integrate(
        H.dot(H), (x, 0, 1)), (y, 0, 1)), (z, 0, 1))
    m = msh.unit_cube_mesh(2)
    Hh = fem.BrokenPolyField(m, 1, np.zeros((m.n_tets, 3, 4)))
    err = fem.l2_error_against(m, MU1, Hh, cube_H)
    assert abs(err - float(sympy.sqrt(norm_sq))) < 1e-12
    assert norm_sq == sympy.Rational(1, 15)


def test_error_numbering_invariant():
    m1 = msh.unit_cube_mesh(2)
    rng = np.random.default_rng(2)
    perm = rng.permutation(m1.n_vertices)
    inv = np.empty_like(perm)
    inv[perm] = np.arange(len(perm))
    m2 = msh.build_mesh(m1.vertices[perm], inv[m1.tets])
    z1 = fem.BrokenPolyField(m1, 1, np.zeros((m1.n_tets, 3, 4)))
    z2 = fem.BrokenPolyField(m2, 1, np.zeros((m2.n_tets, 3, 4)))
    e1 = fem.l2_error_against(m1, MU1, z1, cube_H)
    e2 = fem.l2_error_against(m2, MU1, z2, cube_H)
    assert abs(e1 - e2) <= 1e-12 * e1


# ---------------------------------------------------------------------------
# runner and reports
# ---------------------------------------------------------------------------

# the report.json row between the level labels and the optional columns:
# size, estimate, timings, the solve's record, the estimator's residuals
ROW_CORE = ["n_tets", "n_dofs", "h_max", "eta_h", "t_solve", "t_estimate",
            "grad_load_ratio", "grad_corrected", "gauge_dofs", "solve_resid_rel",
            "oscillation", "step3_max_residual", "step3_worst_node", "lam_scale"]


def test_uniform_run_writes_reports(tmp_path):
    spec = bench.builtin_problems()["cube_poly"]
    cfg = bench.RunConfig(degree=1, levels=2, out_dir=str(tmp_path), vtk=True)
    rep = bench.run_experiment(spec, cfg)
    assert rep.ok
    assert (tmp_path / "report.csv").exists()
    assert (tmp_path / "report.json").exists()
    assert (tmp_path / "mesh_level_0.vtk").exists()
    payload = json.loads((tmp_path / "report.json").read_text())
    assert payload["schema"] == "v2"
    assert "wall_time" in payload["metadata"]
    assert "t_solve" in payload["rows"][0]
    # without --verify no eq_* column; the residual estimator and the exact
    # error close the row
    assert [list(r) for r in payload["rows"]] == 2 * [
        ["level", "resolution", *ROW_CORE, "mu_h", "error", "eff_eq", "eff_res"]]
    # the solve's gauge size and residual live in the JSON only as well;
    # at k = 1 the gauge holds one dof per interior vertex: 1 at n = 2 and
    # 27 at n = 4
    assert [r["gauge_dofs"] for r in payload["rows"]] == [1, 27]
    assert all(0.0 <= r["solve_resid_rel"] <= fem.RESIDUAL_TOL
               for r in payload["rows"])
    header = (tmp_path / "report.csv").read_text().splitlines()
    assert header[0].endswith("schema=v2")
    assert header[1] == ",".join(bench.CSV_COLUMNS)
    assert "t_solve" not in header[1]  # timings live in the JSON only


def test_csv_bytes_reproducible(tmp_path):
    spec = bench.builtin_problems()["cube_poly"]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        cfg = bench.RunConfig(degree=1, levels=2, out_dir=str(out))
        bench.run_experiment(spec, cfg)
    assert (out1 / "report.csv").read_bytes() == (out2 / "report.csv").read_bytes()


def test_rows_monotone_dofs():
    spec = bench.builtin_problems()["cube_poly"]
    rep = bench.run_experiment(spec, bench.RunConfig(degree=1, levels=3))
    dofs = [r["n_dofs"] for r in rep.rows]
    assert all(b > a for a, b in zip(dofs, dofs[1:]))
    assert [r["level"] for r in rep.rows] == sorted(r["level"] for r in rep.rows)


def test_reference_error_protocol(tmp_path):
    spec = bench.builtin_problems()["cube_jump_mu_10"]
    cfg = bench.RunConfig(degree=1, mode="adaptive", levels=3, max_dofs=2000,
                          estimator="eq", reference_errors=True)
    rep = bench.run_experiment(spec, cfg)
    errs = [r["error"] for r in rep.rows]
    assert all(np.isfinite(e) for e in errs)
    assert errs[-1] < errs[0]          # refinement reduces the reference error
    # the estimator bounds the reference error from above (the reference is
    # itself an approximation, so allow its own error as slack)
    assert all(r["eta_h"] > 0.8 * r["error"] for r in rep.rows)
    assert rep.metadata["reference_protocol"].startswith("2 extra")
    # an adaptive row has no resolution; every refined level adds its marks
    # and refinement time before the reference error
    row = ["level", *ROW_CORE, "marked", "t_refine", "error", "eff_eq"]
    assert [list(r) for r in rep.rows] == (
        (len(rep.rows) - 1) * [row] + [[k for k in row if k != "t_refine"]])


@pytest.mark.parametrize("name, mode", [("cube_jump_mu_100", "uniform"),
                                        ("cube_poly", "adaptive")])
def test_reference_protocol_only_where_it_ran(name, mode, capsys):
    # --reference-errors applies to adaptive runs of problems without an
    # exact solution: RunConfig refuses a uniform run, run_experiment a
    # problem with an exact solution, and the CLI exits 1 with the reason
    why = "set mode to adaptive" if mode == "uniform" else "has an exact solution"
    with pytest.raises(ValueError, match=why):
        cfg = bench.RunConfig(degree=1, mode=mode, levels=1, reference_errors=True)
        bench.run_experiment(bench.builtin_problems()[name], cfg)
    argv = ["run", name, "--mode", mode, "--degree", "1", "--levels", "1",
            "--reference-errors"]
    assert cli.main(argv) == 1
    assert why in capsys.readouterr().err


def _resolved_reference_errors(spec, levels, cfg):
    """Oracle: the reference protocol without reuse.  Re-solves the last
    level and every level with solve_level, continues the chain from a fresh
    estimate, and integrates the difference one reference tet at a time."""
    j = spec.current()
    mesh = levels[-1].mesh
    chain = []
    for _ in range(2):
        _, _, Hr, _ = adm.solve_level(mesh, spec.mu, j, cfg)
        out = eqm.estimate(mesh, spec.mu, j, Hr,
                           fem.build_node_registry(mesh, cfg.aux_degree))
        mesh = msh.refine(mesh, adm.dorfler_mark(out.result.eta_T, cfg.theta))
        chain.append(mesh)
    _, _, H_ref, _ = adm.solve_level(mesh, spec.mu, j, cfg)
    parents = [lv.mesh.parent for lv in levels[1:]] + [c.parent for c in chain]
    rule = ps.quadrature("tet", 2 * cfg.degree + 4)
    geom_ref = mesh.geom()
    ref_tets = np.arange(mesh.n_tets)
    pts = geom_ref.map_points(ref_tets, rule.points)
    ref_vals = H_ref.eval(ref_tets, rule.points)
    mu_t = spec.mu.per_tet(mesh)
    errs = []
    for lvl, lv in enumerate(levels):
        anc = ref_tets
        for pmap in reversed(parents[lvl:]):
            anc = pmap[anc]
        _, _, Hl, _ = adm.solve_level(lv.mesh, spec.mu, j, cfg)
        err_sq = 0.0
        for tr in ref_tets:
            xr = ref_coords(lv.mesh, anc[tr], pts[tr])
            diff = ref_vals[tr] - eval_one(Hl, anc[tr], xr)
            err_sq += geom_ref.absdet[tr] * mu_t[tr] * float(
                np.einsum("q,qc->", rule.weights, diff ** 2))
        errs.append(np.sqrt(err_sq))
    return errs


@pytest.mark.parametrize("k", [1, 2, 3])
def test_reference_errors_reuse_the_solved_levels(monkeypatch, k):
    spec = bench.builtin_problems()["cube_jump_mu_10"]
    cfg = bench.RunConfig(degree=k, mode="adaptive", levels=3, max_dofs=2000,
                          estimator="eq", reference_errors=True)
    calls, evals, point_evals = [], [], []
    solve = adm.solve_level
    evaluate, evaluate_points = fem.BrokenPolyField.eval, fem.BrokenPolyField.eval_points

    def counted(*args, **kwargs):
        calls.append(args[0])
        return solve(*args, **kwargs)

    def recorded(field, tets, ref_pts):
        evals.append((field.mesh, np.asarray(ref_pts)))
        return evaluate(field, tets, ref_pts)

    def recorded_points(field, tets, pts):
        point_evals.append((field.mesh, pts.shape))
        return evaluate_points(field, tets, pts)
    monkeypatch.setattr(adm, "solve_level", counted)
    monkeypatch.setattr(fem.BrokenPolyField, "eval", recorded)
    monkeypatch.setattr(fem.BrokenPolyField, "eval_points", recorded_points)
    rep = bench.run_experiment(spec, cfg)
    monkeypatch.undo()
    # three adaptive levels plus the two chain meshes; nothing is re-solved
    assert len(calls) == 5
    assert len({m.n_tets for m in calls}) == 5
    # the errors are exact polynomial norms: no field on the reference mesh
    # is evaluated at the 2k+4 rule for analytic data, and each level is
    # evaluated once, at the Lagrange nodes of the reference tets
    ref_mesh = calls[-1]
    analytic_pts = ps.quadrature("tet", 2 * k + 4).points
    assert not any(m is ref_mesh and np.array_equal(p, analytic_pts)
                   for m, p in evals)
    nodes_shape = (ref_mesh.n_tets, len(ps.lagrange_nodes(k).ref_coords()), 3)
    assert [m for m, shape in point_evals if shape == nodes_shape] == calls[2::-1]
    levels = adm.adaptive_loop(spec, cfg)
    expect = _resolved_reference_errors(spec, levels, cfg)
    for row, err in zip(rep.rows, expect, strict=True):
        assert abs(row["error"] - err) <= 1e-12 * err
        assert abs(row["eff_eq"] - row["eta_h"] / err) <= 1e-12 * row["eff_eq"]


def test_adaptive_run_checks_the_eta_sum(monkeypatch):
    spec = bench.builtin_problems()["cube_jump_mu_10"]
    cfg = bench.RunConfig(degree=1, mode="adaptive", levels=2, estimator="eq")
    assert bench.run_experiment(spec, cfg).ok
    estimate = eqm.estimate

    def skewed(*args, **kwargs):
        out = estimate(*args, **kwargs)
        out.result.eta_T = out.result.eta_T * (1.0 + 1e-9)
        return out
    monkeypatch.setattr(eqm, "estimate", skewed)
    rep = bench.run_experiment(spec, cfg)
    assert np.isfinite([r["eta_h"] for r in rep.rows]).all()
    assert not rep.ok


def test_adaptive_run_writes_vtk_per_level(tmp_path):
    spec = bench.builtin_problems()["cube_jump_mu_10"]
    cfg = bench.RunConfig(degree=1, mode="adaptive", levels=2, estimator="eq",
                          out_dir=str(tmp_path), vtk=True)
    rep = bench.run_experiment(spec, cfg)
    for lvl, row in enumerate(rep.rows):
        vtk = (tmp_path / f"mesh_level_{lvl}.vtk").read_text()
        assert f"CELLS {row['n_tets']} " in vtk
        assert "SCALARS eta_T double 1" in vtk


def test_benchmark_trace_targets_resolve(monkeypatch):
    # the frozen benchmark wraps these module attributes by name; a renamed
    # or deleted function would only surface in a traced benchmark run
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
    import repetition
    assert repetition.TARGETS
    for owner, attr, _span, _counter in repetition.TARGETS:
        assert callable(getattr(owner, attr, None)), f"{owner.__name__}.{attr}"


def test_benchmark_patch_node_counter(monkeypatch):
    # the traced benchmark counts step-3 patch nodes from the registry's
    # kind/entity arrays and NodalPotential.registry; the count must be the
    # number of vertex and edge systems the patch solver solved
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
    import repetition
    m, dm, u, Hh, data = solve_cube(2, 2)
    solved = []
    batch_solve = eqm.solve_node_patches
    kind = dm.registry.kind

    def counting(pairs, values, system):
        nodes = np.unique(system)
        solved.append(int(np.isin(kind[nodes], (ps.NODE_VERTEX, ps.NODE_EDGE)).sum()))
        return batch_solve(pairs, values, system)

    monkeypatch.setattr(eqm, "solve_node_patches", counting)
    out = eqm.estimate(m, MU1, data, Hh, dm.registry)
    assert sum(solved) > 0
    assert repetition._patch_nodes((m,), out.phi) == {"patch_nodes": sum(solved)}


def test_reference_error_against_exact_solution():
    # oracle: on a problem with a known field, the genealogy-descent error
    # against the reference solution approximates the true error
    spec = bench.builtin_problems()["cube_poly"]
    cfg = bench.RunConfig(degree=1, mode="adaptive", levels=2, max_dofs=2000,
                          estimator="eq")
    rep_exact = bench.run_experiment(spec, cfg)
    hidden = bench.ProblemSpec(
        name="cube_poly_hidden", make_mesh=spec.make_mesh, base_res=2,
        mu=spec.mu, j_func=spec.j_func)  # same problem, no exact field
    cfg2 = bench.RunConfig(degree=1, mode="adaptive", levels=2, max_dofs=2000,
                           estimator="eq", reference_errors=True)
    rep_ref = bench.run_experiment(hidden, cfg2)
    # the two-level reference is itself an approximation, so the measured
    # error is a consistent underestimate of the true one, same order of
    # magnitude and never above it (plus a quadrature allowance)
    for r_exact, r_ref in zip(rep_exact.rows, rep_ref.rows):
        assert r_ref["error"] <= 1.05 * r_exact["error"]
        assert r_ref["error"] >= 0.35 * r_exact["error"]


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_list():
    assert cli.main(["list"]) == 0


def test_every_builtin_problem_has_uniform_resolutions_at_every_degree():
    for spec in bench.builtin_problems().values():
        assert sorted(spec.uniform_res) == list(range(1, ps.MAX_DEGREE + 1)), spec.name


def test_cli_uniform_run_without_resolutions_at_the_degree_fails_before_the_run(
        capsys, monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("a level was solved")
    problems = bench.builtin_problems()
    del problems["cube_poly"].uniform_res[3]
    monkeypatch.setattr(bench, "builtin_problems", lambda: problems)
    monkeypatch.setattr(adm, "run_level", unreachable)
    assert cli.main(["run", "cube_poly", "--degree", "3"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "'cube_poly'" in err and "degree 3" in err


def test_cli_uniform_degree_four_run_solves_every_level(tmp_path):
    out = tmp_path / "rep"
    assert cli.main(["run", "cube_poly", "--degree", "4", "--levels", "2",
                     "--out", str(out)]) == 0
    rows = json.loads((out / "report.json").read_text())["rows"]
    assert [r["resolution"] for r in rows] == [1, 2]


def test_cli_strict_run_passes_where_the_solution_is_exact(tmp_path):
    # cube_poly's solution lies in the k = 4 space: H_h, the estimate and
    # every residual of the strict checks are roundoff.  The checks' scales
    # come from the data and the traces of the corrected field, which stay
    # finite, so the run passes all three
    out = tmp_path / "rep"
    assert cli.main(["run", "cube_poly", "--degree", "4", "--strict-a2",
                     "--levels", "2", "--out", str(out)]) == 0
    rows = json.loads((out / "report.json").read_text())["rows"]
    assert [r["resolution"] for r in rows] == [1, 2]
    assert all(r["eta_h"] <= 1e-10 and r["error"] <= 1e-10 for r in rows), rows


def test_cli_strict_run_on_singular_data_stops_in_step_1(capsys):
    # negative control of the data scale of step 1: the projected r^(-1/3)
    # current is not solenoidal at the reentrant edge
    assert cli.main(["run", "lbrick_singular", "--degree", "2", "--strict-a2",
                     "--levels", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "divergence compatibility" in err


def test_cli_run_and_config_override(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("degree = 2\nlevels = 1\nestimator = eq\n# comment\n")
    out = tmp_path / "rep"
    rc = cli.main(["run", "cube_poly", "--config", str(config),
                   "--degree", "1", "--out", str(out)])
    assert rc == 0
    payload = json.loads((out / "report.json").read_text())
    assert payload["metadata"]["config"]["degree"] == 1   # flag wins
    assert payload["metadata"]["config"]["levels"] == 1   # file value kept


def test_cli_unknown_problem():
    assert cli.main(["run", "nonsense"]) == 2


def test_cli_output_flags_need_out(capsys):
    assert cli.main(["run", "cube_poly", "--levels", "1", "--vtk"]) == 1
    assert "set out_dir" in capsys.readouterr().err


def test_cli_reports_a_missing_config_file(tmp_path, capsys):
    missing = tmp_path / "missing.cfg"
    assert cli.main(["run", "cube_poly", "--config", str(missing)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "missing.cfg" in err


def test_cli_reports_an_out_path_that_is_a_file_before_the_run(tmp_path, capsys,
                                                               monkeypatch):
    def unreachable(spec, cfg):
        raise AssertionError("the run started")
    monkeypatch.setattr(bench, "run_experiment", unreachable)
    out = tmp_path / "report"
    out.write_text("")
    assert cli.main(["run", "cube_poly", "--levels", "1", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "is not a directory" in err


@pytest.mark.parametrize("argv", [["--degree", "0"],
                                  ["--degree", "1", "--aux-degree", "5"]])
def test_cli_rejects_an_unsupported_degree_before_the_run(argv, capsys, monkeypatch):
    def unreachable(spec, cfg):
        raise AssertionError("the run started")
    monkeypatch.setattr(bench, "run_experiment", unreachable)
    assert cli.main(["run", "cube_poly", *argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "aux_degree <= 4" in err


@pytest.mark.parametrize("levels", ["0", "-1"])
def test_cli_rejects_levels_below_one(levels, capsys):
    assert cli.main(["run", "cube_poly", "--levels", levels]) == 1
    assert "levels must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("max_dofs", ["0", "-7"])
def test_cli_rejects_max_dofs_below_one(max_dofs, capsys, monkeypatch):
    # the cap is checked before the run: below 1 it would stop an adaptive
    # run after level 0 and exit 0
    def unreachable(spec, cfg):
        raise AssertionError("the run started")
    monkeypatch.setattr(bench, "run_experiment", unreachable)
    argv = ["--mode", "adaptive", "--degree", "1", "--levels", "3", "--max-dofs", max_dofs]
    assert cli.main(["run", "cube_jump_mu_10", *argv]) == 1
    assert "max_dofs must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("option", ["--solver=cg", "--tol=1e-8", "--max-iter=10"])
def test_cli_has_no_solver_options(option, tmp_path):
    key, value = option[2:].split("=")
    config = tmp_path / "run.cfg"
    config.write_text(f"{key.replace('-', '_')} = {value}\n")
    for argv in ([option], ["--config", str(config)]):
        with pytest.raises(SystemExit) as exc:
            cli.main(["run", "cube_poly", *argv])
        assert exc.value.code == 2


def _cli_run_config(monkeypatch, argv):
    """The RunConfig that `curlest run cube_poly ARGV` builds; nothing is solved."""
    seen = []

    def record(spec, cfg):
        seen.append(cfg)
        return bench.ExperimentReport(spec.name, [], {"hard_invariants_ok": True})
    monkeypatch.setattr(bench, "run_experiment", record)
    assert cli.main(["run", "cube_poly", *argv]) == 0
    return seen[0]


def test_cli_config_file_and_flags_build_the_same_run_config(tmp_path, monkeypatch):
    assert _cli_run_config(monkeypatch, []) == bench.RunConfig()
    out = str(tmp_path / "rep")
    values = {"degree": "2", "aux_degree": "3", "mode": "adaptive", "levels": "2",
              "theta": "0.4", "estimator": "eq", "max_dofs": "900", "out": out}
    flags = ("strict_a2", "vtk", "reference_errors", "verify")
    assert {f.name for f in fields(bench.RunConfig)} == \
        set(values) - {"out"} | {"out_dir"} | set(flags)   # every key is set
    config = tmp_path / "all.cfg"
    config.write_text("".join(f"{k} = {v}\n" for k, v in values.items())
                      + "".join(f"{f} = yes\n" for f in flags))
    argv = [a for k, v in values.items() for a in ("--" + k.replace("_", "-"), v)]
    argv += ["--" + f.replace("_", "-") for f in flags]
    expect = bench.RunConfig(degree=2, aux_degree=3, mode="adaptive", levels=2,
                             theta=0.4, estimator="eq", max_dofs=900, out_dir=out,
                             **dict.fromkeys(flags, True))
    assert _cli_run_config(monkeypatch, ["--config", str(config)]) == expect
    assert _cli_run_config(monkeypatch, argv) == expect


@pytest.mark.parametrize("value, on", [("TRUE", True), ("Yes", True), ("1", True),
                                       ("false", False), ("NO", False), ("0", False)])
def test_cli_config_booleans(value, on, tmp_path, monkeypatch):
    config = tmp_path / "run.cfg"
    config.write_text(f"verify = {value}\n")
    assert _cli_run_config(monkeypatch, ["--config", str(config)]).verify is on


def test_cli_config_rejects_a_misspelt_boolean(tmp_path, capsys):
    # a misspelt flag value must not read as False
    config = tmp_path / "run.cfg"
    config.write_text("verify = ture\n")
    assert cli.main(["run", "cube_poly", "--config", str(config)]) == 1
    assert "config key 'verify'" in capsys.readouterr().err


@pytest.mark.parametrize("line, named", [("estimator = bogus", "'bogus'"),
                                         ("deg = 2", "--deg=2")])
def test_cli_config_rejects_unknown_values_and_keys(line, named, tmp_path, capsys):
    # file values meet the flags' choices, and keys are not abbreviations
    config = tmp_path / "run.cfg"
    config.write_text(line + "\n")
    with pytest.raises(SystemExit) as exc:
        cli.main(["run", "cube_poly", "--config", str(config)])
    assert exc.value.code == 2
    assert named in capsys.readouterr().err


def _cli_env():
    # the child imports the package under test, however this process found it
    src = str(Path(cli.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))


def test_cli_double_verbose_logs_the_solve(tmp_path):
    args = [sys.executable, "-m", "curlest.cli", "run", "cube_poly", "--levels",
            "1", "--estimator", "eq", "--out", str(tmp_path)]
    quiet = subprocess.run(args + ["-v"], capture_output=True, text=True,
                           env=_cli_env())
    loud = subprocess.run(args + ["-v", "-v"], capture_output=True, text=True,
                          env=_cli_env())
    assert quiet.returncode == loud.returncode == 0
    assert "gauged solve" not in quiet.stderr
    line = next(s for s in loud.stderr.splitlines() if "gauged solve" in s)
    assert line.startswith("DEBUG gauged solve of ")
    for part in ("gauge ", "factor nnz ", "relative residual "):
        assert part in line


def test_cli_entrypoint_subprocess():
    proc = subprocess.run([sys.executable, "-m", "curlest.cli", "list"],
                          capture_output=True, text=True, env=_cli_env())
    assert proc.returncode == 0
    assert "cube_poly" in proc.stdout
