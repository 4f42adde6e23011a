"""Acceptance suite: one test per numbered criterion, each printing a
PASS/FAIL line.  Shared runs are cached in module fixtures so the whole
module stays inside the runtime budget."""

import time

import numpy as np
import pytest
import scipy.sparse as sp

from curlest import _poly
from curlest import adapt as adm
from curlest import bench
from curlest import equilibrate as eqm
from curlest import femsys as fem
from curlest import mesh as msh
from curlest import polyspace as ps
from _helpers import (MU1, P_SCALAR_TRI, RT_TANGENTIAL_TRI, cube_H, cube_j,
                      curl2d_coeffs, eval_one, face_frame, face_rule_points,
                      frame_coords, ref_coords, solve_node_patch,
                      solve_single_face, tri_space)


def _report(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return ok


def _run_uniform(n, k, kp=None, strict=False):
    mesh = msh.unit_cube_mesh(n)
    cfg = adm.RunConfig(degree=k, aux_degree=kp or k, strict_a2=strict)
    j = fem.CurrentDensity(func=cube_j)
    dm, u, Hh, data = adm.solve_level(mesh, MU1, j, cfg)
    out = adm.estimate_level(dm, MU1, data, Hh, cfg)
    err = fem.l2_error_against(mesh, MU1, Hh, cube_H)
    return {"mesh": mesh, "dm": dm, "u": u, "Hh": Hh, "data": data,
            "out": out, "err": err, "n": n, "k": k}


@pytest.fixture(scope="module")
def cube_runs():
    """Uniform cube runs at the shipped budgets, plus timing."""
    t0 = time.perf_counter()
    runs = {}
    for k, ns in ((1, (2, 4, 8)), (2, (1, 2, 4)), (3, (1, 2, 3))):
        for n in ns:
            runs[(k, n)] = _run_uniform(n, k)
    runs["elapsed_k12"] = time.perf_counter() - t0
    return runs


@pytest.fixture(scope="module")
def cube_runs_kp3():
    """Runs with auxiliary degree 3 (natively compatible data)."""
    runs = {}
    for k, ns in ((1, (2, 4)), (2, (1, 2)), (3, (1, 2))):
        for n in ns:
            runs[(k, n)] = _run_uniform(n, k, kp=3)
    return runs


def test_criterion_01_convergence_rates(cube_runs):
    ok = True
    details = []
    for k, ns in ((1, (2, 4, 8)), (2, (1, 2, 4))):
        errs = [cube_runs[(k, n)]["err"] for n in ns]
        rates = [np.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
        details.append(f"k={k} rates={['%.3f' % r for r in rates]}")
        ok &= all(abs(r - k) <= 0.3 for r in rates)
    within_budget = cube_runs["elapsed_k12"] < 300.0
    details.append(f"wall={cube_runs['elapsed_k12']:.0f}s")
    ok &= within_budget
    assert _report("criterion 1 (convergence rates)", ok, "; ".join(details))


def test_criterion_02_efficiency_indices(cube_runs, cube_runs_kp3):
    ok = True
    details = []
    for k, ns in ((1, (2, 4, 8)), (2, (1, 2, 4)), (3, (1, 2, 3))):
        effs = [cube_runs[(k, n)]["out"].result.eta_h / cube_runs[(k, n)]["err"]
                for n in ns]
        details.append(f"k={k}: {['%.3f' % e for e in effs]}")
        ok &= all(0.99 <= e <= 2.5 for e in effs)
    # strict mode with natively compatible data: unconditional lower bound
    strict_effs = []
    for k, n in ((1, 2), (2, 2), (3, 2)):
        r = _run_uniform(n, k, kp=3, strict=True)
        strict_effs.append(r["out"].result.eta_h / r["err"])
    details.append(f"strict: {['%.6f' % e for e in strict_effs]}")
    ok &= all(e >= 1.0 - 1e-6 for e in strict_effs)
    assert _report("criterion 2 (efficiency indices)", ok, "; ".join(details))


def test_criterion_03_exact_equilibrium(cube_runs):
    ok = True
    details = []
    # native compatibility at degree three
    r = cube_runs[(3, 2)]
    rep = eqm.verify_equilibrium(r["mesh"], MU1, r["data"], r["Hh"], r["out"])
    details.append(f"k=3 elem={rep['elem_resid_rel']:.1e} face={rep['face_resid_rel']:.1e}")
    ok &= rep["elem_resid_rel"] <= 1e-9 and rep["face_resid_rel"] <= 1e-9
    # projected data at low degree
    for k in (1, 2):
        r = _run_uniform(2, k, strict=True)
        rep = eqm.verify_equilibrium(r["mesh"], MU1, r["data"], r["Hh"], r["out"])
        details.append(f"k={k}s elem={rep['elem_resid_rel']:.1e} "
                       f"face={rep['face_resid_rel']:.1e}")
        ok &= rep["elem_resid_rel"] <= 1e-9 and rep["face_resid_rel"] <= 1e-9
    assert _report("criterion 3 (exact equilibrium)", ok, "; ".join(details))


def _cycle_sums(mesh, out):
    """Worst edge sum, its variation along the edge and step 3's patch
    residual, each relative to the multipliers' scale.  The estimator makes
    no edge pass: the edge sums come from the oracle, and the patch residual
    is the certificate the estimator itself reports."""
    rep = eqm.check_edge_compatibility(mesh, out.multipliers)
    scale = max(rep.lam_scale, 1e-30)
    return (rep.max_abs.max(initial=0.0) / scale,
            rep.variation.max(initial=0.0) / scale,
            out.phi.max_residual / scale)


def test_criterion_04_edge_compatibility(cube_runs_kp3):
    # the cycle conditions are a consequence of compatible data, so they are
    # checked on every run that satisfies that hypothesis: natively
    # compatible (aux degree 3), projected, and constant-current runs
    ok = True
    details = []
    for key in ((1, 2), (2, 2), (3, 2)):
        r = cube_runs_kp3[key]
        re, var, s3 = _cycle_sums(r["mesh"], r["out"])
        details.append(f"k={key[0]}: re={re:.1e} var={var:.1e} step3={s3:.1e}")
        ok &= re <= 1e-9 and var <= 1e-9 and s3 <= 1e-9
    for k in (1, 2):
        r = _run_uniform(2, k, strict=True)
        re, var, s3 = _cycle_sums(r["mesh"], r["out"])
        details.append(f"k={k}s: re={re:.1e} step3={s3:.1e}")
        ok &= re <= 1e-9 and var <= 1e-9 and s3 <= 1e-9
    jump = bench.builtin_problems()["cube_jump_mu_100"]
    cfg = adm.RunConfig(degree=2, levels=2, max_dofs=3000, estimator="eq")
    levels = adm.adaptive_loop(jump, cfg)
    for lv in levels:
        # the same estimate again, for its multipliers; reruns are bitwise
        out = eqm.estimate(lv.mesh, jump.mu, jump.current(), lv.Hh,
                           fem.build_node_registry(lv.mesh, cfg.degree))
        assert out.result.eta_h == lv.row["eta_h"]
        assert lv.row["step3_worst_node"] == out.phi.worst_node_name
        re, var, s3 = _cycle_sums(lv.mesh, out)
        ok &= re <= 1e-9 and var <= 1e-9
        ok &= lv.row["step3_max_residual"] <= 1e-9 * max(lv.row["lam_scale"], 1e-30)
    details.append(f"jump: re={re:.1e} step3={s3:.1e}")
    assert _report("criterion 4 (edge compatibility)", ok, "; ".join(details))


def test_criterion_05_local_well_posedness_oracles():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    ref = msh.build_mesh(np.array([[0., 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]),
                         [[0, 1, 2, 3]])
    worst1 = 0.0
    for trial in range(200):
        kp = int(rng.integers(1, 4))
        space = ps.reference_space(ps.NEDELEC1_TET, kp)
        coef = rng.standard_normal(space.dim)
        vcurl = (ref.geom().J[0] @ np.einsum(
            "i,iam->am", coef, space.curl_coeffs())) / np.linalg.det(ref.geom().J[0])
        field = fem.BrokenPolyField(ref, kp, vcurl[None])

        def jd(p, _f=field, _m=ref):
            return eval_one(_f, 0, ref_coords(_m, 0, p))

        Hh0 = fem.BrokenPolyField(ref, 1, np.zeros((1, 3, 4)))
        corr = eqm.step1_element_corrections(
            ref, MU1, fem.CurrentDensity(func=jd), Hh0, kp)
        scale = max(corr.jdelta_norm.max(), 1e-12)
        worst1 = max(worst1, corr.resid.max() / scale,
                     corr.ortho_resid.max() / scale)

    m1 = msh.unit_cube_mesh(1)
    f = int(m1.internal_faces()[0])
    fr = face_frame(m1, f)
    hf = m1.face_diameters()[f]
    worst2 = 0.0
    for trial in range(200):
        kp = int(rng.integers(1, 4))
        rule = ps.quadrature("tri", 2 * kp)
        nm2 = _poly.n_monomials(2, kp)
        D2 = _poly.diff_stack(2, kp)
        lam0 = rng.standard_normal(nm2)
        xi = frame_coords(m1, f, face_rule_points(m1, f, rule))
        v = _poly.vandermonde(2, kp, xi)
        mean_vec = np.einsum("q,qm->m", rule.weights, v)
        lam0[0] -= float(mean_vec @ lam0) / mean_vec[0]
        grads = np.einsum("qm,bmn,n->qb", v, D2, lam0) / hf
        data3d = grads[:, 1:2] * fr.t1[None, :] - grads[:, 0:1] * fr.t2[None, :]
        vals, resid = solve_single_face(m1, f, data3d, kp)
        scale = max(np.abs(v @ lam0).max(), 1e-12)
        worst2 = max(worst2, np.abs(vals - v @ lam0).max() / scale)

    worst3 = 0.0
    for trial in range(200):
        mring = int(rng.integers(3, 9))
        star = rng.standard_normal(mring)
        star -= star.mean()
        pairs = [(i, (i + 1) % mring) for i in range(mring)]
        vals = [star[a] - star[b] for a, b in pairs]
        sol, resid = solve_node_patch(mring, pairs, vals)
        worst3 = max(worst3, np.abs(sol - star).max())

    dt = time.perf_counter() - t0
    ok = worst1 <= 1e-10 and worst2 <= 1e-10 and worst3 <= 1e-10 and dt < 60.0
    assert _report("criterion 5 (local oracles)", ok,
                   f"step1 {worst1:.1e}, step2 {worst2:.1e}, step3 {worst3:.1e}, "
                   f"{dt:.1f}s")


def test_criterion_06_exact_sequences():
    rng = np.random.default_rng(2)
    eps = np.zeros((3, 3, 3))
    for i, j, l in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        eps[i, j, l] = 1.0
        eps[i, l, j] = -1.0

    def rep_res(target, basis):
        A = basis.reshape(basis.shape[0], -1).T
        b = np.asarray(target).ravel()
        nb = np.linalg.norm(b)
        if nb < 1e-14:
            return 0.0
        x, *_ = np.linalg.lstsq(A, b / nb, rcond=None)
        return float(np.linalg.norm(A @ x - b / nb))

    worst = 0.0
    for kp in (1, 2, 3):
        P = ps.reference_space(ps.P_SCALAR_TET, kp)
        N = ps.reference_space(ps.NEDELEC1_TET, kp)
        D = ps.reference_space(ps.RT_TET, kp)
        Pm1 = ps.reference_space(ps.P_SCALAR_TET, kp - 1)
        Pf = tri_space(P_SCALAR_TRI, kp)
        Rf = tri_space(RT_TANGENTIAL_TRI, kp)
        Dst = _poly.diff_stack(3, kp)
        nm1 = _poly.n_monomials(3, kp - 1)
        for _ in range(50):
            psi = rng.standard_normal(P.dim) @ P.coeffs[:, 0, :]
            worst = max(worst, rep_res(np.einsum("bmn,n->bm", Dst, psi), N.coeffs))
            v = np.einsum("i,icm->cm", rng.standard_normal(N.dim), N.coeffs)
            worst = max(worst, rep_res(
                np.einsum("abc,bmn,cn->am", eps, Dst, v), D.coeffs))
            w = np.einsum("i,icm->cm", rng.standard_normal(D.dim), D.coeffs)
            div = np.einsum("cmn,cn->m", Dst, w)
            worst = max(worst, rep_res(div[:nm1], Pm1.coeffs[:, 0, :]))
            c2 = np.einsum("i,ibm->bm", rng.standard_normal(Pf.dim),
                           curl2d_coeffs(Pf))
            worst = max(worst, rep_res(c2, Rf.coeffs))
    ok = worst <= 1e-10
    assert _report("criterion 6 (exact sequences)", ok, f"worst residual {worst:.1e}")


def test_criterion_07_pythagoras_identity(cube_runs_kp3):
    ok = True
    details = []
    for (k, n), r in sorted(cube_runs_kp3.items()):
        eta = r["out"].result.eta_h
        total = r["Hh"].padded_to(3).plus(r["out"].result.Htilde)
        err_tilde = fem.l2_error_against(r["mesh"], MU1, total, cube_H)
        defect = abs(eta ** 2 - err_tilde ** 2 - r["err"] ** 2) / eta ** 2
        details.append(f"k={k},n={n}: {defect:.1e}")
        ok &= defect <= 1e-6
    assert _report("criterion 7 (hypercircle identity)", ok, "; ".join(details))


def test_criterion_08_local_efficiency_trend(cube_runs):
    ratios = []
    for n in (2, 4, 8):
        r = cube_runs[(1, n)]
        mesh = r["mesh"]
        # per-tet errors at the rule for analytic data (mu = 1)
        rule = ps.quadrature("tet", 2 * r["Hh"].degree + 4)
        tets = np.arange(mesh.n_tets)
        pts = mesh.geom().map_points(tets, rule.points).reshape(-1, 3)
        diff = (cube_H(pts).reshape(mesh.n_tets, -1, 3)
                - r["Hh"].eval(tets, rule.points))
        err_T = np.sqrt(np.einsum("q,tqc->t", rule.weights, diff ** 2)
                        * mesh.geom().absdet)
        # tets sharing a vertex with tet t: the nonzeros of row t of the
        # tet-vertex incidence times its transpose
        inc = sp.csr_matrix((np.ones(mesh.tets.size), (
            np.repeat(np.arange(mesh.n_tets), 4), mesh.tets.ravel())))
        patch = (inc @ inc.T).astype(bool).astype(float)
        ratios.append((r["out"].result.eta_T / (patch @ err_T)).max())
    ok = ratios[-1] <= 1.5 * ratios[0]
    assert _report("criterion 8 (local efficiency trend)", ok,
                   f"ratios {['%.3f' % x for x in ratios]}")


def test_criterion_09_residual_estimator_contrast(cube_runs):
    """Constant-free equilibrated bound against the classical residual one.

    The equilibrated estimator bounds the error with no unknown constant;
    the residual estimator (volume weight h_T^2/k^2, face weight h_f/k)
    bounds it only up to a generic constant.  Asserted: on every matched
    cube mesh the equilibrated efficiency eta_h / err stays in [0.99, 2.5],
    and on the n=2 meshes at k = 1, 2, 3 the residual efficiency
    mu_h / err is at least twice the equilibrated one (measured 7.12x,
    5.49x and 5.82x: eff_res 9.061, 7.536, 8.105 against eff_eq 1.272,
    1.371, 1.392).

    The degree ratio eff_res(k=3) / eff_res(k=1) is reported, not asserted.
    The degree weights are chosen so that the residual efficiency depends
    only weakly on k, and hp theory bounds its growth with k from above
    only; measured it is 0.895 (the unweighted variant would give ~2.4).
    """
    from curlest import residual as resm
    ok = True
    details = []
    effs = {}
    for k in (1, 2, 3):
        r = cube_runs[(k, 2)]
        rr = resm.compute_residual_estimator(
            r["mesh"], r["out"].correction.jdelta_norm, r["Hh"], k)
        eff_res = rr.mu_h / r["err"]
        eff_eq = r["out"].result.eta_h / r["err"]
        effs[k] = eff_res
        details.append(f"k={k} eff_res {eff_res:.3f}, eff_eq {eff_eq:.3f}, "
                       f"ratio {eff_res / eff_eq:.2f}")
        ok &= eff_res >= 2.0 * eff_eq
    details.append(f"eff_res k=3/k=1 {effs[3] / effs[1]:.3f} (not asserted)")
    for k, ns in ((1, (2, 4, 8)), (2, (1, 2, 4)), (3, (1, 2, 3))):
        eff_eq = [cube_runs[(k, n)]["out"].result.eta_h / cube_runs[(k, n)]["err"]
                  for n in ns]
        ok_eq = all(0.99 <= e <= 2.5 for e in eff_eq)
        details.append(f"eff_eq k={k} in range: {ok_eq}")
        ok &= ok_eq
    assert _report("criterion 9 (residual contrast)", ok, "; ".join(details))


def test_criterion_10_adaptive_behavior():
    ok = True
    details = []

    def near_interface(v):
        return (np.abs(v[:, 1] - 0.5) < 1e-9) & (np.abs(v[:, 2] - 0.5) < 1e-9)

    def near_reentrant(v):
        return (np.abs(v[:, 0]) < 1e-9) & (np.abs(v[:, 1]) < 1e-9)

    for name in ("cube_jump_mu_10", "cube_jump_mu_100"):
        spec = bench.builtin_problems()[name]
        cfg = adm.RunConfig(theta=0.5, levels=5, max_dofs=4000,
                            degree=2, estimator="eq")
        levels = adm.adaptive_loop(spec, cfg)
        etas = [lv.row["eta_h"] for lv in levels]
        mono = all(b < a for a, b in zip(etas, etas[1:]))
        conc = True
        for lv in levels[2:]:
            touching = np.array([near_interface(lv.mesh.vertices[tet]).any()
                                 for tet in lv.mesh.tets])
            marked = np.array(sorted(lv.marked))
            conc &= touching[marked].mean() > touching.mean()
        details.append(f"{name}: mono={mono} conc={conc}")
        ok &= mono and conc

    lb = bench.builtin_problems()["lbrick_singular"]
    cfg = adm.RunConfig(theta=0.5, levels=5, max_dofs=4000,
                        degree=2, estimator="eq")
    levels = adm.adaptive_loop(lb, cfg)
    decays = levels[-1].row["eta_h"] < levels[0].row["eta_h"]
    conc = True
    for lv in levels[2:]:
        touching = np.array([near_reentrant(lv.mesh.vertices[tet]).any()
                             for tet in lv.mesh.tets])
        marked = np.array(sorted(lv.marked))
        conc &= touching[marked].mean() > touching.mean()
    details.append(f"lbrick: decay={decays} conc={conc}")
    ok &= decays and conc
    assert _report("criterion 10 (adaptive behavior)", ok, "; ".join(details))


def test_criterion_11_determinism(tmp_path):
    spec = bench.builtin_problems()["cube_poly"]
    outs = []
    for sub in ("a", "b"):
        cfg = bench.RunConfig(degree=1, levels=2, out_dir=str(tmp_path / sub))
        bench.run_experiment(spec, cfg)
        outs.append((tmp_path / sub / "report.csv").read_bytes())
    byte_equal = outs[0] == outs[1]

    r = _run_uniform(4, 1)
    reg = r["dm"].registry
    out_a = eqm.estimate(r["mesh"], MU1, r["data"], r["Hh"], reg)
    out_b = eqm.estimate(r["mesh"], MU1, r["data"], r["Hh"], reg)
    rerun_equal = (out_a.result.eta_h == out_b.result.eta_h
                   and np.array_equal(out_a.result.eta_T, out_b.result.eta_T))
    ok = byte_equal and rerun_equal
    assert _report("criterion 11 (determinism)", ok,
                   f"csv bytes equal={byte_equal}, "
                   f"estimate rerun bitwise equal={rerun_equal}")
