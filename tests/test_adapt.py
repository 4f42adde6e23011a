import dataclasses
from itertools import combinations

import numpy as np
import pytest

from curlest import adapt as adm
from curlest import bench
from curlest import femsys as fem
from curlest import residual as resm
from curlest.errors import UnsupportedDegree

RNG = np.random.default_rng(41)


# ---------------------------------------------------------------------------
# bulk marking
# ---------------------------------------------------------------------------

def test_mark_single_dominant():
    assert adm.dorfler_mark(np.array([1.0, 0, 0, 0]), 0.5) == {0}


def test_mark_equal_shares():
    for n in (4, 7, 10):
        etas = np.ones(n)
        marked = adm.dorfler_mark(etas, 0.5)
        assert len(marked) == int(np.ceil(n / 2))


def test_mark_theta_one_marks_all_positive():
    etas = RNG.random(20) + 0.1
    assert adm.dorfler_mark(etas, 1.0) == set(range(20))


def test_mark_scale_invariance():
    etas = RNG.random(30)
    for c in (1e-6, 1.0, 1e6):
        assert adm.dorfler_mark(c * etas, 0.37) == adm.dorfler_mark(etas, 0.37)


def test_mark_minimality_against_brute_force():
    # exhaustive subset search for n <= 12: the greedy set has the minimal
    # cardinality achieving the bulk share and dropping its smallest member
    # falls below theta
    for trial in range(20):
        n = int(RNG.integers(3, 13))
        etas = RNG.random(n)
        theta = float(RNG.uniform(0.2, 0.95))
        marked = adm.dorfler_mark(etas, theta)
        sq = etas ** 2
        total = sq.sum()
        assert sq[list(marked)].sum() >= theta * total * (1 - 1e-12)
        best = None
        for r in range(1, n + 1):
            for combo in combinations(range(n), r):
                if sq[list(combo)].sum() >= theta * total * (1 - 1e-12):
                    best = r
                    break
            if best is not None:
                break
        assert len(marked) == best
        smallest = min(marked, key=lambda t: sq[t])
        rest = list(marked - {smallest})
        assert sq[rest].sum() < theta * total


def test_mark_tie_break_deterministic():
    etas = np.array([0.5, 0.5, 0.5, 0.5])
    assert adm.dorfler_mark(etas, 0.5) == {0, 1}


def test_mark_is_stable_under_roundoff_ties():
    # level 3 of the adaptive k = 2 jump run has two tets at the cutoff
    # whose indicators agree to ~1.6e-15 relative; which of them roundoff
    # puts first must not decide the marks.  Negative control: a 1e-6 bump
    # of the unmarked one is a real difference, and marks it in place of
    # the other
    spec = bench.builtin_problems()["cube_jump_mu_100"]
    cfg = adm.RunConfig(degree=2, mode="adaptive", levels=4, estimator="eq")
    eta = adm.adaptive_loop(spec, cfg)[3].eta_T
    marked = adm.dorfler_mark(eta, cfg.theta)
    cutoff = min(eta[sorted(marked)] ** 2)
    tied = np.nonzero(np.abs(eta ** 2 - cutoff) <= 1e-12 * cutoff)[0]
    out = [t for t in tied if t not in marked]
    assert len(tied) >= 2 and out
    rng = np.random.default_rng(3)
    for _ in range(20):
        noisy = eta * (1.0 + 1e-15 * rng.choice([-1.0, 1.0], len(eta)))
        assert adm.dorfler_mark(noisy, cfg.theta) == marked
    bumped = eta.copy()
    bumped[out[0]] *= 1.0 + 1e-6
    changed = adm.dorfler_mark(bumped, cfg.theta)
    assert changed != marked and out[0] in changed and len(changed) == len(marked)


def test_config_validation():
    with pytest.raises(ValueError):
        adm.RunConfig(theta=0.0)
    with pytest.raises(ValueError):
        adm.RunConfig(theta=1.5)


@pytest.mark.parametrize("degree, aux", [(0, None), (0, 1), (1, 5), (5, None), (3, 2)])
def test_degrees_outside_one_cap_rejected(degree, aux):
    # one cap for the solve and the estimator degree, checked before any
    # level is built
    with pytest.raises(UnsupportedDegree, match="1 <= degree <= aux_degree <= 4"):
        adm.RunConfig(degree=degree, aux_degree=aux)
    assert adm.RunConfig(degree=4).aux_degree == 4


@pytest.mark.parametrize("mode", ["uniform", "adaptive"])
@pytest.mark.parametrize("levels", [0, -1])
def test_levels_below_one_rejected(mode, levels):
    # levels=0 must not fall back to the adaptive default of 8 or solve
    # nothing, and -1 must not slice off the last uniform resolution
    with pytest.raises(ValueError, match="levels must be at least 1"):
        adm.RunConfig(mode=mode, levels=levels)


@pytest.mark.parametrize("option", [{"estimator": "res"}, {"estimator": "bogus"},
                                    {"mode": "bogus"}])
def test_unknown_mode_or_estimator_rejected(option):
    with pytest.raises(ValueError, match="unknown"):
        adm.RunConfig(**option)


@pytest.mark.parametrize("flag", ["vtk"])
def test_output_flags_need_out_dir(flag, tmp_path):
    with pytest.raises(ValueError, match=f"{flag} writes files"):
        adm.RunConfig(**{flag: True})
    assert getattr(adm.RunConfig(**{flag: True}, out_dir=str(tmp_path)), flag)


# ---------------------------------------------------------------------------
# one dof map per level
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("options, registries", [
    ({}, 1), ({"verify": True}, 1), ({"aux_degree": 3}, 2)])
def test_each_level_builds_its_element_matrices_and_registry_once(
        options, registries, monkeypatch):
    # the solve, the gradient correction, the estimator and the equilibrium
    # checks share the dof map's per-tet scalings and node registry; only an
    # estimator degree above the solve degree needs a registry of its own.
    # The consistent cube load builds no discrete gradient
    counts = {"G": 0, "scales": 0, "registry": 0}

    def counted(key, build):
        def wrapped(*args, **kwargs):
            counts[key] += 1
            return build(*args, **kwargs)
        return wrapped
    monkeypatch.setattr(fem, "discrete_gradient", counted("G", fem.discrete_gradient))
    monkeypatch.setattr(fem, "_face_scale", counted("scales", fem._face_scale))
    monkeypatch.setattr(fem, "build_node_registry",
                        counted("registry", fem.build_node_registry))
    spec = bench.builtin_problems()["cube_poly"]
    rep = bench.run_experiment(spec, adm.RunConfig(degree=2, levels=2, **options))
    assert rep.ok and len(rep.rows) == 2
    assert counts == {"G": 0, "scales": 2, "registry": 2 * registries}


def test_each_level_evaluates_the_current_twice_and_exact_H_once(monkeypatch):
    # the load and step 1 each evaluate the analytic current once; the
    # residual estimator reads step 1's volume integral and evaluates
    # nothing, and the error evaluates exact_H once
    spec = bench.builtin_problems()["cube_poly"]
    counts = {"j": 0, "H": 0, "j_in_residual": 0}

    def counted(key, f):
        def wrapped(p):
            counts[key] += 1
            return f(p)
        return wrapped
    spec = dataclasses.replace(spec, j_func=counted("j", spec.j_func),
                               exact_H=counted("H", spec.exact_H))
    residual = resm.compute_residual_estimator

    def watched(*args):
        before = counts["j"]
        out = residual(*args)
        counts["j_in_residual"] += counts["j"] - before
        return out
    monkeypatch.setattr(resm, "compute_residual_estimator", watched)
    for k in (1, 2):
        counts.update(j=0, H=0)
        lv = adm.run_level(spec, spec.make_mesh(2), adm.RunConfig(degree=k))
        assert "mu_h" in lv.row and "error" in lv.row
        assert counts == {"j": 2, "H": 1, "j_in_residual": 0}


def test_degree_four_level_is_in_equilibrium():
    # k = k' = 4 end to end: the gauge fixes face and cell moments, the
    # constant current is consistent, and the estimate is in equilibrium
    spec = bench.builtin_problems()["cube_jump_mu_100"]
    lv = adm.run_level(spec, spec.make_mesh(spec.base_res),
                       adm.RunConfig(degree=4, estimator="eq", verify=True))
    assert lv.ok and not lv.row["grad_corrected"]
    assert lv.row["eq_elem_rel"] <= 1e-9 and lv.row["eq_face_rel"] <= 1e-9


def test_estimator_registry_follows_the_auxiliary_degree():
    spec = bench.builtin_problems()["cube_poly"]
    mesh, mu, j = spec.make_mesh(1), spec.mu, spec.current()
    for aux, shared in ((2, True), (3, False)):
        cfg = adm.RunConfig(degree=2, aux_degree=aux)
        dm, _, Hh, data = adm.solve_level(mesh, mu, j, cfg)
        reg = adm.estimate_level(dm, mu, data, Hh, cfg).phi.registry
        assert (reg is dm.registry) == shared
        assert reg.degree == aux


# ---------------------------------------------------------------------------
# adaptive loop
# ---------------------------------------------------------------------------

def test_theta_one_is_uniform_refinement():
    spec = bench.builtin_problems()["cube_jump_mu_10"]
    cfg = adm.RunConfig(theta=1.0, levels=2, degree=1, estimator="eq")
    levels = adm.adaptive_loop(spec, cfg)
    assert levels[0].row["marked"] == levels[0].mesh.n_tets
    assert levels[0].marked == set(range(levels[0].mesh.n_tets))


def test_jump_problem_monotone_eta():
    spec = bench.builtin_problems()["cube_jump_mu_10"]
    cfg = adm.RunConfig(theta=0.5, levels=4, degree=1, max_dofs=4000,
                        estimator="eq")
    rows = [lv.row for lv in adm.adaptive_loop(spec, cfg)]
    etas = [r["eta_h"] for r in rows]
    assert all(b < a for a, b in zip(etas, etas[1:]))
    assert all(rows[i + 1]["n_dofs"] > rows[i]["n_dofs"] for i in range(len(rows) - 1))


def _touch_fraction(mesh, on_vertex):
    flags = on_vertex(mesh.vertices)
    return np.array([flags[tet].any() for tet in mesh.tets])


def test_lbrick_marking_concentrates_at_reentrant_edge():
    spec = bench.builtin_problems()["lbrick_singular"]
    cfg = adm.RunConfig(theta=0.5, levels=4, degree=2, max_dofs=4000,
                        estimator="eq")
    levels = adm.adaptive_loop(spec, cfg)

    def near_edge(v):
        return (np.abs(v[:, 0]) < 1e-9) & (np.abs(v[:, 1]) < 1e-9)

    for lv in levels[2:]:
        touching = _touch_fraction(lv.mesh, near_edge)
        marked = np.array(sorted(lv.marked))
        frac_marked = touching[marked].mean()
        frac_all = touching.mean()
        assert frac_marked > frac_all


def test_lbrick_adaptive_estimator_is_reliable():
    # the guaranteed bound on a singular solution: eta_h >= error on every
    # adaptive level of the reentrant-edge problem
    spec = bench.builtin_problems()["lbrick_singular"]
    cfg = adm.RunConfig(theta=0.5, levels=4, degree=2, max_dofs=4000,
                        estimator="eq")
    effs = [lv.row["eff_eq"] for lv in adm.adaptive_loop(spec, cfg)]
    assert len(effs) == 4 and min(effs) >= 1.0, effs


def test_high_contrast_marking_concentrates_at_interface_edge():
    spec = bench.builtin_problems()["cube_jump_mu_1000"]
    cfg = adm.RunConfig(theta=0.5, levels=4, max_dofs=2500, degree=2,
                        estimator="eq")
    levels = adm.adaptive_loop(spec, cfg)

    def near_interface(v):
        return (np.abs(v[:, 1] - 0.5) < 1e-9) & (np.abs(v[:, 2] - 0.5) < 1e-9)

    for lv in levels[2:]:
        touching = np.array([near_interface(lv.mesh.vertices[tet]).any()
                             for tet in lv.mesh.tets])
        marked = np.array(sorted(lv.marked))
        assert touching[marked].mean() > touching.mean()


def test_adaptive_cube_efficiency_stays_reliable():
    # with an exact solution the equilibrated index never drops below one up
    # to the oscillation allowance, on every adaptive level
    spec = bench.builtin_problems()["cube_poly"]
    cfg = adm.RunConfig(theta=0.5, levels=4, degree=1, max_dofs=3000,
                        estimator="eq")
    levels = adm.adaptive_loop(spec, cfg)
    assert all(lv.row["eff_eq"] >= 0.99 for lv in levels)


def test_adaptive_loop_respects_dof_cap():
    spec = bench.builtin_problems()["cube_jump_mu_10"]
    cfg = adm.RunConfig(theta=0.5, levels=12, degree=1, max_dofs=500,
                        estimator="eq")
    rows = [lv.row for lv in adm.adaptive_loop(spec, cfg)]
    assert len(rows) < 12
    assert rows[-1]["n_dofs"] >= 500 or len(rows) == 12
