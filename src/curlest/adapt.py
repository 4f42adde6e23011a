"""Level pipeline and adaptive refinement driver: solve, estimate, mark, refine."""

from __future__ import annotations

import logging
import math
import os
import time
from dataclasses import dataclass

import numpy as np

from . import equilibrate as eqm
from . import femsys as fem
from . import polyspace as ps
from . import residual as resm
from .errors import UnsupportedDegree
from .mesh import Mesh, refine

log = logging.getLogger("curlest")

ETA_SUM_TOL = 1e-12   # relative gap allowed between sum eta_T^2 and eta_h^2
MARK_TIE_TOL = 1e-12  # relative band of squared indicators that marking treats as tied
MODES = ("uniform", "adaptive")
ESTIMATORS = ("eq", "both")    # both adds the residual estimator mu_h


@dataclass
class RunConfig:
    """Everything a run reads; the one place for its defaults and checks.

    ``levels`` caps a uniform run at its first resolutions (all when None)
    and an adaptive run at that many levels (8 when None).
    """
    degree: int = 1
    aux_degree: int | None = None  # estimator degree; defaults to degree
    mode: str = "uniform"
    levels: int | None = None
    theta: float = 0.5
    estimator: str = "both"
    strict_a2: bool = False
    max_dofs: int = 200_000
    out_dir: str | None = None
    vtk: bool = False
    reference_errors: bool = False
    verify: bool = False

    def __post_init__(self):
        if self.aux_degree is None:
            self.aux_degree = self.degree
        if not 1 <= self.degree <= self.aux_degree <= ps.MAX_DEGREE:
            raise UnsupportedDegree(f"need 1 <= degree <= aux_degree <= {ps.MAX_DEGREE}; "
                                    f"got {self.degree} and {self.aux_degree}")
        if not 0.0 < self.theta <= 1.0:
            raise ValueError("bulk parameter theta must be in (0, 1]")
        if self.levels is not None and self.levels < 1:
            raise ValueError(f"levels must be at least 1, got {self.levels}")
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}; expected one of {MODES}")
        if self.estimator not in ESTIMATORS:
            raise ValueError(f"unknown estimator {self.estimator!r}; "
                             f"expected one of {ESTIMATORS}")
        if self.vtk and not self.out_dir:
            raise ValueError("vtk writes files: set out_dir")
        if self.out_dir and os.path.exists(self.out_dir) and not os.path.isdir(self.out_dir):
            raise ValueError(f"out_dir {self.out_dir!r} is not a directory")


@dataclass
class Level:
    """What later levels, reference errors and reports read of one level.

    Matrices and the estimator's intermediate fields are not kept.
    ``marked`` is set by the adaptive loop; ``ok`` says whether the level's
    hard invariant held.
    """
    mesh: Mesh
    Hh: fem.BrokenPolyField
    eta_T: np.ndarray
    row: dict
    ok: bool
    marked: set | None = None


def dorfler_mark(etas: np.ndarray, theta: float) -> set:
    """Minimal-cardinality bulk set carrying a theta fraction of the squared
    indicator.  Squared indicators within MARK_TIE_TOL relative of the
    smallest one the set needs count as tied, and the lowest tet ids among
    them are marked, so indicators that tie in exact arithmetic (symmetric
    meshes) mark the same tets whatever their roundoff."""
    etas = np.asarray(etas, dtype=float)
    if (etas < 0).any():
        raise ValueError("indicators must be non-negative")
    sq = etas ** 2
    total = sq.sum()
    if total == 0.0:
        return set()
    order = np.lexsort((np.arange(len(sq)), -sq))
    csum = np.cumsum(sq[order])
    count = int(np.searchsorted(csum, theta * total - 1e-15 * total) + 1)
    count = min(count, len(sq))
    cutoff = sq[order[count - 1]]
    above = np.nonzero(sq > (1.0 + MARK_TIE_TOL) * cutoff)[0]
    tied = np.nonzero(np.abs(sq - cutoff) <= MARK_TIE_TOL * cutoff)[0]
    return set(int(t) for t in np.concatenate([above, tied[:count - len(above)]]))


def solve_level(mesh: Mesh, mu: fem.MaterialField, j: fem.CurrentDensity,
                cfg: RunConfig, row: dict | None = None):
    """Assemble, correct, and solve one mesh level.

    Returns (dofmap, u, Hh, data); ``data`` is the current the solve used
    (the projected one under strict_a2 with non-polynomial data).  ``row``,
    when given, receives the load's gradient check (its scalar load
    relative to the rounding bound, and whether the correction ran) and
    the solve's gauge size and relative residual.
    """
    dm = fem.build_dofmap(mesh, cfg.degree)
    A = fem.assemble_curlcurl(mesh, dm, mu)
    data = j
    if cfg.strict_a2 and not j.is_polynomial:
        data = fem.project_current(mesh, j.func, cfg.aux_degree)
    load = fem.assemble_rhs(mesh, dm, data)
    b = fem.gradient_correction(dm, load)
    if row is not None:
        row["grad_load_ratio"] = load.gradient_ratio
        row["grad_corrected"] = not load.consistent
    u = fem.solve_magnetostatic(A, b, dm, row)
    Hh = fem.compute_Hh(mesh, dm, u, mu)
    return dm, u, Hh, data


def estimate_level(dm: fem.DofMap, mu: fem.MaterialField,
                   data: fem.CurrentDensity, Hh: fem.BrokenPolyField,
                   cfg: RunConfig) -> eqm.EquilibrationOutput:
    """The equilibrated estimator on a solved level, at degree aux_degree.

    Its node registry is the dof map's when aux_degree equals the degree,
    and built at aux_degree otherwise.
    """
    reg = (dm.registry if cfg.aux_degree == dm.degree
           else fem.build_node_registry(dm.mesh, cfg.aux_degree))
    return eqm.estimate(dm.mesh, mu, data, Hh, reg, strict_a2=cfg.strict_a2)


def run_level(problem, mesh: Mesh, cfg: RunConfig, **labels) -> Level:
    """Solve and estimate one mesh level and build its report row.

    ``problem`` provides mu, current() and optionally exact_H; ``labels``
    (level, resolution) lead the row.  The residual estimator, the error
    against exact_H and the equilibrium checks are added when cfg and the
    problem ask for them.  The hard invariant is a finite eta_h with
    sum eta_T^2 = eta_h^2 to ETA_SUM_TOL.
    """
    mu, j = problem.mu, problem.current()
    grad = {}
    t0 = time.perf_counter()
    dm, _, Hh, data = solve_level(mesh, mu, j, cfg, grad)
    t_solve = time.perf_counter() - t0
    t0 = time.perf_counter()
    out = estimate_level(dm, mu, data, Hh, cfg)
    t_est = time.perf_counter() - t0
    eta_h, eta_T, diag = out.result.eta_h, out.result.eta_T, out.result.diagnostics
    row = dict(labels, n_tets=mesh.n_tets, n_dofs=dm.n_free,
               h_max=mesh.h_max(), eta_h=eta_h, t_solve=t_solve,
               t_estimate=t_est, **grad, oscillation=diag["oscillation"],
               step3_max_residual=diag["step3_max_residual"],
               step3_worst_node=diag["step3_worst_node"],
               lam_scale=diag["lam_scale"])
    if cfg.verify:
        rep = eqm.verify_equilibrium(mesh, mu, data, Hh, out)
        row["eq_elem_rel"] = rep["elem_resid_rel"]
        row["eq_face_rel"] = rep["face_resid_rel"]
    if cfg.estimator == "both":
        row["mu_h"] = resm.compute_residual_estimator(
            mesh, out.correction.jdelta_norm, Hh, cfg.degree).mu_h
    exact_H = getattr(problem, "exact_H", None)
    if exact_H is not None:
        set_error(row, fem.l2_error_against(mesh, mu, Hh, exact_H))
    gap = abs(eta_h ** 2 - float((eta_T ** 2).sum()))
    ok = math.isfinite(eta_h) and gap <= ETA_SUM_TOL * max(eta_h ** 2, 1e-300)
    log.info("level %s: %d tets, %d dofs, eta=%.3e; scalar load at %.1e of "
             "its rounding bound, gradient correction %s", labels.get("level"),
             mesh.n_tets, dm.n_free, eta_h, row["grad_load_ratio"],
             "ran" if row["grad_corrected"] else "skipped")
    return Level(mesh, Hh, eta_T, row, ok)


def set_error(row: dict, err: float) -> None:
    """Error column and the efficiency indices that divide by it."""
    row["error"] = err
    row["eff_eq"] = row["eta_h"] / err if err > 0 else np.inf
    if "mu_h" in row:
        row["eff_res"] = row["mu_h"] / err if err > 0 else np.inf


def adaptive_loop(problem, cfg: RunConfig) -> list[Level]:
    """Run the adaptive cycle on a problem description.

    ``problem`` provides initial_mesh(), mu, current(), and optionally
    exact_H.  Marking always uses the equilibrated per-element indicators;
    every level, the last included, carries its Doerfler marks.
    """
    mesh = problem.initial_mesh()
    levels = []
    n_levels = cfg.levels or 8
    for level in range(n_levels):
        lv = run_level(problem, mesh, cfg, level=level)
        lv.marked = dorfler_mark(lv.eta_T, cfg.theta)
        lv.row["marked"] = len(lv.marked)
        levels.append(lv)
        if level == n_levels - 1 or lv.row["n_dofs"] >= cfg.max_dofs:
            break
        t0 = time.perf_counter()
        mesh = refine(mesh, lv.marked)
        lv.row["t_refine"] = time.perf_counter() - t0
    return levels
