"""Built-in experiment definitions, error computation, and report emission."""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np

from . import adapt as adaptm
from . import femsys as fem
from .adapt import RunConfig
from .mesh import Mesh, l_brick_mesh, unit_cube_mesh, write_vtk

CSV_SCHEMA = "v1"
CSV_COLUMNS = ("level", "resolution", "n_tets", "n_dofs", "h_max", "error",
               "eta_h", "mu_h", "eff_eq", "eff_res", "marked", "max_re_abs",
               "max_re_variation", "oscillation", "step3_max_residual")


# ---------------------------------------------------------------------------
# problem definitions
# ---------------------------------------------------------------------------

@dataclass
class ProblemSpec:
    name: str
    make_mesh: object
    base_res: int
    mu: fem.MaterialField
    j_func: object
    exact_u: object = None
    exact_H: object = None
    uniform_res: dict = field(default_factory=dict)
    analysis_grade: bool = False
    sample_fn: object = None
    notes: str = ""

    def initial_mesh(self) -> Mesh:
        return self.make_mesh(self.base_res)

    def current(self) -> fem.CurrentDensity:
        return fem.CurrentDensity(func=self.j_func, label=self.name)

    def sample_points(self, n: int, rng) -> np.ndarray:
        if self.sample_fn is not None:
            return self.sample_fn(n, rng)
        return rng.uniform(0.05, 0.95, size=(n, 3))


def _g(s):
    return s * (1.0 - s)


def cube_poly_u(p):
    x, y, z = p[:, 0], p[:, 1], p[:, 2]
    return np.stack([_g(y) * _g(z), _g(x) * _g(z), _g(x) * _g(y)], axis=1)


def cube_poly_H(p):
    x, y, z = p[:, 0], p[:, 1], p[:, 2]
    return 2.0 * np.stack([_g(x) * (z - y), _g(y) * (x - z), _g(z) * (y - x)],
                          axis=1)


def cube_poly_j(p):
    # double curl of the polynomial potential; regenerated by the symbolic
    # oracle in the test suite, kept here as plain closed-form code
    x, y, z = p[:, 0], p[:, 1], p[:, 2]
    return 2.0 * np.stack([_g(y) + _g(z), _g(x) + _g(z), _g(x) + _g(y)], axis=1)


# --- L-brick stream-function data ------------------------------------------
#
# The potential is the curl of (0, 0, w) with w a polynomial window times the
# fractional-power harmonic of the reentrant sector.  The current density is
# evaluated by high-order finite differences of w with step proportional to
# the distance from the singular edge, which keeps the relative accuracy
# uniform (the singular part is homogeneous).  Analysis grade only: no exact
# error is claimed for this problem.

_W1 = np.array([-1.0, 9.0, -45.0, 0.0, 45.0, -9.0, 1.0]) / 60.0
_W2 = np.array([2.0, -27.0, 270.0, -490.0, 270.0, -27.0, 2.0]) / 180.0
_W12 = np.convolve(_W1, _W2)
_OFF7 = np.arange(-3.0, 4.0)
_OFF13 = np.arange(-6.0, 7.0)


def _lbrick_angle(x, y):
    phi = np.arctan2(y, x)
    # branch cut along the diagonal of the removed quadrant, away from the
    # domain and from any finite-difference stencil point
    return np.where(phi < -0.25 * np.pi, phi + 2.0 * np.pi, phi)


def _lbrick_W(x, y):
    r2 = x * x + y * y
    s = r2 ** (1.0 / 3.0) * np.cos(2.0 / 3.0 * _lbrick_angle(x, y))
    return (1.0 - x * x) ** 2 * (1.0 - y * y) ** 2 * s


def _lbrick_planar_terms(x, y):
    """W_x, W_y, d(lap W)/dx, d(lap W)/dy by nested 6th-order differences."""
    r = np.hypot(x, y)
    d = np.clip(0.05 * r, 1e-8, 5e-3)
    gx = x[:, None, None] + _OFF7[None, :, None] * d[:, None, None]
    gy = y[:, None, None] + _OFF7[None, None, :] * d[:, None, None]
    Wgrid = _lbrick_W(gx, gy)                       # (n, 7, 7)
    lx = _lbrick_W(x[:, None] + _OFF13[None, :] * d[:, None], y[:, None])
    ly = _lbrick_W(x[:, None], y[:, None] + _OFF13[None, :] * d[:, None])
    Wx = Wgrid[:, :, 3] @ _W1 / d
    Wy = Wgrid[:, 3, :] @ _W1 / d
    d3 = d ** 3
    Fx = (np.einsum("nij,i,j->n", Wgrid, _W1, _W2) + lx @ _W12) / d3
    Fy = (np.einsum("nij,i,j->n", Wgrid, _W2, _W1) + ly @ _W12) / d3
    return Wx, Wy, Fx, Fy


def lbrick_u(p):
    x, y, z = p[:, 0], p[:, 1], p[:, 2]
    Z = (z * (1.0 - z)) ** 2
    Wx, Wy, _, _ = _lbrick_planar_terms(x, y)
    return np.stack([Z * Wy, -Z * Wx, np.zeros_like(x)], axis=1)


def lbrick_j(p):
    x, y, z = p[:, 0], p[:, 1], p[:, 2]
    Z = (z * (1.0 - z)) ** 2
    Zpp = 2.0 - 12.0 * z + 12.0 * z * z
    Wx, Wy, Fx, Fy = _lbrick_planar_terms(x, y)
    return np.stack([-Z * Fy - Zpp * Wy, Z * Fx + Zpp * Wx, np.zeros_like(x)],
                    axis=1)


def _lbrick_samples(n, rng):
    pts = []
    while len(pts) < n:
        p = rng.uniform([-0.95, -0.95, 0.05], [0.95, 0.95, 0.95])
        if not (p[0] > 0.02 and p[1] < -0.02):
            pts.append(p)
    return np.array(pts)


def _jump_tags(mu2: float):
    def tag(c):
        return 1 if (c[1] < 0.5 and c[2] < 0.5) else 2
    return tag


def builtin_problems() -> dict:
    problems = {}
    problems["cube_poly"] = ProblemSpec(
        name="cube_poly",
        make_mesh=unit_cube_mesh,
        base_res=2,
        mu=fem.MaterialField(1.0),
        j_func=cube_poly_j,
        exact_u=cube_poly_u,
        exact_H=cube_poly_H,
        uniform_res={1: [2, 4, 8], 2: [1, 2, 4], 3: [1, 2, 3]},
        notes="polynomial potential on the unit cube, homogeneous BC")
    problems["lbrick_singular"] = ProblemSpec(
        name="lbrick_singular",
        make_mesh=l_brick_mesh,
        base_res=2,
        mu=fem.MaterialField(1.0),
        j_func=lbrick_j,
        exact_u=lbrick_u,
        exact_H=None,
        uniform_res={1: [1, 2, 4], 2: [1, 2], 3: [1]},
        analysis_grade=True,
        sample_fn=_lbrick_samples,
        notes="reentrant-edge singular potential; current density from "
              "finite differences of the stream function (no exact-error claims)")
    for ell in (1, 2, 3):
        mu2 = 10.0 ** ell
        tag = _jump_tags(mu2)
        problems[f"cube_jump_mu_{int(mu2)}"] = ProblemSpec(
            name=f"cube_jump_mu_{int(mu2)}",
            make_mesh=lambda n, _t=tag: unit_cube_mesh(n, tag_fn=_t),
            base_res=2,
            mu=fem.MaterialField({1: 1.0, 2: mu2}),
            j_func=lambda p: np.stack(
                [np.ones(len(p)), np.zeros(len(p)), np.zeros(len(p))], axis=1),
            uniform_res={1: [2, 4], 2: [2, 4]},
            notes="discontinuous permeability, unit current; reference-"
                  "solution protocol for errors")
    return problems


def consistency_check(spec: ProblemSpec, n: int = 100, tol: float = 1e-8,
                      seed: int = 1234) -> float:
    """Finite-difference double-curl check of the shipped closed forms.

    Guards transcription errors: at random interior points, curl(exact_H)
    must match j and (for unit permeability) curl(exact_u) must match H.
    Returns the worst relative mismatch.
    """
    if spec.exact_H is None:
        raise ValueError(f"{spec.name} has no exact field to check against")
    rng = np.random.default_rng(seed)
    pts = spec.sample_points(n, rng)
    h = 1e-5

    def fd_curl(fn, p):
        out = np.zeros((len(p), 3))
        d = np.zeros((len(p), 3, 3))
        for a in range(3):
            dp = np.zeros(3)
            dp[a] = h
            d[:, a, :] = (fn(p + dp) - fn(p - dp)) / (2.0 * h)
        out[:, 0] = d[:, 1, 2] - d[:, 2, 1]
        out[:, 1] = d[:, 2, 0] - d[:, 0, 2]
        out[:, 2] = d[:, 0, 1] - d[:, 1, 0]
        return out

    jv = spec.j_func(pts)
    scale = max(float(np.abs(jv).max()), 1.0)
    worst = float(np.abs(fd_curl(spec.exact_H, pts) - jv).max()) / scale
    if spec.exact_u is not None and len(spec.mu.values) == 1:
        mu0 = next(iter(spec.mu.values.values()))
        Hv = spec.exact_H(pts)
        hscale = max(float(np.abs(Hv).max()), 1.0)
        worst = max(worst, float(
            np.abs(fd_curl(spec.exact_u, pts) / mu0 - Hv).max()) / hscale)
    if worst > tol:
        raise ValueError(f"{spec.name}: closed forms inconsistent ({worst:.2e})")
    return worst


# ---------------------------------------------------------------------------
# experiment runner
# ---------------------------------------------------------------------------

@dataclass
class ExperimentReport:
    problem: str
    rows: list
    metadata: dict

    def write_csv(self, path) -> None:
        lines = [f"# curlest-report schema={CSV_SCHEMA}",
                 ",".join(CSV_COLUMNS)]
        for row in self.rows:
            cells = []
            for col in CSV_COLUMNS:
                v = row.get(col)
                if v is None:
                    cells.append("")
                elif isinstance(v, (int, np.integer)):
                    cells.append(str(int(v)))
                else:
                    cells.append(f"{float(v):.12e}")
            lines.append(",".join(cells))
        Path(path).write_text("\n".join(lines) + "\n")

    def write_json(self, path) -> None:
        payload = {"problem": self.problem, "schema": CSV_SCHEMA,
                   "metadata": self.metadata, "rows": self.rows}

        def default(o):
            if isinstance(o, (np.integer,)):
                return int(o)
            if isinstance(o, (np.floating,)):
                return float(o)
            if isinstance(o, np.ndarray):
                return o.tolist()
            return str(o)

        Path(path).write_text(json.dumps(payload, indent=1, default=default))

    @property
    def ok(self) -> bool:
        return bool(self.metadata.get("hard_invariants_ok", False))


def run_experiment(spec: ProblemSpec, cfg: RunConfig) -> ExperimentReport:
    """Execute the experiment and (optionally) emit report files.

    Uniform runs solve one level per resolution, adaptive runs the adaptive
    loop; both go through adapt.run_level.  The CSV carries no wall-clock
    fields, so sequential reruns are byte-identical; timings live in the
    JSON report.
    """
    if spec.analysis_grade and not cfg.analysis_grade:
        raise ValueError(
            f"{spec.name} is analysis grade (numerically differentiated data); "
            "pass analysis_grade=True / --analysis-grade to run it")
    t_start = time.perf_counter()
    if cfg.mode == "uniform":
        res_list = spec.uniform_res.get(cfg.degree, [spec.base_res])
        levels = [adaptm.run_level(spec, spec.make_mesh(res), cfg,
                                   level=level, resolution=res)
                  for level, res in enumerate(res_list[: cfg.levels])]
    else:
        levels = adaptm.adaptive_loop(spec, cfg)
        if cfg.reference_errors and spec.exact_H is None:
            _attach_reference_errors(spec, cfg, levels)

    metadata = {
        "problem": spec.name,
        "config": asdict(cfg),
        "schema": CSV_SCHEMA,
        "wall_time": time.perf_counter() - t_start,
        "hard_invariants_ok": all(lv.ok for lv in levels),
        "reference_protocol": "2 extra adaptive levels at the same degree"
                              if cfg.reference_errors else None,
        "notes": spec.notes,
    }
    report = ExperimentReport(spec.name, [lv.row for lv in levels], metadata)
    if cfg.out_dir:
        out = Path(cfg.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        if cfg.vtk:
            for i, lv in enumerate(levels):
                write_vtk(lv.mesh, out / f"mesh_level_{i}.vtk",
                          {"eta_T": lv.eta_T})
        report.write_csv(out / "report.csv")
        report.write_json(out / "report.json")
    return report


def _attach_reference_errors(spec: ProblemSpec, cfg: RunConfig,
                             levels: list) -> None:
    """Error columns against a reference from two further adaptive levels.

    The chain continues the adaptive run: the last level's marks refine it
    once, that mesh is solved, estimated and marked, and its refinement is
    the reference mesh.  Each level's field is compared with the reference
    field at the reference mesh's quadrature points, located in the level's
    tets through the refinement genealogy; the reference field is evaluated
    at those points once.
    """
    mu, j = spec.mu, spec.current()
    mesh = adaptm.refine(levels[-1].mesh, levels[-1].marked)
    dm, _, Hh, data = adaptm.solve_level(mesh, mu, j, cfg)
    marked = adaptm.dorfler_mark(
        adaptm.estimate_level(dm, mu, data, Hh, cfg).result.eta_T, cfg.theta)
    ref_mesh = adaptm.refine(mesh, marked)
    _, _, H_ref, _ = adaptm.solve_level(ref_mesh, mu, j, cfg)
    ref = fem.QuadratureSample(ref_mesh, mu, H_ref, 2 * cfg.degree + 4)
    anc = mesh.parent[ref_mesh.parent]     # reference tet -> last-level tet
    for lv in reversed(levels):
        def coarse(p):  # the sample passes its points tet by tet
            return lv.Hh.eval_points(np.repeat(anc, len(p) // len(anc)), p)
        adaptm.set_error(lv.row, ref.l2_error(coarse))
        if lv.mesh.parent is not None:
            anc = lv.mesh.parent[anc]
