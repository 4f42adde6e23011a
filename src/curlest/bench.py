"""Built-in experiment definitions, error computation, and report emission."""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import adapt as adaptm
from . import femsys as fem
from . import polyspace as ps
from .adapt import RunConfig
from .mesh import Mesh, l_brick_mesh, unit_cube_mesh, write_vtk

CSV_SCHEMA = "v2"
CSV_COLUMNS = ("level", "resolution", "n_tets", "n_dofs", "h_max", "error",
               "eta_h", "mu_h", "eff_eq", "eff_res", "marked", "oscillation",
               "step3_max_residual")


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
    notes: str = ""

    def initial_mesh(self) -> Mesh:
        return self.make_mesh(self.base_res)

    def current(self) -> fem.CurrentDensity:
        return fem.CurrentDensity(func=self.j_func)


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
# The potential is u = curl(0, 0, Z W) with Z = (z(1-z))^2 and W = w s: the
# polynomial window w = (1-x^2)^2 (1-y^2)^2 times s = Re z^(2/3), harmonic
# on the reentrant sector, so lap W = s lap w + 2 grad w . grad s.  Then
# H = curl u = (Z' W_x, Z' W_y, -Z lap W) and j = curl H, both ~ r^(-1/3)
# at the reentrant edge; every derivative is in closed form.

def _lbrick_angle(x, y):
    phi = np.arctan2(y, x)
    # branch cut along the diagonal of the removed quadrant, away from the
    # domain
    return np.where(phi < -0.25 * np.pi, phi + 2.0 * np.pi, phi)


def _window(t):
    """(1-t^2)^2 and its first three derivatives."""
    return (1.0 - t * t) ** 2, -4.0 * t * (1.0 - t * t), 12.0 * t * t - 4.0, 24.0 * t


def _lbrick_stream(x, y):
    """W_x, W_y, lap W, d(lap W)/dx, d(lap W)/dy."""
    # f = z^(2/3) = q^2 on the branch: f' = s_x - i s_y, f'' = s_xx - i s_xy
    q = np.cbrt(np.hypot(x, y)) * np.exp(1j / 3.0 * _lbrick_angle(x, y))
    f1, f2 = 2.0 / (3.0 * q), -2.0 / (9.0 * q ** 4)
    s, sx, sy, sxx, sxy = (q * q).real, f1.real, -f1.imag, f2.real, -f2.imag
    (a, a1, a2, a3), (b, b1, b2, b3) = _window(x), _window(y)
    w, wx, wy, wxx, wxy, wyy = a * b, a1 * b, a * b1, a2 * b, a1 * b1, a * b2
    lw = wxx + wyy
    lap = s * lw + 2.0 * (wx * sx + wy * sy)
    lap_x = sx * lw + s * (a3 * b + a1 * b2) + 2.0 * (
        wxx * sx + wx * sxx + wxy * sy + wy * sxy)
    lap_y = sy * lw + s * (a2 * b1 + a * b3) + 2.0 * (
        wxy * sx + wx * sxy + wyy * sy - wy * sxx)   # s_yy = -s_xx
    return wx * s + w * sx, wy * s + w * sy, lap, lap_x, lap_y


def lbrick_u(p):
    x, y, z = p[:, 0], p[:, 1], p[:, 2]
    Z = (z * (1.0 - z)) ** 2
    Wx, Wy, _, _, _ = _lbrick_stream(x, y)
    return np.stack([Z * Wy, -Z * Wx, np.zeros_like(x)], axis=1)


def lbrick_H(p):
    x, y, z = p[:, 0], p[:, 1], p[:, 2]
    Z = (z * (1.0 - z)) ** 2
    Zp = 2.0 * z * (1.0 - z) * (1.0 - 2.0 * z)
    Wx, Wy, lap, _, _ = _lbrick_stream(x, y)
    return np.stack([Zp * Wx, Zp * Wy, -Z * lap], axis=1)


def lbrick_j(p):
    x, y, z = p[:, 0], p[:, 1], p[:, 2]
    Z = (z * (1.0 - z)) ** 2
    Zpp = 2.0 - 12.0 * z + 12.0 * z * z
    Wx, Wy, _, lap_x, lap_y = _lbrick_stream(x, y)
    return np.stack([-Z * lap_y - Zpp * Wy, Z * lap_x + Zpp * Wx,
                     np.zeros_like(x)], axis=1)


def _jump_tag(c):
    return 1 if (c[1] < 0.5 and c[2] < 0.5) else 2


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
        uniform_res={1: [2, 4, 8], 2: [1, 2, 4], 3: [1, 2, 3], 4: [1, 2, 3]},
        notes="polynomial potential on the unit cube, homogeneous BC")
    problems["lbrick_singular"] = ProblemSpec(
        name="lbrick_singular",
        make_mesh=l_brick_mesh,
        base_res=2,
        mu=fem.MaterialField(1.0),
        j_func=lbrick_j,
        exact_u=lbrick_u,
        exact_H=lbrick_H,
        uniform_res={1: [1, 2, 4], 2: [1, 2], 3: [1], 4: [1]},
        notes="reentrant-edge singular potential, closed-form data")
    for ell in (1, 2, 3):
        mu2 = 10.0 ** ell
        problems[f"cube_jump_mu_{int(mu2)}"] = ProblemSpec(
            name=f"cube_jump_mu_{int(mu2)}",
            make_mesh=lambda n: unit_cube_mesh(n, tag_fn=_jump_tag),
            base_res=2,
            mu=fem.MaterialField({1: 1.0, 2: mu2}),
            j_func=lambda p: np.stack(
                [np.ones(len(p)), np.zeros(len(p)), np.zeros(len(p))], axis=1),
            uniform_res={1: [2, 4], 2: [2, 4], 3: [2, 3], 4: [2, 3]},
            notes="discontinuous permeability, unit current; reference-"
                  "solution protocol for errors")
    return problems


# ---------------------------------------------------------------------------
# experiment runner
# ---------------------------------------------------------------------------

@dataclass
class ExperimentReport:
    problem: str
    rows: list
    metadata: dict

    def write_csv(self, path) -> None:
        Path(path).parent.mkdir(parents=True, exist_ok=True)
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
        Path(path).parent.mkdir(parents=True, exist_ok=True)
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
    t_start = time.perf_counter()
    # reference errors stand in for exact ones (RunConfig admits them on
    # adaptive runs only)
    if cfg.reference_errors and spec.exact_H is not None:
        raise ValueError(f"problem {spec.name!r} has an exact solution: "
                         "its errors need no reference")
    if cfg.mode == "uniform":
        if cfg.degree not in spec.uniform_res:
            raise ValueError(f"problem {spec.name!r} has no uniform resolutions "
                             f"at degree {cfg.degree}")
        res_list = spec.uniform_res[cfg.degree]
        levels = [adaptm.run_level(spec, spec.make_mesh(res), cfg,
                                   level=level, resolution=res)
                  for level, res in enumerate(res_list[: cfg.levels])]
    else:
        levels = adaptm.adaptive_loop(spec, cfg)
        if cfg.reference_errors:
            _attach_reference_errors(spec, cfg, levels)

    metadata = {
        "problem": spec.name,
        "config": dict(vars(cfg)),   # flat: every field is a scalar or str
        "schema": CSV_SCHEMA,
        "wall_time": time.perf_counter() - t_start,
        "hard_invariants_ok": all(lv.ok for lv in levels),
        "reference_protocol": "2 extra adaptive levels at the same degree"
                              if cfg.reference_errors else None,
        "notes": spec.notes,
    }
    report = ExperimentReport(spec.name, [lv.row for lv in levels], metadata)
    if cfg.out_dir:
        report.write_csv(os.path.join(cfg.out_dir, "report.csv"))  # creates out_dir
        report.write_json(os.path.join(cfg.out_dir, "report.json"))
        if cfg.vtk:
            for i, lv in enumerate(levels):
                write_vtk(lv.mesh, os.path.join(cfg.out_dir, f"mesh_level_{i}.vtk"),
                          {"eta_T": lv.eta_T})
    return report


def _attach_reference_errors(spec: ProblemSpec, cfg: RunConfig,
                             levels: list) -> None:
    """Error columns against a reference from two further adaptive levels.

    The chain continues the adaptive run: the last level's marks refine it
    once, that mesh is solved, estimated and marked, and its refinement is
    the reference mesh.  A level's field is a polynomial of the reference
    degree k on every reference tet inside its ancestor tet (found through
    the refinement genealogy), so its restriction is interpolated exactly
    at the degree-k Lagrange nodes of the reference tets, and the error is
    the exact norm of a broken-polynomial difference on the reference mesh.
    """
    mu, j = spec.mu, spec.current()
    mesh = adaptm.refine(levels[-1].mesh, levels[-1].marked)
    dm, _, Hh, data = adaptm.solve_level(mesh, mu, j, cfg)
    marked = adaptm.dorfler_mark(
        adaptm.estimate_level(dm, mu, data, Hh, cfg).result.eta_T, cfg.theta)
    ref_mesh = adaptm.refine(mesh, marked)
    _, _, H_ref, _ = adaptm.solve_level(ref_mesh, mu, j, cfg)
    k = H_ref.degree
    nodes = ref_mesh.geom().map_points(np.arange(ref_mesh.n_tets),
                                       ps.lagrange_nodes(k).ref_coords())
    to_monomials = ps.reference_space(ps.P_SCALAR_TET, k).coeffs[:, 0, :]
    mu_t = mu.per_tet(ref_mesh)
    anc = mesh.parent[ref_mesh.parent]     # reference tet -> last-level tet
    for lv in reversed(levels):
        restricted = lv.Hh.eval_points(anc, nodes).transpose(0, 2, 1) @ to_monomials
        diff = fem.BrokenPolyField(ref_mesh, k, H_ref.coeffs - restricted)
        adaptm.set_error(lv.row, diff.norm(mu_t))
        if lv.mesh.parent is not None:
            anc = lv.mesh.parent[anc]
