"""Set-up, seeded inputs, the timed run and its output checks.

Imported by worker.py once its speed probe runs, so that importing numpy,
scipy and curlest counts as set-up.
"""

from __future__ import annotations

import dataclasses
import hashlib
import tempfile
import time
from pathlib import Path

import numpy as np

from curlest import adapt, bench, equilibrate, femsys, mesh, polyspace, residual

from timing import SpeedProbe, Tracer, layer_metrics
from workloads import Workload

REL_TOL = 1e-10       # recorded per-level values
ETA_SUM_TOL = 1e-12   # sum of eta_T^2 against eta_h^2
UNTRACED_MAX = 0.05   # share of a traced run outside every traced layer
THETA = 0.5           # Doerfler parameter of the adaptive workload
MAX_DOFS = 20_000     # adaptive stop; the 4-level workload stays below it


def run_config(w: Workload, out_dir, levels=None) -> bench.RunConfig:
    return bench.RunConfig(
        degree=w.degree, mode=w.mode, levels=levels or w.levels,
        theta=THETA, estimator="both", max_dofs=MAX_DOFS,
        reference_errors=w.reference_errors, out_dir=str(out_dir))


def setup(w: Workload, scratch: Path) -> bench.ProblemSpec:
    """Build the problem and fill the reference tables the run will use."""
    spec = bench.builtin_problems()[w.problem]
    tiny = dataclasses.replace(spec, base_res=1, uniform_res={w.degree: [1]})
    with tempfile.TemporaryDirectory(dir=scratch) as d:
        bench.run_experiment(tiny, run_config(w, d, levels=1))
    return spec


def seeded_spec(spec: bench.ProblemSpec, w: Workload, seed: int):
    """The problem with every generated mesh relabelled by the seed.

    Vertices and tets are permuted, subdomain tags alongside; each call of
    make_mesh builds a fresh Mesh from the stored arrays with build_mesh.
    """
    rng = np.random.default_rng(seed)
    arrays = {}
    for n in w.resolutions or (spec.base_res,):
        m = spec.make_mesh(n)
        vperm = rng.permutation(m.n_vertices)
        tperm = rng.permutation(m.n_tets)
        verts = np.empty_like(m.vertices)
        verts[vperm] = m.vertices
        arrays[n] = (verts, vperm[m.tets][tperm], m.subdomain_tag[tperm].copy())

    def make_mesh(n):
        return mesh.build_mesh(*arrays[n])
    return dataclasses.replace(
        spec, make_mesh=make_mesh,
        uniform_res={w.degree: list(w.resolutions or (spec.base_res,))})


def _patch_nodes(args, phi) -> dict:
    """Vertex and edge nodes that take the least-squares branch of step 3."""
    m, reg = args[0], phi.registry
    internal = m.internal_faces()
    vert_ok = np.zeros(m.n_vertices, dtype=bool)
    vert_ok[m.faces[internal].ravel()] = True
    edge_ok = np.zeros(m.n_edges, dtype=bool)
    edge_ok[m.face_edges[internal].ravel()] = True
    is_v = reg.kind == polyspace.NODE_VERTEX
    is_e = reg.kind == polyspace.NODE_EDGE
    n = int(vert_ok[reg.entity[is_v]].sum() + edge_ok[reg.entity[is_e]].sum())
    return {"patch_nodes": n}


def _refine_counts(args, refined) -> dict:
    return {"marked": len(args[1]), "new_tets": refined.n_tets - args[0].n_tets}


def _estimate_counts(args, _out) -> dict:
    m = args[0]
    return {"tets": m.n_tets, "internal_faces": len(m.internal_faces()),
            "internal_edges": len(m.internal_edges())}


# (owner, attribute, span name, counter).  Each owner is the namespace the
# caller reads the name from: adapt and equilibrate import some functions by
# name, bench reads mesh.refine inside _attach_reference_errors.
TARGETS = (
    (mesh, "build_mesh", "mesh.build_mesh", lambda a, r: {"tets": r.n_tets}),
    (mesh, "refine", "mesh.refine", _refine_counts),
    (adapt, "refine", "mesh.refine", _refine_counts),
    (femsys, "build_dofmap", "femsys.build_dofmap", None),
    (femsys, "build_node_registry", "femsys.build_node_registry", None),
    (equilibrate, "build_node_registry", "femsys.build_node_registry", None),
    (femsys, "assemble_curlcurl", "femsys.assemble_curlcurl",
     lambda a, r: {"tets": a[0].n_tets}),
    (femsys, "assemble_mass", "femsys.assemble_mass", None),
    (femsys, "assemble_rhs", "femsys.assemble_rhs", None),
    (femsys, "gradient_correction", "femsys.gradient_correction", None),
    (femsys, "discrete_gradient", "femsys.discrete_gradient", None),
    (femsys, "solve_magnetostatic", "femsys.solve_magnetostatic",
     lambda a, r: {"free_dofs": a[0].shape[0], "nnz": a[0].nnz}),
    (femsys, "compute_Hh", "femsys.compute_Hh", None),
    (femsys, "l2_error_against", "femsys.l2_error_against", None),
    (equilibrate, "estimate", "equilibrate.estimate", _estimate_counts),
    (equilibrate, "step1_element_corrections", "equilibrate.step1", None),
    (equilibrate, "step2_face_multipliers", "equilibrate.step2", None),
    (equilibrate, "check_edge_compatibility", "equilibrate.edge_check", None),
    (equilibrate, "step3_reconstruct_phi", "equilibrate.step3", _patch_nodes),
    (equilibrate, "step4_estimator", "equilibrate.step4", None),
    (residual, "compute_residual_estimator",
     "residual.compute_residual_estimator", None),
    (adapt, "adaptive_loop", "adapt.adaptive_loop", None),
    (adapt, "solve_level", "adapt.solve_level", None),
    (adapt, "dorfler_mark", "adapt.dorfler_mark",
     lambda a, r: {"marked": len(r), "candidates": len(a[0])}),
    (bench, "_attach_reference_errors", "bench.reference_errors", None),
    (bench.ExperimentReport, "write_csv", "bench.write_reports", None),
    (bench.ExperimentReport, "write_json", "bench.write_reports", None),
)


def cache_builds() -> dict:
    """Misses of the polyspace reference-table caches in this process."""
    return {"reference_space_builds": polyspace.reference_space.cache_info().misses,
            "quadrature_builds": polyspace.quadrature.cache_info().misses}


class EstimateLog:
    """Records eta_h and the sum of eta_T^2 of every estimate call."""

    def __init__(self):
        self.pairs: list[tuple[float, float]] = []
        self._orig = None

    def install(self):
        self._orig = orig = equilibrate.estimate

        def estimate(*args, **kwargs):
            out = orig(*args, **kwargs)
            self.pairs.append((out.result.eta_h,
                               float((out.result.eta_T ** 2).sum())))
            return out
        equilibrate.estimate = estimate

    def uninstall(self):
        equilibrate.estimate = self._orig


def _close(a, b, rel) -> bool:
    return a is not None and abs(a - b) <= rel * abs(b)


def check_report(report, spec, estimates, recorded) -> list[str]:
    """Every output check of one repetition; returns the failures."""
    failures = []
    if not report.ok:
        failures.append("report.ok is false")
    if not estimates:
        failures.append("no estimate was computed")
    for i, (eta_h, sum_sq) in enumerate(estimates):
        if not abs(sum_sq - eta_h ** 2) <= ETA_SUM_TOL * eta_h ** 2:
            failures.append(f"estimate {i}: sum eta_T^2 {sum_sq!r} "
                            f"!= eta_h^2 {eta_h ** 2!r}")
    rows = report.rows
    if len(rows) != len(recorded):
        failures.append(f"{len(rows)} levels, {len(recorded)} recorded")
    for row, rec in zip(rows, recorded):
        lvl = row["level"]
        for key in ("n_tets", "n_dofs", "eta_h", "error"):
            if not _close(row.get(key), rec[key], REL_TOL):
                failures.append(f"level {lvl}: {key} {row.get(key)!r} "
                                f"!= recorded {rec[key]!r}")
        if spec.exact_H is not None and not row["eta_h"] >= row.get("error", np.inf):
            failures.append(f"level {lvl}: eta_h {row['eta_h']!r} < "
                            f"error {row.get('error')!r}")
    return failures


def run_once(w: Workload, spec, seed: int, scratch: Path, recorded,
             trace: bool = False, run_id: str = "run", targets=TARGETS) -> dict:
    """Generate the seeded inputs, time one run_experiment call, check it.

    run_s is the wall time less the probe's own time, over the slowness the
    probe measured during the run.  A traced run also fails if more than
    UNTRACED_MAX of it is the self time of the root span, that is, time
    that no traced layer accounts for.
    """
    timed_spec = seeded_spec(spec, w, seed)
    log = EstimateLog()
    tracer = Tracer(run_id) if trace else None
    run = bench.run_experiment
    probe = SpeedProbe()
    log.install()
    try:
        if tracer is not None:
            tracer.install(targets)
            run = tracer.wrap("bench.run_experiment", run)
        with tempfile.TemporaryDirectory(dir=scratch) as d:
            cfg = run_config(w, d)
            probe.start()
            t0 = time.perf_counter()
            report = run(timed_spec, cfg)
            wall_run_s = time.perf_counter() - t0
            probe.stop()
            csv = (Path(d) / "report.csv").read_bytes()
    finally:
        probe.stop()
        if tracer is not None:
            tracer.uninstall()
        log.uninstall()
    slowness, probe_s = probe.take()

    rows = report.rows
    out = {
        "wall_run_s": wall_run_s,
        "run_s": (wall_run_s - probe_s) / slowness,
        "slowness": slowness,
        "dofs": int(sum(r["n_dofs"] for r in rows)),
        "eff_eq": float(rows[-1].get("eff_eq", 0.0)) if rows else 0.0,
        "failures": check_report(report, spec, log.pairs, recorded),
        "csv_sha256": hashlib.sha256(csv).hexdigest(),
    }
    if tracer is not None:
        values, na, table = layer_metrics(tracer.spans, cache_builds(), slowness)
        untraced = next(r[3] for r in table if r[0] == "bench.run_experiment")
        if untraced > UNTRACED_MAX * wall_run_s:
            out["failures"].append(
                f"{untraced:.4f} s of the traced run ({wall_run_s:.4f} s) "
                "is in no traced layer")
        out.update(layers=values, not_applicable=na, selftime=table,
                   spans=tracer.spans, untraced_s=untraced)
    return out
