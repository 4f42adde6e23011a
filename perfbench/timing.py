"""Timing instruments of the benchmark; they import no curlest code.

SpeedProbe samples how fast the machine runs while a repetition runs, so
that times can be reported at a nominal machine speed.  Tracer records spans
around the calls into each curlest module from outside the program: a traced
repetition replaces module attributes with timing wrappers at the name the
caller looks up, so no line of curlest changes.  Spans stay in memory and are
written when the run ends.  Counts are read from arguments and return values
after the wrapped call returns, outside its span.
"""

from __future__ import annotations

import functools
import signal
import time
from collections import defaultdict


class SpeedProbe:
    """Samples the machine's speed on an interval timer.

    A shared machine's speed drifts by tens of percent within seconds and
    minutes.  Every PERIOD_S of wall time the timer interrupts the main
    thread, which times a fixed micro-kernel of small numpy calls, the kind
    of work curlest's per-entity loops do.  The mean sample over NOMINAL_S
    is the slowness of that stretch of time (1 at nominal speed); the
    handler's own time is subtracted from what it interrupted.  The kernel
    runs no curlest code.  It is run WARM times before it is timed: run
    cold, it read 64% slower right after curlest's sparse solve and 31%
    slower after its assembly than inside its Python loops, so the divisor
    depended on what the program was doing.  Warm, it cannot see slowdowns
    that come from other tenants' use of the shared caches, which the
    program does feel.  Python runs the handler between bytecodes, so a
    long native call delays the next sample until it returns.
    probe_check.py measures how far the divisor depends on what the program
    does; on a 2-vCPU virtual machine, warm samples taken just after
    native-heavy calls read ~3% slower than samples inside Python loops.
    """

    PERIOD_S = 0.01
    NOMINAL_S = 5e-5
    WARM = 4
    TIMED = 20

    def __init__(self):
        import numpy as np
        self._m = np.eye(6) * 3.0 + 0.1
        self._v = np.arange(6.0)
        self.samples: list[float] = []
        self.spent = 0.0
        self._previous = signal.SIG_DFL

    def _sample(self, signum, frame) -> None:
        m, v = self._m, self._v
        t0 = time.perf_counter()
        for _ in range(self.WARM):
            m.dot(v)
            v.sum()
        t1 = time.perf_counter()
        for _ in range(self.TIMED):
            m.dot(v)
            v.sum()
        t2 = time.perf_counter()
        self.samples.append(t2 - t1)
        self.spent += t2 - t0

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)

    def stop(self) -> None:
        """Idempotent: cancels the timer and restores the previous handler."""
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def take(self) -> tuple[float, float]:
        """(slowness, seconds spent sampling) since the last take; resets."""
        samples, self.samples = self.samples, []
        spent, self.spent = self.spent, 0.0
        if not samples:
            return 1.0, 0.0
        return sum(samples) / len(samples) / self.NOMINAL_S, spent


class Tracer:
    """Span recorder; each span has id, name, start, end, parent and run id."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def wrap(self, name: str, fn, counter=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = {"id": len(self.spans), "name": name, "run": self.run_id,
                    "parent": self._stack[-1] if self._stack else None}
            self.spans.append(span)
            self._stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                span["counts"] = counter(args, result)
            return result
        return wrapper

    def install(self, targets) -> None:
        """Wrap each (owner, attribute, span name, counter) target."""
        for owner, attr, name, counter in targets:
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self.wrap(name, fn, counter))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)


class Aggregate:
    """Per-name call counts, inclusive and self seconds, and summed counts."""

    def __init__(self, spans: list[dict], extra: dict):
        child = defaultdict(float)
        for s in spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        self.by_name: dict[str, dict] = {}
        for s in spans:
            row = self.by_name.setdefault(
                s["name"], {"calls": 0, "total": 0.0, "self": 0.0,
                            "counts": defaultdict(int)})
            dur = s["end"] - s["start"]
            row["calls"] += 1
            row["total"] += dur
            row["self"] += dur - child[s["id"]]
            for key, v in s.get("counts", {}).items():
                row["counts"][key] += v
        self.extra = extra
        self.ref_solves = sum(
            1 for s in spans if s["name"] == "adapt.solve_level"
            and s["parent"] is not None
            and spans[s["parent"]]["name"] == "bench.reference_errors")

    def calls(self, name):
        return self.by_name[name]["calls"] if name in self.by_name else 0

    def total(self, *names):
        return sum(self.by_name[n]["total"] for n in names if n in self.by_name)

    def self_s(self, name):
        return self.by_name[name]["self"] if name in self.by_name else 0.0

    def count(self, name, key):
        return self.by_name[name]["counts"][key] if name in self.by_name else 0

    @staticmethod
    def per(num, den, scale=1.0):
        return scale * num / den if den else 0.0


def _ref_errors(q: Aggregate) -> float:
    if not q.calls("bench.reference_errors"):
        return 0.0
    return (q.total("bench.run_experiment") - q.total("adapt.adaptive_loop")
            - q.total("bench.write_reports"))


# name, unit, span whose absence makes the metric not applicable (None:
# always applicable), base metric of a ratio (None: not a ratio), value.
LAYER_METRICS = (
    ("mesh.build_mesh_s", "s", "mesh.build_mesh", None,
     lambda q: q.total("mesh.build_mesh")),
    ("mesh.build_mesh_calls", "count", "mesh.build_mesh", None,
     lambda q: q.calls("mesh.build_mesh")),
    ("mesh.tets_built", "count", "mesh.build_mesh", None,
     lambda q: q.count("mesh.build_mesh", "tets")),
    ("mesh.refine_s", "s", "mesh.refine", None,
     lambda q: q.total("mesh.refine")),
    ("mesh.refine_calls", "count", "mesh.refine", None,
     lambda q: q.calls("mesh.refine")),
    ("mesh.refine_marked", "count", "mesh.refine", None,
     lambda q: q.count("mesh.refine", "marked")),
    ("mesh.refine_tets_per_marked", "ratio", "mesh.refine",
     "mesh.refine_marked",
     lambda q: q.per(q.count("mesh.refine", "new_tets"),
                     q.count("mesh.refine", "marked"))),
    ("polyspace.reference_space_builds", "count", None, None,
     lambda q: q.extra["reference_space_builds"]),
    ("polyspace.quadrature_builds", "count", None, None,
     lambda q: q.extra["quadrature_builds"]),
    ("femsys.assemble_curlcurl_s", "s", "femsys.assemble_curlcurl", None,
     lambda q: q.total("femsys.assemble_curlcurl")),
    ("femsys.assemble_mass_s", "s", "femsys.assemble_mass", None,
     lambda q: q.total("femsys.assemble_mass")),
    ("femsys.assemble_rhs_s", "s", "femsys.assemble_rhs", None,
     lambda q: q.total("femsys.assemble_rhs")),
    ("femsys.assembly_us_per_tet", "us", "femsys.assemble_curlcurl",
     "femsys.assembled_tets",
     lambda q: q.per(q.total("femsys.assemble_curlcurl", "femsys.assemble_mass",
                             "femsys.assemble_rhs"),
                     q.count("femsys.assemble_curlcurl", "tets"), 1e6)),
    ("femsys.assembled_tets", "count", "femsys.assemble_curlcurl", None,
     lambda q: q.count("femsys.assemble_curlcurl", "tets")),
    ("femsys.gradient_correction_self_s", "s", "femsys.gradient_correction",
     None, lambda q: q.self_s("femsys.gradient_correction")),
    ("femsys.discrete_gradient_s", "s", "femsys.discrete_gradient", None,
     lambda q: q.total("femsys.discrete_gradient")),
    ("femsys.discrete_gradient_calls", "count", "femsys.discrete_gradient",
     None, lambda q: q.calls("femsys.discrete_gradient")),
    ("femsys.build_dofmap_s", "s", "femsys.build_dofmap", None,
     lambda q: q.total("femsys.build_dofmap")),
    ("femsys.build_dofmap_calls", "count", "femsys.build_dofmap", None,
     lambda q: q.calls("femsys.build_dofmap")),
    ("femsys.solve_magnetostatic_s", "s", "femsys.solve_magnetostatic", None,
     lambda q: q.total("femsys.solve_magnetostatic")),
    ("femsys.free_dofs", "count", "femsys.solve_magnetostatic", None,
     lambda q: q.count("femsys.solve_magnetostatic", "free_dofs")),
    ("femsys.system_nnz", "count", "femsys.solve_magnetostatic", None,
     lambda q: q.count("femsys.solve_magnetostatic", "nnz")),
    ("femsys.compute_Hh_s", "s", "femsys.compute_Hh", None,
     lambda q: q.total("femsys.compute_Hh")),
    ("femsys.l2_error_against_s", "s", "femsys.l2_error_against", None,
     lambda q: q.total("femsys.l2_error_against")),
    ("femsys.build_node_registry_s", "s", "femsys.build_node_registry", None,
     lambda q: q.total("femsys.build_node_registry")),
    ("equilibrate.step1_s", "s", "equilibrate.step1", None,
     lambda q: q.total("equilibrate.step1")),
    ("equilibrate.step2_s", "s", "equilibrate.step2", None,
     lambda q: q.total("equilibrate.step2")),
    ("equilibrate.edge_check_s", "s", "equilibrate.edge_check", None,
     lambda q: q.total("equilibrate.edge_check")),
    ("equilibrate.step3_s", "s", "equilibrate.step3", None,
     lambda q: q.total("equilibrate.step3")),
    ("equilibrate.step4_s", "s", "equilibrate.step4", None,
     lambda q: q.total("equilibrate.step4")),
    ("equilibrate.estimate_self_s", "s", "equilibrate.estimate", None,
     lambda q: q.self_s("equilibrate.estimate")),
    ("equilibrate.tets", "count", "equilibrate.estimate", None,
     lambda q: q.count("equilibrate.estimate", "tets")),
    ("equilibrate.internal_faces", "count", "equilibrate.estimate", None,
     lambda q: q.count("equilibrate.estimate", "internal_faces")),
    ("equilibrate.internal_edges", "count", "equilibrate.estimate", None,
     lambda q: q.count("equilibrate.estimate", "internal_edges")),
    ("equilibrate.patch_nodes", "count", "equilibrate.step3", None,
     lambda q: q.count("equilibrate.step3", "patch_nodes")),
    ("equilibrate.step1_us_per_tet", "us", "equilibrate.step1",
     "equilibrate.tets",
     lambda q: q.per(q.total("equilibrate.step1"),
                     q.count("equilibrate.estimate", "tets"), 1e6)),
    ("equilibrate.step2_us_per_face", "us", "equilibrate.step2",
     "equilibrate.internal_faces",
     lambda q: q.per(q.total("equilibrate.step2"),
                     q.count("equilibrate.estimate", "internal_faces"), 1e6)),
    ("equilibrate.edge_check_us_per_edge", "us", "equilibrate.edge_check",
     "equilibrate.internal_edges",
     lambda q: q.per(q.total("equilibrate.edge_check"),
                     q.count("equilibrate.estimate", "internal_edges"), 1e6)),
    ("equilibrate.step3_us_per_node", "us", "equilibrate.step3",
     "equilibrate.patch_nodes",
     lambda q: q.per(q.total("equilibrate.step3"),
                     q.count("equilibrate.step3", "patch_nodes"), 1e6)),
    ("equilibrate.estimate_to_solve", "ratio", "equilibrate.estimate",
     "adapt.solve_level_s",
     lambda q: q.per(q.total("equilibrate.estimate"),
                     q.total("adapt.solve_level"))),
    ("residual.compute_residual_estimator_s", "s",
     "residual.compute_residual_estimator", None,
     lambda q: q.total("residual.compute_residual_estimator")),
    ("adapt.adaptive_loop_s", "s", "adapt.adaptive_loop", None,
     lambda q: q.total("adapt.adaptive_loop")),
    ("adapt.solve_level_s", "s", "adapt.solve_level", None,
     lambda q: q.total("adapt.solve_level")),
    ("adapt.solve_level_calls", "count", "adapt.solve_level", None,
     lambda q: q.calls("adapt.solve_level")),
    ("adapt.solve_level_self_s", "s", "adapt.solve_level", None,
     lambda q: q.self_s("adapt.solve_level")),
    ("adapt.dorfler_mark_s", "s", "adapt.dorfler_mark", None,
     lambda q: q.total("adapt.dorfler_mark")),
    ("adapt.marked_share", "ratio", "adapt.dorfler_mark",
     "adapt.mark_candidates",
     lambda q: q.per(q.count("adapt.dorfler_mark", "marked"),
                     q.count("adapt.dorfler_mark", "candidates"))),
    ("adapt.mark_candidates", "count", "adapt.dorfler_mark", None,
     lambda q: q.count("adapt.dorfler_mark", "candidates")),
    ("bench.run_experiment_s", "s", None, None,
     lambda q: q.total("bench.run_experiment")),
    ("bench.write_reports_s", "s", None, None,
     lambda q: q.total("bench.write_reports")),
    ("bench.reference_errors_s", "s", "bench.reference_errors", None,
     _ref_errors),
    ("bench.reference_errors_self_s", "s", "bench.reference_errors", None,
     lambda q: q.self_s("bench.reference_errors")),
    ("bench.reference_solve_level_calls", "count", "bench.reference_errors",
     None, lambda q: q.ref_solves),
)

# Per-layer units; trace.overhead_s is filled by the driver, from the traced
# and untraced repetitions of one run.
UNITS = {m[0]: m[1] for m in LAYER_METRICS} | {"trace.overhead_s": "s"}


def layer_metrics(spans: list[dict], extra: dict,
                  slowness: float = 1.0) -> tuple[dict, list, list]:
    """(metric values, names not applicable here, per-span self-time rows).

    Times in the metrics are divided by the run's slowness, as run_s is;
    the self-time rows keep wall seconds.
    """
    q = Aggregate(spans, extra)
    values = {}
    for name, unit, _, _, fn in LAYER_METRICS:
        values[name] = float(fn(q)) / (slowness if unit in ("s", "us") else 1.0)
    na = [name for name, _, src, _, _ in LAYER_METRICS
          if src is not None and not q.calls(src)]
    rows = sorted(([n, r["calls"], r["total"], r["self"]]
                   for n, r in q.by_name.items()), key=lambda r: -r[3])
    return values, na, rows
