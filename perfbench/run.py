"""curlest benchmark driver.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Repeats one workload, each
repetition in a fresh worker process (perfbench/worker.py), one at a time,
until --seconds have passed and at least MIN_REPS repetitions are done.
BLAS threads are pinned to BLAS_THREADS.  Every repetition is one operation:
it fails if any output check fails.  Times are reported at nominal machine
speed: each worker divides its wall times by the slowness its SpeedProbe
(timing.py) sampled meanwhile; the wall times are printed alongside.  With --trace 0 the result line holds
the medians of the end-to-end metrics; with --trace 1 the run alternates
untraced and traced repetitions and reports the per-layer medians and the
tracing overhead.  Span files and self-time tables go to perfbench/out/.
The last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from timing import LAYER_METRICS, UNITS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
RECORDED = HERE / "baseline.json"

BLAS_THREADS = 1        # at most nproc on any machine
MIN_REPS = 3            # untraced run; a traced run needs 2 of each kind
DEADLINE_S = 170.0      # the whole run, from start to result line

END_TO_END = (("run_s", "s"), ("dofs_per_s", "1/s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"), ("eff_eq", "ratio"))


def environment() -> dict:
    return {"nproc": os.cpu_count(), "blas_threads": BLAS_THREADS,
            "python": sys.version.split()[0],
            "numpy": metadata.version("numpy"),
            "scipy": metadata.version("scipy")}


THREAD_ENV = {var: str(BLAS_THREADS) for var in
              ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


def worker_env() -> dict:
    return dict(os.environ, **THREAD_ENV, PYTHONPATH=str(ROOT / "src"),
                PYTHONHASHSEED="0")


def run_rep(workload: str, seed: int, trace: bool, run_id: str,
            deadline: float) -> dict:
    """One worker process; setup_s runs from spawn to the worker's ready."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(trace)),
           "--scratch", str(OUT / "tmp"), "--recorded", str(RECORDED),
           "--run-id", run_id]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=worker_env(), cwd=ROOT, text=True,
                              capture_output=True,
                              timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired:
        return {"trace": trace, "wall": time.monotonic() - t0,
                "failures": ["repetition timed out"]}
    wall = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        err = proc.stderr.strip().splitlines()[-3:]
        return {"trace": trace, "wall": wall,
                "failures": [f"worker exited {proc.returncode}: {' | '.join(err)}"]}
    rep = json.loads(lines[-1])
    wall_setup_s = rep.pop("ready_monotonic") - t0
    rep.update(trace=trace, wall=wall, wall_setup_s=wall_setup_s,
               setup_s=(wall_setup_s - rep["setup_probe_s"]) / rep["setup_slowness"],
               dofs_per_s=rep["dofs"] / rep["run_s"])
    return rep


def run_reps(workload: str, seed: int, seconds: int, trace: bool) -> list:
    start = time.monotonic()
    deadline = start + DEADLINE_S
    reps: list[dict] = []
    min_reps = 4 if trace else MIN_REPS
    while True:
        elapsed = time.monotonic() - start
        if reps:
            typical = statistics.median(r["wall"] for r in reps)
            if len(reps) >= min_reps and elapsed + typical > seconds:
                break
            if elapsed + 1.5 * typical > DEADLINE_S or "run_s" not in reps[-1]:
                break
        traced = trace and len(reps) % 2 == 1
        rep = run_rep(workload, seed, traced,
                      f"{workload}/seed{seed}/rep{len(reps)}", deadline)
        reps.append(rep)
        print(f"rep {len(reps) - 1}{' traced' if traced else ''}: "
              + (f"wall setup_s {rep['wall_setup_s']:.4f} run_s "
                 f"{rep['wall_run_s']:.4f}  slowness {rep['slowness']:.4f}  "
                 f"peak_rss_mb {rep['peak_rss_mb']:.1f}" if "run_s" in rep else "")
              + "".join(f"\n  FAILED: {f}" for f in rep["failures"]), flush=True)
    # report.csv must be byte-identical across the repetitions of one seed
    measured = [r for r in reps if "csv_sha256" in r]
    for r in measured[1:]:
        if r["csv_sha256"] != measured[0]["csv_sha256"]:
            r["failures"].append("report.csv differs from the first repetition")
    return reps


def median_q(values: list) -> tuple:
    if len(values) < 2:
        return (values[0],) * 3 if values else (0.0,) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def summarise(reps: list, trace: bool) -> tuple[dict, list]:
    """The result object and the human-readable lines that precede it."""
    untraced = [r for r in reps if "run_s" in r and not r["trace"]]
    traced = [r for r in reps if "run_s" in r and r["trace"]]
    lines = ["metric                median        q1            q3        n unit"]
    for name, unit in END_TO_END + (("wall_run_s", "s"), ("wall_setup_s", "s"),
                                    ("slowness", "ratio")):
        vals = [r[name] for r in untraced if name in r]
        med, q1, q3 = median_q(vals)
        lines.append(f"{name:20s} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                     f"{len(vals):3d} {unit}")
    if trace:
        metrics = {}
        for name, unit, _, _, _ in LAYER_METRICS:
            vals = [r["layers"][name] for r in traced]
            metrics[name] = {"value": statistics.median(vals) if vals else 0.0,
                             "unit": unit}
        overhead = (statistics.median(r["run_s"] for r in traced)
                    - statistics.median(r["run_s"] for r in untraced)
                    if traced and untraced else 0.0)
        metrics["trace.overhead_s"] = {"value": overhead,
                                       "unit": UNITS["trace.overhead_s"]}
        na = set(traced[0]["not_applicable"]) if traced else set()
        lines.append("per-layer metric (median of traced repetitions)")
        for name, unit, _, base, _ in LAYER_METRICS:
            note = " n/a" if name in na else ""
            if base is not None:
                note += f"  base {metrics[base]['value']:.6g} {base}"
            lines.append(f"  {name:40s} {metrics[name]['value']:14.6g} "
                         f"{unit:6s}{note}")
        lines.append(f"  {'trace.overhead_s':40s} {overhead:14.6g} s")
    else:
        metrics = {name: {"value": median_q([r[name] for r in untraced])[0],
                          "unit": unit} for name, unit in END_TO_END}
    failed = sum(1 for r in reps if r["failures"])
    result = {"correct": bool(reps) and failed == 0, "attempted": len(reps),
              "failed": failed, "metrics": metrics}
    return result, lines


def selftime_table(rep: dict) -> list:
    wall = rep["wall_run_s"]
    lines = [f"self-time table of {rep['spans'][0]['run']}, wall seconds "
             f"(traced run {wall:.4f} s, of it {rep['untraced_s']:.4f} s in no "
             "traced layer)",
             "span                                    calls    total_s     self_s  self%"]
    for name, calls, total, self_s in rep["selftime"]:
        lines.append(f"{name:38s} {calls:7d} {total:10.4f} {self_s:10.4f} "
                     f"{100 * self_s / wall:6.2f}")
    return lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    if not (ROOT / "src" / "curlest" / "__init__.py").is_file():
        print(f"error: no curlest sources under {ROOT / 'src'}; run from the "
              "root of a source checkout", file=sys.stderr)
        return 2
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    env = environment()
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace}; " + ", ".join(f"{k} {v}" for k, v in env.items()),
          flush=True)
    reps = run_reps(args.workload, args.seed, args.seconds, bool(args.trace))
    result, lines = summarise(reps, bool(args.trace))
    traced = sorted((r for r in reps if r.get("trace") and "run_s" in r),
                    key=lambda r: r["run_s"])
    if traced:
        table = selftime_table(traced[(len(traced) - 1) // 2])
        lines += table
        (OUT / f"{args.workload}.selftime.txt").write_text("\n".join(table) + "\n")
        (OUT / f"{args.workload}.spans.json").write_text(json.dumps(
            [s for r in traced for s in r["spans"]]))
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
