"""Controlled check of the speed probe: does its divisor depend on the program?

    python3 perfbench/probe_check.py [--rounds N] [--pairs N] [--out FILE]

Run from the root of a source checkout.  Two checks, both in one process.

Phases: the probe runs while the process cycles, for --rounds rounds,
through three recorded curlest calls of different kinds: step 2 of the
estimator on the finest cube_k1_uniform mesh (a Python loop over faces), the
sparse direct solve and the curl-curl assembly on the finest cube_k3_uniform
mesh (long native calls and large dense blocks).  Each probe sample is
credited to the call it interrupted.  The calls alternate every fraction of a
second, so the machine's drift is common to all three; if the divisor does
not depend on what the program does, their median samples agree.  Fails if
the largest and smallest median differ by more than TOL.

Pairs: for each variant below it runs --pairs pairs of repetitions, a base
run and a run that does a fixed amount of extra curlest work, in alternating
order:

    step2_twice   cube_k1_uniform; equilibrate.step2_face_multipliers runs
                  twice per call (a Python loop over faces)
    solve_twice   cube_k3_uniform; femsys.solve_magnetostatic runs twice per
                  call (long native calls, during which no sample is taken)
    traced        cube_k1_uniform, traced as with --trace 1

For each pair it takes variant / base of the wall time, of run_s and of the
slowness.  If the divisor does not depend on what the program does, run_s
rises by the same fraction as wall time and the slowness ratio is 1.  Single
ratios are noisy on a shared machine (their quartiles are ~10% apart), so the
median over the pairs is taken with its distribution-free 95% confidence
interval.  Fails if 1 lies outside that interval or if a repetition fails its
output checks.

Exits 1 if any check fails.  The result goes to --out as JSON.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import statistics
import sys
from pathlib import Path

from run import OUT, RECORDED, THREAD_ENV

os.environ.update(THREAD_ENV)
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from curlest import equilibrate, femsys  # noqa: E402

import repetition  # noqa: E402
from timing import SpeedProbe  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

TOL = 0.03
PHASES = (("python_loop", "cube_k1_uniform", equilibrate, "step2_face_multipliers"),
          ("sparse_solve", "cube_k3_uniform", femsys, "solve_magnetostatic"),
          ("assembly", "cube_k3_uniform", femsys, "assemble_curlcurl"))


def twice(owner, attr):
    """Make owner.attr do its work twice; returns the undo."""
    fn = getattr(owner, attr)

    def again(*args, **kwargs):
        fn(*args, **kwargs)
        return fn(*args, **kwargs)
    setattr(owner, attr, again)
    return lambda: setattr(owner, attr, fn)


VARIANTS = (
    ("step2_twice", "cube_k1_uniform",
     lambda: twice(equilibrate, "step2_face_multipliers"), False),
    ("solve_twice", "cube_k3_uniform",
     lambda: twice(femsys, "solve_magnetostatic"), False),
    ("traced", "cube_k1_uniform", lambda: (lambda: None), True),
)


def quartiles(values: list) -> dict:
    """Median, quartiles and the median's 95% confidence interval."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    v, n = sorted(values), len(values)
    k = max(0, math.floor(n / 2 - 0.98 * math.sqrt(n)))
    return {"median": q2, "q1": q1, "q3": q3, "ci95": [v[k], v[n - 1 - k]]}


def prepared(workload: str, scratch: Path):
    w = WORKLOADS[workload]
    spec = repetition.setup(w, scratch)
    recorded = json.loads(RECORDED.read_text())["workloads"][w.name]["levels"]
    return w, spec, recorded


def recorded_call(workload, owner, attr, scratch):
    """The last call of owner.attr in one run, ready to be made again."""
    w, spec, recorded = prepared(workload, scratch)
    fn, calls = getattr(owner, attr), []

    def keep(*args, **kwargs):
        calls.append((args, kwargs))
        return fn(*args, **kwargs)
    setattr(owner, attr, keep)
    try:
        repetition.run_once(w, spec, 1, scratch, recorded)
    finally:
        setattr(owner, attr, fn)
    args, kwargs = calls[-1]
    return functools.partial(fn, *args, **kwargs)


def phase_check(rounds: int, scratch: Path) -> dict:
    calls = [(name, recorded_call(wl, owner, attr, scratch))
             for name, wl, owner, attr in PHASES]
    samples = {name: [] for name, _ in calls}
    probe = SpeedProbe()
    probe.start()
    try:
        for _ in range(rounds):
            for name, call in calls:
                n = len(probe.samples)
                call()
                samples[name] += probe.samples[n:]
    finally:
        probe.stop()
    medians = {k: statistics.median(v) / SpeedProbe.NOMINAL_S
               for k, v in samples.items()}
    spread = max(medians.values()) / min(medians.values()) - 1.0
    return {"rounds": rounds, "samples": {k: len(v) for k, v in samples.items()},
            "median_slowness": medians, "spread": spread,
            "pass": spread <= TOL}


def pair_check(name, workload, inject, traced, pairs, scratch) -> dict:
    w, spec, recorded = prepared(workload, scratch)

    def rep(variant: bool, seed: int) -> dict:
        undo = inject() if variant and not traced else (lambda: None)
        try:
            return repetition.run_once(w, spec, seed, scratch, recorded,
                                       trace=variant and traced)
        finally:
            undo()

    ratios = {"wall_run_s": [], "run_s": [], "slowness": []}
    failures = []
    for i in range(pairs):
        order = (False, True) if i % 2 == 0 else (True, False)
        got = {v: rep(v, i + 1) for v in order}
        for r in got.values():
            failures += r["failures"]
        for key, vals in ratios.items():
            vals.append(got[True][key] / got[False][key])
        print(f"{name} pair {i}: " + "  ".join(
            f"{k} {v[-1]:.4f}" for k, v in ratios.items()), flush=True)
    out = {"workload": workload, "pairs": pairs, "failures": failures,
           **{f"{k}_ratio": quartiles(v) for k, v in ratios.items()}}
    lo, hi = out["slowness_ratio"]["ci95"]
    out["pass"] = lo <= 1.0 <= hi and not failures
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--rounds", type=int, default=60)
    p.add_argument("--pairs", type=int, default=16)
    p.add_argument("--out", default=str(OUT / "probe_check.json"))
    args = p.parse_args(argv)
    scratch = OUT / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    r = phase_check(args.rounds, scratch)
    results = {"phases": r}
    print("phases: median slowness " + "  ".join(
        f"{k} {v:.4f}" for k, v in r["median_slowness"].items())
        + f"  spread {r['spread']:.4f} (tolerance {TOL})  "
        + ("pass" if r["pass"] else "FAIL"), flush=True)
    for name, workload, inject, traced in VARIANTS:
        r = pair_check(name, workload, inject, traced, args.pairs, scratch)
        results[name] = r
        lo, hi = r["slowness_ratio"]["ci95"]
        print(f"{name}: wall x{r['wall_run_s_ratio']['median']:.4f}  "
              f"run_s x{r['run_s_ratio']['median']:.4f}  slowness "
              f"x{r['slowness_ratio']['median']:.4f} (95% {lo:.4f}..{hi:.4f})"
              f"  {'pass' if r['pass'] else 'FAIL'}", flush=True)
    Path(args.out).write_text(json.dumps({"tolerance": TOL, **results},
                                         indent=1) + "\n")
    print(json.dumps({k: v["pass"] for k, v in results.items()}))
    return 0 if all(v["pass"] for v in results.values()) else 1


if __name__ == "__main__":
    raise SystemExit(main())
