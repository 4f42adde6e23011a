"""One repetition of one workload, in a fresh process.

    PYTHONPATH=src python3 perfbench/worker.py --workload NAME --seed N \
        --trace 0|1 --scratch DIR --recorded perfbench/baseline.json

Started by run.py, one at a time.  The speed probe starts once numpy is
imported, before scipy and curlest are; set-up (imports, building the problem
and filling the polyspace reference tables with a one-cube warm-up of the
same problem and degree) ends when the worker reads the monotonic clock, and
the driver subtracts its own spawn time.  The seeded mesh arrays are made
after that, outside every timer.  The last stdout line is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

from timing import SpeedProbe
from workloads import WORKLOADS

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv=None) -> int:
    probe = SpeedProbe()
    probe.start()
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scratch", required=True)
    p.add_argument("--recorded", required=True,
                   help="JSON file with the recorded per-level values")
    p.add_argument("--run-id", default="run")
    args = p.parse_args(argv)

    import curlest
    import repetition
    if Path(curlest.__file__).resolve().parent != SRC / "curlest":
        probe.stop()
        print(f"curlest imported from {curlest.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    scratch = Path(args.scratch)
    spec = repetition.setup(w, scratch)
    ready = time.monotonic()
    probe.stop()
    setup_slowness, setup_probe_s = probe.take()

    recorded = json.loads(Path(args.recorded).read_text())["workloads"][w.name]["levels"]
    out = repetition.run_once(w, spec, args.seed, scratch, recorded,
                              bool(args.trace), args.run_id)
    out.update(ready_monotonic=ready, setup_slowness=setup_slowness,
               setup_probe_s=setup_probe_s,
               peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
