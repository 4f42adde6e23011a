"""Self-test of the benchmark.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_perfbench.py

Runs a reduced cube_k1_uniform (its first two levels) in process, checks the
result schema against BENCHMARK.json, and keeps three negative controls: a
wrong recorded eta_h must fail the repetition, a trace that leaves out the
equilibrate layer must fail it, and the driver must refuse to run without the
curlest sources.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import repetition  # noqa: E402
from curlest import equilibrate  # noqa: E402
import run  # noqa: E402
import timing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
BASELINE = json.loads(run.RECORDED.read_text())
RECORDED = BASELINE["workloads"]
REDUCED = dataclasses.replace(WORKLOADS["cube_k1_uniform"], resolutions=(2, 4))


def as_rep(out: dict, trace: bool) -> dict:
    """A worker result as run_rep returns it, with stand-in process values."""
    return dict(out, trace=trace, wall=1.0, setup_s=0.5, wall_setup_s=0.5,
                peak_rss_mb=80.0, dofs_per_s=out["dofs"] / out["run_s"])


@pytest.fixture(scope="module")
def reduced(tmp_path_factory):
    scratch = tmp_path_factory.mktemp("scratch")
    spec = repetition.setup(REDUCED, scratch)
    recorded = RECORDED["cube_k1_uniform"]["levels"][:2]
    plain = repetition.run_once(REDUCED, spec, 3, scratch, recorded)
    traced = repetition.run_once(REDUCED, spec, 3, scratch, recorded, trace=True)
    wrong = [dict(lv) for lv in recorded]
    wrong[1]["eta_h"] *= 1.0 + 1e-6
    broken = repetition.run_once(REDUCED, spec, 3, scratch, wrong)
    partial = repetition.run_once(
        REDUCED, spec, 3, scratch, recorded, trace=True,
        targets=[t for t in repetition.TARGETS if t[0] is not equilibrate])
    return plain, traced, broken, partial


def test_benchmark_json_matches_the_code():
    assert [(w["name"], w["why"]) for w in BENCHMARK["workloads"]] == \
        [(w.name, w.why) for w in WORKLOADS.values()]
    assert list(RECORDED) == list(WORKLOADS)
    for w in WORKLOADS.values():
        params = dataclasses.asdict(w)
        assert RECORDED[w.name]["why"] == params.pop("why")
        del params["name"]
        assert RECORDED[w.name]["parameters"] == \
            json.loads(json.dumps(params))
    assert BASELINE["adaptive"] == {"theta": repetition.THETA,
                                    "max_dofs": repetition.MAX_DOFS}
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == \
        list(timing.UNITS.items())
    bound = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    assert bound["setup_s"] == max(bound.values())


def test_reduced_run_passes_every_check(reduced):
    plain, traced, _, _ = reduced
    assert plain["failures"] == [] and traced["failures"] == []
    assert plain["csv_sha256"] == traced["csv_sha256"]
    assert plain["eff_eq"] >= 1.0


def test_result_schema(reduced):
    plain, traced, _, _ = reduced
    for trace, reps, names in (
            (False, [as_rep(plain, False)] * 3,
             [m["name"] for m in BENCHMARK["end_to_end"]]),
            (True, [as_rep(plain, False), as_rep(traced, True)],
             [m["name"] for m in BENCHMARK["per_layer"]])):
        result, _ = run.summarise(reps, trace)
        assert list(result) == ["correct", "attempted", "failed", "metrics"]
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] == len(reps)
        assert list(result["metrics"]) == names
        for m in result["metrics"].values():
            assert set(m) == {"value", "unit"}
            assert isinstance(m["value"], float)
        json.dumps(result, allow_nan=False)


def test_trace_accounts_for_the_run(reduced):
    _, traced, _, partial = reduced
    layers = traced["layers"]
    assert traced["untraced_s"] <= 0.01 * traced["wall_run_s"]
    assert any("no traced layer" in f for f in partial["failures"])
    assert layers["equilibrate.tets"] == 48 + 384
    assert layers["adapt.solve_level_calls"] == 2
    for name in ("mesh.refine_calls", "adapt.adaptive_loop_s",
                 "bench.reference_solve_level_calls"):
        assert layers[name] == 0 and name in traced["not_applicable"]


def test_wrong_recorded_eta_fails_the_operation(reduced):
    plain, _, broken, _ = reduced
    assert any("eta_h" in f for f in broken["failures"])
    result, _ = run.summarise([as_rep(plain, False), as_rep(broken, False)],
                              False)
    assert result["failed"] == 1 and not result["correct"]


def test_driver_refuses_to_run_without_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cube_k1_uniform",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
