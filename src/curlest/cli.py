"""Command-line front end for the built-in experiments."""

from __future__ import annotations

import argparse
import logging
import sys
from dataclasses import fields
from pathlib import Path

from . import bench
from .adapt import ESTIMATORS, MODES, RunConfig
from .errors import CurlestError

_FIELDS = {f.name for f in fields(RunConfig)}
_FLAGS = {f.name for f in fields(RunConfig) if isinstance(f.default, bool)}
_BOOLEANS = {"true": True, "false": False, "yes": True, "no": False,
             "1": True, "0": False}


def _config_argv(path: str) -> list[str]:
    """A key=value config file as option tokens, so that the run parser
    types and checks its values as it does flags.  '#' starts a comment; a
    flag takes true/false, yes/no or 1/0."""
    argv = []
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"bad config line: {raw!r}")
        key, value = (s.strip() for s in line.split("=", 1))
        key = key.replace("-", "_")
        option = "--" + key.replace("_", "-")
        if key not in _FLAGS:
            argv.append(f"{option}={value}")
        elif value.lower() not in _BOOLEANS:
            raise ValueError(f"config key {key!r} takes "
                             f"{'/'.join(_BOOLEANS)}, not {value!r}")
        elif _BOOLEANS[value.lower()]:
            argv.append(option)
    return argv


def _build_parser(allow_abbrev: bool = True) -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="curlest",
                                description="magnetostatic benchmark runner")
    sub = p.add_subparsers(dest="command", required=True)

    # options left unset are None, so RunConfig's defaults apply
    runp = sub.add_parser("run", help="run a built-in problem",
                          allow_abbrev=allow_abbrev)
    runp.add_argument("problem")
    runp.add_argument("--config", help="key=value config file; flags override")
    runp.add_argument("--degree", type=int)
    runp.add_argument("--aux-degree", type=int,
                      help="estimator degree (defaults to --degree)")
    runp.add_argument("--mode", choices=MODES)
    runp.add_argument("--levels", type=int)
    runp.add_argument("--theta", type=float)
    runp.add_argument("--estimator", choices=ESTIMATORS)
    runp.add_argument("--strict-a2", action="store_true", default=None)
    runp.add_argument("--max-dofs", type=int)
    runp.add_argument("--out", dest="out_dir", metavar="DIR")
    runp.add_argument("--vtk", action="store_true", default=None,
                      help="write each level's mesh and eta_T (needs --out)")
    runp.add_argument("--analysis-grade", action="store_true", default=None)
    runp.add_argument("--reference-errors", action="store_true", default=None)
    runp.add_argument("--verify", action="store_true", default=None,
                      help="run the equilibrium checks on every level")
    runp.add_argument("-v", "--verbose", action="count", default=0,
                      help="-v logs each level, -v -v adds solver details")

    sub.add_parser("list", help="list built-in problems")
    return p


def _run_options(args) -> dict:
    """The RunConfig fields set on the command line, over those set in the
    config file, whose keys must be spelt out in full."""
    spaces = [args]
    if args.config:
        spaces.insert(0, _build_parser(allow_abbrev=False).parse_args(
            ["run", args.problem, *_config_argv(args.config)]))
    return {k: v for ns in spaces for k, v in vars(ns).items()
            if k in _FIELDS and v is not None}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "list":
        for name, spec in bench.builtin_problems().items():
            grade = " [analysis grade]" if spec.analysis_grade else ""
            print(f"{name:18s} {spec.notes}{grade}")
        return 0

    level = (logging.WARNING, logging.INFO, logging.DEBUG)[min(args.verbose, 2)]
    logging.basicConfig(level=level, format="%(levelname)s %(message)s")
    problems = bench.builtin_problems()
    if args.problem not in problems:
        print(f"unknown problem {args.problem!r}; try 'curlest list'",
              file=sys.stderr)
        return 2
    spec = problems[args.problem]
    try:
        cfg = RunConfig(**_run_options(args))
        report = bench.run_experiment(spec, cfg)
    except (CurlestError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for row in report.rows:
        bits = [f"level {row['level']}", f"dofs {row['n_dofs']}",
                f"eta {row['eta_h']:.4e}"]
        if "error" in row:
            bits.append(f"error {row['error']:.4e}")
            bits.append(f"eff {row['eff_eq']:.3f}")
        if "mu_h" in row:
            bits.append(f"mu {row['mu_h']:.4e}")
        print("  ".join(bits))
    if cfg.out_dir:
        print(f"report written to {cfg.out_dir}/report.csv")
    return 0 if report.ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
