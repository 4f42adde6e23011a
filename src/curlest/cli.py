"""Command-line front end for the built-in experiments."""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

from . import bench
from .errors import CurlestError


def _read_config(path: str) -> dict:
    """key=value lines; '#' starts a comment."""
    out = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"bad config line: {raw!r}")
        key, value = (s.strip() for s in line.split("=", 1))
        out[key.replace("-", "_")] = value
    return out


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="curlest",
                                description="magnetostatic benchmark runner")
    sub = p.add_subparsers(dest="command", required=True)

    runp = sub.add_parser("run", help="run a built-in problem")
    runp.add_argument("problem")
    runp.add_argument("--config", help="key=value config file; flags override")
    runp.add_argument("--degree", type=int, default=None)
    runp.add_argument("--aux-degree", type=int, default=None,
                      help="estimator degree (defaults to --degree)")
    runp.add_argument("--mode", choices=("uniform", "adaptive"), default=None)
    runp.add_argument("--levels", type=int, default=None)
    runp.add_argument("--theta", type=float, default=None)
    runp.add_argument("--estimator", choices=("eq", "res", "both"), default=None)
    runp.add_argument("--strict-a2", action="store_true", default=None)
    runp.add_argument("--max-dofs", type=int, default=None)
    runp.add_argument("--out", default=None)
    runp.add_argument("--solver", choices=("direct", "cg"), default=None)
    runp.add_argument("--tol", type=float, default=None)
    runp.add_argument("--max-iter", type=int, default=None)
    runp.add_argument("--vtk", action="store_true", default=None)
    runp.add_argument("--dump-matrix", action="store_true", default=None,
                      help="export the reduced system in matrix-market form")
    runp.add_argument("--analysis-grade", action="store_true", default=None)
    runp.add_argument("--reference-errors", action="store_true", default=None)
    runp.add_argument("--verify", action="store_true", default=None,
                      help="run the equilibrium checks on every level")
    runp.add_argument("-v", "--verbose", action="count", default=0,
                      help="-v logs each level, -v -v adds solver details")

    sub.add_parser("list", help="list built-in problems")
    return p


_CONFIG_TYPES = {
    "degree": int, "aux_degree": int, "levels": int, "max_dofs": int,
    "max_iter": int, "theta": float, "tol": float,
    "mode": str, "estimator": str, "solver": str, "out": str,
    "strict_a2": lambda s: s.lower() in ("1", "true", "yes"),
    "vtk": lambda s: s.lower() in ("1", "true", "yes"),
    "dump_matrix": lambda s: s.lower() in ("1", "true", "yes"),
    "analysis_grade": lambda s: s.lower() in ("1", "true", "yes"),
    "reference_errors": lambda s: s.lower() in ("1", "true", "yes"),
    "verify": lambda s: s.lower() in ("1", "true", "yes"),
}


def _merge_options(args) -> dict:
    opts = {}
    if args.config:
        for key, value in _read_config(args.config).items():
            if key not in _CONFIG_TYPES:
                raise ValueError(f"unknown config key {key!r}")
            opts[key] = _CONFIG_TYPES[key](value)
    for key in _CONFIG_TYPES:
        val = getattr(args, key, None)
        if val is not None:
            opts[key] = val
    return opts


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
    opts = _merge_options(args)

    cfg = bench.RunConfig(
        degree=opts.get("degree", 1),
        aux_degree=opts.get("aux_degree"),
        mode=opts.get("mode", "uniform"),
        levels=opts.get("levels"),
        theta=opts.get("theta", 0.5),
        estimator=opts.get("estimator", "both"),
        strict_a2=opts.get("strict_a2", False),
        max_dofs=opts.get("max_dofs", 200_000),
        solver_backend=opts.get("solver", "direct"),
        solver_tol=opts.get("tol", 1e-10),
        solver_max_iter=opts.get("max_iter", 50000),
        out_dir=opts.get("out"),
        vtk=opts.get("vtk", False),
        dump_matrix=opts.get("dump_matrix", False),
        analysis_grade=opts.get("analysis_grade", False),
        reference_errors=opts.get("reference_errors", False),
        verify=opts.get("verify", False),
    )
    try:
        if cfg.dump_matrix and cfg.out_dir:
            _dump_matrix(spec, cfg)
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


def _dump_matrix(spec, cfg) -> None:
    import scipy.io

    from . import femsys as fem

    mesh = spec.initial_mesh()
    dm = fem.build_dofmap(mesh, fem.KIND_NEDELEC, cfg.degree,
                          homogeneous_boundary=True)
    A = fem.assemble_curlcurl(mesh, dm, spec.mu)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    scipy.io.mmwrite(out / "system", A)


if __name__ == "__main__":
    raise SystemExit(main())
