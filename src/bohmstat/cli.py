"""Command-line runner: `bohmstat run <config.json>` and
`bohmstat list-experiments`.

Exit codes: 0 success; 2 invalid or unsupported input (a config error, or a
package error such as StepperBoundaryMismatch, MemoryBudgetExceeded,
DenseBudgetExceeded or MalformedFile); 3 a built-in numerical check failed,
or the run hit a numerical failure (TrajectoryEscapedDomain,
ConvergenceFailure, TruncationInsufficient, NotADensityMatrix,
OutsideAllCells, WindowEmpty).  Each error class names its code in `errors`;
a package error prints one line to stderr and leaves no manifest.

Every successful or check-failed run leaves a manifest.json next to its
outputs with the config echo, seed, wall time, sha256 of every emitted file,
and the headline metrics; re-running the same config and seed reproduces
everything but the wall time bit-identically.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time

from . import __version__
from .configio import EXPERIMENTS_META, load_config, validate_config
from .errors import BohmstatError, ConfigError
from .experiments import RUNNERS


def _json_default(obj):
    import numpy as np

    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _report_error(exc: BohmstatError) -> int:
    kind = "config error" if isinstance(exc, ConfigError) else type(exc).__name__
    print(f"{kind}: {exc}", file=sys.stderr)
    return exc.exit_code


def cmd_run(args) -> int:
    try:
        cfg = load_config(args.config)
        name = validate_config(cfg)
    except BohmstatError as exc:
        return _report_error(exc)
    seed = args.seed if args.seed is not None else int(cfg.get("seed", 0))
    outdir = args.output or cfg.get("output_dir") or "."
    os.makedirs(outdir, exist_ok=True)
    start = time.perf_counter()
    try:
        result = RUNNERS[name](cfg, outdir, seed)
    except BohmstatError as exc:
        return _report_error(exc)
    wall = time.perf_counter() - start
    manifest = {
        "experiment": name,
        "version": __version__,
        "seed": seed,
        "config": cfg,
        "wall_time_s": wall,
        "files": {f: _sha256(os.path.join(outdir, f)) for f in result.files},
        "metrics": result.metrics,
        "checks": result.checks,
        "status": "ok" if result.passed else "check_failed",
    }
    with open(os.path.join(outdir, "manifest.json"), "w") as f:
        json.dump(manifest, f, indent=1, sort_keys=True, default=_json_default)
    for key, ok in sorted(result.checks.items()):
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {key}")
    for key, val in result.metrics.items():
        print(f"  {key} = {val}")
    if not result.passed:
        print(f"{name}: numerical check failed", file=sys.stderr)
        return 3
    return 0


def cmd_list(args) -> int:
    width = max(len(n) for n in EXPERIMENTS_META)
    for name in sorted(EXPERIMENTS_META):
        desc, required = EXPERIMENTS_META[name]
        print(f"{name:<{width}}  {desc}  [sections: {', '.join(required)}]")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="bohmstat",
        description="probability-current statistical mechanics experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run one experiment from a JSON config")
    run_p.add_argument("config", help="path to the experiment config")
    run_p.add_argument("--output", help="output directory (overrides config)")
    run_p.add_argument("--seed", type=int, help="seed override (64-bit)")
    run_p.set_defaults(func=cmd_run)
    list_p = sub.add_parser("list-experiments",
                            help="table of experiments and config sections")
    list_p.set_defaults(func=cmd_list)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
