"""Command-line runner: `bohmstat run <config.json>` and
`bohmstat list-experiments`.

`run` checks the config against `configio.TOP_LEVEL` and `configio.SCHEMA`,
which give every key a type, a default and a range; `--seed` follows the
config's `seed` rule (an integer >= 0).  A config defect prints one line,
`config error: <section>.<key>: <what is wrong>`, and exits 2.  Every
runner estimates what it will hold at once from the config and stops with
MemoryBudgetExceeded, before its first large allocation, when that exceeds
the top-level `memory_budget`.

Exit codes: 0 success; 2 invalid or unsupported input (a config error, or a
package error such as MemoryBudgetExceeded, DenseBudgetExceeded or
MalformedFile); 3 a built-in numerical check failed, or the run hit a
numerical failure (TrajectoryEscapedDomain, TruncationInsufficient,
NotADensityMatrix, OutsideAllCells, WindowEmpty).  Each error class names its
code in `errors`; a package error prints one line to stderr and leaves no
manifest.

Every successful or check-failed run leaves a manifest.json next to its
outputs with the config echo, seed, wall time, peak resident set size of the
process (`peak_rss_bytes`), sha256 of every emitted file, and the headline
metrics; re-running the same config and seed reproduces everything but the
wall time and the peak RSS bit-identically.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time

from . import __version__
from .configio import EXPERIMENTS_META, TOP_LEVEL, load_config, validate_config
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
        raw = load_config(args.config)
        cfg = validate_config(raw)
        seed = (cfg["seed"] if args.seed is None
                else TOP_LEVEL["seed"].check("seed", args.seed))
    except BohmstatError as exc:
        return _report_error(exc)
    name = cfg["experiment"]
    outdir = args.output or cfg["output_dir"]
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
        "config": raw,
        "wall_time_s": wall,
        # ru_maxrss is in KiB on Linux
        "peak_rss_bytes": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024,
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
