"""bohmstat benchmark: shipped experiment configs through the real CLI.

    python3 perfbench/run.py --workload field_pipeline --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout (it needs ``src/`` and ``configs/``).
One client in a closed loop: each config runs as a fresh
``python -m bohmstat.cli run`` process that starts only after the previous
one exits.  A pass is one run of every config of the workload; passes repeat
while one more would still end within ``--seconds`` (at least the workload's
``min_passes``).

--trace 0 reports the end-to-end metrics:
  wall_s       median over passes of one pass's wall time (first spawn to
               last exit)
  setup_s      median over processes of process wall time minus the
               manifest's wall_time_s (imports, validation, hashing, exit)
  peak_rss_mb  median over passes of the largest child ru_maxrss in the pass,
               taken from os.wait4 for each child
A config run fails if it exits non-zero, its manifest status is not ``ok``,
a manifest sha256 does not match the file on disk, or its output hashes
differ from another pass with the same seed (in this run, or a record left by
an earlier run of the same source in this checkout).  fail_frac, with its
base, is printed in the summary and carried by ``failed``/``attempted``.

--trace 1 runs untraced passes for half of ``--seconds`` and then one traced
pass (``perfbench/tracing.py``), and reports the per-layer metrics, the
per-config manifest times and the tracing overhead.

Everything the benchmark writes goes under ``.bench_build/perfbench/``.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

from tracing import self_times, spans_from_json
from workloads import ALL_CONFIGS, WORKLOADS, generate_configs

HERE = os.path.dirname(os.path.abspath(__file__))
TRACER = os.path.join(HERE, "tracing.py")
OUT_ROOT = os.path.join(".bench_build", "perfbench")
RUN_BUDGET_S = 165.0  # start no work after this, so a run ends within 180 s
SPIN_SIZES = (6, 8, 10, 12)
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")

END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")]

# span name -> layer name used in the per-layer metrics
LAYER_OF = {
    "configio.validate_config": "configio.validate",
    "configio.build_grid": "configio.state_prep",
    "configio.build_hamiltonian": "configio.state_prep",
    "configio.build_initial_state": "configio.state_prep",
    "currents.FieldFrame.from_wavefield": "currents.frames",
    "currents.velocity": "currents.frames",
    "spinchain.diagonalize_chain": "spinchain.eigh",
    "lattice.write_field": "output",
    "bohmian.write_trajectories": "output",
    "subsystem.write_rdm": "output",
    "classical_phase.write_ensemble": "output",
    "experiments._write_csv": "output",
}
SIZED_LAYERS = ("spinchain.tfim_hamiltonian", "spinchain.eigh")
# rate metric -> (summed span quantity, busy-time metric)
RATES = {
    "schrodinger.evolve.point_steps_per_s": ("schrodinger.evolve.point_steps",
                                             "schrodinger.evolve.s"),
    "kernels.rk4_paths.sample_substeps_per_s": (
        "kernels.rk4_paths.sample_substeps", "kernels.rk4_paths.s"),
    "kernels.verlet.sample_steps_per_s": ("kernels.verlet.sample_steps",
                                          "kernels.verlet.s"),
}

PER_LAYER = (
    [("cli.import_s", "s"),
     ("configio.validate.s", "s"),
     ("configio.state_prep.s", "s"),
     ("schrodinger.evolve.s", "s"),
     ("schrodinger.evolve.steps", "count"),
     ("schrodinger.evolve.point_steps_per_s", "1/s"),
     ("currents.frames.s", "s"),
     ("currents.frames.count", "count"),
     ("subsystem.subsystem_frame.s", "s"),
     ("subsystem.subsystem_frame.count", "count"),
     ("subsystem.reduced_density_matrix.s", "s"),
     ("bohmian.integrate_trajectories.s", "s"),
     ("bohmian.sample_initial.s", "s"),
     ("bohmian.equivariance_distance.s", "s"),
     ("kernels.rk4_paths.s", "s"),
     ("kernels.rk4_paths.sample_substeps", "count"),
     ("kernels.rk4_paths.sample_substeps_per_s", "1/s"),
     ("kernels.rk4_paths.bytes_computed", "bytes"),
     ("kernels.verlet.s", "s"),
     ("kernels.verlet.sample_steps", "count"),
     ("kernels.verlet.sample_steps_per_s", "1/s"),
     ("kernels.verlet.bytes_computed", "bytes"),
     ("classical_phase.truncated_phase_velocity.s", "s"),
     ("classical_phase.ensemble_average_scaling.s", "s"),
     ("statmech.macrostate_of.calls", "count"),
     ("statmech.macrostate_of.s", "s"),
     ("statmech.partition_function.calls", "count"),
     ("statmech.partition_function.s", "s"),
     ("statmech.thermo_table.s", "s")]
    + [(f"{layer}.n{n}.s", "s") for layer in SIZED_LAYERS for n in SPIN_SIZES]
    + [("spinchain.fit_beta.calls", "count"),
       ("spinchain.fit_beta.s", "s"),
       ("output.bytes", "bytes"),
       ("output.s", "s")]
    + [(f"experiments.{c}.s", "s") for c in ALL_CONFIGS]
    + [("trace.untraced_wall_s", "s"),
       ("trace.traced_wall_s", "s"),
       ("trace.overhead_s", "s"),
       ("trace.spans", "count")]
)


# ---------------------------------------------------------------------------
# running one config

def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def spawn(argv: list, env: dict, log_path: str, timeout: float) -> dict:
    """Run one child to completion; wall time and peak RSS from os.wait4."""
    with open(log_path, "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=log,
                                stderr=subprocess.STDOUT)
        timer = threading.Timer(max(timeout, 0.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no child behind
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"rc": proc.returncode, "wall_s": wall,
            "maxrss_mb": usage.ru_maxrss / 1024.0, "start": t0,
            "end": t0 + wall}


def check_outputs(out_dir: str) -> tuple:
    """(manifest or None, failure reasons) for one finished config run."""
    try:
        with open(os.path.join(out_dir, "manifest.json")) as f:
            manifest = json.load(f)
    except (OSError, ValueError) as exc:
        return None, [f"no readable manifest: {exc}"]
    reasons = []
    if manifest.get("status") != "ok":
        reasons.append(f"status {manifest.get('status')!r}")
    for name, digest in manifest.get("files", {}).items():
        path = os.path.join(out_dir, name)
        if not os.path.exists(path):
            reasons.append(f"{name}: listed in manifest but missing")
        elif sha256_file(path) != digest:
            reasons.append(f"{name}: sha256 differs from manifest")
    return manifest, reasons


class Bench:
    def __init__(self, root: str, workload: str, seed: int):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.spec = WORKLOADS[workload]
        self.t_start = time.perf_counter()
        self.out = os.path.join(root, OUT_ROOT)
        self.work = os.path.join(self.out, f"work-{workload}-{os.getpid()}")
        self.nproc = len(os.sched_getaffinity(0))
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH")
                     else []))
        for var in THREAD_VARS:
            self.env[var] = str(self.nproc)
        self.configs = generate_configs(os.path.join(root, "configs"),
                                        os.path.join(self.work, "configs"),
                                        workload, seed)
        self.source_digest = source_digest(root)
        self.first_hashes: dict = {}   # config -> files hashes of first pass
        self.passes: list = []         # untraced passes
        self.traced: list = []         # traced pass (0 or 1)

    def remaining(self) -> float:
        return RUN_BUDGET_S - (time.perf_counter() - self.t_start)

    def run_pass(self, traced: bool) -> dict:
        pass_dir = os.path.join(
            self.work, f"{'traced' if traced else 'pass'}{len(self.passes)}")
        runs = []
        for name in self.spec["configs"]:
            out_dir = os.path.join(pass_dir, name)
            os.makedirs(out_dir)
            cli = ["run", self.configs[name], "--output", out_dir]
            spans = os.path.join(pass_dir, f"{name}.spans.json")
            if traced:
                argv = [sys.executable, TRACER, "--spans", spans] + cli
            else:
                argv = [sys.executable, "-m", "bohmstat.cli"] + cli
            res = spawn(argv, self.env, os.path.join(pass_dir, f"{name}.log"),
                        self.remaining() + 10.0)
            res.update(config=name, out_dir=out_dir,
                       spans_file=spans if traced else None)
            runs.append(res)
        # checks run after the last exit, outside the timed pass
        for res in runs:
            manifest, reasons = check_outputs(res["out_dir"])
            if res["rc"] != 0:
                reasons.insert(0, f"exit code {res['rc']}")
            if manifest is not None:
                res["manifest_wall_s"] = manifest["wall_time_s"]
                reasons += self.rerun_check(res["config"],
                                            manifest.get("files", {}))
            res["failures"] = reasons
        return {"wall_s": runs[-1]["end"] - runs[0]["start"], "runs": runs,
                "peak_rss_mb": max(r["maxrss_mb"] for r in runs)}

    def rerun_check(self, name: str, files: dict) -> list:
        """Compare output hashes with the first pass of this run and with a
        record left by an earlier run of the same source and config."""
        reasons = []
        first = self.first_hashes.setdefault(name, files)
        if files != first:
            reasons.append("output hashes differ from the first pass")
        with open(self.configs[name], "rb") as f:
            key = hashlib.sha256(self.source_digest.encode() + f.read())
        record = os.path.join(self.out, "hashes", key.hexdigest()[:32] + ".json")
        if os.path.exists(record):
            with open(record) as f:
                if json.load(f) != files:
                    reasons.append("output hashes differ from an earlier run "
                                   "with the same seed")
        else:
            os.makedirs(os.path.dirname(record), exist_ok=True)
            tmp = f"{record}.{os.getpid()}"
            with open(tmp, "w") as f:
                json.dump(files, f)
            os.replace(tmp, record)
        return reasons

    def run(self, seconds: float, trace: bool) -> None:
        """Untraced passes until one more would end after `seconds` (half of
        it when tracing), but at least min_passes; then the traced pass."""
        target = seconds / 2 if trace else seconds
        min_passes = 1 if trace else self.spec["min_passes"]
        t0 = time.perf_counter()
        while True:
            self.passes.append(self.run_pass(traced=False))
            shutil.rmtree(os.path.dirname(self.passes[-1]["runs"][0]["out_dir"]))
            elapsed = time.perf_counter() - t0
            per_pass = elapsed / len(self.passes)
            reserve = per_pass * 1.5 if trace else 0.0
            if self.remaining() < per_pass + reserve:
                break
            if len(self.passes) >= min_passes and elapsed + per_pass > target:
                break
        if trace:
            self.traced.append(self.run_pass(traced=True))

    def all_runs(self) -> list:
        return [r for p in self.passes + self.traced for r in p["runs"]]


def cpu_steal_s():
    """Machine-wide CPU time stolen by the hypervisor so far (Linux), or None.

    Printed beside the results: it explains runs slowed by other guests."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def source_digest(root: str) -> str:
    h = hashlib.sha256()
    for sub in ("src", "configs"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, sub)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for fn in sorted(filenames):
                if fn.endswith((".py", ".json")):
                    path = os.path.join(dirpath, fn)
                    h.update(os.path.relpath(path, root).encode())
                    h.update(sha256_file(path).encode())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# metrics

def end_to_end_metrics(bench: Bench) -> dict:
    procs = [r for p in bench.passes for r in p["runs"]
             if "manifest_wall_s" in r]
    setup = [r["wall_s"] - r["manifest_wall_s"] for r in procs]
    walls = [p["wall_s"] for p in bench.passes]
    rss = [p["peak_rss_mb"] for p in bench.passes]
    out = {"wall_s": (walls, "passes"), "setup_s": (setup, "processes"),
           "peak_rss_mb": (rss, "passes")}
    return {k: {"value": statistics.median(v) if v else None,
                "samples": len(v), "per": per, "min": min(v, default=None),
                "max": max(v, default=None)}
            for k, (v, per) in out.items()}


def layer_metrics(bench: Bench) -> dict:
    sums = collections.defaultdict(float)  # "<layer>.<quantity>" over spans
    imports = []
    for res in bench.traced[0]["runs"]:
        try:
            with open(res["spans_file"]) as f:
                data = json.load(f)
        except (OSError, ValueError):
            continue  # the child failed; counted in `failed`
        imports.append(data["import_s"])
        spans = spans_from_json(data)
        sums["trace.spans"] += len(spans)
        for agg in [data["root_agg"]] + [s.agg for s in spans]:
            for leaf, (calls, sec) in agg.items():
                sums[f"{leaf}.calls"] += calls
                sums[f"{leaf}.s"] += sec
        for span, self_s in zip(spans, self_times(spans)):
            layer = LAYER_OF.get(span.name, span.name)
            if layer in SIZED_LAYERS:
                layer = f"{layer}.n{span.attrs['n']}"
            sums[f"{layer}.s"] += self_s
            # a span count is reported as ".count" or ".calls", per metric
            sums[f"{layer}.count"] += 1
            sums[f"{layer}.calls"] += 1
            for attr, amount in span.attrs.items():
                sums[f"{layer}.{attr}"] += amount
    for rate, (amount, busy) in RATES.items():
        sums[rate] = sums[amount] / sums[busy] if sums[busy] > 0 else 0.0
    vals = {name: sums[name] for name, _ in PER_LAYER}
    vals["cli.import_s"] = statistics.median(imports) if imports else 0.0
    for name in bench.spec["configs"]:
        times = [r["manifest_wall_s"] for p in bench.passes for r in p["runs"]
                 if r["config"] == name and "manifest_wall_s" in r]
        vals[f"experiments.{name}.s"] = statistics.median(times) if times else 0.0
    untraced = statistics.median(p["wall_s"] for p in bench.passes)
    traced = bench.traced[0]["wall_s"]
    vals["trace.untraced_wall_s"] = untraced
    vals["trace.traced_wall_s"] = traced
    vals["trace.overhead_s"] = traced - untraced
    return vals


# ---------------------------------------------------------------------------
# environment

def environment(bench: Bench) -> dict:
    probe = (
        "import json, sys, numpy, scipy\n"
        "try:\n"
        "    deps = numpy.show_config(mode='dicts')['Build Dependencies']\n"
        "    blas = {k: deps['blas'].get(k) for k in ('name', 'version')}\n"
        "except Exception as exc:\n"
        "    blas = {'error': repr(exc)}\n"
        "try:\n"
        "    import numba\n"
        "    numba_version = numba.__version__\n"
        "except ImportError:\n"
        "    numba_version = None\n"
        "from bohmstat import kernels\n"
        "print(json.dumps({'python': sys.version.split()[0],\n"
        "    'numpy': numpy.__version__, 'scipy': scipy.__version__,\n"
        "    'blas': blas, 'numba_importable': numba_version is not None,\n"
        "    'numba_version': numba_version,\n"
        "    'kernels_numba_enabled': kernels.NUMBA_ENABLED}))\n")
    try:
        out = subprocess.run([sys.executable, "-c", probe], env=bench.env,
                             capture_output=True, text=True, timeout=60,
                             check=True).stdout
        env = json.loads(out.strip().splitlines()[-1])
    except (subprocess.SubprocessError, ValueError, IndexError) as exc:
        env = {"probe_error": repr(exc)}
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=bench.root,
                                capture_output=True, text=True, timeout=10,
                                check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = None
    env.update({
        "nproc": bench.nproc,
        "child_thread_vars": {v: bench.env[v] for v in THREAD_VARS},
        "threads_flag": "not passed: cli._apply_threads sets only "
                        "NUMBA_NUM_THREADS, so it does not cap BLAS",
        "git_commit": commit,
        "source_sha256": bench.source_digest,
        "clients": "1, closed loop",
    })
    return env


# ---------------------------------------------------------------------------
# entry point

def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    return args


def run_workload(root: str, workload: str, seed: int, seconds: float,
                 trace: bool) -> dict:
    bench = Bench(root, workload, seed)
    try:
        env = environment(bench)
        steal0 = cpu_steal_s()
        bench.run(seconds, trace)
        steal1 = cpu_steal_s()
        if steal0 is not None and steal1 is not None:
            env["cpu_steal_s_during_run"] = round(steal1 - steal0, 2)
        runs = bench.all_runs()
        failures = {f"{r['config']}#{i}": r["failures"]
                    for i, r in enumerate(runs) if r["failures"]}
        e2e = end_to_end_metrics(bench)
        if trace:
            layers = layer_metrics(bench)
            metrics = {name: {"value": layers[name], "unit": unit}
                       for name, unit in PER_LAYER}
        else:
            metrics = {name: {"value": e2e[name]["value"], "unit": unit}
                       for name, unit in END_TO_END}
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
    attempted, failed = len(runs), len(failures)
    summary = {"workload": workload, "seed": seed, "trace": int(trace),
               "passes": len(bench.passes), "traced_passes": len(bench.traced),
               "end_to_end": e2e, "failures": failures,
               "fail_frac": {"failed": failed, "attempted": attempted,
                             "value": failed / attempted if attempted else None},
               "environment": env,
               "runs": [[{k: r.get(k) for k in ("config", "rc", "wall_s",
                                                "manifest_wall_s", "maxrss_mb")}
                         for r in p["runs"]]
                        for p in bench.passes + bench.traced]}
    results = os.path.join(root, OUT_ROOT, "results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, f"{workload}-seed{seed}-trace{int(trace)}"
                                    ".json"), "w") as f:
        json.dump({"summary": summary, "metrics": metrics}, f, indent=1)
    print_summary(summary, metrics if trace else None)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def fmt(x) -> str:
    return "n/a" if x is None else f"{x:.4f}"


def print_summary(s: dict, layers) -> None:
    print(f"workload {s['workload']}  seed {s['seed']}  "
          f"untraced passes {s['passes']}  traced passes {s['traced_passes']}"
          "  (1 client, closed loop)")
    for name, unit in END_TO_END:
        m = s["end_to_end"][name]
        print(f"  {name:<12} median {fmt(m['value'])} {unit}  "
              f"(n={m['samples']} {m['per']}, min {fmt(m['min'])}, "
              f"max {fmt(m['max'])})")
    ff = s["fail_frac"]
    print(f"  {'fail_frac':<12} {ff['failed']}/{ff['attempted']} config runs "
          f"failed = {ff['value']}")
    for run, reasons in s["failures"].items():
        print(f"    FAILED {run}: {'; '.join(reasons)}")
    if layers:
        for name, m in layers.items():
            print(f"  {name:<48} {m['value']:.6g} {m['unit']}")
    print("environment " + json.dumps(s["environment"], sort_keys=True))


def main(argv=None) -> int:
    args = parse_args(argv)
    # SIGTERM unwinds like an interrupt, so the running child is killed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    root = os.getcwd()
    missing = [p for p in ("src/bohmstat/cli.py", "configs")
               if not os.path.exists(os.path.join(root, p))]
    if missing:
        print(f"perfbench: run from a bohmstat checkout; missing "
              f"{', '.join(missing)}", file=sys.stderr)
        return 2
    workloads = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    for workload in workloads:
        result = run_workload(root, workload, args.seed, args.seconds,
                              bool(args.trace))
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
