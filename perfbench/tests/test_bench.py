"""Tests of the benchmark itself: span arithmetic, config generation, metric
names and traced coverage of every wrapped function.

    python3 -m pytest perfbench/tests
"""

import json
import os
import subprocess
import sys
from types import SimpleNamespace

import pytest

from conftest import BENCH_DIR, REPO_ROOT
from run import END_TO_END, PER_LAYER, layer_metrics
from tracing import (LEAF_TARGETS, TARGETS, Span, Tracer, self_times,
                     span_name, spans_from_json)
from workloads import LISTED, WORKLOADS, generate_configs

CONFIG_DIR = os.path.join(REPO_ROOT, "configs")


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_times_subtract_children_and_leaf_calls():
    spans = [
        Span("root", 0.0, 10.0),
        Span("a", 1.0, 4.0, parent=0, agg={"leaf": [3, 0.5]}),
        Span("b", 5.0, 9.0, parent=0),
        Span("b1", 6.0, 7.0, parent=2),
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.5, 3.0, 1.0])


def test_tracer_builds_tree_and_aggregates_leaves():
    # open root @0, open child @1, two leaf calls, close child @5, close @6
    tracer = Tracer(clock=FakeClock([0.0, 1.0, 5.0, 6.0]))
    root = tracer.open("root")
    child = tracer.open("child")
    tracer.add_leaf("leaf", 0.75)
    tracer.add_leaf("leaf", 0.25)
    tracer.close(child)
    tracer.close(root)
    spans = spans_from_json(tracer.to_json())
    assert [(s.name, s.parent) for s in spans] == [("root", None),
                                                   ("child", 0)]
    assert spans[1].agg == {"leaf": [2, 1.0]}
    assert self_times(spans) == pytest.approx([2.0, 3.0])


def test_leaf_calls_keep_span_count_bounded():
    tracer = Tracer()
    tracer.open("root")
    for _ in range(10_000):
        tracer.add_leaf("leaf", 1e-6)
    assert len(tracer.spans) == 1
    assert tracer.spans[0].agg["leaf"][0] == 10_000


def test_layer_metrics_from_synthetic_spans(tmp_path):
    def span(name, start, end, parent, attrs=None, agg=None):
        return {"name": name, "start": start, "end": end, "parent": parent,
                "attrs": attrs or {}, "agg": agg or {}}

    spans_file = tmp_path / "spans.json"
    spans_file.write_text(json.dumps({"import_s": 0.4, "root_agg": {}, "spans": [
        span("cli.run", 0.0, 10.0, None,
             agg={"statmech.partition_function": [100, 1.0]}),
        span("spinchain.diagonalize_chain", 1.0, 5.0, 0, {"n": 12}),
        span("spinchain.tfim_hamiltonian", 1.0, 3.0, 1, {"n": 12}),
        span("kernels.rk4_paths", 6.0, 8.0, 0,
             {"sample_substeps": 1000, "bytes_computed": 64}),
        span("currents.velocity", 8.0, 8.5, 0),
    ]}))
    bench = SimpleNamespace(
        spec={"configs": ["typicality"]},
        passes=[{"wall_s": 10.0,
                 "runs": [{"config": "typicality", "manifest_wall_s": 9.0}]}],
        traced=[{"wall_s": 11.0, "runs": [{"spans_file": str(spans_file)}]}])
    vals = layer_metrics(bench)
    assert list(vals) == [name for name, _ in PER_LAYER]
    expected = {
        "cli.import_s": 0.4, "spinchain.eigh.n12.s": 2.0,
        "spinchain.tfim_hamiltonian.n12.s": 2.0, "kernels.rk4_paths.s": 2.0,
        "kernels.rk4_paths.sample_substeps_per_s": 500.0,
        "kernels.rk4_paths.bytes_computed": 64,
        "statmech.partition_function.calls": 100,
        "statmech.partition_function.s": 1.0,
        "currents.frames.count": 1, "currents.frames.s": 0.5,
        "experiments.typicality.s": 9.0, "trace.overhead_s": 1.0,
        "trace.spans": 5, "spinchain.eigh.n10.s": 0.0,
    }
    assert {k: vals[k] for k in expected} == pytest.approx(expected)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_generator_is_deterministic_and_changes_only_seed(tmp_path, workload):
    a = generate_configs(CONFIG_DIR, tmp_path / "a", workload, 7)
    b = generate_configs(CONFIG_DIR, tmp_path / "b", workload, 7)
    c = generate_configs(CONFIG_DIR, tmp_path / "c", workload, 8)
    assert list(a) == WORKLOADS[workload]["configs"]
    for name in a:
        with open(a[name], "rb") as fa, open(b[name], "rb") as fb:
            assert fa.read() == fb.read()
        with open(os.path.join(CONFIG_DIR, f"{name}.json")) as f:
            shipped = json.load(f)
        for path, seed in ((a[name], 7), (c[name], 8)):
            with open(path) as f:
                gen = json.load(f)
            assert gen.pop("seed") == seed
            shipped.pop("seed", None)
            assert gen == shipped


def test_benchmark_json_names_the_reported_metrics():
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == LISTED
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == PER_LAYER


# span names each workload must record; together they cover every target
EXPECTED_SPANS = {
    "field_pipeline": [
        "configio.validate_config", "configio.build_grid",
        "configio.build_hamiltonian", "configio.build_initial_state",
        "schrodinger.evolve", "currents.FieldFrame.from_wavefield",
        "currents.velocity", "subsystem.subsystem_frame",
        "subsystem.reduced_density_matrix", "bohmian.sample_initial",
        "bohmian.integrate_trajectories", "bohmian.equivariance_distance",
        "kernels.rk4_paths", "lattice.write_field",
        "bohmian.write_trajectories", "subsystem.write_rdm",
        "experiments._write_csv", "statmech.macrostate_of"],
    "phase_thermo": [
        "configio.validate_config", "kernels.verlet",
        "classical_phase.truncated_phase_velocity",
        "classical_phase.ensemble_average_scaling", "statmech.thermo_table",
        "statmech.partition_function", "classical_phase.write_ensemble",
        "experiments._write_csv"],
    "spin_typicality": [
        "configio.validate_config", "spinchain.tfim_hamiltonian",
        "spinchain.diagonalize_chain", "spinchain.fit_beta",
        "experiments._write_csv"],
}


def test_expected_spans_cover_every_target():
    targets = {span_name(m, a) for m, a, _ in TARGETS}
    targets |= {span_name(m, a) for m, a in LEAF_TARGETS}
    assert set().union(*EXPECTED_SPANS.values()) == targets


def _traced_names(cfg_path, out_dir):
    spans_path = os.path.join(out_dir, "spans.json")
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO_ROOT, "src"))
    subprocess.run([sys.executable, os.path.join(BENCH_DIR, "tracing.py"),
                    "--spans", spans_path, "run", cfg_path, "--output",
                    out_dir], env=env, cwd=REPO_ROOT, check=False,
                   capture_output=True, timeout=300)
    with open(spans_path) as f:
        data = json.load(f)
    names = {s["name"] for s in data["spans"]}
    for agg in [data["root_agg"]] + [s["agg"] for s in data["spans"]]:
        names |= set(agg)
    return names


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_run_records_every_wrapped_function(tmp_path, workload):
    configs = generate_configs(CONFIG_DIR, tmp_path / "cfg", workload, 0)
    if workload == "spin_typicality":
        # same code path as the shipped config, without the 40 s n = 12 chain
        with open(configs["typicality"]) as f:
            cfg = json.load(f)
        cfg["typicality"]["sizes"] = [6, 8, 10]
        with open(configs["typicality"], "w") as f:
            json.dump(cfg, f)
    seen = set()
    for name, path in configs.items():
        seen |= _traced_names(path, str(tmp_path / name))
    missing = set(EXPECTED_SPANS[workload]) - seen
    assert not missing, f"no span recorded for {sorted(missing)}"
