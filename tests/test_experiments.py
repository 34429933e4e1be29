"""The field runners consume the wave-frame stream as it arrives: what they
hold at once, and the memory guard that estimates it before evolving; the
other runners' memory guard; and the CSV writer every runner shares."""

import csv
import json
import math
import os
import weakref

import pytest

from bohmstat import classical_phase as cp
from bohmstat import configio, experiments
from bohmstat import spinchain as sc
from bohmstat import statmech as sm
from bohmstat.cli import main
from bohmstat.configio import TOP_LEVEL, load_config, validate_config
from bohmstat.errors import MemoryBudgetExceeded
from bohmstat.schrodinger import evolve

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")

FIELD_RUNNERS = ["evolve", "continuity", "subsystem_currents", "bohm_full",
                 "bohm_truncated", "equivariance", "entropy_series",
                 "free_expansion"]


def shipped(name, **top):
    cfg = load_config(os.path.join(CONFIG_DIR, f"{name}.json"))
    cfg.update(top)
    if "ensemble" in cfg:
        cfg["ensemble"]["samples"] = 300  # the frame stream is what is tested
    return validate_config(cfg)


@pytest.mark.parametrize("name", FIELD_RUNNERS)
def test_runner_holds_at_most_three_wave_fields(name, tmp_path, monkeypatch):
    # weak references to the initial state and to every frame evolve yields;
    # each time a frame arrives, count those still alive
    refs, peak = [], [0]

    def counting_evolve(psi, h, t_final, frame_stride=1):
        refs.append(weakref.ref(psi))
        for frame in evolve(psi, h, t_final, frame_stride):
            refs.append(weakref.ref(frame))
            peak[0] = max(peak[0], sum(r() is not None for r in refs))
            yield frame

    monkeypatch.setattr(experiments, "evolve", counting_evolve)
    experiments.RUNNERS[name](shipped(name), str(tmp_path), 0)
    assert len(refs) > 10
    assert peak[0] <= 3


@pytest.mark.parametrize("name", FIELD_RUNNERS)
def test_memory_guard_before_evolving(name, tmp_path, monkeypatch):
    # a budget that fits the grid itself (16 bytes a point) but not the
    # streamed working set; the guard raises before any frame is stepped
    def no_evolve(*args):
        raise AssertionError("evolve called past the memory guard")

    monkeypatch.setattr(experiments, "evolve", no_evolve)
    cfg = shipped(name)
    points = cfg["grid"]["n"] ** cfg["grid"]["particles"]
    cfg["memory_budget"] = 4 * 16 * points
    with pytest.raises(MemoryBudgetExceeded):
        experiments.RUNNERS[name](cfg, str(tmp_path), 0)


def test_memory_guard_counts_the_trajectory_paths(tmp_path):
    # bohm_full: 300 samples x 51 frames x 1 axis x 8 bytes = 122 400 bytes
    # of paths, which fit in one block of write_trajectories's transpose, on
    # top of about 6 grids of 4096 bytes and the RK4 working set (207 836
    # bytes in all)
    cfg = shipped("bohm_full", memory_budget=100_000)
    with pytest.raises(MemoryBudgetExceeded, match="51 frames"):
        experiments.RUNNERS["bohm_full"](cfg, str(tmp_path), 0)
    cfg = shipped("bohm_full", memory_budget=250_000)
    assert experiments.RUNNERS["bohm_full"](cfg, str(tmp_path), 0).passed


@pytest.mark.parametrize("name", FIELD_RUNNERS)
def test_memory_guard_covers_the_traced_peak(name, tmp_path, traced_peak):
    # the shipped config at full size: a budget one byte below what the run
    # allocates at its peak stops it, so the guard's estimate is at least
    # that peak.  A first run with few samples makes the lazy imports
    # (numpy.random, numpy.fft, statistics), whose module objects
    # tracemalloc would count otherwise.
    experiments.RUNNERS[name](shipped(name), str(tmp_path), 0)
    cfg = load_config(os.path.join(CONFIG_DIR, f"{name}.json"))
    peak = traced_peak(experiments.RUNNERS[name], validate_config(cfg),
                       str(tmp_path), 0)
    cfg["memory_budget"] = peak - 1
    with pytest.raises(MemoryBudgetExceeded):
        experiments.RUNNERS[name](validate_config(cfg), str(tmp_path), 0)


def test_traced_peak_does_not_grow_with_the_frame_count(tmp_path, traced_peak):
    # bohm_full at 4x its t_final: 151 more frames of 10 000 samples are
    # 12.08 MB more paths, which the spool keeps on disk
    def peak(t_final):
        cfg = load_config(os.path.join(CONFIG_DIR, "bohm_full.json"))
        cfg["evolution"]["t_final"] = t_final
        return traced_peak(experiments.run_bohm_full, validate_config(cfg),
                           str(tmp_path), 0)

    experiments.run_bohm_full(shipped("bohm_full"), str(tmp_path), 0)
    samples = load_config(os.path.join(CONFIG_DIR, "bohm_full.json"))[
        "ensemble"]["samples"]
    assert abs(peak(4.0) - peak(1.0)) < 0.01 * 8 * samples * 150


class Reached(Exception):
    pass


def evolve_with(edits):
    """configs/evolve.json with {section: {key: value}} edits, unresolved."""
    cfg = load_config(os.path.join(CONFIG_DIR, "evolve.json"))
    for section, keys in edits.items():
        cfg[section].update(keys)
    return cfg


def guard_stops_at(cfg, need, tmp_path, monkeypatch):
    """One byte less than `need` stops the evolve run `cfg` before the
    eigensolve; exactly `need` reaches it."""
    def reached(*args):
        raise Reached

    monkeypatch.setattr(experiments, "evolve", no_allocation)
    monkeypatch.setattr(configio, "eigenstates", reached)
    cfg["memory_budget"] = need - 1
    with pytest.raises(MemoryBudgetExceeded, match=f"needs about {need} bytes"):
        experiments.run_evolve(validate_config(cfg), str(tmp_path), 0)
    cfg["memory_budget"] = need
    with pytest.raises(Reached):
        experiments.run_evolve(validate_config(cfg), str(tmp_path), 0)


def packet_need(cfg):
    """The guard's count for the config's own Gaussian packet run."""
    packet = validate_config(cfg)
    return experiments._field_bytes(packet, configio.build_grid(packet),
                                    configio.build_hamiltonian(packet), None,
                                    21)


def test_memory_guard_counts_the_dense_eigensolve(tmp_path, monkeypatch):
    # evolve's 256-point periodic grid with a spin-1/2 component and a
    # spin_coupling term takes the dense route on N = 512 states: H and the
    # copy eigh takes, 8 N^2 bytes each, the kinetic blocks gathered along
    # the axis, 8 N n bytes twice, and for index 0 eigh's one real vector
    # and the returned state, 8 N and 16 N bytes
    cfg = evolve_with({"grid": {"spin_dims": [2]}})
    cfg["hamiltonian"]["potential"].append({"kind": "spin_coupling", "mu": 0.5})
    need = packet_need(cfg) + 16 * 512 * (512 + 256) + 24 * 512
    cfg["initial_state"] = {"kind": "eigenstate", "index": 0}
    guard_stops_at(cfg, need, tmp_path, monkeypatch)


def test_memory_guard_counts_the_separable_eigensolve(tmp_path, monkeypatch):
    # the shipped grid's harmonic well is separable: the 256 x 256 kinetic
    # matrix, eigh's copy and LAPACK's workspace, the axis's 256 x 256 real
    # vectors (8 n^2 bytes each), 24 bytes per product state for the merge,
    # and the one state of 16 N bytes held at a time of the ten that index 9
    # builds
    cfg = evolve_with({})
    need = packet_need(cfg) + 8 * 256 * 256 * 4 + 24 * 256 + 16 * 256
    cfg["initial_state"] = {"kind": "eigenstate", "index": 9}
    guard_stops_at(cfg, need, tmp_path, monkeypatch)


# eigenstate runs whose traced peak the guard must cover: a separable 72 x 72
# box above DENSE_EIG_BUDGET, the top level of a 65 x 65 box, the shipped
# 1-D periodic grid's top level, and a dense pair_coupling case near the top
# of its 576 levels
EIGENSTATE_RUNS = {
    "box_72x72_index_9": (
        {"grid": {"dims": 2, "n": 72, "boundary": "dirichlet"},
         "hamiltonian": {"potential": [{"kind": "box"}]}}, 9),
    "box_65x65_index_4224": (
        {"grid": {"dims": 2, "n": 65, "boundary": "dirichlet"},
         "hamiltonian": {"potential": [{"kind": "box"}]}}, 4224),
    "periodic_1d_index_255": ({}, 255),
    "pair_coupling_24x24_index_300": (
        {"grid": {"particles": 2, "n": 24, "extent": [-5.0, 5.0]},
         "hamiltonian": {"masses": [1.0, 1.0],
                         "potential": [{"kind": "harmonic", "omega": 1.0},
                                       {"kind": "pair_coupling", "lam": 0.3}]}},
        300),
}


@pytest.mark.parametrize("name", list(EIGENSTATE_RUNS))
def test_memory_guard_covers_the_eigenstate_peak(name, tmp_path, traced_peak):
    # as test_memory_guard_covers_the_traced_peak, after a warm-up run
    edits, index = EIGENSTATE_RUNS[name]
    cfg = evolve_with(dict(edits, evolution={"t_final": 0.1}))
    cfg["initial_state"] = {"kind": "eigenstate", "index": index}
    experiments.run_evolve(validate_config(cfg), str(tmp_path), 0)
    peak = traced_peak(experiments.run_evolve, validate_config(cfg),
                       str(tmp_path), 0)
    cfg["memory_budget"] = peak - 1
    with pytest.raises(MemoryBudgetExceeded):
        experiments.run_evolve(validate_config(cfg), str(tmp_path), 0)


@pytest.mark.parametrize("name, t_final", [("continuity", 0.505),
                                           ("subsystem_currents", 0.305)])
def test_off_stride_t_final_stops_before_evolving(name, t_final, tmp_path,
                                                  monkeypatch, capsys):
    # both runners difference frame triples in time; a last frame half a
    # stride after the one before it (stride 10, time step 1e-3) would make
    # the last triple nonuniform, so the run stops before evolve is called
    def no_evolve(*args):
        raise AssertionError("evolve called with an off-stride t_final")

    monkeypatch.setattr(experiments, "evolve", no_evolve)
    cfg = load_config(os.path.join(CONFIG_DIR, f"{name}.json"))
    assert cfg["evolution"]["frame_stride"] == 10
    cfg["evolution"]["t_final"] = t_final
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "o"
    assert main(["run", str(path), "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("config error: evolution.t_final: ")
    assert not (out / "manifest.json").exists()


# what each shipped phase, table and spin-chain config's largest arrays
# take, by the guard's count
PHASE_NEEDS = {
    # 2000 samples x 2 particles x (x, p), over the drawn and displaced
    # ensembles and 11 stored frames held twice
    "classical_liouville": 8 * 2000 * 4 * (2 * 11 + 2),
    # 200 000 samples x 6 columns
    "classical_truncated": 8 * 200_000 * 6,
    # 800 samples x 1024 oscillators
    "scaling": 8 * 800 * 1024,
    # per volume four (241, 800) arrays, and nine (61, 241) columns; the
    # refined first_law table has the same 61 x 241 shape
    "thermo": 8 * 241 * (4 * 800 + 9 * 61),
    "first_law": 8 * 241 * (4 * 800 + 9 * 61),
    # 400 levels: the spectrum, two occupations, their 2 x 400 mixture, and
    # its positive entries and their log
    "cat_mixture": 8 * 9 * 400,
    # n = 12: six 4096 x 4096 float64 arrays, for the dense H, eigh's copy,
    # its eigenvectors and LAPACK's workspace
    "typicality": 6 * 8 * 4**12,
}


def no_allocation(*args, **kwargs):
    raise AssertionError("allocated past the memory guard")


@pytest.mark.parametrize("name", list(PHASE_NEEDS))
def test_phase_memory_guard_before_allocating(name, tmp_path, monkeypatch,
                                              capsys):
    # a memory_budget one byte below the estimate stops the run (exit 2)
    # before any ensemble is drawn, table built, spectrum made or chain
    # Hamiltonian built; the shipped configs never near the default budget
    need = PHASE_NEEDS[name]
    assert need < TOP_LEVEL["memory_budget"].default
    for module, attr in [(cp, "sample_thermal"),
                         (cp, "sample_thermal_particle"),
                         (cp, "ensemble_average_scaling"),
                         (sm, "thermo_table"),
                         (sm, "harmonic_spectrum"),
                         (sc, "tfim_hamiltonian")]:
        monkeypatch.setattr(module, attr, no_allocation)
    cfg = load_config(os.path.join(CONFIG_DIR, f"{name}.json"))
    cfg["memory_budget"] = need - 1
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "o"
    assert main(["run", str(path), "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("MemoryBudgetExceeded")
    assert f"needs about {need} bytes" in err
    assert not (out / "manifest.json").exists()


def test_write_csv_matches_csv_writer(tmp_path):
    header = ["time", "count", "value"]
    rows = [(0.0, 0, math.nan), (-0.0, -3, math.inf), (5e-324, 10**20, -math.inf),
            (1e22, 7, 0.1 + 0.2), (-1.5e-300, 1, 1 / 3)]
    ours = tmp_path / "ours.csv"
    experiments._write_csv(str(ours), header, iter(rows))
    ref = tmp_path / "ref.csv"
    with open(ref, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        w.writerows(rows)
    assert ours.read_bytes() == ref.read_bytes()
