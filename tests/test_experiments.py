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
    # of paths, on top of about 6 grids of 4096 bytes and the RK4 working set
    # (205 436 bytes in all)
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


class Reached(Exception):
    pass


def test_memory_guard_counts_the_dense_eigensolve(tmp_path, monkeypatch):
    # an eigenstate on evolve's 256-point periodic grid takes the dense
    # route: H and the copy eigh takes, 8 N^2 bytes each, and the kinetic
    # blocks gathered along the axis, 8 N n bytes twice.  One byte less than
    # the packet run's count plus that stops the run before the eigensolve;
    # exactly that reaches it.
    def reached(*args):
        raise Reached

    monkeypatch.setattr(experiments, "evolve", no_allocation)
    monkeypatch.setattr(configio, "eigenstates", reached)
    packet = shipped("evolve")
    grid = configio.build_grid(packet)
    packet_need = experiments._field_bytes(packet, grid, None, 21)
    cfg = shipped("evolve", initial_state={"kind": "eigenstate", "index": 0})
    need = packet_need + 16 * 256 * (256 + 256)
    cfg["memory_budget"] = need - 1
    with pytest.raises(MemoryBudgetExceeded, match=f"needs about {need} bytes"):
        experiments.run_evolve(cfg, str(tmp_path), 0)
    cfg["memory_budget"] = need
    with pytest.raises(Reached):
        experiments.run_evolve(cfg, str(tmp_path), 0)


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
