import json
import os
import subprocess
import sys
import textwrap

import pytest

import bohmstat
from bohmstat import errors
from bohmstat.cli import main
from bohmstat.experiments import RUNNERS

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")

SCALING = {
    "experiment": "scaling",
    "seed": 0,
    "scaling": {"sizes": [16, 64, 256, 1024], "samples": 400},
}


def write_cfg(tmp_path, cfg, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return str(p)


class TestRun:
    def test_success_exit_zero(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, SCALING)
        out = tmp_path / "out"
        assert main(["run", cfg, "--output", str(out)]) == 0
        captured = capsys.readouterr().out
        assert "[PASS]" in captured
        assert (out / "scaling.csv").exists()
        assert (out / "manifest.json").exists()

    def test_dirichlet_evolve_runs(self, tmp_path):
        # the shipped evolve config on a dirichlet grid: its boundary picks
        # Crank-Nicolson, with no stepper key to disagree with it
        with open(os.path.join(CONFIG_DIR, "evolve.json")) as f:
            cfg = json.load(f)
        cfg["grid"]["boundary"] = "dirichlet"
        out = tmp_path / "o"
        assert main(["run", write_cfg(tmp_path, cfg), "--output", str(out)]) == 0
        m = json.loads((out / "manifest.json").read_text())
        assert m["status"] == "ok" and m["checks"] == {"norm_conserved": True}

    @pytest.mark.parametrize("name, spin_dims", [("continuity", [2]),
                                                 ("subsystem_currents", [2, 1])])
    def test_spinful_field_runs(self, tmp_path, name, spin_dims):
        # the shipped config on a spinful grid, spin-1/2 particle 0 coupled
        with open(os.path.join(CONFIG_DIR, f"{name}.json")) as f:
            cfg = json.load(f)
        cfg["grid"]["spin_dims"] = spin_dims
        cfg["hamiltonian"]["potential"].append(
            {"kind": "spin_coupling", "mu": 0.5, "particle": 0})
        out = tmp_path / "o"
        assert main(["run", write_cfg(tmp_path, cfg), "--output", str(out)]) == 0
        m = json.loads((out / "manifest.json").read_text())
        assert m["status"] == "ok" and m["checks"] and all(m["checks"].values())

    def test_manifest_contents(self, tmp_path):
        cfg = write_cfg(tmp_path, SCALING)
        out = tmp_path / "out"
        main(["run", cfg, "--output", str(out)])
        m = json.loads((out / "manifest.json").read_text())
        assert m["experiment"] == "scaling"
        assert m["seed"] == 0
        assert m["status"] == "ok"
        assert m["config"] == SCALING
        assert set(m["files"]) == {"scaling.csv"}
        assert len(m["files"]["scaling.csv"]) == 64  # sha256 hex digest
        assert "slope" in m["metrics"]
        assert type(m["peak_rss_bytes"]) is int and m["peak_rss_bytes"] > 1e6

    def test_deterministic_reruns(self, tmp_path):
        cfg = write_cfg(tmp_path, SCALING)
        manifests = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            main(["run", cfg, "--output", str(out)])
            m = json.loads((out / "manifest.json").read_text())
            m.pop("wall_time_s")
            m.pop("peak_rss_bytes")
            manifests.append(m)
        assert manifests[0] == manifests[1]

    def test_seed_override_changes_metrics(self, tmp_path):
        cfg = write_cfg(tmp_path, SCALING)
        slopes = []
        for sub, seed in (("a", "0"), ("b", "12345")):
            out = tmp_path / sub
            main(["run", cfg, "--output", str(out), "--seed", seed])
            m = json.loads((out / "manifest.json").read_text())
            slopes.append(m["metrics"]["slope"])
            assert m["seed"] == int(seed)
        assert slopes[0] != slopes[1]

    def test_thermo_gap_zero_manifest_is_strict_json(self, tmp_path):
        # at gap 0 both levels sit at E = 0: the direct energy is 0 in every
        # cell, which the dual-route error counts as exact, not 0 / 0
        with open(os.path.join(CONFIG_DIR, "thermo.json")) as f:
            cfg = json.load(f)
        cfg["thermo"].update(family="two_level", gap=0.0)
        out = tmp_path / "out"
        assert main(["run", write_cfg(tmp_path, cfg), "--output", str(out)]) == 0

        def reject(name):
            raise ValueError(f"{name} is not JSON")

        m = json.loads((out / "manifest.json").read_text(),
                       parse_constant=reject)
        assert m["metrics"]["max_energy_rel_error"] == 0.0
        assert m["status"] == "ok"

    def test_output_dir_from_config(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = dict(SCALING, output_dir="from_config")
        path = write_cfg(tmp_path, cfg)
        assert main(["run", path]) == 0
        assert (tmp_path / "from_config" / "manifest.json").exists()


class TestValidationFailures:
    def test_missing_file(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "nope.json")]) == 2
        assert "no such file" in capsys.readouterr().err

    def test_config_path_is_a_directory(self, tmp_path, capsys):
        assert main(["run", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("config error:")

    def test_config_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_bytes(b"\xff\xfe{")
        assert main(["run", str(path)]) == 2
        assert "invalid JSON" in capsys.readouterr().err

    def test_tiny_grid_names_config_path(self, tmp_path, capsys):
        cfg = {
            "experiment": "continuity",
            "grid": {"n": 7, "extent": [-8.0, 8.0]},
            "hamiltonian": {"masses": [1.0]},
            "initial_state": {"kind": "gaussian"},
            "evolution": {"t_final": 0.1},
        }
        path = write_cfg(tmp_path, cfg)
        assert main(["run", path, "--output", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == "config error: grid.n: must be >= 8\n"

    @pytest.mark.parametrize("text", ["5", '["experiment"]', "null"])
    def test_config_root_not_an_object(self, tmp_path, capsys, text):
        path = tmp_path / "cfg.json"
        path.write_text(text)
        assert main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("config error:")

    @pytest.mark.parametrize("macrostates", [
        {"p_cutoff": 0},
        {"edges": [-12.0, 1.5, -1.5, 4.0, 12.0]},
        {"edges": [12.0, 4.0, 1.5, -1.5, -4.0, -12.0]},
        {"delta_z": -1.0},
        {"delta_z": 0},
    ], ids=["zero_cutoff", "inverted_cells", "reversed_edges",
            "negative_delta_z", "zero_delta_z"])
    def test_bad_macrostates_exit_two(self, tmp_path, capsys, macrostates):
        with open(os.path.join(CONFIG_DIR, "entropy_series.json")) as f:
            cfg = json.load(f)
        cfg["macrostates"].update(macrostates)
        path = write_cfg(tmp_path, cfg)
        out = tmp_path / "o"
        assert main(["run", path, "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("config error: macrostates")
        assert not (out / "manifest.json").exists()

    def test_unknown_key_exit_two(self, tmp_path, capsys):
        cfg = dict(SCALING)
        cfg["scaling"] = dict(SCALING["scaling"], turbo=True)
        path = write_cfg(tmp_path, cfg)
        assert main(["run", path]) == 2
        assert "scaling.turbo" in capsys.readouterr().err


# bad values, each on a shipped config: (config, {dotted key: value}, extra
# arguments, the dotted path the one stderr line must name)
BAD_VALUES = {
    "sizes_not_a_list": ("scaling", {"scaling.sizes": "abc"}, [], "scaling.sizes"),
    "seed_string": ("scaling", {"seed": "abc"}, [], "seed"),
    "negative_samples": ("scaling", {"scaling.samples": -5}, [], "scaling.samples"),
    "beta_string": ("scaling", {"scaling.beta": "hot"}, [], "scaling.beta"),
    "zero_levels": ("cat_mixture", {"cat.levels": 0}, [], "cat.levels"),
    "negative_t_lo": ("thermo", {"thermo.t_lo": -1}, [], "thermo.t_lo"),
    "zero_store_stride": ("classical_liouville", {"classical.store_stride": 0},
                          [], "classical.store_stride"),
    "size_not_an_int": ("typicality", {"typicality.sizes": [4, "x"]}, [],
                        "typicality.sizes"),
    "zero_frame_stride": ("evolve", {"evolution.frame_stride": 0}, [],
                          "evolution.frame_stride"),
    "zero_width": ("evolve", {"initial_state.width": 0}, [],
                   "initial_state.width"),
    "unknown_potential": ("evolve", {"hamiltonian.potential": [{"kind": "warp"}]},
                          [], "hamiltonian.potential"),
    "harmonic_without_omega": ("evolve",
                               {"hamiltonian.potential": [{"kind": "harmonic"}]},
                               [], "hamiltonian.potential"),
    "two_particles_one_mass": ("subsystem_currents", {"hamiltonian.masses": [1.0]},
                               [], "hamiltonian.masses"),
    "negative_index": ("free_expansion", {"initial_state.kind": "eigenstate",
                                          "initial_state.index": -1},
                       [], "initial_state.index"),
    "negative_seed_flag": ("scaling", {}, ["--seed", "-1"], "seed"),
    "negative_time_step": ("evolve", {"hamiltonian.time_step": -0.001}, [],
                           "hamiltonian.time_step"),
    "zero_ensemble": ("bohm_full", {"ensemble.samples": 0}, [], "ensemble.samples"),
    "zero_substeps": ("bohm_full", {"ensemble.substeps": 0}, [],
                      "ensemble.substeps"),
    "negative_classical_beta": ("classical_liouville", {"classical.beta": -1}, [],
                                "classical.beta"),
    "n_string": ("evolve", {"grid.n": "64"}, [], "grid.n"),
    # Grid checks these ranges; the error names the grid key
    "three_dims": ("evolve", {"grid.dims": 3}, [], "grid.dims: "),
    "open_boundary": ("evolve", {"grid.boundary": "open"}, [], "grid.boundary: "),
    "reversed_extent": ("evolve", {"grid.extent": [8.0, -8.0]}, [],
                        "grid.extent: "),
    "zero_spin_dim": ("evolve", {"grid.spin_dims": [0]}, [], "grid.spin_dims: "),
    # the grid's boundary picks the stepper
    "stepper_key": ("evolve", {"hamiltonian.stepper": "crank_nicolson"}, [],
                    "hamiltonian.stepper: unknown key\n"),
    "fractional_levels": ("cat_mixture", {"cat.levels": 2.7}, [], "cat.levels"),
    "fractional_seed": ("scaling", {"seed": 1.9}, [], "seed"),
    "bool_seed": ("scaling", {"seed": True}, [], "seed"),
    "one_particle_two_masses": ("evolve", {"hamiltonian.masses": [1, 2]}, [],
                                "hamiltonian.masses"),
    "negative_mass": ("evolve", {"hamiltonian.masses": [-1.0]}, [],
                      "hamiltonian.masses: "),
    "center_per_axis_mismatch": ("evolve", {"initial_state.center": [1, 2]}, [],
                                 "initial_state.center"),
    "more_omegas_than_masses": ("classical_liouville",
                                {"classical.omegas": [1.0, 0.7, 0.5]}, [],
                                "classical.omegas"),
    "output_dir_number": ("scaling", {"output_dir": 5}, [], "output_dir"),
    "pair_width_per_axis": ("bohm_truncated", {"initial_state.width": [1.0, 1.0]},
                            [], "initial_state.width"),
    "fewer_momenta_than_centers": ("subsystem_currents",
                                   {"initial_state.momenta": [[2.0, -0.5]]}, [],
                                   "initial_state.momenta"),
    "pair_coupling_one_particle": ("evolve", {"hamiltonian.potential": [
        {"kind": "pair_coupling", "lam": 1.0}]}, [],
        "hamiltonian.potential[0].kind"),
    "spin_coupling_without_spin": ("subsystem_currents", {"hamiltonian.potential": [
        {"kind": "spin_coupling", "mu": 1.0}]}, [],
        "hamiltonian.potential[0].particle"),
    "fewer_omegas_than_particles": ("subsystem_currents", {"hamiltonian.potential": [
        {"kind": "harmonic", "omega": [1.0]}]}, [],
        "hamiltonian.potential[0].omega"),
    "barrier_height_list": ("evolve", {"hamiltonian.potential": [
        {"kind": "gaussian_barrier", "height": [1.0, 2.0], "width": 1.0,
         "center": 0.0}]}, [], "hamiltonian.potential[0].height"),
    "pair_coupling_lam_list": ("subsystem_currents", {"hamiltonian.potential": [
        {"kind": "pair_coupling", "lam": [1.0]}]}, [],
        "hamiltonian.potential[0].lam"),
    "spin_coupling_mu_list": ("subsystem_currents", {"hamiltonian.potential": [
        {"kind": "spin_coupling", "mu": [1.0, 2.0]}]}, [],
        "hamiltonian.potential[0].mu"),
    "misspelt_potential_key": ("evolve", {"hamiltonian.potential": [
        {"kind": "harmonic", "omega": 1.0, "omgea": 2}]}, [],
        "hamiltonian.potential[0].omgea"),
    "parameter_of_another_kind": ("evolve", {"hamiltonian.potential": [
        {"kind": "free", "omega": 3.0}]}, [], "hamiltonian.potential[0].omega"),
    "particle_outside_spin_coupling": ("evolve", {"hamiltonian.potential": [
        {"kind": "harmonic", "omega": 1.0, "particle": 0}]}, [],
        "hamiltonian.potential[0].particle"),
    "index_beyond_grid_states": ("free_expansion", {"initial_state.kind": "eigenstate",
                                                    "initial_state.index": 300},
                                 [], "initial_state.index"),
    # in range, but the potential or the state built from it is not finite,
    # or the state has norm 0 on the grid
    "harmonic_omega_overflows": ("evolve", {"hamiltonian.potential": [
        {"kind": "harmonic", "omega": 1e200}]}, [], "hamiltonian.potential: "),
    "barriers_sum_to_inf": ("evolve", {"grid.boundary": "dirichlet",
                                       "hamiltonian.potential": [
        {"kind": "gaussian_barrier", "height": 1.7e308, "width": 1.0,
         "center": 0.0}] * 2}, [], "hamiltonian.potential: "),
    "width_underflows": ("evolve", {"initial_state.width": 1e-300}, [],
                         "initial_state.width: "),
    "width_overflows": ("evolve", {"initial_state.width": 1e200}, [],
                        "initial_state.width: "),
    "packet_between_points": ("evolve", {"grid.n": 64, "grid.extent": [-8, 8],
                                         "initial_state.width": 1e-3,
                                         "initial_state.center": 0.1}, [],
                              "initial_state.width: "),
}


@pytest.mark.parametrize("case", sorted(BAD_VALUES))
def test_bad_value_exits_two_naming_its_path(tmp_path, capsys, case):
    name, edits, extra, where = BAD_VALUES[case]
    with open(os.path.join(CONFIG_DIR, f"{name}.json")) as f:
        cfg = json.load(f)
    for dotted, value in edits.items():
        *section, key = dotted.split(".")
        (cfg[section[0]] if section else cfg)[key] = value
    path = write_cfg(tmp_path, cfg)
    out = tmp_path / "o"
    assert main(["run", path, "--output", str(out)] + extra) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"config error: {where}")
    assert not (out / "manifest.json").exists()


class TestCheckFailures:
    def test_failed_check_exit_three(self, tmp_path, capsys):
        # a grossly unstable step breaks the density-constancy tolerance
        cfg = {
            "experiment": "classical_liouville",
            "seed": 0,
            "classical": {"masses": [1.0], "omegas": [1.0], "beta": 1.0,
                          "dt": 0.5, "steps": 200, "store_stride": 50,
                          "samples": 200},
        }
        path = write_cfg(tmp_path, cfg)
        out = tmp_path / "o"
        assert main(["run", path, "--output", str(out)]) == 3
        assert "[FAIL]" in capsys.readouterr().out
        m = json.loads((out / "manifest.json").read_text())
        assert m["status"] == "check_failed"


# the documented exit code of every package error (cli docstring, README)
EXIT_CODES = {
    "MemoryBudgetExceeded": 2,
    "InvalidExtent": 2,
    "AxisMismatch": 2,
    "NonuniformFrames": 2,
    "PartitionMismatch": 2,
    "DenseBudgetExceeded": 2,
    "GridTooCoarse": 2,
    "DiagonalizationBudget": 2,
    "NonPositiveBeta": 2,
    "AnalyticDensityUnavailable": 2,
    "MalformedFile": 2,
    "ConfigError": 2,
    "ConvergenceFailure": 3,
    "TrajectoryEscapedDomain": 3,
    "NotADensityMatrix": 3,
    "OutsideAllCells": 3,
    "TruncationInsufficient": 3,
    "WindowEmpty": 3,
}


class TestPackageErrors:
    def test_every_error_class_has_a_documented_code(self):
        names = {c.__name__ for c in errors.BohmstatError.__subclasses__()}
        assert names == set(EXIT_CODES)

    @pytest.mark.parametrize("cls", errors.BohmstatError.__subclasses__(),
                             ids=lambda c: c.__name__)
    def test_runner_error_exit_code(self, cls, tmp_path, monkeypatch, capsys):
        exc = cls("x", "raised by the test") \
            if cls in (errors.ConfigError, errors.InvalidExtent) \
            else cls("raised by the test")

        def runner(cfg, outdir, seed):
            raise exc

        monkeypatch.setitem(RUNNERS, "scaling", runner)
        path = write_cfg(tmp_path, SCALING)
        out = tmp_path / "o"
        assert main(["run", path, "--output", str(out)]) == EXIT_CODES[cls.__name__]
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "raised by the test" in err
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize("name, budget", [
        ("evolve", 1_000),           # below the 4 KiB grid itself
        ("evolve", 20_000),          # fits the 4 KiB grid, not its working set
        ("bohm_full", 1_000_000)])   # fits the grids, not 4 MB of paths
    def test_memory_budget_exceeded(self, tmp_path, capsys, name, budget):
        with open(os.path.join(CONFIG_DIR, f"{name}.json")) as f:
            cfg = json.load(f)
        cfg["grid"]["memory_budget"] = budget
        path = write_cfg(tmp_path, cfg)
        out = tmp_path / "o"
        assert main(["run", path, "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("MemoryBudgetExceeded")
        assert not (out / "manifest.json").exists()

    def test_truncated_single_sample_fails_its_check(self, tmp_path, capsys):
        # one sample has no spread to bin by: one bin, never occupied
        with open(os.path.join(CONFIG_DIR, "classical_truncated.json")) as f:
            cfg = json.load(f)
        cfg["classical"]["samples"] = 1
        path = write_cfg(tmp_path, cfg)
        out = tmp_path / "o"
        assert main(["run", path, "--output", str(out)]) == 3
        assert "Traceback" not in capsys.readouterr().err
        m = json.loads((out / "manifest.json").read_text())
        assert m["status"] == "check_failed"
        assert m["metrics"]["frac_within_3se"] == 0.0

    def test_arpack_no_convergence_exits_three(self, tmp_path, capsys,
                                               monkeypatch):
        # an eigenstate on a 72 x 72 grid, above DENSE_EIG_BUDGET: ARPACK
        import scipy.sparse.linalg as spla

        def no_convergence(*args, **kwargs):
            raise spla.ArpackNoConvergence("no convergence", [], [])

        monkeypatch.setattr(spla, "eigsh", no_convergence)
        with open(os.path.join(CONFIG_DIR, "evolve.json")) as f:
            cfg = json.load(f)
        cfg["grid"].update(dims=2, n=72)
        cfg["initial_state"] = {"kind": "eigenstate", "index": 0}
        path = write_cfg(tmp_path, cfg)
        out = tmp_path / "o"
        assert main(["run", path, "--output", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("ConvergenceFailure")
        assert not (out / "manifest.json").exists()


def test_runs_without_scipy_reach_no_scipy_import(tmp_path):
    # a fresh interpreter: the test process has scipy loaded already
    script = textwrap.dedent("""
        import contextlib, io, os, sys
        from bohmstat.cli import main
        configs, out = sys.argv[1], sys.argv[2]
        for name in ("evolve", "free_expansion", "classical_liouville",
                     "classical_truncated", "scaling", "thermo", "first_law",
                     "cat_mixture"):
            with contextlib.redirect_stdout(io.StringIO()):
                rc = main(["run", os.path.join(configs, name + ".json"),
                           "--output", os.path.join(out, name)])
            assert rc == 0, (name, rc)
        loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
        assert not loaded, loaded
    """)
    src = os.path.dirname(os.path.dirname(os.path.abspath(bohmstat.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", script, CONFIG_DIR, str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


class TestList:
    def test_lists_all_experiments(self, capsys):
        assert main(["list-experiments"]) == 0
        out = capsys.readouterr().out
        lines = [ln for ln in out.strip().splitlines() if ln]
        assert len(lines) == 15
        for name in ("evolve", "typicality", "cat_mixture", "free_expansion"):
            assert any(ln.startswith(name) for ln in lines)
        assert "sections:" in lines[0]
