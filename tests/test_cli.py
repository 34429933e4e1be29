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

    def test_deterministic_reruns(self, tmp_path):
        cfg = write_cfg(tmp_path, SCALING)
        manifests = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            main(["run", cfg, "--output", str(out)])
            m = json.loads((out / "manifest.json").read_text())
            m.pop("wall_time_s")
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
        assert "grid.points_per_axis" in capsys.readouterr().err

    def test_unknown_key_exit_two(self, tmp_path, capsys):
        cfg = dict(SCALING)
        cfg["scaling"] = dict(SCALING["scaling"], turbo=True)
        path = write_cfg(tmp_path, cfg)
        assert main(["run", path]) == 2
        assert "scaling.turbo" in capsys.readouterr().err


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
    "StepperBoundaryMismatch": 2,
    "NonuniformFrames": 2,
    "PartitionMismatch": 2,
    "DenseBudgetExceeded": 2,
    "EmptyRegion": 2,
    "GridTooCoarse": 2,
    "DiagonalizationBudget": 2,
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
        exc = cls("x", "raised by the test") if cls is errors.ConfigError \
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

    def test_stepper_boundary_mismatch(self, tmp_path, capsys):
        with open(os.path.join(CONFIG_DIR, "evolve.json")) as f:
            cfg = json.load(f)
        cfg["grid"]["boundary"] = "dirichlet"
        path = write_cfg(tmp_path, cfg)
        assert main(["run", path, "--output", str(tmp_path / "o")]) == 2
        assert "StepperBoundaryMismatch" in capsys.readouterr().err


def test_runs_without_scipy_reach_no_scipy_import(tmp_path):
    # a fresh interpreter: the test process has scipy loaded already
    script = textwrap.dedent("""
        import contextlib, io, os, sys
        from bohmstat.cli import main
        configs, out = sys.argv[1], sys.argv[2]
        for name in ("evolve", "thermo"):
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
