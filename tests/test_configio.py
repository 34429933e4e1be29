import ast
import glob
import inspect
import json
import os

import numpy as np
import pytest

from bohmstat import experiments
from bohmstat.configio import (EXPERIMENTS_META, SECTION_KEYS,
                               build_grid, build_hamiltonian,
                               build_initial_state, load_config,
                               validate_config)
from bohmstat.errors import ConfigError

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


def minimal_scaling():
    return {"experiment": "scaling", "scaling": {"sizes": [16, 32],
                                                 "samples": 10}}


class TestValidation:
    def test_missing_experiment(self):
        with pytest.raises(ConfigError, match="experiment"):
            validate_config({"scaling": {}})

    def test_unknown_experiment(self):
        with pytest.raises(ConfigError, match="unknown experiment"):
            validate_config({"experiment": "warp_drive"})

    def test_unknown_top_level_key(self):
        cfg = minimal_scaling()
        cfg["verbose"] = True
        with pytest.raises(ConfigError, match="verbose"):
            validate_config(cfg)

    def test_section_not_used_by_experiment(self):
        cfg = minimal_scaling()
        cfg["thermo"] = {}
        with pytest.raises(ConfigError, match="thermo"):
            validate_config(cfg)

    def test_missing_required_section(self):
        with pytest.raises(ConfigError, match="scaling"):
            validate_config({"experiment": "scaling"})

    def test_unknown_section_key_names_path(self):
        cfg = minimal_scaling()
        cfg["scaling"]["size"] = [16]
        with pytest.raises(ConfigError, match=r"scaling\.size"):
            validate_config(cfg)

    def test_section_must_be_object(self):
        with pytest.raises(ConfigError, match="object"):
            validate_config({"experiment": "scaling", "scaling": [1, 2]})

    def test_returns_experiment_name(self):
        assert validate_config(minimal_scaling()) == "scaling"

    def test_invalid_json_file(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_config(p)

    def test_every_section_key_table_consistent(self):
        for name, (_, required) in EXPERIMENTS_META.items():
            for section in required:
                assert section in SECTION_KEYS, (name, section)

    def test_every_section_key_is_read(self):
        # a key counts as read when a runner or a builder looks it up by
        # name, as `section.get("key", ...)` or `section["key"]`
        read = set()
        for fn in (experiments, build_grid, build_hamiltonian,
                   build_initial_state):
            for node in ast.walk(ast.parse(inspect.getsource(fn))):
                if (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr == "get" and node.args):
                    name = node.args[0]
                elif isinstance(node, ast.Subscript):
                    name = node.slice
                else:
                    continue
                if isinstance(name, ast.Constant):
                    read.add(name.value)
        unread = sorted(f"{section}.{key}"
                        for section, keys in SECTION_KEYS.items()
                        for key in keys if key not in read)
        assert unread == []

    @pytest.mark.parametrize(
        "path", sorted(glob.glob(os.path.join(CONFIG_DIR, "*.json"))),
        ids=lambda p: os.path.basename(p))
    def test_shipped_configs_validate(self, path):
        cfg = load_config(path)
        assert validate_config(cfg) == os.path.basename(path)[:-5]


class TestBuilders:
    def test_grid_small_axis_names_config_path(self):
        with pytest.raises(ConfigError, match=r"grid\.points_per_axis"):
            build_grid({"grid": {"n": 7, "extent": [0.0, 1.0]}})

    def test_grid_round_trip(self):
        grid = build_grid({"grid": {"particles": 2, "n": 16,
                                    "extent": [-3.0, 3.0]}})
        assert grid.pos_shape == (16, 16)
        assert grid.spec.boundary == "periodic"

    def test_hamiltonian_defaults(self):
        h = build_hamiltonian({"hamiltonian": {}})
        assert h.masses == (1.0,)
        assert h.stepper == "split_step_spectral"

    def test_gaussian_state_normalized(self):
        grid = build_grid({"grid": {"n": 64, "extent": [-8.0, 8.0]}})
        h = build_hamiltonian({"hamiltonian": {}})
        psi = build_initial_state(grid, h, {"initial_state":
                                            {"kind": "gaussian",
                                             "center": 1.0, "width": 0.7}})
        assert psi.norm_sq() == pytest.approx(1.0, abs=1e-12)
        rho = np.abs(psi.amplitudes) ** 2
        peak = grid.axis_coords[np.argmax(rho)]
        assert peak == pytest.approx(1.0, abs=grid.dx)

    def test_entangled_pair_needs_two_axes(self):
        grid = build_grid({"grid": {"n": 32, "extent": [-4.0, 4.0]}})
        h = build_hamiltonian({"hamiltonian": {}})
        with pytest.raises(ConfigError, match="entangled_pair"):
            build_initial_state(grid, h,
                                {"initial_state": {"kind": "entangled_pair"}})

    def test_entangled_pair_is_mixed_marginal(self):
        grid = build_grid({"grid": {"particles": 2, "n": 32,
                                    "extent": [-6.0, 6.0]}})
        h = build_hamiltonian({"hamiltonian": {"masses": [1.0, 1.0]}})
        psi = build_initial_state(
            grid, h, {"initial_state": {
                "kind": "entangled_pair",
                "centers": [[-2.0, 2.0], [2.0, -2.0]],
                "momenta": [[0.0, 0.0], [0.0, 0.0]], "width": 0.5}})
        assert psi.norm_sq() == pytest.approx(1.0, abs=1e-12)

    def test_eigenstate_kind(self):
        grid = build_grid({"grid": {"n": 64, "extent": [0.0, 1.0],
                                    "boundary": "dirichlet"}})
        h = build_hamiltonian({"hamiltonian": {
            "potential": [{"kind": "box"}], "stepper": "crank_nicolson"}})
        psi = build_initial_state(grid, h,
                                  {"initial_state": {"kind": "eigenstate",
                                                     "index": 1}})
        x = grid.axis_coords
        expect = np.sqrt(2.0) * np.sin(2 * np.pi * x)
        overlap = abs(np.vdot(psi.amplitudes, expect) * grid.weight)
        assert overlap == pytest.approx(1.0, abs=1e-3)

    def test_unknown_state_kind(self):
        grid = build_grid({"grid": {"n": 16, "extent": [0.0, 1.0]}})
        h = build_hamiltonian({"hamiltonian": {}})
        with pytest.raises(ConfigError, match="soliton"):
            build_initial_state(grid, h, {"initial_state": {"kind": "soliton"}})


def test_every_config_has_a_readme_note():
    for path in sorted(glob.glob(os.path.join(CONFIG_DIR, "*.json"))):
        assert os.path.exists(path[:-5] + ".md"), path
