import ast
import glob
import inspect
import json
import os

import numpy as np
import pytest

from bohmstat import cli, experiments
from bohmstat.configio import (EXPERIMENTS_META, REQUIRED, SCHEMA, TOP_LEVEL,
                               build_grid, build_hamiltonian,
                               build_initial_state, load_config,
                               validate_config)
from bohmstat.errors import ConfigError
from bohmstat.lattice import Grid
from bohmstat.schrodinger import potential_grid

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


def minimal_scaling():
    return {"experiment": "scaling", "scaling": {"sizes": [16, 32],
                                                 "samples": 10}}


def resolved(**sections):
    """A field config resolved by the schema: `sections` over a grid section
    holding only the required n and empty hamiltonian, initial_state and
    evolution sections."""
    cfg = {"experiment": "evolve", "grid": {"n": 16}, "hamiltonian": {},
           "initial_state": {}, "evolution": {}}
    return validate_config(dict(cfg, **sections))


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
        assert validate_config(minimal_scaling())["experiment"] == "scaling"

    def test_fills_defaults_and_converts_numbers(self):
        cfg = minimal_scaling()
        cfg["scaling"]["beta"] = 2
        out = validate_config(cfg)
        assert out["seed"] == 0 and out["output_dir"] == "."
        assert out["scaling"] == {"sizes": [16, 32], "samples": 10,
                                  "beta": 2.0, "omega": 1.0}
        assert isinstance(out["scaling"]["beta"], float)
        assert cfg["scaling"] == {"sizes": [16, 32], "samples": 10, "beta": 2}

    def test_resolved_config_validates_to_itself(self):
        out = validate_config(minimal_scaling())
        assert validate_config(out) == out

    @pytest.mark.parametrize("section,key,value", [
        ("scaling", "samples", True),    # a bool is never an int
        ("scaling", "samples", 10.0),    # a float is never an int
        ("scaling", "beta", False),
        ("scaling", "beta", float("nan")),
        ("scaling", "sizes", [16, 32.5]),
        ("scaling", "sizes", []),
    ])
    def test_type_is_checked(self, section, key, value):
        cfg = minimal_scaling()
        cfg[section][key] = value
        with pytest.raises(ConfigError, match=rf"^{section}\.{key}: must be"):
            validate_config(cfg)

    def test_required_key_without_default(self):
        cfg = {"experiment": "classical_liouville", "classical": {}}
        with pytest.raises(ConfigError, match=r"^classical\.samples: missing"):
            validate_config(cfg)

    def test_every_default_passes_its_own_check(self):
        keys = list(TOP_LEVEL.items()) + [
            (f"{section}.{name}", key)
            for section, keys in SCHEMA.items() for name, key in keys.items()]
        for path, key in keys:
            if key.default is not REQUIRED:
                key.check(path, key.default)
        required = sorted(path for path, key in keys if key.default is REQUIRED)
        assert required == ["classical.samples", "grid.n", "macrostates.edges"]

    def test_invalid_json_file(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_config(p)

    def test_every_section_key_table_consistent(self):
        for name, (_, required) in EXPERIMENTS_META.items():
            for section in required:
                assert section in SCHEMA, (name, section)

    def test_every_section_key_is_read(self):
        # a key counts as read when the cli, a runner or a builder looks it
        # up by name, as `cfg["key"]` or `section["key"]`; build_grid passes
        # the whole grid section to Grid, whose parameters are exactly the
        # grid keys
        assert list(inspect.signature(Grid).parameters) == list(SCHEMA["grid"])
        read = set(SCHEMA["grid"])
        for fn in (cli, experiments, build_grid, build_hamiltonian,
                   build_initial_state):
            for node in ast.walk(ast.parse(inspect.getsource(fn))):
                if (isinstance(node, ast.Subscript)
                        and isinstance(node.slice, ast.Constant)):
                    read.add(node.slice.value)
        unread = sorted(f"{section}.{key}"
                        for section, keys in SCHEMA.items()
                        for key in keys if key not in read)
        unread += sorted(key for key in TOP_LEVEL if key not in read)
        assert unread == []

    @pytest.mark.parametrize(
        "path", sorted(glob.glob(os.path.join(CONFIG_DIR, "*.json"))),
        ids=lambda p: os.path.basename(p))
    def test_shipped_configs_validate(self, path):
        cfg = load_config(path)
        assert validate_config(cfg)["experiment"] == os.path.basename(path)[:-5]


class TestBuilders:
    def test_grid_small_axis_names_config_path(self):
        with pytest.raises(ConfigError, match=r"^grid\.n: must be >= 8$"):
            build_grid(resolved(grid={"n": 7, "extent": [0.0, 1.0]}))

    def test_grid_round_trip(self):
        grid = build_grid(resolved(grid={"particles": 2, "n": 16,
                                         "extent": [-3.0, 3.0]}))
        assert grid.pos_shape == (16, 16)
        assert grid.boundary == "periodic"

    def test_hamiltonian_defaults(self):
        h = build_hamiltonian(resolved(hamiltonian={}))
        assert h.masses == (1.0,)

    def test_every_potential_kind_with_all_its_keys(self):
        # each kind with every key it may hold, numbers where a list is not
        # allowed, builds; spin_coupling's particle is its one extra key
        terms = [{"kind": "free"}, {"kind": "box"},
                 {"kind": "harmonic", "omega": [1.0, 0.5]},
                 {"kind": "gaussian_barrier", "height": 1, "width": 0.5,
                  "center": 0.0},
                 {"kind": "pair_coupling", "lam": 0.2},
                 {"kind": "spin_coupling", "mu": 0.3, "particle": 1}]
        cfg = resolved(grid={"particles": 2, "n": 16, "extent": [-4.0, 4.0],
                             "spin_dims": [1, 2]},
                       hamiltonian={"masses": [1.0, 2.0], "potential": terms})
        h = build_hamiltonian(cfg)
        assert h.potential == terms
        assert np.all(np.isfinite(potential_grid(build_grid(cfg), h)))

    def test_gaussian_state_normalized(self):
        cfg = resolved(grid={"n": 64, "extent": [-8.0, 8.0]},
                       initial_state={"kind": "gaussian", "center": 1.0,
                                      "width": 0.7})
        grid = build_grid(cfg)
        psi = build_initial_state(grid, build_hamiltonian(cfg), cfg)
        assert psi.norm_sq() == pytest.approx(1.0, abs=1e-12)
        rho = np.abs(psi.amplitudes) ** 2
        peak = grid.axis_coords[np.argmax(rho)]
        assert peak == pytest.approx(1.0, abs=grid.dx)

    def test_entangled_pair_needs_two_axes(self):
        cfg = resolved(grid={"n": 32, "extent": [-4.0, 4.0]},
                       initial_state={"kind": "entangled_pair"})
        grid = build_grid(cfg)
        with pytest.raises(ConfigError, match="entangled_pair"):
            build_initial_state(grid, build_hamiltonian(cfg), cfg)

    def test_entangled_pair_is_mixed_marginal(self):
        cfg = resolved(
            grid={"particles": 2, "n": 32, "extent": [-6.0, 6.0]},
            hamiltonian={"masses": [1.0, 1.0]},
            initial_state={"kind": "entangled_pair",
                           "centers": [[-2.0, 2.0], [2.0, -2.0]],
                           "momenta": [[0.0, 0.0], [0.0, 0.0]], "width": 0.5})
        psi = build_initial_state(build_grid(cfg), build_hamiltonian(cfg), cfg)
        assert psi.norm_sq() == pytest.approx(1.0, abs=1e-12)

    def test_eigenstate_kind(self):
        cfg = resolved(grid={"n": 64, "extent": [0.0, 1.0],
                             "boundary": "dirichlet"},
                       hamiltonian={"potential": [{"kind": "box"}]},
                       initial_state={"kind": "eigenstate", "index": 1})
        grid = build_grid(cfg)
        psi = build_initial_state(grid, build_hamiltonian(cfg), cfg)
        x = grid.axis_coords
        expect = np.sqrt(2.0) * np.sin(2 * np.pi * x)
        overlap = abs(np.vdot(psi.amplitudes, expect) * grid.weight)
        assert overlap == pytest.approx(1.0, abs=1e-3)

    def test_unknown_state_kind(self):
        # the schema rejects the kind before any builder runs
        with pytest.raises(ConfigError, match="soliton"):
            resolved(grid={"n": 16, "extent": [0.0, 1.0]},
                     initial_state={"kind": "soliton"})


def test_every_config_has_a_readme_note():
    for path in sorted(glob.glob(os.path.join(CONFIG_DIR, "*.json"))):
        assert os.path.exists(path[:-5] + ".md"), path
