"""Strict JSON experiment configuration: schema tables and builders.

Unknown keys are errors, never warnings; every error message carries the
dotted path of the offending entry.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import ConfigError
from .lattice import GridSpec, make_grid, WaveField
from .schrodinger import HamiltonianSpec

# allowed keys per section (None = free-form validated by the builder)
SECTION_KEYS = {
    "grid": {"particles", "dims", "n", "extent", "boundary", "spin_dims",
             "memory_budget"},
    "hamiltonian": {"masses", "potential", "time_step", "stepper"},
    "initial_state": {"kind", "center", "width", "momentum", "centers",
                      "momenta", "index"},
    "evolution": {"t_final", "frame_stride"},
    "partition": {"a_particles"},
    "ensemble": {"samples", "substeps", "bins"},
    "classical": {"masses", "omegas", "kappa", "beta", "dt", "steps",
                  "store_stride", "samples", "damping"},
    "scaling": {"sizes", "samples", "beta", "omega"},
    "thermo": {"family", "mass", "omega", "gap", "levels", "v_lo", "v_hi",
               "v_count", "t_lo", "t_hi", "t_count", "refine"},
    "typicality": {"sizes", "n_a", "j", "g", "ab_coupling", "trials",
                   "center_quantile", "min_levels"},
    "macrostates": {"edges", "p_cutoff", "delta_z"},
    "cat": {"omega", "beta_cold", "beta_warm", "levels"},
}

# experiment -> (description, required sections)
EXPERIMENTS_META = {
    "evolve": ("unitary evolution of a wave field, frames to disk",
               ["grid", "hamiltonian", "initial_state", "evolution"]),
    "continuity": ("closed-system continuity residual time series",
                   ["grid", "hamiltonian", "initial_state", "evolution"]),
    "subsystem_currents": ("truncated currents by integral and operator routes",
                           ["grid", "hamiltonian", "initial_state",
                            "evolution", "partition"]),
    "bohm_full": ("full-velocity Bohmian trajectory ensemble",
                  ["grid", "hamiltonian", "initial_state", "evolution",
                   "ensemble"]),
    "bohm_truncated": ("truncated-velocity Bohmian trajectories on the A grid",
                       ["grid", "hamiltonian", "initial_state", "evolution",
                        "ensemble", "partition"]),
    "equivariance": ("trajectory histogram vs |psi|^2 with negative control",
                     ["grid", "hamiltonian", "initial_state", "evolution",
                      "ensemble"]),
    "classical_liouville": ("Liouville constancy and incompressibility checks",
                            ["classical"]),
    "classical_truncated": ("binned truncated phase velocity vs conditional mean",
                            ["classical"]),
    "scaling": ("law-of-large-numbers 1/sqrt(N) exponent fit", ["scaling"]),
    "entropy_series": ("entropy time series over a trajectory ensemble",
                       ["grid", "hamiltonian", "initial_state", "evolution",
                        "ensemble", "macrostates"]),
    "free_expansion": ("entropy growth of an expanding packet",
                       ["grid", "hamiltonian", "initial_state", "evolution",
                        "ensemble", "macrostates"]),
    "thermo": ("canonical (V, T) table with dual-route checks", ["thermo"]),
    "first_law": ("dE = TdS - PdV residuals with refinement", ["thermo"]),
    "typicality": ("microcanonical-to-canonical trace distances", ["typicality"]),
    "cat_mixture": ("entropy of a two-branch thermal mixture", ["cat"]),
}

TOP_LEVEL_KEYS = {"experiment", "seed", "output_dir"} | set(SECTION_KEYS)


def load_config(path) -> dict:
    try:
        with open(path) as f:
            return json.load(f)
    except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
        raise ConfigError(str(path), f"invalid JSON: {exc}") from exc
    except OSError as exc:  # missing, a directory, unreadable
        raise ConfigError(str(path), exc.strerror.lower()) from exc


def validate_config(cfg: dict) -> str:
    """Returns the experiment name; raises ConfigError on any defect."""
    if not isinstance(cfg, dict):
        raise ConfigError("config", "top level must be a JSON object")
    if "experiment" not in cfg:
        raise ConfigError("experiment", "missing")
    name = cfg["experiment"]
    if name not in EXPERIMENTS_META:
        raise ConfigError("experiment", f"unknown experiment {name!r}")
    _, required = EXPERIMENTS_META[name]
    for key in cfg:
        if key not in TOP_LEVEL_KEYS:
            raise ConfigError(key, "unknown top-level key")
        if key in SECTION_KEYS and key not in required:
            raise ConfigError(key, f"section not used by experiment {name!r}")
    for section in required:
        if section not in cfg:
            raise ConfigError(section, f"required by experiment {name!r}")
        body = cfg[section]
        if not isinstance(body, dict):
            raise ConfigError(section, "must be an object")
        for k in body:
            if k not in SECTION_KEYS[section]:
                raise ConfigError(f"{section}.{k}", "unknown key")
    return name


def build_grid(cfg: dict):
    g = cfg["grid"]
    try:
        spec = GridSpec(
            particle_count=int(g.get("particles", 1)),
            dims_per_particle=int(g.get("dims", 1)),
            points_per_axis=int(g.get("n", 0)),
            axis_extent=tuple(g.get("extent", (0.0, 1.0))),
            boundary=g.get("boundary", "periodic"),
            spin_dims=tuple(g.get("spin_dims", ())),
            memory_budget=int(g.get("memory_budget", 2 * 1024**3)),
        )
        return make_grid(spec)
    except Exception as exc:
        raise ConfigError("grid.points_per_axis" if "points_per_axis" in str(exc)
                          else "grid", str(exc)) from exc


def build_hamiltonian(cfg: dict) -> HamiltonianSpec:
    h = cfg["hamiltonian"]
    try:
        return HamiltonianSpec(
            masses=tuple(h.get("masses", (1.0,))),
            potential=h.get("potential", [{"kind": "free"}]),
            time_step=float(h.get("time_step", 1e-3)),
            stepper=h.get("stepper", "split_step_spectral"),
        )
    except Exception as exc:
        raise ConfigError("hamiltonian", str(exc)) from exc


def _packet(x, center, width, momentum):
    return ((2 * np.pi * width**2) ** -0.25
            * np.exp(-(x - center) ** 2 / (4 * width**2) + 1j * momentum * x))


def build_initial_state(grid, h: HamiltonianSpec, cfg: dict) -> WaveField:
    s = cfg["initial_state"]
    kind = s.get("kind", "gaussian")
    coords = grid.meshgrid()
    if kind == "gaussian":
        center = s.get("center", 0.0)
        width = s.get("width", 1.0)
        momentum = s.get("momentum", 0.0)
        centers = [center] * grid.n_pos_axes if np.isscalar(center) else center
        widths = [width] * grid.n_pos_axes if np.isscalar(width) else width
        moms = [momentum] * grid.n_pos_axes if np.isscalar(momentum) else momentum
        amp = np.ones(grid.pos_shape, dtype=np.complex128)
        for ax in range(grid.n_pos_axes):
            amp = amp * _packet(coords[ax], centers[ax], widths[ax], moms[ax])
        amp = np.broadcast_to(amp, grid.full_shape).copy()
        if grid.spin_shape:
            amp = amp / np.sqrt(np.prod(grid.spin_shape))
        return WaveField(grid, amp).normalized()
    if kind == "entangled_pair":
        if grid.n_pos_axes != 2:
            raise ConfigError("initial_state.kind",
                              "entangled_pair needs a 2-axis grid")
        centers = s.get("centers", [[-2.0, 2.0], [2.0, -2.0]])
        momenta = s.get("momenta", [[1.5, -1.0], [-0.5, 0.7]])
        width = float(s.get("width", 1.0))
        x1, x2 = coords
        amp = np.zeros(grid.pos_shape, dtype=np.complex128)
        for (c1, c2), (k1, k2) in zip(centers, momenta):
            amp += _packet(x1, c1, width, k1) * _packet(x2, c2, width, k2)
        return WaveField(grid, amp.reshape(grid.full_shape)).normalized()
    if kind == "eigenstate":
        from .schrodinger import eigenstates

        index = int(s.get("index", 0))
        _, fields = eigenstates(grid, h, index + 1)
        return fields[index]
    raise ConfigError("initial_state.kind", f"unknown kind {kind!r}")
