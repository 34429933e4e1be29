"""Strict JSON experiment configuration: the schema table and the builders.

`SCHEMA` states each section key's type, default and range once.
`validate_config` checks a config against it and returns the resolved config,
with every default filled in; runners and builders index that without
defaults or casts of their own.  The grid section goes whole to Grid, whose
parameters are its keys, so a grid key has one name throughout.  Unknown keys
are errors, never warnings; every error message carries the dotted path of
the offending entry.
"""

from __future__ import annotations

import json
import math
from typing import Callable, NamedTuple

import numpy as np

from .errors import ConfigError, InvalidExtent
from .lattice import DEFAULT_MEMORY_BUDGET, Grid, WaveField
from .schrodinger import POTENTIAL_PARAMS, HamiltonianSpec, eigenstates

REQUIRED = object()  # the default of a key that has none


class Type(NamedTuple):
    """A JSON value type: `convert` returns the value in its resolved form,
    or None when the value is not of this type."""

    what: str
    convert: Callable


class Range(NamedTuple):
    """A condition every number (or string) of a resolved value must meet."""

    what: str
    test: Callable


class Key(NamedTuple):
    """One config key: its type, its default (REQUIRED if it has none) and the
    range its values must fall in (None when the object built from it, such as
    Grid or HamiltonianSpec, checks the range itself)."""

    type: Type
    default: object = REQUIRED
    range: Range | None = None

    def check(self, path: str, value):
        """`value` converted to this key's type; ConfigError(path) when it is
        not of the type or not in the range."""
        resolved = self.type.convert(value)
        if resolved is None:
            raise ConfigError(path, f"must be {self.type.what}, got {value!r}")
        if self.range is not None:
            each = isinstance(resolved, list)
            if not all(map(self.range.test, resolved if each else [resolved])):
                raise ConfigError(path, f"{'every entry ' if each else ''}must be "
                                        f"{self.range.what}, got {value!r}")
        return resolved


def _float(v):
    if type(v) not in (int, float):  # a bool is not a number
        return None
    try:
        v = float(v)
    except OverflowError:
        return None
    return v if math.isfinite(v) else None


INT = Type("an integer", lambda v: v if type(v) is int else None)
FLOAT = Type("a finite number", _float)  # an integer is accepted and converted
STR = Type("a string", lambda v: v if isinstance(v, str) else None)
OBJECT = Type("an object", lambda v: v if isinstance(v, dict) else None)


def list_of(item: Type, items: str, size=None, empty=False) -> Type:
    """A JSON list whose every element is of type `item`; of exactly `size`
    elements if given, else non-empty unless `empty`."""

    def convert(v):
        if not isinstance(v, list) or (size and len(v) != size) or not (v or empty):
            return None
        out = [item.convert(x) for x in v]
        return None if any(x is None for x in out) else out

    what = (f"a list of {size} {items}" if size
            else f"a {'' if empty else 'non-empty '}list of {items}")
    return Type(what, convert)


def at_least(lo):
    return Range(f">= {lo}", lambda v: v >= lo)


def one_of(*names):
    return Range(f"one of {', '.join(map(repr, names))}", lambda v: v in names)


INTS = list_of(INT, "integers")
NUMBERS = list_of(FLOAT, "numbers")
# one value, or one per axis or particle
NUMBER_OR_LIST = Type(f"{FLOAT.what} or {NUMBERS.what}", lambda v: (
    NUMBERS.convert(v) if isinstance(v, list) else FLOAT.convert(v)))
PAIRS = list_of(list_of(FLOAT, "numbers", size=2), "pairs of numbers")
POSITIVE, COUNT = Range("> 0", lambda v: v > 0), at_least(1)

TOP_LEVEL = {
    "seed": Key(INT, 0, at_least(0)),
    "output_dir": Key(STR, ".", Range("non-empty", bool)),
}

# Every key of every section.  A trailing comment names what checks the
# range instead of the table (or, after "+", what else checks the value).
SCHEMA = {
    "grid": {
        "particles": Key(INT, 1, COUNT),
        "dims": Key(INT, 1),                                   # Grid
        "n": Key(INT),                                         # Grid
        "extent": Key(list_of(FLOAT, "numbers", size=2), [0.0, 1.0]),  # Grid
        "boundary": Key(STR, "periodic"),                      # Grid
        "spin_dims": Key(list_of(INT, "integers", empty=True), []),  # Grid
        "memory_budget": Key(INT, DEFAULT_MEMORY_BUDGET),      # Grid
    },
    "hamiltonian": {
        "masses": Key(NUMBERS, [1.0], POSITIVE),    # + builder
        "potential": Key(list_of(OBJECT, "objects", empty=True),
                         [{"kind": "free"}]),        # build_hamiltonian
        "time_step": Key(FLOAT, 1e-3, POSITIVE),
    },
    "initial_state": {
        "kind": Key(STR, "gaussian",
                    one_of("gaussian", "entangled_pair", "eigenstate")),
        "center": Key(NUMBER_OR_LIST, 0.0),                    # + builder
        "width": Key(NUMBER_OR_LIST, 1.0, POSITIVE),           # + builder
        "momentum": Key(NUMBER_OR_LIST, 0.0),                  # + builder
        "centers": Key(PAIRS, [[-2.0, 2.0], [2.0, -2.0]]),
        "momenta": Key(PAIRS, [[1.5, -1.0], [-0.5, 0.7]]),     # + builder
        "index": Key(INT, 0, at_least(0)),
    },
    "evolution": {
        "t_final": Key(FLOAT, 1.0, POSITIVE),
        "frame_stride": Key(INT, 1, COUNT),
    },
    "partition": {
        "a_particles": Key(list_of(INT, "integers", empty=True),
                           [0]),        # SubsystemPartition of the grid
    },
    "ensemble": {
        "samples": Key(INT, 10_000, COUNT),
        "substeps": Key(INT, 2, COUNT),
        "bins": Key(INT, 32, COUNT),
    },
    "classical": {
        "masses": Key(NUMBERS, [1.0], POSITIVE),
        "omegas": Key(NUMBER_OR_LIST, 1.0, POSITIVE),          # + builder
        "kappa": Key(FLOAT, 0.0),
        "beta": Key(FLOAT, 1.0, POSITIVE),
        "dt": Key(FLOAT, 2e-4, POSITIVE),
        "steps": Key(INT, 10_000, COUNT),
        "store_stride": Key(INT, 1000, COUNT),
        "samples": Key(INT, REQUIRED, COUNT),
        "damping": Key(FLOAT, 0.1),
    },
    "scaling": {
        "sizes": Key(INTS, [16, 32, 64, 128, 256, 512, 1024], COUNT),
        "samples": Key(INT, 800, at_least(2)),
        "beta": Key(FLOAT, 1.0, POSITIVE),
        "omega": Key(FLOAT, 1.0, POSITIVE),
    },
    "thermo": {
        "family": Key(STR, "box", one_of("box", "harmonic", "two_level")),
        "mass": Key(FLOAT, 50.0, POSITIVE),
        "omega": Key(FLOAT, 1.0, POSITIVE),
        "gap": Key(FLOAT, 1.0, at_least(0)),
        "levels": Key(INT, 800, COUNT),
        "v_lo": Key(FLOAT, 0.8, POSITIVE),
        "v_hi": Key(FLOAT, 1.2, POSITIVE),
        "v_count": Key(INT, 61, COUNT),            # + thermo_table (>= 5)
        "t_lo": Key(FLOAT, 0.5, POSITIVE),
        "t_hi": Key(FLOAT, 2.0, POSITIVE),
        "t_count": Key(INT, 241, COUNT),           # + thermo_table (>= 5)
        "refine": Key(INT, 2, COUNT),
    },
    "typicality": {
        "sizes": Key(INTS, [6, 8, 10, 12], at_least(2)),
        "n_a": Key(INT, 1, COUNT),
        "j": Key(FLOAT, 1.0),
        "g": Key(FLOAT, 1.0),
        "ab_coupling": Key(FLOAT, 0.2),
        "trials": Key(INT, 20, COUNT),
        "center_quantile": Key(FLOAT, 0.2,
                               Range("in [0, 1]", lambda v: 0 <= v <= 1)),
        "min_levels": Key(INT, 30, COUNT),
    },
    "macrostates": {
        "edges": Key(NUMBERS),                     # MacrostateDecomposition
        "p_cutoff": Key(FLOAT, 4 * math.pi),       # MacrostateDecomposition
        "delta_z": Key(FLOAT, 2 * math.pi, POSITIVE),
    },
    "cat": {
        "omega": Key(FLOAT, 1.0, POSITIVE),
        "beta_cold": Key(FLOAT, 2.0, POSITIVE),
        "beta_warm": Key(FLOAT, 0.5, POSITIVE),
        "levels": Key(INT, 400, COUNT),
    },
}

# the `kind` of a hamiltonian.potential term, and the only other keys a term of
# each kind may hold; build_hamiltonian checks them.  Only harmonic's omega may
# be a list (one per particle); potential_grid uses every other as a number.
TERM_KIND = {"kind": Key(STR, REQUIRED, one_of(*POTENTIAL_PARAMS))}
TERM_KEYS = {kind: {p: Key(NUMBER_OR_LIST if p == "omega" else FLOAT)
                    for p in params}
             for kind, params in POTENTIAL_PARAMS.items()}
TERM_KEYS["spin_coupling"]["particle"] = Key(INT, 0)   # + _check_term_fits_grid

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

def load_config(path) -> dict:
    try:
        with open(path) as f:
            return json.load(f)
    except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
        raise ConfigError(str(path), f"invalid JSON: {exc}") from exc
    except OSError as exc:  # missing, a directory, unreadable
        raise ConfigError(str(path), exc.strerror.lower()) from exc


def _resolve(keys: dict, body: dict, prefix: str = "") -> dict:
    resolved = {}
    for name, key in keys.items():
        value = body.get(name, key.default)
        if value is REQUIRED:
            raise ConfigError(prefix + name, "missing")
        resolved[name] = key.check(prefix + name, value)
    return resolved


def validate_config(cfg: dict) -> dict:
    """Returns the resolved config: the experiment name, every top-level key
    and every key of the experiment's sections, defaults filled in and numbers
    converted to their type.  Raises ConfigError on the first defect."""
    if not isinstance(cfg, dict):
        raise ConfigError("config", "top level must be a JSON object")
    if "experiment" not in cfg:
        raise ConfigError("experiment", "missing")
    name = cfg["experiment"]
    if not isinstance(name, str) or name not in EXPERIMENTS_META:
        raise ConfigError("experiment", f"unknown experiment {name!r}")
    _, required = EXPERIMENTS_META[name]
    for key in cfg:
        if key in SCHEMA:
            if key not in required:
                raise ConfigError(key, f"section not used by experiment {name!r}")
        elif key != "experiment" and key not in TOP_LEVEL:
            raise ConfigError(key, "unknown top-level key")
    resolved = {"experiment": name, **_resolve(TOP_LEVEL, cfg)}
    for section in required:
        if section not in cfg:
            raise ConfigError(section, f"required by experiment {name!r}")
        body = cfg[section]
        if not isinstance(body, dict):
            raise ConfigError(section, "must be an object")
        for k in body:
            if k not in SCHEMA[section]:
                raise ConfigError(f"{section}.{k}", "unknown key")
        resolved[section] = _resolve(SCHEMA[section], body, f"{section}.")
    return resolved


def build_grid(cfg: dict) -> Grid:
    """The grid section's Grid.  Grid checks the ranges the schema leaves to
    it; its InvalidExtent becomes a ConfigError naming the grid key."""
    try:
        return Grid(**cfg["grid"])
    except InvalidExtent as exc:
        raise ConfigError(f"grid.{exc.field}", exc.message) from exc


def build_hamiltonian(cfg: dict) -> HamiltonianSpec:
    h = cfg["hamiltonian"]
    particles = cfg["grid"]["particles"]
    if len(h["masses"]) != particles:
        raise ConfigError("hamiltonian.masses", f"needs one mass per particle "
                          f"({particles}), got {len(h['masses'])}")
    for i, term in enumerate(h["potential"]):
        where = f"hamiltonian.potential[{i}]."
        kind = _resolve(TERM_KIND, term, where)["kind"]
        for k in term:
            if k != "kind" and k not in TERM_KEYS[kind]:
                raise ConfigError(where + k, f"unknown key for kind {kind!r}")
        _resolve(TERM_KEYS[kind], term, where)
        _check_term_fits_grid(cfg["grid"], kind, term, where)
    return HamiltonianSpec(masses=h["masses"], potential=h["potential"],
                           time_step=h["time_step"])


def _check_term_fits_grid(g: dict, kind: str, term: dict, where: str):
    """What potential_grid needs of the grid beyond the term's own keys."""
    particles = g["particles"]
    if kind == "harmonic" and isinstance(term["omega"], list) \
            and len(term["omega"]) != particles:
        raise ConfigError(where + "omega", f"needs one omega per particle "
                          f"({particles}), got {len(term['omega'])}")
    if kind == "pair_coupling" and particles < 2:
        raise ConfigError(where + "kind", "pair_coupling needs two particles, "
                          f"grid.particles is {particles}")
    if kind == "spin_coupling":
        index = Range(f"a particle index below {particles}",
                      lambda a: 0 <= a < particles)
        a = _resolve({"particle": Key(INT, 0, index)}, term, where)["particle"]
        spins = g["spin_dims"]
        dim = spins[a] if a < len(spins) else 1
        if dim != 2:
            raise ConfigError(where + "particle", f"spin_coupling needs a spin-1/2 "
                              f"particle, grid.spin_dims gives particle {a} "
                              f"spin dimension {dim}")


@np.errstate(all="ignore")  # a width out of float range gives an inf or a nan
def _packet(x, center, width, momentum):
    width = np.float64(width)
    return ((2 * np.pi * width**2) ** -0.25
            * np.exp(-(x - center) ** 2 / (4 * width**2) + 1j * momentum * x))


def _per_axis(grid, value, key: str) -> list:
    """A number repeated on every position axis, or a list with one entry
    per axis."""
    if not isinstance(value, list):
        return [value] * grid.n_pos_axes
    if len(value) != grid.n_pos_axes:
        raise ConfigError(f"initial_state.{key}", f"needs one entry per position "
                          f"axis ({grid.n_pos_axes}), got {len(value)}")
    return value


def _normalized(grid, amp) -> WaveField:
    """The packet amplitude `amp` on every spin component, normalized;
    ConfigError unless its norm on the grid is finite and positive (a packet
    narrower than the grid spacing may miss every point)."""
    psi = WaveField(grid, np.broadcast_to(amp, grid.full_shape))
    norm = psi.norm_sq()
    if not 0 < norm < math.inf:
        raise ConfigError("initial_state.width", f"packets of this width, center "
                          f"and momentum have norm {norm} on the grid, which "
                          f"needs a finite positive norm")
    return psi.normalized()


def build_initial_state(grid, h: HamiltonianSpec, cfg: dict) -> WaveField:
    s = cfg["initial_state"]
    kind = s["kind"]
    coords = grid.meshgrid()
    if kind == "gaussian":
        centers = _per_axis(grid, s["center"], "center")
        widths = _per_axis(grid, s["width"], "width")
        moms = _per_axis(grid, s["momentum"], "momentum")
        amp = np.ones(grid.pos_shape, dtype=np.complex128)
        for ax in range(grid.n_pos_axes):
            amp = amp * _packet(coords[ax], centers[ax], widths[ax], moms[ax])
        return _normalized(grid, amp)
    if kind == "entangled_pair":
        if grid.n_pos_axes != 2:
            raise ConfigError("initial_state.kind",
                              "entangled_pair needs a 2-axis grid")
        width = s["width"]
        if isinstance(width, list):
            raise ConfigError("initial_state.width",
                              "entangled_pair takes one width for both packets")
        if len(s["momenta"]) != len(s["centers"]):
            raise ConfigError("initial_state.momenta",
                              "needs one pair per pair of centers")
        x1, x2 = coords
        amp = np.zeros(grid.pos_shape, dtype=np.complex128)
        for (c1, c2), (k1, k2) in zip(s["centers"], s["momenta"]):
            amp += _packet(x1, c1, width, k1) * _packet(x2, c2, width, k2)
        return _normalized(grid, amp)
    if s["index"] >= grid.total_points:  # kind "eigenstate"
        raise ConfigError("initial_state.index", f"must be below the number of "
                          f"grid states ({grid.total_points}), got {s['index']}")
    _, fields = eigenstates(grid, h, s["index"] + 1)
    return fields[s["index"]]
