"""Workload definitions and config generation for the bohmstat benchmark.

Each workload is a fixed list of shipped experiment configs
(``configs/<name>.json``).  The benchmark copies them into its own work
directory, changing only ``seed``, which it sets to the workload seed given on
its command line; the program under test sees only those generated files.
"""

from __future__ import annotations

import json
import os

WORKLOADS = {
    "field_pipeline": {
        "configs": ["evolve", "continuity", "subsystem_currents", "bohm_full",
                    "bohm_truncated", "equivariance", "entropy_series",
                    "free_expansion"],
        # two passes per run so that every run re-checks bit-identical output
        "min_passes": 2,
        "why": "wave-field side: split-step/CN evolution, currents, subsystem "
               "frames, RK4 trajectories, macrostate binning, field output; "
               "8 process starts",
    },
    "phase_thermo": {
        "configs": ["classical_liouville", "classical_truncated", "scaling",
                    "thermo", "first_law", "cat_mixture"],
        "min_passes": 2,
        "why": "no wave grid and no RK4: Verlet kernel, phase-space binning and "
               "scalar partition-function thermo tables",
    },
    "spin_typicality": {
        "configs": ["typicality"],
        # one pass takes ~40 s on 2 cores; reruns are checked across runs
        "min_passes": 1,
        # Not in BENCHMARK.json: the typicality config's
        # beta_routes_within_25pct check fails on about 1 seed in 9 (e.g.
        # seed 450983506: relative difference 0.276 at n = 12), so a
        # seeded run of it is not reliably correct.  It still runs by name.
        "listed": False,
        "why": "dense linear algebra in spinchain: TFIM build and eigh up to "
               "4096^2, one process, sensitive to BLAS threads",
    },
}

ALL_CONFIGS = sorted(c for w in WORKLOADS.values() for c in w["configs"])
# the workloads BENCHMARK.json names
LISTED = [name for name, w in WORKLOADS.items() if w.get("listed", True)]


def generate_configs(config_dir: str, out_dir: str, workload: str,
                     seed: int) -> dict:
    """Write the workload's configs with `seed` set; returns {name: path}."""
    os.makedirs(out_dir, exist_ok=True)
    paths = {}
    for name in WORKLOADS[workload]["configs"]:
        with open(os.path.join(config_dir, f"{name}.json")) as f:
            cfg = json.load(f)
        cfg["seed"] = int(seed)
        path = os.path.join(out_dir, f"{name}.json")
        with open(path, "w") as f:
            json.dump(cfg, f, indent=1, sort_keys=True)
        paths[name] = path
    return paths
