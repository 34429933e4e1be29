"""End-to-end acceptance gate.

Thirteen numbered criteria, each printing a single PASS/FAIL line.  Wherever a
criterion corresponds to a shipped experiment, the shipped config under
configs/ is what gets executed, so a green run here certifies those files too.
Run with `pytest -s tests/test_acceptance.py` to see the lines as they come.
"""

import json
import os

import numpy as np
import pytest

from bohmstat import statmech as sm
from bohmstat.configio import (build_grid, build_hamiltonian,
                               build_initial_state, load_config,
                               validate_config)
from bohmstat.currents import FieldFrame, continuity_residual
from bohmstat.experiments import RUNNERS
from bohmstat.schrodinger import evolve
from bohmstat.subsystem import (SubsystemPartition, reduced_density_matrix,
                                subsystem_frame, truncated_current_from_rdm)

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")

_cache = {}


def run_shipped(name):
    """Execute a shipped experiment config once, caching across criteria."""
    if name not in _cache:
        cfg = validate_config(load_config(os.path.join(CONFIG_DIR,
                                                       f"{name}.json")))
        outdir = os.path.join(os.environ.get("PYTEST_ACCEPT_TMP", "/tmp"),
                              f"accept_{name}")
        os.makedirs(outdir, exist_ok=True)
        _cache[name] = RUNNERS[name](cfg, outdir, cfg["seed"])
    return _cache[name]


def report(num, ok, detail):
    line = f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {detail}"
    print(line, flush=True)
    assert ok, line


def evolved_frames(cfg):
    cfg = validate_config(cfg)
    grid, h = build_grid(cfg), build_hamiltonian(cfg)
    psi0 = build_initial_state(grid, h, cfg)
    ev = cfg["evolution"]
    return grid, h, list(evolve(psi0, h, ev["t_final"], ev["frame_stride"]))


def test_criterion_01_closed_system_continuity():
    cfg = load_config(os.path.join(CONFIG_DIR, "continuity.json"))
    worst_rel, worst_ratio = 0.0, np.inf
    centers = (100, 200, 300, 400)
    for potential, state in (
            (cfg["hamiltonian"]["potential"], cfg["initial_state"]),
            ([{"kind": "harmonic", "omega": 1.0}],
             {"kind": "gaussian", "center": 3.0, "width": 1.0})):
        case = dict(cfg)
        case["hamiltonian"] = dict(cfg["hamiltonian"], potential=potential)
        case["initial_state"] = state
        case["evolution"] = dict(cfg["evolution"], frame_stride=1)
        _, h, frames = evolved_frames(case)
        ffs = {i + d: FieldFrame.from_wavefield(frames[i + d], h)
               for i in centers for d in (-2, -1, 0, 1, 2)}
        rel_h, rel_2h = (max(continuity_residual([ffs[i - s], ffs[i],
                                                  ffs[i + s]])[1]
                             for i in centers) for s in (1, 2))
        worst_rel = max(worst_rel, rel_h)
        worst_ratio = min(worst_ratio, rel_2h / rel_h)
    ok = worst_rel < 1e-4 and worst_ratio >= 3.5
    report(1, ok, f"continuity residual {worst_rel:.3g} < 1e-4, "
                  f"halving ratio {worst_ratio:.2f} >= 3.5")


@pytest.fixture(scope="module")
def entangled_subsystem():
    cfg = load_config(os.path.join(CONFIG_DIR, "subsystem_currents.json"))
    grid, h, frames = evolved_frames(cfg)
    part = SubsystemPartition(tuple(cfg["partition"]["a_particles"]),
                              grid.spec.particle_count)
    sfs = [subsystem_frame(FieldFrame.from_wavefield(f, h), part)
           for f in frames[-5:]]
    return grid, h, frames, part, sfs


def test_criterion_02_truncated_continuity(entangled_subsystem):
    _, _, _, _, sfs = entangled_subsystem
    rel_h = continuity_residual(sfs[2:5])[1]
    rel_2h = continuity_residual([sfs[0], sfs[2], sfs[4]])[1]
    ratio = rel_2h / rel_h
    ok = rel_h < 1e-3 and ratio >= 3.5
    report(2, ok, f"truncated residual {rel_h:.3g} < 1e-3, "
                  f"halving ratio {ratio:.2f} >= 3.5")


def test_criterion_03_dual_route_identity(entangled_subsystem):
    _, h, frames, part, sfs = entangled_subsystem
    rdm = reduced_density_matrix(frames[-1], part)
    j_op = truncated_current_from_rdm(rdm, h, part)
    j_int = sfs[-1].currents.components
    rel = float(np.max(np.abs(j_int - j_op.components))
                / np.max(np.abs(j_int)))
    ok = rel < 1e-10
    report(3, ok, f"integral vs operator route sup-norm error {rel:.3g} < 1e-10")


def test_criterion_04_equivariance():
    r = run_shipped("equivariance")
    tv, ctrl = r.metrics["tv_final"], r.metrics["tv_frozen_control"]
    ok = tv < 0.05 and ctrl > 0.2
    report(4, ok, f"TV {tv:.4f} < 0.05 with frozen control {ctrl:.3f} > 0.2")


def test_criterion_05_truncated_trajectories():
    r = run_shipped("bohm_truncated")
    tv = r.metrics["tv_truncated_final"]
    frac = r.metrics["divergence_frac_gt_10dx"]
    ok = tv < 0.05 and frac >= 0.05
    report(5, ok, f"truncated TV {tv:.4f} < 0.05, "
                  f"divergence fraction {frac:.3f} >= 0.05")


def test_criterion_06_classical_liouville():
    r = run_shipped("classical_liouville")
    dev = r.metrics["max_density_deviation"]
    incomp = r.metrics["incompressibility"]
    ctrl = r.metrics["incompressibility_damped_control"]
    ok = dev < 1e-5 and incomp == 0.0 and ctrl > 0.0
    report(6, ok, f"density deviation {dev:.3g} < 1e-5, divergence {incomp} "
                  f"exactly 0, damped control {ctrl:.3g} > 0")


def test_criterion_07_truncated_phase_velocity():
    r = run_shipped("classical_truncated")
    frac = r.metrics["frac_within_3se"]
    ok = frac >= 0.95
    report(7, ok, f"{frac:.3f} of {r.metrics['occupied_bins']} occupied bins "
                  f"within 3 SE of the conditional mean (>= 0.95)")


def test_criterion_08_lln_scaling():
    r = run_shipped("scaling")
    slope = r.metrics["slope"]
    ok = abs(slope + 0.5) <= 0.05
    report(8, ok, f"fluctuation exponent {slope:.4f} = -0.5 +- 0.05")


def test_criterion_09_entropy_identities(coarse_gibbs):
    pure_ok = abs(sm.von_neumann_entropy([1.0, 0.0])) < 1e-12
    qubit_ok = sm.von_neumann_entropy(np.eye(2) / 2) == np.log(2)
    beta, omega = 0.8, 1.0
    _, p, _ = sm.partition_function(sm.harmonic_spectrum(omega, 400), beta)
    harm_ok = abs(sm.von_neumann_entropy(p)
                  - sm.harmonic_thermal_entropy(omega, beta)) < 1e-8
    samples = np.random.default_rng(0).standard_normal(2000)
    edges = np.linspace(-5, 5, 21)
    shift_ok = abs(coarse_gibbs(samples, edges, 3.0)
                   - (coarse_gibbs(samples, edges, 1.0) - np.log(3.0))) < 1e-12
    cat = run_shipped("cat_mixture")
    cat_ok = cat.metrics["mixing_entropy"] <= np.log(2) + 1e-12
    ok = pure_ok and qubit_ok and harm_ok and shift_ok and cat_ok
    report(9, ok, "pure=0, qubit=ln2, harmonic thermal to 1e-8, "
                  "dz-shift exact, mixture gap "
                  f"{cat.metrics['mixing_entropy']:.4f} <= ln2")


def test_criterion_10_entropy_growth():
    r = run_shipped("free_expansion")
    frac = r.metrics["frac_entropy_growth"]
    worst = r.metrics["s_g_exact_worst_step"]
    ok = r.passed and frac >= 0.9
    report(10, ok, f"{frac:.3f} of trajectories grow in entropy (>= 0.9), "
                   f"exact coarse Gibbs worst step {worst:.3g} "
                   f"(non-decreasing)")


def test_criterion_11_thermodynamics():
    t = run_shipped("thermo")
    e_rel = t.metrics["max_energy_rel_error"]
    s_rel = t.metrics["max_entropy_rel_error"]
    fl = run_shipped("first_law")
    med = fl.metrics["median_residual"]
    ratio = fl.metrics["refinement_ratio"]
    beta, omega = 1.3, 1.0
    spec = sm.harmonic_spectrum(omega, 200)
    _, p, _ = sm.partition_function(spec, beta)
    e_h = float(np.sum(spec.levels * p))
    coth_rel = abs(e_h - sm.harmonic_thermal_energy(omega, beta)) \
        / sm.harmonic_thermal_energy(omega, beta)
    ok = (e_rel < 1e-4 and s_rel < 1e-4 and med < 1e-3
          and fl.checks["second_order_refinement"] and coth_rel < 1e-4)
    report(11, ok, f"dual-route E {e_rel:.3g} / S {s_rel:.3g} < 1e-4, "
                   f"first-law median {med:.3g} < 1e-3 (refine ratio "
                   f"{ratio:.2f}), coth energy {coth_rel:.3g} < 1e-4")


def test_criterion_12_thermal_box_occupation(thermal_box):
    rep = thermal_box(length=1.0, temperature=1000.0, levels=96, grid_n=512,
                      samples=10_000, seed=0)
    ok = (rep["max_abs_current"] <= 1e-12 and rep["all_inside"]
          and rep["spread_fraction"] >= 0.99)
    report(12, ok, f"thermal current {rep['max_abs_current']:.3g} <= 1e-12, "
                   f"all samples inside, spread {rep['spread_fraction']:.4f} "
                   f">= 0.99 L")


def test_criterion_13_canonical_typicality():
    r = run_shipped("typicality")
    d10 = r.metrics["median_distance_n10"]
    rho = r.metrics["spearman_rho"]
    rel = r.metrics["beta_route_rel_diff_n12"]
    ok = d10 < 0.1 and rho < 0 and rel <= 0.25
    report(13, ok, f"median distance {d10:.4f} < 0.1 at 10 spins, trend "
                   f"rho {rho:.2f} < 0, beta routes differ {rel:.3f} <= 0.25")
