"""Named, reproducible experiments over the library modules.

Each runner takes (validated config, output directory, seed) and returns an
ExperimentResult holding headline metrics, built-in pass/fail checks, and the
list of files it wrote.  All randomness flows from the single seed.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass, field

import numpy as np

from . import bohmian as bm
from . import classical_phase as cp
from . import statmech as sm
from . import spinchain as sc
from .configio import (EXPERIMENTS_META, build_grid, build_hamiltonian,
                       build_initial_state)
from .currents import FieldFrame, continuity_residual, velocity
from .errors import ConfigError
from .lattice import write_field
from .schrodinger import energy, evolve
from .subsystem import (SubsystemPartition, reduced_density_matrix,
                        subsystem_frame, truncated_current_from_rdm,
                        write_rdm)


@dataclass
class ExperimentResult:
    metrics: dict
    checks: dict = field(default_factory=dict)
    files: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(self.checks.values())


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        w.writerows(rows)


def _evolved(cfg):
    grid = build_grid(cfg)
    h = build_hamiltonian(cfg)
    psi0 = build_initial_state(grid, h, cfg)
    ev = cfg["evolution"]
    frames = evolve(psi0, h, float(ev.get("t_final", 1.0)),
                    int(ev.get("frame_stride", 1)))
    return grid, h, frames


def _field_frames(frames, h):
    return [FieldFrame.from_wavefield(f, h) for f in frames]


def _partition(cfg, grid) -> SubsystemPartition:
    try:
        return SubsystemPartition(tuple(cfg["partition"].get("a_particles", (0,))),
                                  grid.spec.particle_count)
    except Exception as exc:
        raise ConfigError("partition.a_particles", str(exc)) from exc


def _trajectories_csv(path, ens, max_cols=32):
    k = min(max_cols, ens.samples)
    header = ["time"] + [f"x_{i:04d}" for i in range(k)]
    rows = [[float(t)] + [float(v) for v in ens.paths[:k, fi, 0]]
            for fi, t in enumerate(ens.times)]
    _write_csv(path, header, rows)


# ---------------------------------------------------------------------------
# quantum field experiments

def run_evolve(cfg, outdir, seed):
    grid, h, frames = _evolved(cfg)
    files, times = [], []
    for i, f in enumerate(frames):
        name = f"psi_{i:04d}.fld"
        write_field(os.path.join(outdir, name), f.amplitudes, grid, f.time)
        files.append(name)
        times.append(float(f.time))
    with open(os.path.join(outdir, "frames.json"), "w") as fh:
        json.dump({"times": times, "files": files}, fh, indent=1)
    n0, n1 = frames[0].norm_sq(), frames[-1].norm_sq()
    metrics = {
        "frames": len(frames),
        "norm_initial": n0,
        "norm_final": n1,
        "energy_initial": energy(frames[0], h),
        "energy_final": energy(frames[-1], h),
    }
    checks = {"norm_conserved": abs(n1 - n0) < 1e-8}
    return ExperimentResult(metrics, checks, files + ["frames.json"])


def run_continuity(cfg, outdir, seed):
    grid, h, frames = _evolved(cfg)
    if len(frames) < 3:
        raise ConfigError("evolution.t_final", "need at least three frames")
    ffs = _field_frames(frames, h)
    rows = []
    for i in range(1, len(ffs) - 1):
        ab, rel = continuity_residual(ffs[i - 1:i + 2])
        rows.append((float(ffs[i].time), ab, rel))
    _write_csv(os.path.join(outdir, "continuity.csv"),
               ["time", "abs_residual", "rel_residual"], rows)
    last = ffs[-1]
    write_field(os.path.join(outdir, "rho.fld"), last.rho.values, grid, last.time)
    write_field(os.path.join(outdir, "j.fld"), last.currents.components, grid, last.time)
    write_field(os.path.join(outdir, "v.fld"), velocity(last).components, grid, last.time)
    max_rel = max(r[2] for r in rows)
    metrics = {"max_rel_residual": max_rel, "triples": len(rows)}
    checks = {"rel_residual_below_1e-4": max_rel < 1e-4}
    return ExperimentResult(metrics, checks,
                            ["continuity.csv", "rho.fld", "j.fld", "v.fld"])


def run_subsystem_currents(cfg, outdir, seed):
    grid, h, frames = _evolved(cfg)
    part = _partition(cfg, grid)
    sfs = [subsystem_frame(f, h, part) for f in frames[-3:]]
    if len(sfs) < 3:
        raise ConfigError("evolution.t_final", "need at least three frames")
    _, rel_a = continuity_residual(sfs)
    last = frames[-1]
    sf = subsystem_frame(last, h, part)
    rdm = reduced_density_matrix(last, part)
    j_op = truncated_current_from_rdm(rdm, h, part)
    scale = float(np.max(np.abs(sf.currents.components)))
    dual = float(np.max(np.abs(sf.currents.components - j_op.components)) / scale)
    sub = sf.rho.grid
    write_field(os.path.join(outdir, "rho_a.fld"), sf.rho.values, sub, last.time)
    write_field(os.path.join(outdir, "j_tr_integral.fld"), sf.currents.components,
                sub, last.time)
    write_field(os.path.join(outdir, "j_tr_operator.fld"), j_op.components,
                sub, last.time)
    write_rdm(os.path.join(outdir, "rho_a.rdm"), rdm)
    metrics = {
        "dual_route_rel_error": dual,
        "truncated_rel_residual": rel_a,
        "rdm_trace": rdm.trace(),
        "rdm_purity": rdm.purity(),
        "rdm_hermiticity_defect": rdm.hermiticity_defect(),
    }
    checks = {
        "dual_route_below_1e-10": dual < 1e-10,
        "truncated_residual_below_1e-3": rel_a < 1e-3,
    }
    return ExperimentResult(metrics, checks,
                            ["rho_a.fld", "j_tr_integral.fld",
                             "j_tr_operator.fld", "rho_a.rdm"])


def _bohm_setup(cfg, seed):
    grid, h, frames = _evolved(cfg)
    ffs = _field_frames(frames, h)
    vels = [velocity(f) for f in ffs]
    ens_cfg = cfg["ensemble"]
    count = int(ens_cfg.get("samples", 10_000))
    substeps = int(ens_cfg.get("substeps", 2))
    bins = int(ens_cfg.get("bins", 32))
    x0 = bm.sample_initial(ffs[0].rho, count, seed)
    return grid, h, frames, ffs, vels, x0, substeps, bins


def run_bohm_full(cfg, outdir, seed):
    grid, h, frames, ffs, vels, x0, substeps, bins = _bohm_setup(cfg, seed)
    ens = bm.integrate_trajectories(vels, x0, substeps, "full", seed)
    bm.write_trajectories(os.path.join(outdir, "trajectories.trj"), ens)
    _trajectories_csv(os.path.join(outdir, "trajectories.csv"), ens)
    tv = bm.equivariance_distance(ens.paths[:, -1, :], ffs[-1].rho, bins)
    metrics = {"samples": ens.samples, "tv_final": tv, "frames": len(frames)}
    return ExperimentResult(metrics, {}, ["trajectories.trj", "trajectories.csv"])


def run_bohm_truncated(cfg, outdir, seed):
    grid, h, frames, ffs, vels, x0, substeps, bins = _bohm_setup(cfg, seed)
    part = _partition(cfg, grid)
    sfs = [subsystem_frame(f, h, part) for f in frames]
    vtr = [velocity(s) for s in sfs]
    a_axes = [a for p in part.a_particles for a in grid.particle_axes(p)]
    full = bm.integrate_trajectories(vels, x0, substeps, "full", seed)
    trunc = bm.integrate_trajectories(vtr, x0[:, a_axes], substeps, "truncated", seed)
    bm.write_trajectories(os.path.join(outdir, "full.trj"), full)
    bm.write_trajectories(os.path.join(outdir, "truncated.trj"), trunc)
    tv = bm.equivariance_distance(trunc.paths[:, -1, :], sfs[-1].rho, bins)
    div = np.linalg.norm(full.paths[:, -1, a_axes] - trunc.paths[:, -1, :], axis=1)
    frac = float(np.mean(div > 10 * grid.dx))
    metrics = {
        "samples": full.samples,
        "tv_truncated_final": tv,
        "divergence_frac_gt_10dx": frac,
        "divergence_median": float(np.median(div)),
    }
    checks = {
        "tv_below_0.05": tv < 0.05,
        "divergence_frac_at_least_0.05": frac >= 0.05,
    }
    return ExperimentResult(metrics, checks, ["full.trj", "truncated.trj"])


def run_equivariance(cfg, outdir, seed):
    grid, h, frames, ffs, vels, x0, substeps, bins = _bohm_setup(cfg, seed)
    ens = bm.integrate_trajectories(vels, x0, substeps, "full", seed)
    rows = [(float(ens.times[i]),
             bm.equivariance_distance(ens.paths[:, i, :], ffs[i].rho, bins))
            for i in range(len(ens.times))]
    _write_csv(os.path.join(outdir, "equivariance.csv"), ["time", "tv_distance"], rows)
    bm.write_trajectories(os.path.join(outdir, "trajectories.trj"), ens)
    # negative control: velocity field frozen at t = 0
    frozen = [type(v)(v.grid, vels[0].components, v.time) for v in vels]
    ctrl = bm.integrate_trajectories(frozen, x0, substeps, "full", seed)
    tv_ctrl = bm.equivariance_distance(ctrl.paths[:, -1, :], ffs[-1].rho, bins)
    tv_final = rows[-1][1]
    metrics = {"tv_final": tv_final, "tv_frozen_control": tv_ctrl,
               "samples": ens.samples}
    checks = {"tv_below_0.05": tv_final < 0.05,
              "control_above_0.2": tv_ctrl > 0.2}
    if grid.n_pos_axes == 1:
        inv = bm.order_inversions(ens)
        metrics["order_inversions"] = inv
        checks["no_order_inversions"] = inv == 0
    return ExperimentResult(metrics, checks,
                            ["equivariance.csv", "trajectories.trj"])


# ---------------------------------------------------------------------------
# classical phase-space experiments

def _classical_spec(cfg) -> cp.ClassicalHSpec:
    c = cfg["classical"]
    try:
        return cp.ClassicalHSpec(tuple(c.get("masses", (1.0,))),
                                 c.get("omegas", 1.0),
                                 float(c.get("kappa", 0.0)))
    except Exception as exc:
        raise ConfigError("classical", str(exc)) from exc


def run_classical_liouville(cfg, outdir, seed):
    c = cfg["classical"]
    h = _classical_spec(cfg)
    if h.kappa != 0.0:
        raise ConfigError("classical.kappa",
                          "the analytic backflow needs uncoupled oscillators")
    beta = float(c.get("beta", 1.0))
    x, p = cp.sample_thermal(h, beta, int(c.get("samples", 2000)), seed)
    ens = cp.evolve_ensemble(h, x, p, float(c.get("dt", 2e-4)),
                             int(c.get("steps", 10_000)),
                             int(c.get("store_stride", 1000)), seed)
    m, om = np.asarray(h.masses), np.asarray(h.omegas)
    rho0 = cp.gaussian_phase_density(1.0 / np.sqrt(beta * m * om**2),
                                     np.sqrt(m / beta))
    dev = cp.liouville_constancy(ens, rho0, cp.harmonic_backflow)
    incomp = cp.incompressibility_check(h, x, p)
    damping = float(c.get("damping", 0.1))
    ctrl = cp.incompressibility_check(h, x, p, damping=damping)
    cp.write_ensemble(os.path.join(outdir, "ensemble.ens"), ens)
    metrics = {"max_density_deviation": dev, "incompressibility": incomp,
               "incompressibility_damped_control": ctrl,
               "samples": ens.samples}
    checks = {"deviation_below_1e-5": dev < 1e-5,
              "incompressibility_exact_zero": incomp == 0.0,
              "damped_control_positive": ctrl > 0.0}
    return ExperimentResult(metrics, checks, ["ensemble.ens"])


def run_classical_truncated(cfg, outdir, seed):
    c = cfg["classical"]
    h = _classical_spec(cfg)
    if h.kappa == 0.0:
        raise ConfigError("classical.kappa",
                          "truncated-velocity check needs a coupled pair")
    beta = float(c.get("beta", 1.0))
    uncoupled = cp.ClassicalHSpec(h.masses, h.omegas, 0.0)
    x, p = cp.sample_thermal(uncoupled, beta, int(c.get("samples", 200_000)), seed)
    binned = cp.truncated_phase_velocity(h, x, p, a_particle=0)
    # closed-form conditional mean: with independent Gaussian sampling the
    # environment coordinate averages to zero, leaving
    # dp_A/dt = -(m w^2 + kappa) x_A; evaluated with within-bin means of x_A
    # to avoid bin-center bias
    m0, w0 = h.masses[0], h.omegas[0]
    ix = np.clip(np.digitize(x[:, 0], binned.x_edges) - 1, 0,
                 len(binned.x_edges) - 2)
    ip = np.clip(np.digitize(p[:, 0], binned.p_edges) - 1, 0,
                 len(binned.p_edges) - 2)
    flat = ix * (len(binned.p_edges) - 1) + ip
    cnt = np.bincount(flat, minlength=binned.counts.size)
    oracle_vp = (np.bincount(flat, weights=-(m0 * w0**2 + h.kappa) * x[:, 0],
                             minlength=cnt.size)
                 / np.maximum(cnt, 1)).reshape(binned.counts.shape)
    occ = binned.counts >= binned.min_count
    within = np.abs(binned.mean_vp - oracle_vp)[occ] <= 3 * binned.se_vp[occ]
    frac = float(np.mean(within))
    rows = []
    xc = 0.5 * (binned.x_edges[:-1] + binned.x_edges[1:])
    pc = 0.5 * (binned.p_edges[:-1] + binned.p_edges[1:])
    for i in range(len(xc)):
        for j in range(len(pc)):
            if occ[i, j]:
                rows.append((xc[i], pc[j], int(binned.counts[i, j]),
                             binned.mean_vp[i, j], binned.se_vp[i, j],
                             oracle_vp[i, j]))
    _write_csv(os.path.join(outdir, "binned_velocity.csv"),
               ["x_a", "p_a", "count", "mean_dpdt", "se_dpdt", "oracle_dpdt"],
               rows)
    metrics = {"frac_within_3se": frac, "occupied_bins": int(occ.sum()),
               "samples": x.shape[0]}
    checks = {"frac_within_3se_at_least_0.95": frac >= 0.95}
    return ExperimentResult(metrics, checks, ["binned_velocity.csv"])


def run_scaling(cfg, outdir, seed):
    s = cfg["scaling"]
    sizes = s.get("sizes", [16, 32, 64, 128, 256, 512, 1024])
    nsamples = int(s.get("samples", 800))
    beta = float(s.get("beta", 1.0))
    omega = float(s.get("omega", 1.0))
    rows, slope = cp.ensemble_average_scaling(
        cp.total_energy_observable(omega=omega),
        cp.thermal_oscillator_sampler(beta, omega=omega),
        sizes, nsamples, seed)
    _write_csv(os.path.join(outdir, "scaling.csv"),
               ["size", "mean", "relative_std"], rows)
    metrics = {"slope": slope, "sizes": list(int(v) for v in sizes)}
    checks = {"slope_is_minus_half": abs(slope + 0.5) <= 0.05}
    return ExperimentResult(metrics, checks, ["scaling.csv"])


# ---------------------------------------------------------------------------
# entropy experiments

def _entropy_run(cfg, outdir, seed):
    grid, h, frames, ffs, vels, x0, substeps, bins = _bohm_setup(cfg, seed)
    ens = bm.integrate_trajectories(vels, x0, substeps, "full", seed)
    mc = cfg["macrostates"]
    edges = mc.get("edges")
    if edges is None or len(edges) < 2:
        raise ConfigError("macrostates.edges", "need at least two edges")
    p_cut = float(mc.get("p_cutoff", 4 * np.pi))
    delta_z = float(mc.get("delta_z", 2 * np.pi))
    decomp = sm.MacrostateDecomposition.from_intervals_1d(edges, p_cut)
    lengths = np.diff(np.asarray(edges, dtype=float))
    s_b_of_cell = np.log(lengths * 2 * p_cut / delta_z)
    nt = len(ens.times)
    cell_idx = np.empty((ens.samples, nt), dtype=int)
    for k in range(ens.samples):
        for t in range(nt):
            cell_idx[k, t] = sm.macrostate_of(ens.paths[k, t], decomp)
    s_qb = np.log(np.asarray(decomp.dims, dtype=float))[cell_idx]
    s_b = s_b_of_cell[cell_idx]
    cg = np.empty(nt)
    for t in range(nt):
        masses = np.bincount(cell_idx[:, t], minlength=len(decomp.dims))
        cg[t] = sm.coarse_grained_gibbs(masses, decomp.dims)
    rows = [(float(ens.times[t]), float(s_qb[:, t].mean()),
             float(s_b[:, t].mean()), float(cg[t])) for t in range(nt)]
    _write_csv(os.path.join(outdir, "entropy.csv"),
               ["time", "s_qb_mean", "s_b_mean", "s_g_coarse"], rows)
    bm.write_trajectories(os.path.join(outdir, "trajectories.trj"), ens)
    return ens, s_qb, cg


def run_entropy_series(cfg, outdir, seed):
    ens, s_qb, cg = _entropy_run(cfg, outdir, seed)
    metrics = {"samples": ens.samples, "frames": len(ens.times),
               "s_qb_initial_mean": float(s_qb[:, 0].mean()),
               "s_qb_final_mean": float(s_qb[:, -1].mean()),
               "s_g_coarse_initial": float(cg[0]),
               "s_g_coarse_final": float(cg[-1])}
    return ExperimentResult(metrics, {}, ["entropy.csv", "trajectories.trj"])


def run_free_expansion(cfg, outdir, seed):
    ens, s_qb, cg = _entropy_run(cfg, outdir, seed)
    frac = float(np.mean(s_qb[:, -1] > s_qb[:, 0]))
    worst_drop = float(np.min(np.diff(cg))) if len(cg) > 1 else 0.0
    metrics = {"samples": ens.samples,
               "frac_entropy_growth": frac,
               "s_g_coarse_worst_step": worst_drop,
               "s_g_coarse_initial": float(cg[0]),
               "s_g_coarse_final": float(cg[-1])}
    tol = 1e-6 * max(1.0, float(cg[-1] - cg[0]))
    checks = {"growth_frac_at_least_0.9": frac >= 0.9,
              "coarse_gibbs_nondecreasing": worst_drop >= -tol}
    return ExperimentResult(metrics, checks, ["entropy.csv", "trajectories.trj"])


# ---------------------------------------------------------------------------
# canonical thermodynamics

def _spectrum_family(t):
    family = t.get("family", "box")
    mass = float(t.get("mass", 50.0))
    levels = int(t.get("levels", 800))
    omega = float(t.get("omega", 1.0))
    gap = float(t.get("gap", 1.0))
    if family == "box":
        return lambda v: sm.box_spectrum(v, mass=mass, count=levels)
    if family == "harmonic":
        return lambda v: sm.Spectrum(sm.harmonic_spectrum(omega, levels).levels,
                                     volume=v, truncated=True, source="harmonic")
    if family == "two_level":
        return lambda v: sm.Spectrum([0.0, gap / v**2], volume=v,
                                     truncated=False, source="two_level")
    raise ConfigError("thermo.family", f"unknown family {family!r}")


def _table_grids(t, refine=1):
    def axis(lo, hi, count):
        count = refine * (count - 1) + 1
        return np.linspace(lo, hi, count)

    v = axis(float(t.get("v_lo", 0.8)), float(t.get("v_hi", 1.2)),
             int(t.get("v_count", 61)))
    tt = axis(float(t.get("t_lo", 0.5)), float(t.get("t_hi", 2.0)),
              int(t.get("t_count", 241)))
    return v, tt


def _table_csv(path, tab):
    rows = []
    for i, v in enumerate(tab.v_grid):
        for j, t in enumerate(tab.t_grid):
            rows.append((v, t, tab.log_z[i, j], tab.free_energy[i, j],
                         tab.energy[i, j], tab.entropy[i, j],
                         tab.pressure[i, j], tab.energy_direct[i, j],
                         tab.entropy_direct[i, j]))
    _write_csv(path, ["volume", "temperature", "log_z", "free_energy",
                      "energy", "entropy", "pressure", "energy_direct",
                      "entropy_direct"], rows)


def run_thermo(cfg, outdir, seed):
    t = cfg["thermo"]
    spec_of_v = _spectrum_family(t)
    v_grid, t_grid = _table_grids(t)
    tab = sm.thermo_table(spec_of_v, v_grid, t_grid)
    _table_csv(os.path.join(outdir, "thermo.csv"), tab)
    inner = np.s_[1:-1, 1:-1]
    e_rel = float(np.nanmax(np.abs(
        (tab.energy - tab.energy_direct) / tab.energy_direct)[inner]))
    s_rel = float(np.nanmax(np.abs(
        (tab.entropy - tab.entropy_direct) / tab.entropy_direct)[inner]))
    metrics = {"max_energy_rel_error": e_rel, "max_entropy_rel_error": s_rel,
               "family": t.get("family", "box"),
               "grid": [len(v_grid), len(t_grid)]}
    checks = {}
    if t.get("family", "box") == "box":
        checks = {"energy_dual_route_below_1e-4": e_rel < 1e-4,
                  "entropy_dual_route_below_1e-4": s_rel < 1e-4}
    return ExperimentResult(metrics, checks, ["thermo.csv"])


def run_first_law(cfg, outdir, seed):
    t = cfg["thermo"]
    spec_of_v = _spectrum_family(t)
    refine = int(t.get("refine", 2))
    base = sm.thermo_table(spec_of_v, *_table_grids(t))
    res, stats = sm.first_law_residual(base)
    fine = sm.thermo_table(spec_of_v, *_table_grids(t, refine))
    _, stats_fine = sm.first_law_residual(fine)
    _write_csv(os.path.join(outdir, "first_law.csv"),
               ["edge_index", "residual"],
               [(i, r) for i, r in enumerate(res)])
    ratio = stats["median"] / stats_fine["median"] if stats_fine["median"] > 0 \
        else np.inf
    metrics = {"median_residual": stats["median"],
               "max_residual": stats["max"],
               "median_isochoric": stats["median_isochoric"],
               "median_refined": stats_fine["median"],
               "refinement_ratio": float(ratio),
               "refine_factor": refine}
    checks = {"median_below_1e-3": stats["median"] < 1e-3,
              "second_order_refinement": ratio >= refine**2 * 0.75}
    return ExperimentResult(metrics, checks, ["first_law.csv"])


def run_typicality(cfg, outdir, seed):
    t = cfg["typicality"]
    sizes = [int(v) for v in t.get("sizes", [6, 8, 10, 12])]
    reports = []
    for n in sizes:
        reports.append(sc.canonical_typicality(
            n, n_a=int(t.get("n_a", 1)),
            j_coupling=float(t.get("j", 1.0)),
            g_field=float(t.get("g", 1.0)),
            ab_coupling=float(t.get("ab_coupling", 0.2)),
            center_quantile=float(t.get("center_quantile", 0.2)),
            min_levels=int(t.get("min_levels", 30)),
            trials=int(t.get("trials", 20)), seed=seed))
    rows = [(r["n"], r["window_dim"], r["beta_entropy"], r["beta_fit_median"],
             r["median_distance_fit"], r["median_distance_entropy_beta"])
            for r in reports]
    _write_csv(os.path.join(outdir, "typicality.csv"),
               ["n", "window_dim", "beta_entropy", "beta_fit_median",
                "median_distance_fit", "median_distance_entropy_beta"], rows)
    with open(os.path.join(outdir, "typicality.json"), "w") as f:
        json.dump(reports, f, indent=1)
    medians = [r["median_distance_fit"] for r in reports]
    from scipy.stats import spearmanr

    rho = float(spearmanr(sizes, medians).statistic) if len(sizes) > 2 else (
        -1.0 if medians[-1] < medians[0] else 1.0)
    metrics = {"sizes": sizes, "median_distances_fit": medians,
               "spearman_rho": rho}
    checks = {"distance_trend_decreasing": rho < 0}
    by_n = {r["n"]: r for r in reports}
    if 10 in by_n:
        d10 = by_n[10]["median_distance_fit"]
        metrics["median_distance_n10"] = d10
        checks["median_distance_n10_below_0.1"] = d10 < 0.1
    if 12 in by_n:
        r12 = by_n[12]
        rel = abs(r12["beta_entropy"] - r12["beta_fit_median"]) / abs(
            r12["beta_fit_median"])
        metrics["beta_route_rel_diff_n12"] = rel
        checks["beta_routes_within_25pct"] = rel <= 0.25
    return ExperimentResult(metrics, checks, ["typicality.csv", "typicality.json"])


def run_cat_mixture(cfg, outdir, seed):
    c = cfg["cat"]
    omega = float(c.get("omega", 1.0))
    beta_cold = float(c.get("beta_cold", 2.0))
    beta_warm = float(c.get("beta_warm", 0.5))
    levels = int(c.get("levels", 400))
    spec = sm.harmonic_spectrum(omega, levels)
    _, p_cold, _ = sm.partition_function(spec, beta_cold)
    _, p_warm, _ = sm.partition_function(spec, beta_warm)
    s_cold = sm.von_neumann_entropy(p_cold)
    s_warm = sm.von_neumann_entropy(p_warm)
    # two macroscopically distinct branches have orthogonal supports, so the
    # 50/50 mixture is block diagonal in the branch basis
    p_mix = np.concatenate([0.5 * p_cold, 0.5 * p_warm])
    s_mix = sm.von_neumann_entropy(p_mix)
    gap = abs(s_mix - 0.5 * (s_cold + s_warm))
    metrics = {"s_cold": s_cold, "s_warm": s_warm, "s_mix": s_mix,
               "mixing_entropy": gap,
               "analytic_cold": sm.harmonic_thermal_entropy(omega, beta_cold),
               "analytic_warm": sm.harmonic_thermal_entropy(omega, beta_warm)}
    checks = {"mixture_within_k_ln2": gap <= np.log(2.0) + 1e-12}
    return ExperimentResult(metrics, checks, [])


RUNNERS = {
    "evolve": run_evolve,
    "continuity": run_continuity,
    "subsystem_currents": run_subsystem_currents,
    "bohm_full": run_bohm_full,
    "bohm_truncated": run_bohm_truncated,
    "equivariance": run_equivariance,
    "classical_liouville": run_classical_liouville,
    "classical_truncated": run_classical_truncated,
    "scaling": run_scaling,
    "entropy_series": run_entropy_series,
    "free_expansion": run_free_expansion,
    "thermo": run_thermo,
    "first_law": run_first_law,
    "typicality": run_typicality,
    "cat_mixture": run_cat_mixture,
}

assert set(RUNNERS) == set(EXPERIMENTS_META)
