"""Named, reproducible experiments over the library modules.

Each runner takes (validated config, output directory, seed) and returns an
ExperimentResult holding headline metrics, built-in pass/fail checks, and the
list of files it wrote.  All randomness flows from the single seed.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from . import bohmian as bm
from . import classical_phase as cp
from . import statmech as sm
from . import spinchain as sc
from .configio import (EXPERIMENTS_META, build_grid, build_hamiltonian,
                       build_initial_state)
from .currents import FieldFrame, continuity_residual, velocity
from .errors import ConfigError, MemoryBudgetExceeded, PartitionMismatch
from .lattice import VectorField, write_field
from .schrodinger import eigenstate_bytes, energy, evolve, frame_count
from .subsystem import (SubsystemPartition, reduced_density_matrix,
                        subsystem_frame, truncated_current_from_rdm, write_rdm)


@dataclass
class ExperimentResult:
    metrics: dict
    checks: dict = field(default_factory=dict)
    files: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(self.checks.values())


def _write_csv(path, header, rows):
    """The bytes csv.writer writes for plain header names and rows of Python
    numbers (repr of a float is its shortest round-trip form, as str is);
    a numpy scalar would print as np.float64(...), so callers pass floats."""
    with open(path, "w", newline="") as f:
        f.write(",".join(header) + "\r\n")
        f.writelines(",".join(map(repr, row)) + "\r\n" for row in rows)


# What each field runner holds at once, in half complex grids (8 *
# total_points bytes), beyond the evolution's own thirteen: the initial
# state, the working array and the yielded frame, the stepper's potential
# and kinetic factors (two each) and its phase angles (one), and the grid's
# coordinates and wavenumbers (one each on a 1-D grid, less on others).
# Each entry is (fixed count, count per position axis, trajectory ensembles
# on the full grid, trajectory ensembles on the A grid, dense A-grid
# matrices after the last frame).  A FieldFrame is rho and D currents, a
# velocity field D components and a held wave frame two; building a
# FieldFrame takes four more, the two complex arrays of the gradient in
# currents.current.
_HELD = {
    # energy's H psi: the potential and three complex arrays (7); a 1-D
    # Crank-Nicolson step's right-hand side and ?gtsv's copies of its bands
    # take 9 (traced peak of a 16 384-point dirichlet oscillator)
    "evolve": (9, 0, 0, 0, 0),
    "continuity": (8, 4, 0, 0, 0),            # four FieldFrames
    "subsystem_currents": (5, 1, 0, 0, 4),    # one FieldFrame
    "bohm_full": (5, 2, 1, 0, 0),             # FieldFrame, velocity
    "bohm_truncated": (5, 3, 1, 1, 0),        # and a second velocity
    "equivariance": (5, 3, 2, 0, 0),
    "entropy_series": (5, 2, 1, 0, 0),
    "free_expansion": (5, 2, 1, 0, 0),
}

# bytes per stored frame of the Python objects a field runner keeps for
# each (CSV rows, file names, frame times)
FRAME_BYTES = 256


def _check_budget(cfg, need: int, what: str):
    """MemoryBudgetExceeded when `need` bytes, what the run's largest arrays
    (`what`) take at once, exceed the config's memory_budget.  Every runner
    calls it from the config alone, before its first large allocation."""
    budget = cfg["memory_budget"]
    if need > budget:
        raise MemoryBudgetExceeded(f"{cfg['experiment']} needs about {need} "
                                   f"bytes for {what}, memory_budget is {budget}")


def _field_bytes(cfg, grid, h, part, nframes) -> int:
    """What a streamed field run holds at once: the grid-sized arrays of
    _HELD, counted in units of 8 * total_points bytes, the Python objects
    kept per frame, what each trajectory ensemble's Advection holds on its
    own grid (bohmian.advection_bytes) and the eigensolve of an eigenstate
    initial state.  The dense reduced density matrices come after the last
    frame, with the last wave frame, its conjugate and a transposed copy;
    the larger of the two counts.
    Python integers throughout, so no grid size overflows."""
    fixed, per_axis, full, on_a, rdms = _HELD[cfg["experiment"]]
    need = ((13 + fixed + per_axis * grid.n_pos_axes) * 8 * grid.total_points
            + FRAME_BYTES * nframes)
    if full or on_a:
        samples = cfg["ensemble"]["samples"]
        need += full * bm.advection_bytes(grid, samples, nframes)
        if on_a:
            need += on_a * bm.advection_bytes(part.a_grid, samples, nframes)
    if cfg["initial_state"]["kind"] == "eigenstate":
        count = cfg["initial_state"]["index"] + 1  # past N: a ConfigError
        need += eigenstate_bytes(grid, h, min(count, grid.total_points))
    if rdms:
        dim_a = math.prod(part.a_grid.full_shape)
        need = max(need, 16 * (3 * grid.total_points + rdms * dim_a**2))
    return need


# the runners whose continuity residuals difference three frames in time
_FRAME_TRIPLES = ("continuity", "subsystem_currents")


def _evolved(cfg):
    """Grid, Hamiltonian, frame count, the generator of wave frames and the
    run's one A/B split of the grid (None without a partition section); the
    frame checks, the split and the memory guard run before the initial
    state is built."""
    grid = build_grid(cfg)
    h = build_hamiltonian(cfg)
    ev = cfg["evolution"]
    nframes = frame_count(h, ev["t_final"], ev["frame_stride"])
    if cfg["experiment"] in _FRAME_TRIPLES:
        _uniform_triples(h, ev, nframes)
    part = _partition(cfg, grid) if "partition" in cfg else None
    _check_budget(cfg, _field_bytes(cfg, grid, h, part, nframes),
                  f"{nframes} frames")
    psi0 = build_initial_state(grid, h, cfg)
    return (grid, h, nframes, evolve(psi0, h, ev["t_final"], ev["frame_stride"]),
            part)


def _uniform_triples(h, ev, nframes):
    """At least three frames, evenly spaced (no off-stride last frame)."""
    if nframes < 3:
        raise ConfigError("evolution.t_final", "need at least three frames")
    steps = int(round(ev["t_final"] / h.time_step))
    if steps % ev["frame_stride"]:
        raise ConfigError("evolution.t_final", f"{steps} steps is not a multiple "
                          f"of evolution.frame_stride {ev['frame_stride']}")


def _partition(cfg, grid) -> SubsystemPartition:
    """The A/B split of `grid` the partition section names."""
    try:
        return SubsystemPartition(grid, cfg["partition"]["a_particles"])
    except PartitionMismatch as exc:
        raise ConfigError("partition.a_particles", str(exc)) from exc


def _trajectories_csv(path, ens, max_cols=32):
    """The first coordinate of the first `max_cols` samples at each frame,
    read from the spool one frame at a time."""
    k = min(max_cols, ens.samples)
    header = ["time"] + [f"x_{i:04d}" for i in range(k)]
    rows = ([float(t)] + ens.frame(fi, 0, k)[:, 0].tolist()
            for fi, t in enumerate(ens.times))
    _write_csv(path, header, rows)


# ---------------------------------------------------------------------------
# quantum field experiments: each wave frame is used as it arrives, then
# dropped

def run_evolve(cfg, outdir, seed):
    grid, h, _, frames, _ = _evolved(cfg)
    files, times = [], []
    for i, f in enumerate(frames):
        name = f"psi_{i:04d}.fld"
        write_field(os.path.join(outdir, name), f.amplitudes, grid, f.time)
        files.append(name)
        times.append(float(f.time))
        if i == 0:
            n0, e0 = f.norm_sq(), energy(f, h)
    with open(os.path.join(outdir, "frames.json"), "w") as fh:
        json.dump({"times": times, "files": files}, fh, indent=1)
    n1 = f.norm_sq()
    metrics = {
        "frames": len(files),
        "norm_initial": n0,
        "norm_final": n1,
        "energy_initial": e0,
        "energy_final": energy(f, h),
    }
    checks = {"norm_conserved": abs(n1 - n0) < 1e-8}
    return ExperimentResult(metrics, checks, files + ["frames.json"])


def run_continuity(cfg, outdir, seed):
    grid, h, _, frames, _ = _evolved(cfg)
    window = deque(maxlen=3)
    rows = []
    for psi in frames:
        window.append(FieldFrame.from_wavefield(psi, h))
        if len(window) == 3:
            ab, rel = continuity_residual(window)
            rows.append((float(window[1].time), ab, rel))
    _write_csv(os.path.join(outdir, "continuity.csv"),
               ["time", "abs_residual", "rel_residual"], rows)
    last = window[-1]
    write_field(os.path.join(outdir, "rho.fld"), last.rho.values, grid, last.time)
    write_field(os.path.join(outdir, "j.fld"), last.currents.components, grid, last.time)
    write_field(os.path.join(outdir, "v.fld"), velocity(last).components, grid, last.time)
    max_rel = max(r[2] for r in rows)
    metrics = {"max_rel_residual": max_rel, "triples": len(rows)}
    checks = {"rel_residual_below_1e-4": max_rel < 1e-4}
    return ExperimentResult(metrics, checks,
                            ["continuity.csv", "rho.fld", "j.fld", "v.fld"])


def run_subsystem_currents(cfg, outdir, seed):
    grid, h, nframes, frames, part = _evolved(cfg)
    sfs = []
    for i, last in enumerate(frames):
        if i >= nframes - 3:
            sfs.append(subsystem_frame(FieldFrame.from_wavefield(last, h), part))
    _, rel_a = continuity_residual(sfs)
    sf = sfs[-1]
    rdm = reduced_density_matrix(last, part)
    j_op = truncated_current_from_rdm(rdm, h, part)
    scale = float(np.max(np.abs(sf.currents.components)))
    dual = float(np.max(np.abs(sf.currents.components - j_op.components)) / scale)
    sub = part.a_grid
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
    """Grid, frame count, the ensemble section, the FieldFrame of each wave
    frame as it arrives, the initial samples drawn from the first, and the
    A/B split (None without a partition section)."""
    grid, h, nframes, frames, part = _evolved(cfg)
    ffs = (FieldFrame.from_wavefield(f, h) for f in frames)
    first = next(ffs)
    e = cfg["ensemble"]
    x0 = bm.sample_initial(first.rho, e["samples"], seed)
    return grid, nframes, e, itertools.chain([first], ffs), x0, part


def _velocities(field_frames, see):
    """The velocity of each FieldFrame as it arrives; `see(frame)` first."""
    for ff in field_frames:
        see(ff)
        yield velocity(ff)


def run_bohm_full(cfg, outdir, seed):
    grid, nframes, e, ffs, x0, _ = _bohm_setup(cfg, seed)
    last = deque(maxlen=1)
    with bm.integrate_trajectories(_velocities(ffs, last.append), x0,
                                   e["substeps"], "full", seed, nframes,
                                   outdir) as ens:
        bm.write_trajectories(os.path.join(outdir, "trajectories.trj"), ens)
        _trajectories_csv(os.path.join(outdir, "trajectories.csv"), ens)
        tv = bm.equivariance_distance(ens.frame(-1), last[0].rho, e["bins"])
    metrics = {"samples": ens.samples, "tv_final": tv, "frames": nframes}
    return ExperimentResult(metrics, {}, ["trajectories.trj", "trajectories.csv"])


def run_bohm_truncated(cfg, outdir, seed):
    grid, nframes, e, ffs, x0, part = _bohm_setup(cfg, seed)
    with bm.Advection(x0, nframes, e["substeps"], "full", seed,
                      outdir) as full, \
            bm.Advection(x0[:, part.a_axes], nframes, e["substeps"],
                         "truncated", seed, outdir) as trunc:
        for ff in ffs:
            sf = subsystem_frame(ff, part)
            full.push(velocity(ff))
            trunc.push(velocity(sf))
        full, trunc = full.ensemble(), trunc.ensemble()
        bm.write_trajectories(os.path.join(outdir, "full.trj"), full)
        bm.write_trajectories(os.path.join(outdir, "truncated.trj"), trunc)
        full_end, trunc_end = full.frame(-1), trunc.frame(-1)
    tv = bm.equivariance_distance(trunc_end, sf.rho, e["bins"])
    div = np.linalg.norm(full_end[:, part.a_axes] - trunc_end, axis=1)
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
    grid, nframes, e, ffs, x0, _ = _bohm_setup(cfg, seed)
    substeps, bins = e["substeps"], e["bins"]
    # negative control: velocity field frozen at t = 0
    with bm.Advection(x0, nframes, substeps, "full", seed, outdir) as adv, \
            bm.Advection(x0, nframes, substeps, "full", seed, outdir) as frozen:
        rows, v0 = [], None
        for ff in ffs:
            v = velocity(ff)
            if v0 is None:
                v0 = v.components
            rows.append((float(v.time),
                         bm.equivariance_distance(adv.push(v), ff.rho, bins)))
            frozen.push(VectorField(v.grid, v0, v.time))
        ens = adv.ensemble()
        _write_csv(os.path.join(outdir, "equivariance.csv"),
                   ["time", "tv_distance"], rows)
        bm.write_trajectories(os.path.join(outdir, "trajectories.trj"), ens)
        tv_ctrl = bm.equivariance_distance(frozen.ensemble().frame(-1), ff.rho,
                                           bins)
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
    if isinstance(c["omegas"], list) and len(c["omegas"]) != len(c["masses"]):
        raise ConfigError("classical.omegas", f"needs one entry per mass "
                          f"({len(c['masses'])}), got {len(c['omegas'])}")
    return cp.ClassicalHSpec(c["masses"], c["omegas"], c["kappa"])


def run_classical_liouville(cfg, outdir, seed):
    c = cfg["classical"]
    h = _classical_spec(cfg)
    if h.kappa != 0.0:
        raise ConfigError("classical.kappa",
                          "the analytic backflow needs uncoupled oscillators")
    # the drawn and displaced ensembles, and the stored frames twice (the
    # Verlet block and its x and p copies)
    frames = 1 + -(-c["steps"] // c["store_stride"])
    _check_budget(cfg, 8 * c["samples"] * 2 * h.n * (2 * frames + 2),
                  f"{frames} stored frames of {c['samples']} samples")
    beta = c["beta"]
    m, om = np.asarray(h.masses), np.asarray(h.omegas)
    # the thermal Gaussian displaced by one width in x: a function of H alone
    # would stay constant along orbits at any t, so it could not tell
    # whether a frame carries its true time
    sig_x = 1.0 / np.sqrt(beta * m * om**2)
    x, p = cp.sample_thermal(h, beta, c["samples"], seed)
    ens = cp.evolve_ensemble(h, x + sig_x, p, c["dt"], c["steps"],
                             c["store_stride"], seed)
    rho0 = cp.gaussian_phase_density(sig_x, np.sqrt(m / beta), x_center=sig_x)
    dev = cp.liouville_constancy(ens, rho0, cp.harmonic_backflow)
    incomp = cp.incompressibility_check(h, c["dt"])
    ctrl = cp.incompressibility_check(h, c["dt"], damping=c["damping"])
    # a few ulp per phase-space dimension
    tol = 4 * 2 * h.n * np.finfo(float).eps
    cp.write_ensemble(os.path.join(outdir, "ensemble.ens"), ens)
    metrics = {"max_density_deviation": dev, "incompressibility": incomp,
               "incompressibility_damped_control": ctrl,
               "samples": ens.samples}
    checks = {"deviation_below_1e-5": dev < 1e-5,
              "jacobian_det_within_4_ulp_x_2n": incomp <= tol,
              "damped_control_beyond_tolerance": ctrl > tol}
    return ExperimentResult(metrics, checks, ["ensemble.ens"])


def run_classical_truncated(cfg, outdir, seed):
    c = cfg["classical"]
    h = _classical_spec(cfg)
    if h.kappa == 0.0:
        raise ConfigError("classical.kappa",
                          "truncated-velocity check needs a coupled pair")
    # x_A, p_A, dp_A/dt and the bin index, and two columns in passing
    _check_budget(cfg, 8 * 6 * c["samples"],
                  f"6 columns of {c['samples']} samples")
    xa, pa, dpa = cp.sample_thermal_particle(h, c["beta"], c["samples"], seed,
                                             a=0)
    binned = cp.truncated_phase_velocity(xa, pa, dpa)
    # closed-form conditional mean: with independent Gaussian sampling the
    # environment coordinate averages to zero, leaving
    # dp_A/dt = -(m w^2 + kappa) x_A; evaluated with within-bin means of x_A
    # to avoid bin-center bias
    m0, w0 = h.masses[0], h.omegas[0]
    oracle_vp = (np.bincount(binned.flat, weights=-(m0 * w0**2 + h.kappa) * xa,
                             minlength=binned.counts.size)
                 / np.maximum(binned.counts.ravel(), 1)
                 ).reshape(binned.counts.shape)
    occ = binned.counts >= binned.min_count
    within = np.abs(binned.mean_vp - oracle_vp)[occ] <= 3 * binned.se_vp[occ]
    # no occupied bin is no evidence: the check fails
    frac = float(np.mean(within)) if within.size else 0.0
    rows = []
    xc = 0.5 * (binned.x_edges[:-1] + binned.x_edges[1:])
    pc = 0.5 * (binned.p_edges[:-1] + binned.p_edges[1:])
    for i in range(len(xc)):
        for j in range(len(pc)):
            if occ[i, j]:
                rows.append((float(xc[i]), float(pc[j]),
                             int(binned.counts[i, j]),
                             float(binned.mean_vp[i, j]),
                             float(binned.se_vp[i, j]),
                             float(oracle_vp[i, j])))
    _write_csv(os.path.join(outdir, "binned_velocity.csv"),
               ["x_a", "p_a", "count", "mean_dpdt", "se_dpdt", "oracle_dpdt"],
               rows)
    metrics = {"frac_within_3se": frac, "occupied_bins": int(occ.sum()),
               "samples": len(xa)}
    checks = {"frac_within_3se_at_least_0.95": frac >= 0.95}
    return ExperimentResult(metrics, checks, ["binned_velocity.csv"])


def run_scaling(cfg, outdir, seed):
    s = cfg["scaling"]
    _check_budget(cfg, 8 * s["samples"] * max(s["sizes"]),
                  f"{s['samples']} samples of {max(s['sizes'])} "
                  "oscillators")
    rows, slope = cp.ensemble_average_scaling(s["sizes"], s["samples"],
                                              s["beta"], s["omega"], seed)
    _write_csv(os.path.join(outdir, "scaling.csv"),
               ["size", "mean", "relative_std"], rows)
    metrics = {"slope": slope, "sizes": s["sizes"]}
    checks = {"slope_is_minus_half": abs(slope + 0.5) <= 0.05}
    return ExperimentResult(metrics, checks, ["scaling.csv"])


# ---------------------------------------------------------------------------
# entropy experiments

# false-alarm rate of the sample-route entropy check, per run
SAMPLE_ROUTE_ALPHA = 1e-3


def _sample_route_z(s_sample, counts, exact, dims):
    """The exact-route coarse-grained Gibbs entropy of each frame's cell
    masses, and the sample route's distance from it in standard errors.

    The distance is |S_sample + (K - 1)/2N - S_exact|, K the occupied cells
    and (K - 1)/2N the Miller-Madow bias of the plug-in entropy of N
    multinomial draws.  Its variance is the delta-method Var[ln(P_M/W_M)]/N
    plus (K - 1)/2N^2, the spread of the chi-square term that dominates
    where P_M is proportional to W_M."""
    n = counts.sum(axis=1)
    p = exact / exact.sum(axis=1, keepdims=True)
    surprise = np.log(p / np.asarray(dims, dtype=float), out=np.zeros_like(p),
                      where=p > 0)
    s_exact = -(p * surprise).sum(axis=1)
    var = np.maximum((p * surprise**2).sum(axis=1) - s_exact**2, 0.0)
    se = np.sqrt(var / n + ((p > 0).sum(axis=1) - 1) / (2 * n**2))
    diff = np.abs(s_sample + ((counts > 0).sum(axis=1) - 1) / (2 * n) - s_exact)
    z = np.divide(diff, se, out=np.where(diff == 0, 0.0, np.inf), where=se > 0)
    return s_exact, z


def _entropy_run(cfg, outdir, seed):
    """Writes entropy.csv and the trajectories; returns (metrics, per-frame
    mean quantum Boltzmann entropy, the fraction of samples whose one grew,
    sample-route and exact-route coarse-grained Gibbs series, whether the
    sample route is within k standard errors).

    The sample route counts the ensemble's samples per cell; the exact route
    takes the cell masses of each rho frame as it streams past.  k bounds
    the largest per-frame z for a false-alarm rate SAMPLE_ROUTE_ALPHA per
    run, Bonferroni over the frames."""
    mc = cfg["macrostates"]
    p_cut = mc["p_cutoff"]
    try:
        decomp = sm.MacrostateDecomposition.from_intervals_1d(mc["edges"], p_cut)
    except ValueError as exc:
        raise ConfigError("macrostates", str(exc)) from exc
    grid, nframes, e, ffs, x0, _ = _bohm_setup(cfg, seed)
    overlap = bm.cell_overlap(grid, decomp.edges)
    exact = []

    def cell_masses(ff):
        rho_first = ff.rho.values.reshape(grid.n, -1).sum(axis=1)
        exact.append(overlap.T @ rho_first * grid.weight)

    s_b_of_cell = np.log(np.diff(decomp.edges) * 2 * p_cut / mc["delta_z"])
    s_qb_of_cell = np.log(np.asarray(decomp.dims, dtype=float))
    s_qb, s_b, counts = [], [], []
    with bm.integrate_trajectories(_velocities(ffs, cell_masses), x0,
                                   e["substeps"], "full", seed, nframes,
                                   outdir) as ens:
        # binned one frame at a time, as read from the spool
        for t in range(len(ens.times)):
            cell_idx = sm.macrostate_of(ens.frame(t)[:, 0], decomp)
            s_qb.append(s_qb_of_cell[cell_idx].mean())
            s_b.append(s_b_of_cell[cell_idx].mean())
            counts.append(np.bincount(cell_idx, minlength=len(decomp.dims)))
            if t == 0:
                s_qb_first = s_qb_of_cell[cell_idx]
        bm.write_trajectories(os.path.join(outdir, "trajectories.trj"), ens)
    grew = float(np.mean(s_qb_of_cell[cell_idx] > s_qb_first))
    nt, counts = len(ens.times), np.array(counts)
    cg = sm.plugin_entropy(counts / counts.sum(axis=1, keepdims=True),
                           decomp.dims)
    rows = [(float(ens.times[t]), float(s_qb[t]), float(s_b[t]), float(cg[t]))
            for t in range(nt)]
    _write_csv(os.path.join(outdir, "entropy.csv"),
               ["time", "s_qb_mean", "s_b_mean", "s_g_coarse"], rows)
    # imported here: statistics loads decimal and fractions, which no other
    # run needs
    from statistics import NormalDist

    s_exact, z = _sample_route_z(cg, counts, np.array(exact), decomp.dims)
    k = NormalDist().inv_cdf(1.0 - SAMPLE_ROUTE_ALPHA / (2 * nt))
    metrics = {"samples": ens.samples, "frames": nt,
               "s_g_coarse_initial": float(cg[0]),
               "s_g_coarse_final": float(cg[-1]),
               "s_g_exact": s_exact.tolist(),
               "sample_route_max_z": float(z.max()),
               "sample_route_k": k}
    return metrics, s_qb, grew, cg, s_exact, z.max() <= k


def run_entropy_series(cfg, outdir, seed):
    metrics, s_qb, _, _, _, sample_ok = _entropy_run(cfg, outdir, seed)
    metrics.update(s_qb_initial_mean=float(s_qb[0]),
                   s_qb_final_mean=float(s_qb[-1]))
    checks = {"sample_route_within_k_se": sample_ok}
    return ExperimentResult(metrics, checks, ["entropy.csv", "trajectories.trj"])


def run_free_expansion(cfg, outdir, seed):
    metrics, _, frac, cg, s_exact, _ = _entropy_run(cfg, outdir, seed)
    worst_exact = float(np.min(np.diff(s_exact))) if len(s_exact) > 1 else 0.0
    metrics.update(
        frac_entropy_growth=frac,
        s_g_coarse_worst_step=float(np.min(np.diff(cg))) if len(cg) > 1 else 0.0,
        s_g_exact_worst_step=worst_exact)
    tol = 1e-6 * max(1.0, float(s_exact[-1] - s_exact[0]))
    # The sample route is reported, not checked: at the shipped frame_stride
    # the RK4 velocity, linear in time between frames 0.02 apart, lags the
    # early expansion, and the ensemble's coarse entropy sits 1-2 standard
    # errors below the exact route, past k on about 1 seed in 20.
    checks = {"growth_frac_at_least_0.9": frac >= 0.9,
              "coarse_gibbs_nondecreasing": worst_exact >= -tol}
    return ExperimentResult(metrics, checks, ["entropy.csv", "trajectories.trj"])


# ---------------------------------------------------------------------------
# canonical thermodynamics

def _spectrum_family(t):
    mass, levels, omega, gap = t["mass"], t["levels"], t["omega"], t["gap"]
    return {
        "box": lambda v: sm.box_spectrum(v, mass=mass, count=levels),
        "harmonic": lambda v: sm.harmonic_spectrum(omega, levels),
        "two_level": lambda v: sm.Spectrum([0.0, gap / v**2]),
    }[t["family"]]


def _table_grids(t, refine=1):
    def axis(lo, hi, count):
        count = refine * (count - 1) + 1
        return np.linspace(lo, hi, count)

    return (axis(t["v_lo"], t["v_hi"], t["v_count"]),
            axis(t["t_lo"], t["t_hi"], t["t_count"]))


def _check_table_memory(cfg, refine=1):
    """The memory guard of a (V, T) table: per volume, four (T, levels)
    arrays (Boltzmann weights, occupations and two in passing), and the
    table's nine (V, T) columns."""
    t = cfg["thermo"]
    n_v, n_t = (refine * (t[key] - 1) + 1 for key in ("v_count", "t_count"))
    levels = 2 if t["family"] == "two_level" else t["levels"]
    _check_budget(cfg, 8 * n_t * (4 * levels + 9 * n_v),
                  f"a {n_v} x {n_t} table of {levels} levels")


def _table_csv(path, tab):
    """One row per (V, T), V outer, the columns as Python floats."""
    n_v, n_t = tab.log_z.shape
    columns = [np.repeat(tab.v_grid, n_t), np.tile(tab.t_grid, n_v),
               tab.log_z, tab.free_energy, tab.energy, tab.entropy,
               tab.pressure, tab.energy_direct, tab.entropy_direct]
    _write_csv(path, ["volume", "temperature", "log_z", "free_energy",
                      "energy", "entropy", "pressure", "energy_direct",
                      "entropy_direct"],
               zip(*(c.ravel().tolist() for c in columns)))


def _max_rel_error(value, direct):
    """max |value - direct| / |direct| over the table's inner cells; a cell
    whose direct value is 0 (E at gap 0) is exact and counts 0."""
    rel = np.divide(value - direct, direct, out=np.zeros_like(direct),
                    where=direct != 0)
    return float(np.abs(rel[1:-1, 1:-1]).max())


def run_thermo(cfg, outdir, seed):
    t = cfg["thermo"]
    _check_table_memory(cfg)
    spec_of_v = _spectrum_family(t)
    v_grid, t_grid = _table_grids(t)
    tab = sm.thermo_table(spec_of_v, v_grid, t_grid, direct=True)
    _table_csv(os.path.join(outdir, "thermo.csv"), tab)
    e_rel = _max_rel_error(tab.energy, tab.energy_direct)
    s_rel = _max_rel_error(tab.entropy, tab.entropy_direct)
    metrics = {"max_energy_rel_error": e_rel, "max_entropy_rel_error": s_rel,
               "family": t["family"],
               "grid": [len(v_grid), len(t_grid)]}
    if t["family"] == "box":
        checks = {"energy_dual_route_below_1e-4": e_rel < 1e-4,
                  "entropy_dual_route_below_1e-4": s_rel < 1e-4}
    else:
        # closed forms (w/2) coth(beta w/2), and eps q / (1 + q) = eps /
        # (e^{beta eps} + 1), q = e^{-beta eps}, eps = gap / V^2.  A ladder cut
        # at L levels, the last weighing <= TAIL_TOL, loses L x^L / (1 - x^L)
        # quanta (x = e^{-beta w}): at most 2 L TAIL_TOL of E >= w/2.  Two
        # levels are not cut; E = 0 cells (gap 0) are exact.
        beta = 1.0 / t_grid
        if t["family"] == "harmonic":
            exact = sm.harmonic_thermal_energy(t["omega"], beta)
        else:
            eps = t["gap"] / v_grid[:, None] ** 2
            q = np.exp(-beta * eps)
            exact = eps * q / (1.0 + q)
        err = np.abs(tab.energy_direct - exact)
        cf_rel = float(np.divide(err, exact, out=np.zeros_like(err),
                                 where=exact > 0).max())
        tol = (2 * len(spec_of_v(v_grid[0]).levels) + 1) * sm.TAIL_TOL
        metrics["max_closed_form_energy_rel_error"] = cf_rel
        checks = {"energy_closed_form_within_tail_bound": cf_rel <= tol}
    return ExperimentResult(metrics, checks, ["thermo.csv"])


def run_first_law(cfg, outdir, seed):
    t = cfg["thermo"]
    spec_of_v = _spectrum_family(t)
    refine = t["refine"]
    _check_table_memory(cfg, refine)  # the refined table is the larger
    # the first law reads only the differenced columns
    base = sm.thermo_table(spec_of_v, *_table_grids(t), direct=False)
    res, stats = sm.first_law_residual(base)
    fine = sm.thermo_table(spec_of_v, *_table_grids(t, refine), direct=False)
    _, stats_fine = sm.first_law_residual(fine)
    _write_csv(os.path.join(outdir, "first_law.csv"),
               ["edge_index", "residual"],
               enumerate(res.tolist()))
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
    sizes = t["sizes"]
    # the largest chain's dense H, eigh's copy, its eigenvectors and LAPACK
    # syevd's 2 N^2 workspace are five N x N float64 arrays (N = 2^n); eigh
    # allocates outside tracemalloc's view, and the process's peak RSS grew
    # by 5.1-5.4 of them at n = 10-12
    n_max = max(sizes)
    _check_budget(cfg, 6 * 8 * 4**n_max, f"the dense eigensolve of {n_max} spins")
    reports = []
    for n in sizes:
        reports.append(sc.canonical_typicality(
            n, n_a=t["n_a"], j_coupling=t["j"], g_field=t["g"],
            ab_coupling=t["ab_coupling"],
            center_quantile=t["center_quantile"],
            min_levels=t["min_levels"], trials=t["trials"], seed=seed))
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
    omega, beta_cold, beta_warm = c["omega"], c["beta_cold"], c["beta_warm"]
    # 9 arrays of levels floats bound the tracemalloc peak: 7 while the
    # mixture is built (the spectrum, two occupations, their halves and the
    # 2 x levels mixture), then 7.25 (the spectrum, the mixture, and within
    # von_neumann_entropy its positive entries, their terms and the p > 0 mask)
    _check_budget(cfg, 8 * 9 * c["levels"], f"{c['levels']} levels")
    spec = sm.harmonic_spectrum(omega, c["levels"])
    _, p_cold, _ = sm.partition_function(spec, beta_cold)
    _, p_warm, _ = sm.partition_function(spec, beta_warm)
    s_cold = sm.von_neumann_entropy(p_cold)
    s_warm = sm.von_neumann_entropy(p_warm)
    # two macroscopically distinct branches have orthogonal supports, so the
    # 50/50 mixture is block diagonal in the branch basis
    p_mix = np.concatenate([0.5 * p_cold, 0.5 * p_warm])
    del p_cold, p_warm
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
