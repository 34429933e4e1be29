"""Classical phase-space twin: Hamilton flows, Liouville checks, truncated
phase velocities, law-of-large-numbers scaling.

Hamiltonians are separable and analytic:
    H = sum_a p_a^2 / 2 m_a + (1/2) m_a w_a^2 x_a^2
        + (kappa/2) sum_a (x_{a+1} - x_a)^2
so all phase-space derivatives are coded in closed form (no numerical
differentiation), and the velocity-Verlet step is a linear map whose
Jacobian determinant is 1 up to round-off.
Densities are represented by sampled ensembles and histograms, never by
phase-space grids.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import codec, kernels
from .errors import AnalyticDensityUnavailable


@dataclass
class ClassicalHSpec:
    masses: tuple
    omegas: tuple = None          # per-particle harmonic frequency (0 = free)
    kappa: float = 0.0            # nearest-neighbor spring constant

    def __post_init__(self):
        self.masses = tuple(float(m) for m in self.masses)
        if self.omegas is None:
            self.omegas = (0.0,) * len(self.masses)
        elif np.isscalar(self.omegas):
            self.omegas = (float(self.omegas),) * len(self.masses)
        else:
            self.omegas = tuple(float(w) for w in self.omegas)

    @property
    def n(self) -> int:
        return len(self.masses)


def forces(h: ClassicalHSpec, x: np.ndarray) -> np.ndarray:
    """-dV/dx for states x of shape (nsamples, N)."""
    m = np.asarray(h.masses)
    om = np.asarray(h.omegas)
    return kernels.forces(np.atleast_2d(np.asarray(x, dtype=float)).copy(),
                          m, om, h.kappa)


def hamilton_velocity(h: ClassicalHSpec, x: np.ndarray, p: np.ndarray):
    """(dx/dt, dp/dt) = (dH/dp, -dH/dx), analytic."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    p = np.atleast_2d(np.asarray(p, dtype=float))
    return p / np.asarray(h.masses), forces(h, x)


def incompressibility_check(h: ClassicalHSpec, dt: float,
                            damping: float = 0.0) -> float:
    """|det J - 1| for the Jacobian J of one velocity-Verlet step of size dt.

    The step is linear in (x, p) for this family; J is the transpose of
    kernels.verlet_matrix, the very map that kernels.verlet moves ensembles
    by.  The step is symplectic, det J = 1, so the result is round-off
    only.  `damping` composes J with diag(1, exp(-damping dt)), one step of
    the non-Hamiltonian decay dp/dt = -damping p; its determinant
    exp(-N damping dt) makes the negative control.
    """
    jac = kernels.verlet_matrix(h.masses, h.omegas, h.kappa, dt).T
    jac[h.n:] *= np.exp(-damping * dt)
    return float(abs(np.linalg.det(jac) - 1.0))


@dataclass
class PhaseEnsemble:
    h: ClassicalHSpec
    xs: np.ndarray     # (nstored, nsamples, N)
    ps: np.ndarray
    times: np.ndarray
    seed: int = 0

    @property
    def samples(self) -> int:
        return self.xs.shape[1]


def sample_thermal(h: ClassicalHSpec, beta: float, count: int,
                   seed: int) -> tuple:
    """Thermal Gaussian for uncoupled oscillators (kappa is ignored here)."""
    rng = np.random.default_rng(seed)
    m = np.asarray(h.masses)
    om = np.asarray(h.omegas)
    if np.any(om <= 0):
        raise ValueError("thermal sampling needs positive frequencies")
    x = rng.standard_normal((count, h.n)) / np.sqrt(beta * m * om**2)
    p = rng.standard_normal((count, h.n)) * np.sqrt(m / beta)
    return x, p


def evolve_ensemble(h: ClassicalHSpec, x0: np.ndarray, p0: np.ndarray,
                    dt: float, steps: int, store_stride: int = 1,
                    seed: int = 0) -> PhaseEnsemble:
    """Symplectic velocity-Verlet integration of the whole ensemble."""
    xs, ps = kernels.verlet(np.atleast_2d(x0), np.atleast_2d(p0), h.masses,
                            h.omegas, h.kappa, dt, steps, store_stride)
    times = dt * store_stride * np.arange(xs.shape[0])
    times[-1] = dt * steps  # last stored step may be off-stride
    return PhaseEnsemble(h, xs, ps, times, seed)


# ---------------------------------------------------------------------------
# Liouville constancy against analytic transported densities

def harmonic_backflow(h: ClassicalHSpec, x, p, t):
    """Inverse flow of uncoupled harmonic oscillators (exact rotation)."""
    m = np.asarray(h.masses)
    om = np.asarray(h.omegas)
    if np.any(om <= 0) or h.kappa != 0.0:
        raise AnalyticDensityUnavailable("exact backflow needs uncoupled oscillators")
    c, s = np.cos(om * t), np.sin(om * t)
    x0 = x * c - p / (m * om) * s
    p0 = p * c + m * om * x * s
    return x0, p0


def gaussian_phase_density(sig_x, sig_p, x_center=0.0):
    """Independent Gaussian density over (x, p) per particle, centred at
    (x_center, 0)."""
    sig_x = np.atleast_1d(np.asarray(sig_x, dtype=float))
    sig_p = np.atleast_1d(np.asarray(sig_p, dtype=float))

    def rho(x, p):
        z = np.sum(((x - x_center) / sig_x) ** 2 + (p / sig_p) ** 2, axis=1)
        norm = np.prod(2 * np.pi * sig_x * sig_p)
        return np.exp(-0.5 * z) / norm

    return rho


def liouville_constancy(ens: PhaseEnsemble, rho0, backflow) -> float:
    """max over samples/times of |rho(z(t), t) - rho(z(0), 0)| / rho(z(0), 0),
    with rho(z, t) = rho0(backflow(z, t)) the exact transported density."""
    base = rho0(ens.xs[0], ens.ps[0])
    worst = 0.0
    for i, t in enumerate(ens.times):
        x0, p0 = backflow(ens.h, ens.xs[i], ens.ps[i], t)
        val = rho0(x0, p0)
        worst = max(worst, float(np.max(np.abs(val - base) / base)))
    return worst


# ---------------------------------------------------------------------------
# truncated phase velocity (conditional ensemble average on a z_A binning)

@dataclass
class BinnedPhaseVelocity:
    x_edges: np.ndarray
    p_edges: np.ndarray
    counts: np.ndarray       # (nx, np)
    mean_vx: np.ndarray
    mean_vp: np.ndarray
    se_vx: np.ndarray        # standard error of the mean per bin
    se_vp: np.ndarray
    min_count: int


def scott_edges(values: np.ndarray, lo=None, hi=None) -> np.ndarray:
    n = len(values)
    width = 3.5 * np.std(values) / n ** (1 / 3)
    lo = np.min(values) if lo is None else lo
    hi = np.max(values) if hi is None else hi
    bins = max(1, int(np.ceil((hi - lo) / width)))
    return np.linspace(lo, hi, bins + 1)


def truncated_phase_velocity(h: ClassicalHSpec, x: np.ndarray, p: np.ndarray,
                             a_particle: int, x_edges=None, p_edges=None,
                             min_count: int = 20) -> BinnedPhaseVelocity:
    """Binned estimate of the environment-averaged velocity of particle A.

    The bin value is the conditional ensemble average of (dx_A/dt, dp_A/dt)
    given the (x_A, p_A) bin, i.e. the Monte Carlo form of integrating
    rho * v_A over the B coordinates and dividing by the marginal.  Bins with
    fewer than `min_count` samples are flagged empty (count kept, means NaN).
    """
    x = np.atleast_2d(x)
    p = np.atleast_2d(p)
    vx_all, vp_all = hamilton_velocity(h, x, p)
    xa, pa = x[:, a_particle], p[:, a_particle]
    va_x, va_p = vx_all[:, a_particle], vp_all[:, a_particle]
    if x_edges is None:
        x_edges = scott_edges(xa)
    if p_edges is None:
        p_edges = scott_edges(pa)
    ix = np.clip(np.digitize(xa, x_edges) - 1, 0, len(x_edges) - 2)
    ip = np.clip(np.digitize(pa, p_edges) - 1, 0, len(p_edges) - 2)
    shape = (len(x_edges) - 1, len(p_edges) - 1)
    flat = ix * shape[1] + ip
    counts = np.bincount(flat, minlength=shape[0] * shape[1]).astype(float)

    def binned(vals):
        s = np.bincount(flat, weights=vals, minlength=counts.size)
        s2 = np.bincount(flat, weights=vals**2, minlength=counts.size)
        with np.errstate(invalid="ignore", divide="ignore"):
            mean = s / counts
            var = s2 / counts - mean**2
            se = np.sqrt(np.maximum(var, 0.0) / counts)
        mean[counts < min_count] = np.nan
        se[counts < min_count] = np.nan
        return mean.reshape(shape), se.reshape(shape)

    mean_vx, se_vx = binned(va_x)
    mean_vp, se_vp = binned(va_p)
    return BinnedPhaseVelocity(np.asarray(x_edges), np.asarray(p_edges),
                               counts.reshape(shape), mean_vx, mean_vp,
                               se_vx, se_vp, min_count)


# ---------------------------------------------------------------------------
# law-of-large-numbers scaling

def ensemble_average_scaling(observable, sampler, sizes, nsamples: int,
                             seed: int = 0):
    """Table of (N, mean, relative std) plus the fitted log-log slope.

    `sampler(size, nsamples, rng) -> (x, p)` draws an ensemble;
    `observable(x, p) -> (nsamples,)` evaluates the symmetric observable.
    """
    if nsamples < 2:
        raise ValueError("standard deviation undefined for a single sample")
    rng = np.random.default_rng(seed)
    rows = []
    for size in sizes:
        x, p = sampler(size, nsamples, rng)
        vals = np.asarray(observable(x, p), dtype=float)
        mean = float(vals.mean())
        std = float(vals.std(ddof=1))
        ratio = std / abs(mean) if mean != 0 else np.inf
        rows.append((int(size), mean, ratio))
    ratios = np.array([r[2] for r in rows])
    if len(rows) < 2 or np.all(ratios == 0):
        slope = 0.0
    else:
        slope = float(np.polyfit(np.log([r[0] for r in rows]),
                                 np.log(ratios), 1)[0])
    return rows, slope


def thermal_oscillator_sampler(beta: float, mass: float = 1.0,
                               omega: float = 1.0):
    def sampler(size, nsamples, rng):
        x = rng.standard_normal((nsamples, size)) / np.sqrt(beta * mass * omega**2)
        p = rng.standard_normal((nsamples, size)) * np.sqrt(mass / beta)
        return x, p

    return sampler


def total_energy_observable(mass: float = 1.0, omega: float = 1.0):
    def obs(x, p):
        return np.sum(p**2 / (2 * mass) + 0.5 * mass * omega**2 * x**2, axis=1)

    return obs


# ---------------------------------------------------------------------------
# .ens files (format in `codec`)

def write_ensemble(path, ens: PhaseEnsemble):
    header = {
        "masses": list(ens.h.masses),
        "omegas": list(ens.h.omegas),
        "kappa": ens.h.kappa,
        "times": [float(t) for t in ens.times],
        "shape": list(ens.xs.shape),
        "seed": int(ens.seed),
    }
    codec.write(path, header, ens.xs, ens.ps)


def read_ensemble(path) -> PhaseEnsemble:
    header, (xs, ps) = codec.read(
        path, lambda h: [(h["shape"], False), (h["shape"], False)],
        required=("masses", "omegas", "kappa", "times", "seed"))
    frames, _, particles = xs.shape if xs.ndim == 3 else (-1, -1, -1)
    codec.require(path, codec.are_numbers(header["times"], frames),
                  "times must hold one number per stored frame")
    for key in ("masses", "omegas"):
        codec.require(path, codec.are_numbers(header[key], particles),
                      f"{key} must hold one number per particle")
    codec.require(path, type(header["seed"]) is int, "seed must be an integer")
    h = ClassicalHSpec(tuple(header["masses"]), tuple(header["omegas"]),
                       header["kappa"])
    return PhaseEnsemble(h, xs, ps, np.array(header["times"]), header["seed"])
