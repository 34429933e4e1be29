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
    """-dV/dx for states x of shape (nsamples, N); x is not written to."""
    x = np.atleast_2d(np.asarray(x, dtype=float)).T    # particle-major view
    stiffness = -np.asarray(h.masses) * np.asarray(h.omegas)**2
    diff = np.empty((max(x.shape[0] - 1, 0), x.shape[1]))
    return kernels.forces_into(np.empty(x.shape), x, stiffness, h.kappa, diff).T


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


# rows per block of a chunked draw: about 1 MiB of float64 each
CHUNK_BYTES = 1 << 20


def thermal_draw(rng, count: int, columns: int, x_scale, p_scale):
    """The thermal Gaussian x = z / x_scale, p = z' * p_scale of `count` rows
    and `columns` columns, drawn in row chunks in the generator's stream
    order: every x row, then every p row.  z and z' are exactly the numbers
    of two rng.standard_normal((count, columns)) calls, since the generator
    fills rows in order.

    Yields ("x" or "p", row slice, block).  Every block is a view of one
    chunk buffer of about CHUNK_BYTES, scaled in place; the consumer may
    overwrite it and must be done with it before it asks for the next."""
    chunk_rows = max(1, CHUNK_BYTES // (8 * columns))
    chunk = np.empty((min(chunk_rows, count), columns))
    for name in ("x", "p"):
        for start in range(0, count, chunk_rows):
            block = rng.standard_normal(
                out=chunk[:min(chunk_rows, count - start)])
            if name == "x":
                block /= x_scale
            else:
                block *= p_scale
            yield name, slice(start, start + len(block)), block


def _oscillator_draw(h: ClassicalHSpec, beta: float, count: int, seed: int):
    """thermal_draw of the uncoupled oscillators of h at beta (kappa does
    not enter the Gaussian)."""
    m = np.asarray(h.masses)
    om = np.asarray(h.omegas)
    if np.any(om <= 0):
        raise ValueError("thermal sampling needs positive frequencies")
    return thermal_draw(np.random.default_rng(seed), count, h.n,
                        np.sqrt(beta * m * om**2), np.sqrt(m / beta))


def sample_thermal(h: ClassicalHSpec, beta: float, count: int,
                   seed: int) -> tuple:
    """Thermal Gaussian for uncoupled oscillators (kappa is ignored here)."""
    drawn = {"x": np.empty((count, h.n)), "p": np.empty((count, h.n))}
    for name, rows, block in _oscillator_draw(h, beta, count, seed):
        drawn[name][rows] = block
    return drawn["x"], drawn["p"]


def sample_thermal_particle(h: ClassicalHSpec, beta: float, count: int,
                            seed: int, a: int) -> tuple:
    """(x_A, p_A, dp_A/dt) for particle a: column a of sample_thermal(h,
    beta, count, seed)'s x and p and of forces(h, x), bit for bit, holding
    the other particles' columns one chunk at a time.  The force feels
    h.kappa; the sampling does not."""
    xa, pa, dpa = np.empty(count), np.empty(count), np.empty(count)
    for name, rows, block in _oscillator_draw(h, beta, count, seed):
        if name == "x":
            xa[rows] = block[:, a]
            dpa[rows] = forces(h, block)[:, a]
        else:
            pa[rows] = block[:, a]
    return xa, pa, dpa


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
    mean_vp: np.ndarray
    se_vp: np.ndarray        # standard error of the mean per bin
    min_count: int
    flat: np.ndarray         # each sample's bin, ix * np + ip


def scott_edges(values: np.ndarray) -> np.ndarray:
    """Bins of Scott's width 3.5 std / n^(1/3) over the range of the values;
    values with no spread make one bin."""
    n = len(values)
    width = 3.5 * np.std(values) / n ** (1 / 3)
    lo, hi = np.min(values), np.max(values)
    bins = max(1, int(np.ceil((hi - lo) / width))) if width > 0 else 1
    return np.linspace(lo, hi, bins + 1)


def _bin_index(values: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Each value's bin in edges, the outer edges counted in the end bins."""
    idx = np.digitize(values, edges)
    idx -= 1
    return np.clip(idx, 0, len(edges) - 2, out=idx)


def truncated_phase_velocity(xa: np.ndarray, pa: np.ndarray, dpa: np.ndarray,
                             min_count: int = 20) -> BinnedPhaseVelocity:
    """Binned estimate of the environment-averaged dp_A/dt of particle A,
    from its samples (x_A, p_A, dp_A/dt) (sample_thermal_particle).

    The bin value is the conditional ensemble average of dp_A/dt given the
    (x_A, p_A) bin, i.e. the Monte Carlo form of integrating rho * v_A over
    the B coordinates and dividing by the marginal; the other component,
    dx_A/dt = p_A / m_A, is a function of the bin itself.  Bins are Scott's
    on each axis.  Bins with fewer than `min_count` samples are flagged empty
    (count kept, means NaN).
    """
    x_edges, p_edges = scott_edges(xa), scott_edges(pa)
    shape = (len(x_edges) - 1, len(p_edges) - 1)
    flat = _bin_index(xa, x_edges)
    flat *= shape[1]
    flat += _bin_index(pa, p_edges)
    counts = np.bincount(flat, minlength=shape[0] * shape[1]).astype(float)
    s = np.bincount(flat, weights=dpa, minlength=counts.size)
    s2 = np.bincount(flat, weights=dpa**2, minlength=counts.size)
    with np.errstate(invalid="ignore", divide="ignore"):
        mean = s / counts
        var = s2 / counts - mean**2
        se = np.sqrt(np.maximum(var, 0.0) / counts)
    mean[counts < min_count] = np.nan
    se[counts < min_count] = np.nan
    return BinnedPhaseVelocity(x_edges, p_edges, counts.reshape(shape),
                               mean.reshape(shape), se.reshape(shape),
                               min_count, flat)


# ---------------------------------------------------------------------------
# law-of-large-numbers scaling

def ensemble_average_scaling(sizes, nsamples: int, beta: float, omega: float,
                             seed: int = 0):
    """Table of (N, mean, relative std) of the total energy
    H = sum_a p_a^2 / 2 + (1/2) w^2 x_a^2 of N unit-mass oscillators drawn
    thermal at beta, one ensemble of `nsamples` per N in `sizes`, plus the
    fitted log-log slope of the relative std against N.

    Every size draws x then p (thermal_draw) from one generator.  One
    (nsamples, max N) buffer, allocated once, takes (1/2) w^2 x^2; each p
    chunk adds p^2 / 2 onto its rows, which are summed right away.
    """
    if nsamples < 2:
        raise ValueError("standard deviation undefined for a single sample")
    rng = np.random.default_rng(seed)
    x_scale, p_scale = np.sqrt(beta * omega**2), np.sqrt(1.0 / beta)
    stiffness = 0.5 * omega**2
    held = np.empty(nsamples * max(sizes))
    vals = np.empty(nsamples)
    rows = []
    for size in sizes:
        potential = held[:nsamples * size].reshape(nsamples, size)
        for name, chunk, block in thermal_draw(rng, nsamples, size, x_scale,
                                               p_scale):
            np.square(block, out=block)
            if name == "x":
                np.multiply(block, stiffness, out=potential[chunk])
            else:
                block /= 2.0
                block += potential[chunk]
                vals[chunk] = block.sum(axis=1)
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
    codec.write(path, header, (ens.xs, ens.ps))


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
