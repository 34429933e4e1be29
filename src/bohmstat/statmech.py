"""Entropy definitions and canonical-ensemble thermodynamics.

k_B = 1: every entropy and temperature is in these units, as in the paper.

Entropies, each of them `plugin_entropy` -sum p ln(p / w) of some p and w:
* von Neumann      -Tr rho ln rho: p the eigenvalues of rho, w = 1
* Gibbs             -sum p_c ln(p_c dz / vol_c): p the samples' cell
                     frequencies, w = vol_c / dz; criterion 9 checks its dz
                     shift by the runners' route (`macrostate_of`, one
                     bincount, `plugin_entropy`)
* coarse-grained    -sum P_M ln(P_M / W_M): p the cell masses, w the cell dims
                     (the series of `experiments._entropy_run`)
* canonical         -sum p_n ln p_n: p the Boltzmann weights of
                     `partition_function`, w = 1
The quantum Boltzmann entropy ln dim(H_M), with a semiclassical cell count
for dim (`macrostate_dim`), is a log per sample, taken in
`experiments._entropy_run`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (GridTooCoarse, NotADensityMatrix, OutsideAllCells,
                     TruncationInsufficient)

PSD_TOL = 1e-10
TAIL_TOL = 1e-12  # the largest last-level weight a truncated spectrum may keep
# below this exponent np.exp returns exactly 0.0 (its underflow is -745.13)
EXP_UNDERFLOW = -746.0


# ---------------------------------------------------------------------------
# entropies

def _probabilities(arg):
    """The positive eigenvalues or entries of a density matrix or probability
    vector; NotADensityMatrix unless the rest are >= -PSD_TOL and these sum to 1."""
    p = np.asarray(arg)
    if p.ndim == 2:
        if np.max(np.abs(p - p.T.conj())) > 1e-10:
            raise NotADensityMatrix("matrix is not Hermitian")
        p = np.linalg.eigvalsh(p)
    else:
        p = np.asarray(p, dtype=float)
    if np.any(p < -PSD_TOL):
        raise NotADensityMatrix(f"negative eigenvalue {p.min()}")
    p = p[p > 0]
    if abs(p.sum() - 1.0) > 1e-8:
        raise NotADensityMatrix(f"trace {p.sum()} != 1")
    return p


def plugin_entropy(p, w=1.0):
    """-sum p ln(p / w) over the last axis of p, with 0 ln 0 = 0; w broadcasts
    against p and defaults to 1.  p is used as given: callers normalise it.

    The terms are made in one array of p's shape: the log and the product
    overwrite the quotient."""
    p = np.asarray(p, dtype=float)
    terms = np.divide(p, w)
    np.log(terms, out=terms, where=p > 0)   # where p == 0 the 0 quotient stays
    terms *= p
    return -terms.sum(axis=-1)


def von_neumann_entropy(rho_or_p) -> float:
    """-sum lambda ln lambda with 0 ln 0 = 0.

    Accepts a probability vector (such as the eigenvalues of a
    ReducedDensityMatrix's matrix times its a_grid.weight) or a density
    matrix."""
    return float(plugin_entropy(_probabilities(rho_or_p)))


def macrostate_dim(length: float, p_cutoff: float) -> int:
    """Semiclassical state count of an interval of `length`:
    floor(length * 2 p_cutoff / 2 pi), at least 1 (hbar = 1)."""
    if p_cutoff <= 0:
        raise ValueError("p_cutoff must be positive")
    return max(1, int(np.floor(length * 2 * p_cutoff / (2 * np.pi))))


def _checked_edges(edges) -> np.ndarray:
    edges = np.asarray(edges, dtype=float)
    if edges.ndim != 1 or len(edges) < 2:
        raise ValueError("edges must be a list of at least two numbers")
    if not np.all(np.isfinite(edges)):
        raise ValueError("edges must be finite")
    if np.any(np.diff(edges) <= 0):
        raise ValueError("edges must be strictly increasing")
    return edges


@dataclass
class MacrostateDecomposition:
    """Closed 1-D cells [edges[i], edges[i + 1]] on the first coordinate,
    with a Hilbert-space dimension per cell."""

    edges: np.ndarray      # strictly increasing, finite
    dims: list             # per-cell dimension

    def __post_init__(self):
        self.edges = _checked_edges(self.edges)
        if len(self.dims) != len(self.edges) - 1:
            raise ValueError("one dim per cell required")
        if any(d < 1 for d in self.dims):
            raise ValueError("cell dims must be >= 1")

    @classmethod
    def from_intervals_1d(cls, edges, p_cutoff: float):
        edges = _checked_edges(edges)
        return cls(edges, [macrostate_dim(length, p_cutoff)
                           for length in np.diff(edges)])


def macrostate_of(x, decomp: MacrostateDecomposition):
    """Cell index of each first coordinate in x (any shape; a scalar gives an
    int).  Cells are closed: a point on a shared edge goes to the lower index."""
    x = np.asarray(x, dtype=float)
    edges = decomp.edges
    outside = ~((x >= edges[0]) & (x <= edges[-1]))   # NaN compares false
    if np.any(outside):
        raise OutsideAllCells(f"{np.ravel(x)[np.ravel(outside)][0]} is outside "
                              f"every cell [{edges[0]}, {edges[-1]}]")
    del outside
    idx = np.searchsorted(edges, x, side="left")
    if idx.ndim == 0:
        return max(int(idx) - 1, 0)
    # in place: one int64 array is all the call holds beside x
    idx -= 1
    np.maximum(idx, 0, out=idx)
    return idx


# ---------------------------------------------------------------------------
# spectra and canonical thermodynamics

@dataclass
class Spectrum:
    """Ascending energy levels; `truncated` when levels above the last exist
    but are not listed (partition_function checks their weight)."""

    levels: np.ndarray
    truncated: bool = False

    def __post_init__(self):
        self.levels = np.asarray(self.levels, dtype=float)
        if np.any(np.diff(self.levels) < -1e-12):
            raise ValueError("levels must be ascending")


def box_spectrum(length: float, mass: float = 1.0, count: int = 200) -> Spectrum:
    """1D box: E_n = n^2 pi^2 / (2 m L^2), n = 1.. ; V == L by convention."""
    n = np.arange(1, count + 1)
    return Spectrum(n**2 * np.pi**2 / (2 * mass * length**2), truncated=True)


def harmonic_spectrum(omega: float, count: int = 200) -> Spectrum:
    return Spectrum(omega * (np.arange(count) + 0.5), truncated=True)


def partition_function(spec: Spectrum, beta):
    """Z and occupation weights p_n, evaluated with an E_0 shift for stability.

    A scalar beta gives (Z, p, ln Z) as (float, 1-D array, float); an array
    of beta gives arrays of Z and ln Z and p with a leading beta axis.  For
    truncated spectra the tail bound exp(-beta (E_max - E_0)) must be below
    TAIL_TOL, otherwise TruncationInsufficient.
    """
    beta = np.asarray(beta, dtype=float)
    if np.any(beta <= 0):
        raise ValueError("beta must be positive")
    e = spec.levels
    e0 = e[0]
    # exp is evaluated only up to the last level whose exponent at the
    # smallest beta is not below EXP_UNDERFLOW (gap[0] == 0, so at least the
    # first); w keeps its full width, so the sums below add the same terms in
    # the same order as when every level is evaluated
    gap = e - e0
    n_live = np.flatnonzero(~(-np.min(beta) * gap < EXP_UNDERFLOW))[-1] + 1
    w = np.zeros(beta.shape + e.shape)
    w[..., :n_live] = np.exp(-beta[..., None] * gap[:n_live])
    tail = np.atleast_1d(w[..., -1])
    if spec.truncated and np.any(tail > TAIL_TOL):
        raise TruncationInsufficient(
            f"tail weight {tail[tail > TAIL_TOL][0]:.3g} exceeds {TAIL_TOL}; "
            "add levels")
    z_shifted = w.sum(axis=-1)
    p = w / z_shifted[..., None]
    log_z = np.log(z_shifted) - beta * e0
    if beta.ndim == 0:
        return float(np.exp(log_z)), p, float(log_z)
    return np.exp(log_z), p, log_z


@dataclass
class ThermoTable:
    """Per-(V, T) canonical quantities; derivative columns are central
    differences of T ln Z and are NaN on the boundary rows/columns."""

    v_grid: np.ndarray
    t_grid: np.ndarray
    log_z: np.ndarray          # (nV, nT)
    free_energy: np.ndarray    # F = -T ln Z
    energy: np.ndarray         # differenced
    entropy: np.ndarray        # differenced
    pressure: np.ndarray       # differenced
    energy_direct: np.ndarray | None    # None unless built with direct=True
    entropy_direct: np.ndarray | None


def thermo_table(spectrum_of_volume, v_grid, t_grid, *,
                 direct: bool = True) -> ThermoTable:
    """Build the (V, T) table; `spectrum_of_volume(V) -> Spectrum`.  With
    direct=False the direct E and S columns (sums over p_n) are not computed
    and are None."""
    v_grid = np.asarray(v_grid, dtype=float)
    t_grid = np.asarray(t_grid, dtype=float)
    if len(v_grid) < 5 or len(t_grid) < 5:
        raise GridTooCoarse("need >= 5 points per axis for central differences")
    n_v, n_t = len(v_grid), len(t_grid)
    log_z = np.empty((n_v, n_t))
    e_dir = np.empty((n_v, n_t)) if direct else None
    s_dir = np.empty((n_v, n_t)) if direct else None
    beta = 1.0 / t_grid
    for i, v in enumerate(v_grid):
        spec = spectrum_of_volume(v)
        _, p, log_z[i] = partition_function(spec, beta)
        if direct:
            e_dir[i] = np.sum(spec.levels * p, axis=-1)
            s_dir[i] = plugin_entropy(p)
    t_log_z = t_grid[None, :] * log_z
    energy = np.full_like(log_z, np.nan)
    entropy = np.full_like(log_z, np.nan)
    pressure = np.full_like(log_z, np.nan)
    dt = np.diff(t_grid)
    dv = np.diff(v_grid)
    if not (np.allclose(dt, dt[0]) and np.allclose(dv, dv[0])):
        raise GridTooCoarse("grids must be uniform for the central stencil")
    ht, hv = dt[0], dv[0]
    # S = d(T ln Z)/dT, E = T^2 d(ln Z)/dT, P = d(T ln Z)/dV
    entropy[:, 1:-1] = (t_log_z[:, 2:] - t_log_z[:, :-2]) / (2 * ht)
    dlogz_dt = (log_z[:, 2:] - log_z[:, :-2]) / (2 * ht)
    energy[:, 1:-1] = t_grid[None, 1:-1] ** 2 * dlogz_dt
    pressure[1:-1, :] = (t_log_z[2:, :] - t_log_z[:-2, :]) / (2 * hv)
    return ThermoTable(v_grid, t_grid, log_z, -t_log_z, energy, entropy,
                       pressure, e_dir, s_dir)


def first_law_residual(table: ThermoTable):
    """Residual |dE - T dS + P dV| / (|dE| + tiny) on every interior grid
    edge, with midpoint T-bar and P-bar.  Returns (per-edge array, stats dict)
    where stats holds max, median and the isochoric-subset median."""
    tiny = 1e-300
    e, s, p = table.energy, table.entropy, table.pressure
    tg, vg = table.t_grid, table.v_grid
    # isochoric edges (T direction), rows i = 1..nV-2, columns j = 1..nT-3
    de = e[1:-1, 2:-1] - e[1:-1, 1:-2]
    ds = s[1:-1, 2:-1] - s[1:-1, 1:-2]
    tbar = 0.5 * (tg[1:-2] + tg[2:-1])
    isochoric = (np.abs(de - tbar * ds) / (np.abs(de) + tiny)).ravel()
    # isothermal edges (V direction), j = 1..nT-2 outer, i = 1..nV-3 inner
    de = (e[2:-1, 1:-1] - e[1:-2, 1:-1]).T
    ds = (s[2:-1, 1:-1] - s[1:-2, 1:-1]).T
    dv = vg[2:-1] - vg[1:-2]
    tbar = tg[1:-1, None]
    pbar = 0.5 * (p[1:-2, 1:-1] + p[2:-1, 1:-1]).T
    isothermal = np.abs(de - tbar * ds + pbar * dv) / (np.abs(de) + tiny)
    residuals = np.concatenate([isochoric, isothermal.ravel()])
    stats = {
        "max": float(residuals.max()),
        "median": float(np.median(residuals)),
        "median_isochoric": float(np.median(isochoric)),
        "n_edges": len(residuals),
    }
    return residuals, stats


def harmonic_thermal_entropy(omega: float, beta: float) -> float:
    """Closed-form oscillator entropy, the analytic reference of cat_mixture."""
    x = beta * omega
    return float(x / (np.exp(x) - 1.0) - np.log(1.0 - np.exp(-x)))


def harmonic_thermal_energy(omega: float, beta):
    return 0.5 * omega / np.tanh(0.5 * beta * omega)
