"""Bohmian trajectory ensembles: sampling, advection, equivariance metrics.

Initial configurations are drawn from a grid density (categorical over cells,
uniform jitter inside a cell), then advected through precomputed velocity
frames with fixed-step RK4.  The `truncated` flavor uses the subsystem's
traced velocity field on the A grid; paths then carry only A coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import codec, kernels
from .errors import AxisMismatch, TrajectoryEscapedDomain
from .lattice import Grid, ScalarField, VectorField


def sample_initial(rho: ScalarField, count: int, seed: int) -> np.ndarray:
    """Positions (count, D) distributed as the grid density.

    Categorical sampling over cells weighted by rho * dx^D, plus uniform
    jitter within each cell; deterministic for a fixed seed.
    """
    grid = rho.grid
    rng = np.random.default_rng(seed)
    w = rho.values.ravel() * grid.weight
    p = w / w.sum()
    flat = rng.choice(len(p), size=count, p=p)
    idx = np.unravel_index(flat, grid.pos_shape)
    pos = np.empty((count, grid.n_pos_axes))
    for d in range(grid.n_pos_axes):
        jitter = rng.uniform(-0.5 * grid.dx, 0.5 * grid.dx, size=count)
        pos[:, d] = grid.axis_coords[idx[d]] + jitter
    if grid.spec.boundary == "dirichlet":
        lo, hi = grid.spec.axis_extent
        pos = np.clip(pos, lo, hi)
    return pos


@dataclass
class TrajectoryEnsemble:
    flavor: str  # "full" or "truncated"
    seed: int
    times: np.ndarray          # (nframes,)
    paths: np.ndarray          # (nsamples, nframes, D)
    grid: Grid = None

    @property
    def samples(self) -> int:
        return self.paths.shape[0]

    def positions_at(self, frame_index: int) -> np.ndarray:
        return self.paths[:, frame_index, :]


def integrate_trajectories(velocity_frames, x0: np.ndarray, substeps: int = 1,
                           flavor: str = "full", seed: int = 0) -> TrajectoryEnsemble:
    """RK4 advection of x0 through (time-ordered) velocity VectorField frames.

    Velocities are interpolated multilinearly in space and linearly in time.
    Periodic positions wrap; dirichlet positions reflect off the wall when
    the overshoot is below one grid spacing and raise beyond that.
    """
    grid = velocity_frames[0].grid
    times = np.array([f.time for f in velocity_frames], dtype=np.float64)
    if np.any(np.diff(times) <= 0):
        raise ValueError("velocity frames must have strictly increasing times")
    d_dims = grid.n_pos_axes
    x0 = np.asarray(x0, dtype=np.float64)
    if x0.ndim == 1:
        x0 = x0[:, None]
    if x0.shape[1] != d_dims:
        raise AxisMismatch(f"x0 has {x0.shape[1]} coords, grid has {d_dims}")
    npts = int(np.prod(grid.pos_shape))
    vflat = np.empty((len(velocity_frames), d_dims, npts))
    for i, f in enumerate(velocity_frames):
        vflat[i] = f.components.reshape(d_dims, npts)
    lo, hi = grid.spec.axis_extent
    paths, escaped = kernels.rk4_paths(
        x0, times, vflat, grid.axis_coords[0], grid.dx,
        grid.spec.points_per_axis, grid.spec.boundary == "periodic",
        substeps, lo, hi,
    )
    if grid.spec.boundary == "dirichlet" and escaped.any():
        raise TrajectoryEscapedDomain(
            f"{int(escaped.sum())} trajectories left the domain by more than dx"
        )
    return TrajectoryEnsemble(flavor, seed, times, paths, grid)


def binned_density_mass(rho: ScalarField, bins: int) -> np.ndarray:
    """Probability mass of rho in a (bins,)*D coarse grid; n must divide evenly."""
    grid = rho.grid
    n = grid.spec.points_per_axis
    if n % bins != 0:
        raise AxisMismatch(f"bins={bins} must divide n={n}")
    step = n // bins
    mass = rho.values * grid.weight
    for ax in range(grid.n_pos_axes):
        shape = mass.shape[:ax] + (bins, step) + mass.shape[ax + 1:]
        mass = mass.reshape(shape).sum(axis=ax + 1)
    return mass


def equivariance_distance(positions: np.ndarray, rho: ScalarField,
                          bins: int) -> float:
    """Total-variation distance between the binned empirical distribution of
    `positions` and rho integrated over the same bins."""
    grid = rho.grid
    expected = binned_density_mass(rho, bins)
    lo, hi = grid.spec.axis_extent
    pos = np.asarray(positions)
    if pos.ndim == 1:
        pos = pos[:, None]
    edges = [np.linspace(lo, hi, bins + 1)] * grid.n_pos_axes
    emp, _ = np.histogramdd(pos, bins=edges)
    emp = emp / pos.shape[0]
    # renormalize the expected mass (discretized rho integrates to ~1)
    expected = expected / expected.sum()
    return float(0.5 * np.abs(emp - expected).sum())


def order_inversions(ens: TrajectoryEnsemble) -> int:
    """Count of adjacent-order violations of the initial 1D sample ordering
    at the final time (Bohmian flow in 1D must preserve ordering)."""
    if ens.paths.shape[2] != 1:
        raise AxisMismatch("ordering check is for single-coordinate paths")
    first = ens.paths[:, 0, 0]
    last = ens.paths[:, -1, 0]
    order = np.argsort(first, kind="stable")
    return int(np.sum(np.diff(last[order]) < 0))


def write_trajectories(path, ens: TrajectoryEnsemble):
    header = {
        "flavor": ens.flavor,
        "seed": int(ens.seed),
        "times": [float(t) for t in ens.times],
        "shape": list(ens.paths.shape),
    }
    codec.write(path, header, ens.paths)


def read_trajectories(path):
    header, (paths,) = codec.read(path, lambda h: [(h["shape"], False)],
                                  required=("flavor", "seed", "times"))
    frames = paths.shape[1] if paths.ndim == 3 else -1
    codec.require(path, header["flavor"] in ("full", "truncated"),
                  "flavor must be 'full' or 'truncated'")
    codec.require(path, type(header["seed"]) is int, "seed must be an integer")
    codec.require(path, codec.are_numbers(header["times"], frames),
                  "times must hold one number per stored frame")
    return TrajectoryEnsemble(header["flavor"], header["seed"],
                              np.array(header["times"]), paths)
