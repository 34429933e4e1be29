"""Bohmian trajectory ensembles: sampling, advection, equivariance metrics.

A sample drawn at grid point x lies uniformly on [x - dx/2, x + dx/2] (on a
periodic grid, point 0's cell below lo lies one period up); `sample_initial`
draws by this rule and `cell_overlap` bins densities by it.  Samples are
advected with fixed-step RK4 through velocity frames that arrive one at a
time (`Advection`); the `truncated` flavor follows the A-subsystem velocity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import codec, kernels
from .errors import AxisMismatch, TrajectoryEscapedDomain
from .lattice import Grid, ScalarField, VectorField


def sample_initial(rho: ScalarField, count: int, seed: int) -> np.ndarray:
    """Positions (count, D) distributed as the grid density.

    Categorical sampling over grid points weighted by rho * dx^D, then a
    uniform position in the point's cell; deterministic for a fixed seed.
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
    if grid.boundary == "periodic":
        lo, hi = grid.extent
        pos[pos < lo] += hi - lo
    return pos


def cell_overlap(grid: Grid, edges: np.ndarray) -> np.ndarray:
    """(n, K): the fraction of each grid point's cell on one position axis
    inside each coarse cell [edges[k], edges[k + 1]]; grid masses contracted
    with it give the coarse-cell masses of sample_initial's samples."""
    half = 0.5 * grid.dx

    def part(a, b):
        return np.clip(np.minimum(b, edges[1:]) - np.maximum(a, edges[:-1]),
                       0.0, None)

    x = grid.axis_coords[:, None]
    frac = part(x - half, x + half)
    if grid.boundary == "periodic":
        lo, hi = grid.extent
        frac[0] = part(lo, lo + half) + part(hi - half, hi)
    return frac / grid.dx


@dataclass
class TrajectoryEnsemble:
    flavor: str  # "full" or "truncated"
    seed: int
    times: np.ndarray          # (nframes,)
    paths: np.ndarray          # (nsamples, nframes, D)

    @property
    def samples(self) -> int:
        return self.paths.shape[0]


class Advection:
    """RK4 advection of one sample ensemble, fed one velocity frame at a time.

    The first frame pushed fixes the grid and the start time; each later
    push advances the samples to that frame's time by one kernels.rk4_paths
    call over the pair (previous frame, this frame), which is the arithmetic
    of one call over every frame, in the same order.  Only those two
    velocity frames are held, in a (2, D, npts) buffer, which each call
    blends in time into the kernel's own three velocity buffers (padded by
    one wrapped point per axis on a periodic grid); the positions go into a
    (nsamples, nframes, D) path array allocated up front.  advection_bytes
    counts what an Advection holds at most.

    Velocities are interpolated multilinearly in space and linearly in time.
    Periodic positions wrap; dirichlet positions reflect off the wall when
    the overshoot is below one grid spacing, and ensemble() raises beyond
    that.
    """

    def __init__(self, x0: np.ndarray, nframes: int, substeps: int = 1,
                 flavor: str = "full", seed: int = 0):
        x0 = np.asarray(x0, dtype=np.float64)
        if x0.ndim == 1:
            x0 = x0[:, None]
        self.paths = np.empty((x0.shape[0], nframes, x0.shape[1]))
        self.paths[:, 0, :] = self._x = x0
        self.times = np.empty(nframes)
        self.escaped = np.zeros(x0.shape[0], np.uint8)
        self.substeps, self.flavor, self.seed = substeps, flavor, seed
        self.count = 0
        self.grid = None

    def push(self, frame: VectorField) -> np.ndarray:
        """Advance to frame.time; returns the positions there, (nsamples, D)."""
        k = self.count
        grid = frame.grid
        if k == len(self.times):
            raise ValueError(f"more than the {k} velocity frames allotted")
        if k == 0:
            d_dims = grid.n_pos_axes
            if self.paths.shape[2] != d_dims:
                raise AxisMismatch(f"x0 has {self.paths.shape[2]} coords, "
                                   f"grid has {d_dims}")
            self.grid = grid
            self._v = np.empty((2, d_dims, int(np.prod(grid.pos_shape))))
        elif not frame.time > self.times[k - 1]:
            raise ValueError("velocity frames must have strictly increasing times")
        else:
            self._v[0] = self._v[1]
        self._v[1] = frame.components.reshape(self._v.shape[1:])
        self.times[k] = frame.time
        if k > 0:
            lo, hi = grid.extent
            pair, escaped = kernels.rk4_paths(
                self._x, self.times[k - 1:k + 1], self._v,
                grid.axis_coords[0], grid.dx, grid.n,
                grid.boundary == "periodic", self.substeps, lo, hi,
            )
            # the next pair starts from this one's end, read from `pair`
            # rather than from the strided column of `paths`
            self._x = pair[:, 1, :]
            self.paths[:, k, :] = self._x
            self.escaped |= escaped
        self.count = k + 1
        return self._x

    def ensemble(self) -> TrajectoryEnsemble:
        """The frames pushed so far as a TrajectoryEnsemble."""
        if self.grid.boundary == "dirichlet" and self.escaped.any():
            raise TrajectoryEscapedDomain(
                f"{int(self.escaped.sum())} trajectories left the domain by "
                f"more than dx")
        k = self.count
        return TrajectoryEnsemble(self.flavor, self.seed, self.times[:k],
                                  self.paths[:, :k, :])


def advection_bytes(grid: Grid, samples: int, nframes: int) -> int:
    """The most an Advection of `samples` over `nframes` frames on `grid`
    holds at once, with its caller's starting positions: its paths and
    two-frame velocity buffer, the positions the last kernels.rk4_paths call
    returned while the next call builds its own, three sets of escape flags,
    and that call's working set."""
    d = grid.n_pos_axes
    points = math.prod(grid.pos_shape)
    return (8 * d * (samples * (nframes + 5) + 2 * points) + 3 * samples
            + kernels.rk4_working_bytes(samples, d, grid.n,
                                        grid.boundary == "periodic"))


def integrate_trajectories(velocity_frames, x0: np.ndarray, substeps: int = 1,
                           flavor: str = "full", seed: int = 0,
                           nframes: int = None) -> TrajectoryEnsemble:
    """RK4 advection of x0 through time-ordered velocity VectorField frames
    (see Advection).  `velocity_frames` may be any iterable, a generator
    included, when `nframes` gives its length; each frame is used as it
    arrives and may be dropped after."""
    if nframes is None:
        nframes = len(velocity_frames)
    adv = Advection(x0, nframes, substeps, flavor, seed)
    for frame in velocity_frames:
        adv.push(frame)
    return adv.ensemble()


def equivariance_distance(positions: np.ndarray, rho: ScalarField,
                          bins: int) -> float:
    """Total-variation distance between the histogram of `positions` on
    (bins,)*D equal cells of the domain and the cell masses of rho's
    samples on the same cells (cell_overlap)."""
    grid = rho.grid
    edges = np.linspace(*grid.extent, bins + 1)
    overlap = cell_overlap(grid, edges)
    # each contraction takes the leading grid axis and appends its bin axis
    expected = rho.values
    for _ in range(grid.n_pos_axes):
        expected = np.tensordot(expected, overlap, axes=(0, 0))
    pos = np.reshape(positions, (len(positions), -1))
    emp, _ = np.histogramdd(pos, bins=[edges] * grid.n_pos_axes)
    # normalized masses (the discretized rho integrates to ~1)
    return float(0.5 * np.abs(emp / len(pos) - expected / expected.sum()).sum())


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
