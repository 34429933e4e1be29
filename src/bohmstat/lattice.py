"""Discretized multi-particle configuration space.

Uniform tensor-product grids for N particles in d spatial dimensions each,
with optional spinor components.  Two boundary flavors:

* periodic  -- points at lo + k*dx, dx = (hi-lo)/n; derivatives are spectral.
* dirichlet -- interior points at lo + (k+1)*dx, dx = (hi-lo)/(n+1); the
  boundary values are implicitly zero and derivatives are 2nd-order central
  differences.

Quadrature is the midpoint rule with uniform weight dx per axis, so the
discrete Gauss theorem holds exactly on periodic axes (the sum of a spectral
derivative over a full period is zero to round-off).

Natural units: hbar = 1, masses relative to a reference mass, k_B = 1.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from . import codec
from .errors import AxisMismatch, InvalidExtent, MemoryBudgetExceeded

DEFAULT_MEMORY_BUDGET = 2 * 1024**3  # bytes


@dataclass(frozen=True)
class GridSpec:
    particle_count: int
    dims_per_particle: int
    points_per_axis: int
    axis_extent: tuple
    boundary: str = "periodic"
    spin_dims: tuple = ()
    memory_budget: int = DEFAULT_MEMORY_BUDGET

    def __post_init__(self):
        if self.boundary not in ("periodic", "dirichlet"):
            raise InvalidExtent(f"unknown boundary {self.boundary!r}")
        lo, hi = self.axis_extent
        if not hi > lo:
            raise InvalidExtent(f"axis_extent needs hi > lo, got {self.axis_extent}")
        if self.points_per_axis < 8:
            raise InvalidExtent("points_per_axis must be >= 8")
        if self.dims_per_particle not in (1, 2):
            raise InvalidExtent("dims_per_particle must be 1 or 2 at desk scale")
        spins = tuple(int(s) for s in self.spin_dims)
        if not spins:
            spins = (1,) * self.particle_count
        if len(spins) != self.particle_count or any(s < 1 for s in spins):
            raise InvalidExtent("spin_dims must give one positive entry per particle")
        object.__setattr__(self, "spin_dims", spins)
        object.__setattr__(self, "axis_extent", (float(lo), float(hi)))

    @property
    def n_pos_axes(self) -> int:
        return self.particle_count * self.dims_per_particle

    @property
    def total_points(self) -> int:
        return self.points_per_axis**self.n_pos_axes * int(np.prod(self.spin_dims))


class Grid:
    """Precomputed coordinates, quadrature weights and spectral wavenumbers."""

    def __init__(self, spec: GridSpec):
        bytes_needed = 16 * spec.total_points
        if bytes_needed > spec.memory_budget:
            raise MemoryBudgetExceeded(
                f"grid needs {bytes_needed} bytes, budget {spec.memory_budget}"
            )
        self.spec = spec
        lo, hi = spec.axis_extent
        n = spec.points_per_axis
        if spec.boundary == "periodic":
            self.dx = (hi - lo) / n
            self.axis_coords = lo + self.dx * np.arange(n)
            self.wavenumbers = 2.0 * np.pi * np.fft.fftfreq(n, d=self.dx)
        else:
            self.dx = (hi - lo) / (n + 1)
            self.axis_coords = lo + self.dx * (1.0 + np.arange(n))
            self.wavenumbers = None
        self.n_pos_axes = spec.n_pos_axes
        self.pos_shape = (n,) * self.n_pos_axes
        self.spin_shape = tuple(s for s in spec.spin_dims if s > 1)
        self.weight = self.dx**self.n_pos_axes

    @property
    def n_spin_axes(self) -> int:
        return len(self.spin_shape)

    @property
    def full_shape(self) -> tuple:
        return self.spin_shape + self.pos_shape

    def pos_axis(self, i: int) -> int:
        """Array axis index of the i-th position axis (spin axes come first)."""
        if not 0 <= i < self.n_pos_axes:
            raise AxisMismatch(f"position axis {i} out of range")
        return self.n_spin_axes + i

    def particle_axes(self, a: int) -> list:
        """Position-axis indices (0-based, spin excluded) of particle a."""
        d = self.spec.dims_per_particle
        return list(range(a * d, (a + 1) * d))

    def meshgrid(self):
        return np.meshgrid(*([self.axis_coords] * self.n_pos_axes), indexing="ij")


def make_grid(spec: GridSpec) -> Grid:
    return Grid(spec)


@dataclass
class WaveField:
    """Complex amplitude psi_s(x, t) on a grid; spin axes lead position axes."""

    grid: Grid
    amplitudes: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        self.amplitudes = np.asarray(self.amplitudes, dtype=np.complex128)
        if self.amplitudes.shape != self.grid.full_shape:
            raise AxisMismatch(
                f"amplitudes shape {self.amplitudes.shape} != {self.grid.full_shape}"
            )

    def norm_sq(self) -> float:
        return float(np.sum(np.abs(self.amplitudes) ** 2) * self.grid.weight)

    def normalized(self) -> "WaveField":
        return WaveField(self.grid, self.amplitudes / np.sqrt(self.norm_sq()), self.time)


@dataclass
class ScalarField:
    grid: Grid
    values: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)


@dataclass
class VectorField:
    """One real component array per position axis; leading axis is the component."""

    grid: Grid
    components: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        self.components = np.asarray(self.components, dtype=np.float64)


def integrate(values, grid: Grid, axes=None):
    """Midpoint quadrature over position axes (all by default).

    `axes` indexes position axes (spin excluded).  Integrating over every
    position axis returns a scalar; a proper subset returns the marginal array
    on the remaining axes.  Spin axes are never integrated here.
    """
    arr = np.asarray(values)
    if axes is None:
        axes = list(range(grid.n_pos_axes))
    axes = sorted(set(int(a) for a in axes))
    if any(a < 0 or a >= grid.n_pos_axes for a in axes):
        raise AxisMismatch(f"axes {axes} outside 0..{grid.n_pos_axes - 1}")
    # spin-summed arrays (densities, current components) carry position axes
    # only; full amplitude arrays lead with the spin axes
    offset = grid.n_spin_axes if arr.ndim == grid.n_spin_axes + grid.n_pos_axes \
        else 0
    arr_axes = tuple(offset + a for a in axes)
    out = arr.sum(axis=arr_axes) * grid.dx ** len(axes)
    if out.ndim == 0:
        return out.item()
    return out


def _axis_slice(ndim: int, axis: int, start: int, stop: int) -> tuple:
    """Index selecting start:stop along `axis` of an ndim array, all of the rest."""
    index = [slice(None)] * ndim
    index[axis] = slice(start, stop)
    return tuple(index)


def gradient(values, grid: Grid, pos_axis: int):
    """Derivative along one position axis.

    Spectral on periodic grids; 2nd-order central differences with implicit
    zero boundary values on dirichlet grids.  The same operator is used by
    every module so discrete identities (dual-route currents, Gauss theorem)
    hold to round-off.
    """
    return derivative_along(values, grid, grid.pos_axis(pos_axis))


def derivative_along(values, grid: Grid, array_axis: int):
    """Same derivative operator applied along an arbitrary array axis.

    Used for objects whose axis layout differs from a plain field, e.g. the
    row block of a reduced density matrix; the axis must have the grid's
    points_per_axis length.
    """
    arr = np.asarray(values)
    ax = array_axis
    if arr.shape[ax] != grid.spec.points_per_axis:
        raise AxisMismatch(
            f"axis {ax} has length {arr.shape[ax]}, grid expects "
            f"{grid.spec.points_per_axis}"
        )
    if grid.spec.boundary == "periodic":
        k = grid.wavenumbers
        shape = [1] * arr.ndim
        shape[ax] = len(k)
        ft = np.fft.fft(arr, axis=ax)
        ft *= (1j * k).reshape(shape)
        out = np.fft.ifft(ft, axis=ax)
        if not np.iscomplexobj(arr):
            return out.real
        return out
    # dirichlet: pad with the implicit zero boundary, central difference
    out = np.zeros_like(arr, dtype=arr.dtype if np.iscomplexobj(arr) else np.float64)
    n = arr.shape[ax]
    sl = functools.partial(_axis_slice, arr.ndim, ax)
    out[sl(1, n - 1)] = (arr[sl(2, n)] - arr[sl(0, n - 2)]) / (2 * grid.dx)
    out[sl(0, 1)] = arr[sl(1, 2)] / (2 * grid.dx)               # left neighbor is 0
    out[sl(n - 1, n)] = -arr[sl(n - 2, n - 1)] / (2 * grid.dx)  # right neighbor is 0
    return out


def laplacian_axis(values, grid: Grid, pos_axis: int):
    """Second derivative along one position axis (spectral or 3-point stencil)."""
    arr = np.asarray(values)
    ax = grid.pos_axis(pos_axis)
    if grid.spec.boundary == "periodic":
        k = grid.wavenumbers
        shape = [1] * arr.ndim
        shape[ax] = len(k)
        ft = np.fft.fft(arr, axis=ax)
        ft *= (-(k**2)).reshape(shape)
        out = np.fft.ifft(ft, axis=ax)
        if not np.iscomplexobj(arr):
            return out.real
        return out
    out = np.zeros_like(arr, dtype=arr.dtype if np.iscomplexobj(arr) else np.float64)
    n = arr.shape[ax]
    sl = functools.partial(_axis_slice, arr.ndim, ax)
    dx2 = grid.dx**2
    out[sl(1, n - 1)] = (arr[sl(2, n)] - 2 * arr[sl(1, n - 1)] + arr[sl(0, n - 2)]) / dx2
    out[sl(0, 1)] = (arr[sl(1, 2)] - 2 * arr[sl(0, 1)]) / dx2
    out[sl(n - 1, n)] = (arr[sl(n - 2, n - 1)] - 2 * arr[sl(n - 1, n)]) / dx2
    return out


# ---------------------------------------------------------------------------
# .fld files (format in `codec`)

def write_field(path, values, grid: Grid, time=0.0):
    arr = np.asarray(values)
    header = {
        "shape": list(arr.shape),
        "axes": grid.n_pos_axes,
        "n": grid.spec.points_per_axis,
        "extent": list(grid.spec.axis_extent),
        "boundary": grid.spec.boundary,
        "spin_dims": list(grid.spec.spin_dims),
        "time": float(time),
        "complex": bool(np.iscomplexobj(arr)),
    }
    codec.write(path, header, arr)


def read_field(path):
    """Returns (values, header dict)."""
    header, (values,) = codec.read(path, lambda h: [(h["shape"], h["complex"])])
    return values, header
