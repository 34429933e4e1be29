"""Discretized multi-particle configuration space.

Uniform tensor-product grids for N particles in d spatial dimensions each,
with optional spinor components.  Two boundary flavors:

* periodic  -- points at lo + k*dx, dx = (hi-lo)/n; derivatives are spectral.
* dirichlet -- interior points at lo + (k+1)*dx, dx = (hi-lo)/(n+1); the
  boundary values are implicitly zero and derivatives are 2nd-order central
  differences.

Position axes trail in every field array: an amplitude array leads with its
spin axes (full_shape), a density or a current component has none
(pos_shape).  So position axis i of an array is array axis
ndim - n_pos_axes + i (Grid.pos_axes), whatever the array is; gradient and
integrate read their axes from there.

Quadrature is the midpoint rule with uniform weight dx per axis, so the
discrete Gauss theorem holds exactly on periodic axes (the sum of a spectral
derivative over a full period is zero to round-off).

Natural units: hbar = 1, masses relative to a reference mass, k_B = 1.
"""

from __future__ import annotations

from dataclasses import dataclass

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
            raise InvalidExtent("boundary", f"unknown boundary {self.boundary!r}")
        lo, hi = self.axis_extent
        if not hi > lo:
            raise InvalidExtent("axis_extent", f"needs hi > lo, got {self.axis_extent}")
        if self.points_per_axis < 8:
            raise InvalidExtent("points_per_axis", "must be >= 8")
        if self.dims_per_particle not in (1, 2):
            raise InvalidExtent("dims_per_particle", "must be 1 or 2 at desk scale")
        spins = tuple(int(s) for s in self.spin_dims)
        if not spins:
            spins = (1,) * self.particle_count
        if len(spins) != self.particle_count or any(s < 1 for s in spins):
            raise InvalidExtent("spin_dims", "must give one positive entry per particle")
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

    def pos_axes(self, shape) -> tuple:
        """Array axes of the position axes in an array of `shape`: the
        trailing n_pos_axes axes, which must be pos_shape."""
        lead = len(shape) - self.n_pos_axes
        if lead < 0 or tuple(shape[lead:]) != self.pos_shape:
            raise AxisMismatch(f"array shape {tuple(shape)} does not end in the "
                               f"grid's position shape {self.pos_shape}")
        return tuple(range(lead, len(shape)))

    def spin_axis(self, p: int):
        """Array axis of particle p's spin in a full_shape array, or None when
        the particle has no spin axis (spin dimension 1)."""
        dims = self.spec.spin_dims
        return sum(1 for s in dims[:p] if s > 1) if dims[p] > 1 else None

    def particle_axes(self, a: int) -> list:
        """Position-axis indices (0-based, spin excluded) of particle a."""
        d = self.spec.dims_per_particle
        return list(range(a * d, (a + 1) * d))

    def meshgrid(self):
        return np.meshgrid(*([self.axis_coords] * self.n_pos_axes), indexing="ij")


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
    on the remaining axes.  Leading (spin) axes are never integrated here.
    """
    arr = np.asarray(values)
    pos = grid.pos_axes(arr.shape)
    if axes is None:
        axes = range(grid.n_pos_axes)
    axes = sorted(set(int(a) for a in axes))
    if any(a < 0 or a >= grid.n_pos_axes for a in axes):
        raise AxisMismatch(f"axes {axes} outside 0..{grid.n_pos_axes - 1}")
    out = arr.sum(axis=tuple(pos[a] for a in axes)) * grid.dx ** len(axes)
    if out.ndim == 0:
        return out.item()
    return out


def gradient(values, grid: Grid, pos_axis: int):
    """Derivative along one position axis of any field array.

    Spectral on periodic grids; 2nd-order central differences with implicit
    zero boundary values on dirichlet grids.  The same operator is used by
    every module so discrete identities (dual-route currents, Gauss theorem)
    hold to round-off.
    """
    arr = np.asarray(values)
    pos = grid.pos_axes(arr.shape)
    if not 0 <= pos_axis < len(pos):
        raise AxisMismatch(f"position axis {pos_axis} out of range")
    ax = pos[pos_axis]
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
    f, d = np.moveaxis(arr, ax, -1), np.moveaxis(out, ax, -1)
    d[..., 1:-1] = (f[..., 2:] - f[..., :-2]) / (2 * grid.dx)
    d[..., 0] = f[..., 1] / (2 * grid.dx)      # left neighbor is 0
    d[..., -1] = -f[..., -2] / (2 * grid.dx)   # right neighbor is 0
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
