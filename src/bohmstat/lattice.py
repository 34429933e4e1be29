"""Discretized multi-particle configuration space.

Uniform tensor-product grids for N particles in d spatial dimensions each,
with optional spinor components.  A Grid takes the config's grid keys under
their own names (particles, dims, n, extent, boundary, spin_dims), and an
InvalidExtent names the key it rejects; the .fld header uses the same names.
A Grid holds no memory budget: total_points is an exact Python integer,
which the run's memory guard (`experiments`) compares with the config's
top-level `memory_budget` before anything grid-sized is allocated.  Two
boundary flavors:

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

import math
from dataclasses import dataclass

import numpy as np

from . import codec
from .errors import AxisMismatch, InvalidExtent


@dataclass
class Grid:
    """The grid section's keys, checked and normalised (extent as floats,
    spin_dims defaulting to one scalar component per particle), with the
    coordinates, quadrature weight and spectral wavenumbers they give."""

    particles: int
    dims: int
    n: int
    extent: tuple
    boundary: str = "periodic"
    spin_dims: tuple = ()

    def __post_init__(self):
        if self.boundary not in ("periodic", "dirichlet"):
            raise InvalidExtent("boundary", f"unknown boundary {self.boundary!r}")
        lo, hi = self.extent
        if not hi > lo:
            raise InvalidExtent("extent", f"needs hi > lo, got {self.extent}")
        if self.n < 8:
            raise InvalidExtent("n", "must be >= 8")
        if self.dims not in (1, 2):
            raise InvalidExtent("dims", "must be 1 or 2 at desk scale")
        spins = tuple(int(s) for s in self.spin_dims)
        if not spins:
            spins = (1,) * self.particles
        if len(spins) != self.particles or any(s < 1 for s in spins):
            raise InvalidExtent("spin_dims", "must give one positive entry per particle")
        lo, hi = float(lo), float(hi)
        self.extent, self.spin_dims = (lo, hi), spins
        n = self.n
        self.n_pos_axes = self.particles * self.dims
        self.total_points = n**self.n_pos_axes * math.prod(spins)
        if self.boundary == "periodic":
            self.dx = (hi - lo) / n
            self.axis_coords = lo + self.dx * np.arange(n)
            self.wavenumbers = 2.0 * np.pi * np.fft.fftfreq(n, d=self.dx)
        else:
            self.dx = (hi - lo) / (n + 1)
            self.axis_coords = lo + self.dx * (1.0 + np.arange(n))
            self.wavenumbers = None
        self.pos_shape = (n,) * self.n_pos_axes
        self.spin_shape = tuple(s for s in spins if s > 1)
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
        dims = self.spin_dims
        return sum(1 for s in dims[:p] if s > 1) if dims[p] > 1 else None

    def particle_axes(self, a: int) -> list:
        """Position-axis indices (0-based, spin excluded) of particle a."""
        d = self.dims
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
    if grid.boundary == "periodic":
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
        "n": grid.n,
        "extent": list(grid.extent),
        "boundary": grid.boundary,
        "spin_dims": list(grid.spin_dims),
        "time": float(time),
        "complex": bool(np.iscomplexobj(arr)),
    }
    codec.write(path, header, arr)


def read_field(path):
    """Returns (values, header dict)."""
    header, (values,) = codec.read(path, lambda h: [(h["shape"], h["complex"])])
    return values, header
