"""Hamiltonian construction and unitary time evolution.

H = sum_a -laplacian_a / (2 m_a) + V(x), hbar = 1.

The grid's boundary picks the stepper:
* periodic: the split step, Strang splitting with exact kinetic phases in
  k-space; unitary to round-off.
* dirichlet: Crank-Nicolson, Cayley form per position axis (the kinetic
  axis factors commute exactly) plus a Cayley factor for the diagonal
  potential, in Strang order.  Every factor is exactly unitary, the splitting
  error is O(dt^2).  Each axis factor is one LAPACK ?gtsv call over all the
  grid lines along that axis.

Both kinetic steps are diagonal in the kinetic eigenbasis (Fourier modes, or
the orthonormal DST-I of each axis, whose modes are the (1,-2,1) stencil's).
_EigenbasisStepper works there: a split step is its one-step kinetic factor
between two half potential factors, and with V == 0 on the grid (free, or box
on a dirichlet grid) n steps of either stepper are one transform pair and one
factor; that path builds no bands and imports no scipy.  Only Crank-Nicolson
with V != 0 (_CrankNicolsonStepper) steps in position space.

A stepper's advance(amp, n) advances the complex128 array amp in place by n
time steps.  evolve owns that working array, calls advance once per frame and
yields a copy of it, one frame at a time.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DenseBudgetExceeded
from .lattice import Grid, WaveField

DENSE_EIG_BUDGET = 4096


# the parameters each kind of potential term requires (see HamiltonianSpec)
POTENTIAL_PARAMS = {
    "free": (), "box": (), "harmonic": ("omega",),
    "gaussian_barrier": ("height", "width", "center"),
    "pair_coupling": ("lam",), "spin_coupling": ("mu",),
}


@dataclass
class HamiltonianSpec:
    """Masses plus a list of named analytic potential terms.

    Supported terms (params in natural units):
      {"kind": "free"}
      {"kind": "harmonic", "omega": w or [w_a]}            (1/2) m w^2 x^2 per axis
      {"kind": "gaussian_barrier", "height": h, "width": w, "center": c}
      {"kind": "pair_coupling", "lam": l}                  l * (x_1 - x_2)^2
      {"kind": "spin_coupling", "mu": m, "particle": a}    m * sigma_z * x  (spin-1/2)
    """

    masses: tuple
    potential: list = field(default_factory=lambda: [{"kind": "free"}])
    time_step: float = 1e-3

    def __post_init__(self):
        self.masses = tuple(float(m) for m in self.masses)
        if not all(math.isfinite(m) and m > 0 for m in self.masses):
            raise ValueError("masses must be finite and positive")

    def mass_of_axis(self, grid: Grid, pos_axis: int) -> float:
        return self.masses[pos_axis // grid.dims]


@np.errstate(all="ignore")  # a term out of float range gives an inf or a nan
def potential_grid(grid: Grid, h: HamiltonianSpec) -> np.ndarray:
    """Total potential on the grid, shape spin_shape + pos_shape; ConfigError
    unless it is finite everywhere."""
    coords = grid.meshgrid()
    v_pos = np.zeros(grid.pos_shape)
    v_full = None
    for term in h.potential:
        kind = term["kind"]
        if kind in ("free", "box"):
            continue
        elif kind == "harmonic":
            omegas = np.broadcast_to(term["omega"], grid.particles)
            for a in range(grid.particles):
                for ax in grid.particle_axes(a):
                    v_pos = v_pos + 0.5 * h.masses[a] * omegas[a] ** 2 * coords[ax] ** 2
        elif kind == "gaussian_barrier":
            hgt, wid, cen = term["height"], np.float64(term["width"]), term["center"]
            for ax in range(grid.n_pos_axes):
                v_pos = v_pos + hgt * np.exp(-((coords[ax] - cen) ** 2) / (2 * wid**2))
        elif kind == "pair_coupling":
            lam = term["lam"]
            ax1 = grid.particle_axes(0)[0]
            ax2 = grid.particle_axes(1)[0]
            v_pos = v_pos + lam * (coords[ax1] - coords[ax2]) ** 2
        elif kind == "spin_coupling":
            mu, a = term["mu"], term.get("particle", 0)
            if grid.spin_dims[a] != 2:
                raise ValueError("spin_coupling needs a spin-1/2 particle")
            if v_full is None:
                v_full = np.zeros(grid.full_shape)
            sz = np.array([1.0, -1.0])
            shape = [1] * len(grid.full_shape)
            shape[grid.spin_axis(a)] = 2
            x = coords[grid.particle_axes(a)[0]]
            v_full = v_full + sz.reshape(shape) * mu * x
        else:
            raise ValueError(f"unknown potential term {kind!r}")
    v = (np.broadcast_to(v_pos, grid.full_shape).copy() if v_full is None
         else v_full + v_pos)
    if not np.isfinite(v).all():
        raise ConfigError("hamiltonian.potential", "is not finite on the grid")
    return v


def _dst1(amp, axis):
    """Orthonormal DST-I of `amp` along `axis` (its own inverse), from the FFT
    of the odd extension [0, x, 0, -reversed(x)] of length 2(n+1)."""
    n = amp.shape[axis]
    x = np.moveaxis(amp, axis, -1)
    ext = np.zeros(x.shape[:-1] + (2 * n + 2,), dtype=np.complex128)
    ext[..., 1:n + 1] = x
    ext[..., n + 2:] = -x[..., ::-1]
    y = np.fft.fft(ext, axis=-1)[..., 1:n + 1]
    y *= 0.5j * np.sqrt(2.0 / (n + 1))
    return np.moveaxis(y, -1, axis)


def _stencil(grid: Grid, m: float):
    """Diagonal and off-diagonal of the kinetic matrix -D2 / (2m) of one
    dirichlet axis, D2 the (1,-2,1)/dx^2 stencil with zero boundary values.
    Every dirichlet kinetic operator (the Crank-Nicolson bands, both
    eigensolver routes, apply_hamiltonian) reads it."""
    return 1.0 / (m * grid.dx**2), -1.0 / (2 * m * grid.dx**2)


class _CrankNicolsonStepper:
    """Cayley factors: exp(-iV dt/2) ~ (1-iVdt/4)/(1+iVdt/4), and per-axis
    tridiagonal (1+i dt T_ax/2)^-1 (1-i dt T_ax/2), solved by LAPACK ?gtsv."""

    def __init__(self, grid: Grid, h: HamiltonianSpec, v: np.ndarray):
        from scipy.linalg import get_lapack_funcs

        dt = h.time_step
        self.half_v = (1.0 - 0.25j * dt * v) / (1.0 + 0.25j * dt * v)
        self.axes = grid.pos_axes(grid.full_shape)
        n = grid.n
        self.z = z = 0.5j * dt
        self.bands = []
        for ax in range(grid.n_pos_axes):
            diag, off = _stencil(grid, h.mass_of_axis(grid, ax))
            side = np.full(n - 1, z * off, dtype=np.complex128)
            self.bands.append((side, np.full(n, 1.0 + z * diag), off, diag))
        (self.gtsv,) = get_lapack_funcs(("gtsv",), (self.bands[0][0],))

    def _axis_solve(self, amp, pos_axis):
        """(1 + i dt T/2)^-1 (1 - i dt T/2) along one position axis, in place."""
        side, d, off, diag = self.bands[pos_axis]
        z = self.z
        moved = amp.swapaxes(self.axes[pos_axis], -1)
        rows = moved.reshape(-1, moved.shape[-1])
        # rhs = (1 - i dt T/2) psi, one row per system; rhs.T is the
        # Fortran-ordered (n, nrhs) block ?gtsv solves in place
        rhs = (1.0 - z * diag) * rows
        rhs[:, :-1] -= z * off * rows[:, 1:]
        rhs[:, 1:] -= z * off * rows[:, :-1]
        if not np.isfinite(rhs).all():
            raise ValueError("Crank-Nicolson right-hand side holds infs or NaNs")
        *_, sol, info = self.gtsv(side, d, side, rhs.T, overwrite_b=True)
        if info != 0:
            raise np.linalg.LinAlgError(f"?gtsv failed with info = {info}")
        moved[...] = sol.T.reshape(moved.shape)

    def advance(self, amp, n):
        """Advance the complex128 array `amp` by n time steps, in place."""
        for _ in range(n):
            amp *= self.half_v
            for ax in range(len(self.axes)):
                self._axis_solve(amp, ax)
            amp *= self.half_v


class _EigenbasisStepper:
    """One kinetic step multiplies kinetic eigenmode k by exp(-i theta_k):

    * periodic (split step): Fourier modes, theta_k = dt sum_a k_a^2 / (2 m_a).
    * dirichlet (Crank-Nicolson, V == 0 only): DST-I modes of each axis's
      (1,-2,1) stencil, eigenvalue lambda_k = 2 / (m dx^2) sin^2(pi k /
      (2(N+1))); the Cayley factor c_k = (1 - i dt lambda_k/2) /
      (1 + i dt lambda_k/2) is exp(-2i arctan(dt lambda_k / 2)), and the
      axis angles add.

    When V == 0, n steps are one transform to the eigenbasis, one factor
    exp(-i n theta_k) and one transform back.  Otherwise each step is the
    split step: exp(-i V dt/2), the one-step kinetic factor, exp(-i V dt/2).
    """

    def __init__(self, grid: Grid, h: HamiltonianSpec, v: np.ndarray):
        dt = h.time_step
        # the position axes in fftn's own order of 1-D transforms, last first
        self.axes = grid.pos_axes(grid.full_shape)[::-1]
        self.periodic = grid.boundary == "periodic"
        self.half_v = np.exp(-0.5j * dt * v) if v.any() else None
        n = grid.n
        s2 = np.sin(np.pi * np.arange(1, n + 1) / (2 * (n + 1))) ** 2
        theta = np.zeros(grid.pos_shape)
        for ax in range(grid.n_pos_axes):
            m = h.mass_of_axis(grid, ax)
            if self.periodic:  # k^2 / (2m), times dt below
                angle = grid.wavenumbers**2 / (2.0 * m)
            else:
                lam = 2.0 / (m * grid.dx**2) * s2
                angle = 2.0 * np.arctan(0.5 * dt * lam)
            shape = [1] * grid.n_pos_axes
            shape[ax] = n
            theta = theta + angle.reshape(shape)
        self.theta = dt * theta if self.periodic else theta
        self._factors = {}

    def _kinetic(self, amp, n):
        """n kinetic steps, in place."""
        if n not in self._factors:
            self._factors[n] = np.exp(-1j * n * self.theta)
        if self.periodic:
            for ax in self.axes:
                np.fft.fft(amp, axis=ax, out=amp)
            amp *= self._factors[n]
            for ax in self.axes:
                np.fft.ifft(amp, axis=ax, out=amp)
            return
        if not np.isfinite(amp).all():
            raise ValueError("Crank-Nicolson amplitude holds infs or NaNs")
        modes = amp
        for ax in self.axes:
            modes = _dst1(modes, ax)
        modes *= self._factors[n]
        for ax in self.axes:
            modes = _dst1(modes, ax)
        amp[...] = modes

    def advance(self, amp, n):
        """Advance the complex128 array `amp` by n time steps, in place."""
        if self.half_v is None:
            return self._kinetic(amp, n)
        for _ in range(n):
            amp *= self.half_v
            self._kinetic(amp, 1)
            amp *= self.half_v


def make_stepper(grid: Grid, h: HamiltonianSpec):
    """The stepper of the grid's boundary: the split step on a periodic grid,
    Crank-Nicolson on a dirichlet one; both but Crank-Nicolson with V != 0
    step in the kinetic eigenbasis."""
    if h.time_step > grid.dx**2 * min(h.masses) / np.pi:
        warnings.warn(
            "time_step exceeds dx^2 * m_min / pi; accuracy may degrade",
            stacklevel=2,
        )
    v = potential_grid(grid, h)
    if grid.boundary == "dirichlet" and v.any():
        return _CrankNicolsonStepper(grid, h, v)
    return _EigenbasisStepper(grid, h, v)


def evolve(psi: WaveField, h: HamiltonianSpec, t_final: float, frame_stride: int = 1):
    """A generator of the frames of the evolution to t_final, one every
    `frame_stride` steps.

    The stepper is built (and the time step checked) here; each frame
    is stepped only when it is asked for, and the generator keeps no frame
    it has yielded, so a consumer that drops each frame after use holds
    O(grid) memory however many frames there are.  The initial state is
    frame 0; the last frame is at t_final even when the step count is not a
    multiple of `frame_stride`.  Steps are fixed at h.time_step; t_final is
    rounded to the nearest whole number of steps.  Callers that want every
    frame at once call list(evolve(...)).
    """
    stepper = make_stepper(psi.grid, h)
    n_steps = int(round((t_final - psi.time) / h.time_step))
    return _frames(stepper, psi, h.time_step, n_steps, frame_stride)


def _frames(stepper, psi: WaveField, dt: float, n_steps: int, frame_stride: int):
    yield WaveField(psi.grid, psi.amplitudes.copy(), psi.time)
    amp = psi.amplitudes.copy()
    done = 0
    while done < n_steps:
        n = min(frame_stride, n_steps - done)
        stepper.advance(amp, n)
        done += n
        yield WaveField(psi.grid, amp.copy(), psi.time + done * dt)


def frame_count(h: HamiltonianSpec, duration: float, frame_stride: int) -> int:
    """Number of frames evolve yields over `duration` (t_final - psi.time)."""
    n_steps = int(round(duration / h.time_step))
    return 1 + max(0, -(-n_steps // frame_stride))


def apply_hamiltonian(amp, grid: Grid, h: HamiltonianSpec, v=None):
    """H amp, for a complex amp of the grid's full_shape: V amp plus, along
    each position axis, -d^2/dx^2 / (2m), spectral (the FFT times -k^2) on a
    periodic grid and the _stencil bands on a dirichlet one, through one
    scratch grid reused across axes."""
    if v is None:
        v = potential_grid(grid, h)
    out = v * amp
    scratch = np.empty_like(out)
    for i, ax in enumerate(grid.pos_axes(amp.shape)):
        m = h.mass_of_axis(grid, i)
        if grid.boundary == "periodic":
            shape = [1] * amp.ndim
            shape[ax] = len(grid.wavenumbers)
            np.fft.fft(amp, axis=ax, out=scratch)
            scratch *= (-(grid.wavenumbers**2)).reshape(shape)
            np.fft.ifft(scratch, axis=ax, out=scratch)
            scratch /= 2.0 * m
            out -= scratch
            continue
        diag, off = _stencil(grid, m)
        f = np.moveaxis(amp, ax, -1)
        t = np.moveaxis(scratch, ax, -1)
        np.multiply(diag, f, out=t)
        t[..., 1:] += off * f[..., :-1]
        t[..., :-1] += off * f[..., 1:]
        out += scratch
    return out


def energy(psi: WaveField, h: HamiltonianSpec) -> float:
    """<psi|H|psi>; raises if the imaginary residue exceeds 1e-10."""
    grid = psi.grid
    hpsi = apply_hamiltonian(psi.amplitudes, grid, h)
    val = np.sum(np.conj(psi.amplitudes) * hpsi) * grid.weight
    if abs(val.imag) > 1e-10 * max(1.0, abs(val.real)):
        raise ValueError(f"energy has imaginary residue {val.imag}")
    return float(val.real)


def eigen_route(grid: Grid, h: HamiltonianSpec) -> str:
    """The route of eigenstates: "separable" when every term of V is a sum
    of one-axis terms, else "dense".  DenseBudgetExceeded when the route's
    dense eigh (H, or a periodic axis) exceeds DENSE_EIG_BUDGET."""
    separable = all(t["kind"] in ("free", "box", "harmonic", "gaussian_barrier")
                    for t in h.potential)
    rows = (grid.n if grid.boundary == "periodic" else 0) if separable \
        else grid.total_points
    if rows > DENSE_EIG_BUDGET:
        raise DenseBudgetExceeded(f"a dense eigh of {rows} rows exceeds "
                                  f"DENSE_EIG_BUDGET {DENSE_EIG_BUDGET}")
    return "separable" if separable else "dense"


def eigenstates(grid: Grid, h: HamiltonianSpec, count: int):
    """Lowest `count` eigenpairs, energies ascending, quadrature-orthonormal.

    H is real symmetric, so both routes (eigen_route) give real eigenvectors.
    Dense: eigh of _dense_hamiltonian.  Separable: products of each axis's
    lowest min(count, n) 1-D levels, from eigh_tridiagonal of the stencil
    (dirichlet) or eigh of _kinetic_matrix (periodic) plus the axis's V,
    merged by summed energy, stable over their C-ordered index with the spin
    components first (V does not act on spin, so each spatial level repeats
    once per spin component)."""
    from scipy.linalg import eigh, eigh_tridiagonal

    if eigen_route(grid, h) == "dense":
        vals, vecs = eigh(_dense_hamiltonian(grid, h, potential_grid(grid, h)),
                          overwrite_a=True, subset_by_index=(0, count - 1))
        return list(vals), [_state(grid, (), vecs[:, i]) for i in range(count)]
    v = potential_grid(grid, h)[(0,) * grid.n_spin_axes]
    d, k = grid.n_pos_axes, min(count, grid.n)
    summed, levels = np.zeros(grid.spin_shape), []
    for ax in range(d):
        # V's line through the first point; V there counts on axis 0 only
        line = v[(0,) * ax + (slice(None),) + (0,) * (d - ax - 1)] \
            - (v.flat[0] if ax else 0.0)
        if grid.boundary == "periodic":
            mat = _kinetic_matrix(grid, h.mass_of_axis(grid, ax))
            mat[np.diag_indices(grid.n)] += line
            vals, vecs = eigh(mat, overwrite_a=True, subset_by_index=(0, k - 1))
        else:
            diag, off = _stencil(grid, h.mass_of_axis(grid, ax))
            vals, vecs = eigh_tridiagonal(diag + line, np.full(grid.n - 1, off),
                                          select="i", select_range=(0, k - 1))
        summed = np.add.outer(summed, vals)
        levels.append(vecs)
    del v
    order = np.argsort(summed, axis=None, kind="stable")[:count]
    energies, shape = summed.ravel()[order], summed.shape
    del summed
    states = []
    for flat in order:
        index = np.unravel_index(flat, shape)
        states.append(_state(grid, index[:-d], functools.reduce(
            np.multiply.outer, [u[:, i] for u, i in zip(levels, index[-d:])])))
    return list(energies), states


def _state(grid: Grid, spin: tuple, vec) -> WaveField:
    """Spin component `spin` the real unit vector `vec`, quadrature-normed."""
    amp = np.zeros(grid.full_shape, dtype=np.complex128)
    amp[spin] = vec.reshape(grid.full_shape[len(spin):])
    amp /= np.sqrt(grid.weight)
    return WaveField(grid, amp)


def eigenstate_bytes(grid: Grid, h: HamiltonianSpec, count: int) -> int:
    """The most eigenstates holds at once: `count` states of 16 N bytes; on
    the dense route H, eigh's copy (8 N^2 each), the kinetic blocks (8 N n
    twice) and eigh's N x count vectors; on the separable route a periodic
    axis's matrix, eigh's copy and each axis's vectors (8 n^2 each), and
    the merge's summed energies and argsort (24 N)."""
    total, n = grid.total_points, grid.n
    if eigen_route(grid, h) == "dense":
        return 16 * total * (total + n) + 24 * total * count
    return 16 * total * count + 8 * n * n * (2 + grid.n_pos_axes) + 24 * total


def _kinetic_matrix(grid: Grid, m: float) -> np.ndarray:
    """-d^2/dx^2 / (2m) on one position axis: the (1,-2,1) stencil on a
    dirichlet grid, and on a periodic one the circulant whose first column is
    ifft(k^2) / (2m)."""
    n = grid.n
    if grid.boundary == "periodic":
        column = np.fft.ifft(grid.wavenumbers**2).real / (2.0 * m)
        return column[(np.arange(n)[:, None] - np.arange(n)) % n]
    diag, off = _stencil(grid, m)
    return diag * np.eye(n) + off * (np.eye(n, k=1) + np.eye(n, k=-1))


def _dense_hamiltonian(grid: Grid, h: HamiltonianSpec, v) -> np.ndarray:
    """H on the flattened grid: diag(V) plus each position axis's 1-D kinetic
    matrix on every grid line along that axis, i.e. I_before (x) T (x)
    I_after in the grid's axis order."""
    shape = grid.full_shape
    mat = np.diag(v.ravel())
    for ax, a in enumerate(grid.pos_axes(shape)):
        before, after = math.prod(shape[:a]), math.prod(shape[a + 1:])
        lines = mat.reshape(before, shape[a], after, before, shape[a], after)
        b, c = np.arange(before)[:, None], np.arange(after)
        lines[b, :, c, b, :, c] += _kinetic_matrix(grid, h.mass_of_axis(grid, ax))
    return mat

