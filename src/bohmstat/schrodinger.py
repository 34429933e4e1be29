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

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ConvergenceFailure
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
    Every dirichlet kinetic operator (the Crank-Nicolson bands, the
    tridiagonal and dense eigensolver routes, apply_hamiltonian) reads it."""
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
    """H amp, for amp of the grid's full_shape: V amp plus, along each
    position axis, -d^2/dx^2 / (2m), spectral (the FFT times -k^2) on a
    periodic grid and the _stencil bands on a dirichlet one."""
    if v is None:
        v = potential_grid(grid, h)
    out = v * amp
    for i, ax in enumerate(grid.pos_axes(amp.shape)):
        m = h.mass_of_axis(grid, i)
        if grid.boundary == "periodic":
            shape = [1] * amp.ndim
            shape[ax] = len(grid.wavenumbers)
            ft = np.fft.fft(amp, axis=ax)
            ft *= (-(grid.wavenumbers**2)).reshape(shape)
            lap = np.fft.ifft(ft, axis=ax)
            out = out - (lap if np.iscomplexobj(amp) else lap.real) / (2.0 * m)
            continue
        diag, off = _stencil(grid, m)
        f = np.moveaxis(amp, ax, -1)
        t = diag * f
        t[..., 1:] += off * f[..., :-1]
        t[..., :-1] += off * f[..., 1:]
        out = out + np.moveaxis(t, -1, ax)
    return out


def energy(psi: WaveField, h: HamiltonianSpec) -> float:
    """<psi|H|psi>; raises if the imaginary residue exceeds 1e-10."""
    grid = psi.grid
    hpsi = apply_hamiltonian(psi.amplitudes, grid, h)
    val = np.sum(np.conj(psi.amplitudes) * hpsi) * grid.weight
    if abs(val.imag) > 1e-10 * max(1.0, abs(val.real)):
        raise ValueError(f"energy has imaginary residue {val.imag}")
    return float(val.real)


def eigenstates(grid: Grid, h: HamiltonianSpec, count: int):
    """Lowest `count` eigenpairs, energies ascending, quadrature-orthonormal.

    H is real symmetric, so every route gives real eigenvectors:
    * 1-D dirichlet without spin: eigh_tridiagonal of the (1,-2,1) stencil
      plus V, at any size;
    * any other grid up to DENSE_EIG_BUDGET points: eigh of the dense H
      (_dense_hamiltonian);
    * larger: ARPACK (eigsh) on a LinearOperator over apply_hamiltonian, see
      _lowest_eigsh.
    Lanczos converges slowly on a fine 1-D Laplacian (a 1-D dirichlet grid of
    8192 points took 44 s under eigsh), so a 1-D periodic grid above the
    budget is slow.
    """
    from scipy.linalg import eigh, eigh_tridiagonal
    from scipy.sparse.linalg import LinearOperator

    total = grid.total_points
    v = potential_grid(grid, h)
    if (grid.n_pos_axes == 1 and not grid.spin_shape
            and grid.boundary == "dirichlet"):
        diag, off = _stencil(grid, h.masses[0])
        vals, vecs = eigh_tridiagonal(diag + v, np.full(total - 1, off),
                                      select="i", select_range=(0, count - 1))
    elif total <= DENSE_EIG_BUDGET:
        vals, vecs = eigh(_dense_hamiltonian(grid, h, v), overwrite_a=True,
                          subset_by_index=(0, count - 1))
    else:
        vals, vecs = _lowest_eigsh(LinearOperator(
            (total, total), dtype=np.float64, matvec=lambda x: apply_hamiltonian(
                x.reshape(grid.full_shape), grid, h, v=v).ravel()), count)
    amps = vecs.astype(np.complex128) / np.sqrt(grid.weight)
    return list(vals), [WaveField(grid, amps[:, i].reshape(grid.full_shape))
                        for i in range(count)]


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


def _lowest_eigsh(op, count: int):
    """The `count` lowest eigenpairs of the real symmetric operator `op`,
    ascending, by ARPACK from a fixed start vector, so that runs repeat.
    Raises ConvergenceFailure when ARPACK does not converge.

    Lanczos can return fewer copies of a degenerate level than there are
    (72x72 periodic oscillator: 2 of 10 start vectors lost an E = 3 state to
    E = 4).  So `op` is solved again with the vectors found shifted above the
    highest found; any level of that solve below the highest found is one the
    first solve missed, and replaces it.
    """
    from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

    v0 = np.random.default_rng(0).standard_normal(op.shape[0])
    try:
        vals, vecs = eigsh(op, k=count, which="SA", v0=v0)
        while True:
            order = np.argsort(vals)[:count]
            vals, vecs = vals[order], vecs[:, order]
            shift = vals[-1] - vals[0] + 1.0
            low, new = eigsh(LinearOperator(op.shape, dtype=op.dtype, matvec=(
                lambda x, u=vecs, s=shift: op.matvec(x) + s * (u @ (u.T @ x)))),
                k=count, which="SA", v0=v0)
            missed = low < vals[-1] - 1e-10 * max(1.0, abs(vals[-1]))
            if not missed.any():
                return vals, vecs
            vals = np.append(vals, low[missed])
            vecs = np.column_stack([vecs, new[:, missed]])
    except ArpackNoConvergence as exc:
        raise ConvergenceFailure(f"ARPACK eigsh: {exc}") from exc
