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

When V == 0 on the grid (free, or box on a dirichlet grid) each stepper's
step is one constant operator, diagonal in the kinetic eigenbasis: Fourier
modes for the split step, the orthonormal DST-I of each axis (the eigenvectors
of the (1,-2,1) stencil) for Crank-Nicolson, where the Cayley factor of mode k
is c_k = (1 - i dt lambda_k/2) / (1 + i dt lambda_k/2).  n steps are then one
transform pair and one factor (c_k^n, or exp(-i n dt K)); that path builds no
potential factors or bands and imports no scipy.

A stepper's step(amp) advances the complex128 array amp in place by one time
step, and advance(amp, n) by n steps (FFTs with out=amp, Cayley solves and
inverse transforms written back into it).  evolve owns that working array,
calls advance once per frame and yields a copy of it, one frame at a time.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceFailure
from .lattice import Grid, WaveField, laplacian_axis

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
        if any(m <= 0 for m in self.masses):
            raise ValueError("masses must be positive")

    def mass_of_axis(self, grid: Grid, pos_axis: int) -> float:
        return self.masses[pos_axis // grid.spec.dims_per_particle]


def potential_grid(grid: Grid, h: HamiltonianSpec) -> np.ndarray:
    """Total potential on the grid, shape spin_shape + pos_shape."""
    coords = grid.meshgrid()
    v_pos = np.zeros(grid.pos_shape)
    v_full = None
    for term in h.potential:
        kind = term["kind"]
        if kind in ("free", "box"):
            continue
        elif kind == "harmonic":
            om = term["omega"]
            omegas = [om] * grid.spec.particle_count if np.isscalar(om) else list(om)
            for a in range(grid.spec.particle_count):
                for ax in grid.particle_axes(a):
                    v_pos = v_pos + 0.5 * h.masses[a] * omegas[a] ** 2 * coords[ax] ** 2
        elif kind == "gaussian_barrier":
            hgt, wid, cen = term["height"], term["width"], term["center"]
            for ax in range(grid.n_pos_axes):
                v_pos = v_pos + hgt * np.exp(-((coords[ax] - cen) ** 2) / (2 * wid**2))
        elif kind == "pair_coupling":
            lam = term["lam"]
            ax1 = grid.particle_axes(0)[0]
            ax2 = grid.particle_axes(1)[0]
            v_pos = v_pos + lam * (coords[ax1] - coords[ax2]) ** 2
        elif kind == "spin_coupling":
            mu, a = term["mu"], term.get("particle", 0)
            if grid.spec.spin_dims[a] != 2:
                raise ValueError("spin_coupling needs a spin-1/2 particle")
            if v_full is None:
                v_full = np.zeros(grid.full_shape)
            spin_axis = sum(1 for s in grid.spec.spin_dims[:a] if s > 1)
            sz = np.array([1.0, -1.0])
            shape = [1] * len(grid.full_shape)
            shape[spin_axis] = 2
            x = coords[grid.particle_axes(a)[0]]
            v_full = v_full + sz.reshape(shape) * mu * x
        else:
            raise ValueError(f"unknown potential term {kind!r}")
    if v_full is None:
        return np.broadcast_to(v_pos, grid.full_shape).copy()
    return v_full + v_pos


def _kinetic_k2(grid: Grid, h: HamiltonianSpec) -> np.ndarray:
    """sum_a k_a^2 / (2 m_a) on the wavenumber grid, shape pos_shape."""
    k2_total = np.zeros(grid.pos_shape)
    for ax in range(grid.n_pos_axes):
        shape = [1] * grid.n_pos_axes
        shape[ax] = len(grid.wavenumbers)
        k2_total = k2_total + grid.wavenumbers.reshape(shape) ** 2 / (
            2.0 * h.mass_of_axis(grid, ax)
        )
    return k2_total


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


def _fft_axes(grid: Grid) -> tuple:
    """The position axes in fftn's own order of 1-D transforms, last first."""
    return tuple(reversed([grid.pos_axis(i) for i in range(grid.n_pos_axes)]))


class _PerStep:
    """A stepper whose n steps are n calls of its step."""

    def advance(self, amp, n):
        """Advance `amp` by n time steps, in place."""
        for _ in range(n):
            self.step(amp)


class _SplitStepper(_PerStep):
    def __init__(self, grid: Grid, h: HamiltonianSpec, v: np.ndarray):
        dt = h.time_step
        self.half_v = np.exp(-0.5j * dt * v)
        self.kin_phase = np.exp(-1j * dt * _kinetic_k2(grid, h))
        self.fft_axes = _fft_axes(grid)

    def step(self, amp):
        """Advance the complex128 array `amp` by one time step, in place."""
        amp *= self.half_v
        for ax in self.fft_axes:
            np.fft.fft(amp, axis=ax, out=amp)
        amp *= self.kin_phase
        for ax in self.fft_axes:
            np.fft.ifft(amp, axis=ax, out=amp)
        amp *= self.half_v


class _CrankNicolsonStepper(_PerStep):
    """Cayley factors: exp(-iV dt/2) ~ (1-iVdt/4)/(1+iVdt/4), and per-axis
    tridiagonal (1+i dt T_ax/2)^-1 (1-i dt T_ax/2), solved by LAPACK ?gtsv."""

    def __init__(self, grid: Grid, h: HamiltonianSpec, v: np.ndarray):
        from scipy.linalg import get_lapack_funcs

        dt = h.time_step
        self.half_v = (1.0 - 0.25j * dt * v) / (1.0 + 0.25j * dt * v)
        self.grid = grid
        n = grid.spec.points_per_axis
        self.z = z = 0.5j * dt
        self.bands = []
        for ax in range(grid.n_pos_axes):
            m = h.mass_of_axis(grid, ax)
            # T = -(1/2m) D2, D2 tridiagonal (1,-2,1)/dx^2 with zero boundary
            off = -1.0 / (2 * m * grid.dx**2)
            diag = 1.0 / (m * grid.dx**2)
            side = np.full(n - 1, z * off, dtype=np.complex128)
            self.bands.append((side, np.full(n, 1.0 + z * diag), off, diag))
        (self.gtsv,) = get_lapack_funcs(("gtsv",), (self.bands[0][0],))

    def _axis_solve(self, amp, pos_axis):
        """(1 + i dt T/2)^-1 (1 - i dt T/2) along one position axis, in place."""
        side, d, off, diag = self.bands[pos_axis]
        z = self.z
        moved = amp.swapaxes(self.grid.pos_axis(pos_axis), -1)
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

    def step(self, amp):
        """Advance the complex128 array `amp` by one time step, in place."""
        amp *= self.half_v
        for ax in range(self.grid.n_pos_axes):
            self._axis_solve(amp, ax)
        amp *= self.half_v


class _KineticStepper:
    """Either stepper when V == 0: one step multiplies kinetic eigenmode k by
    exp(-i theta_k), so n steps are one transform to the eigenbasis, one
    factor exp(-i n theta_k) and one transform back.

    * periodic (split step): Fourier modes, theta_k = dt sum_a k_a^2 / (2 m_a).
    * dirichlet (Crank-Nicolson): DST-I modes of each axis's (1,-2,1) stencil,
      eigenvalue lambda_k = 2 / (m dx^2) sin^2(pi k / (2(N+1))); the Cayley
      factor c_k = (1 - i dt lambda_k/2) / (1 + i dt lambda_k/2) is
      exp(-2i arctan(dt lambda_k / 2)), and the axis angles add.
    """

    def __init__(self, grid: Grid, h: HamiltonianSpec):
        dt = h.time_step
        self.axes = _fft_axes(grid)
        self.periodic = grid.spec.boundary == "periodic"
        if self.periodic:
            self.theta = dt * _kinetic_k2(grid, h)
        else:
            n = grid.spec.points_per_axis
            s2 = np.sin(np.pi * np.arange(1, n + 1) / (2 * (n + 1))) ** 2
            self.theta = np.zeros(grid.pos_shape)
            for ax in range(grid.n_pos_axes):
                lam = 2.0 / (h.mass_of_axis(grid, ax) * grid.dx**2) * s2
                shape = [1] * grid.n_pos_axes
                shape[ax] = n
                self.theta = self.theta + 2.0 * np.arctan(0.5 * dt * lam).reshape(shape)
        self._factors = {}

    def advance(self, amp, n):
        """Advance `amp` by n time steps, in place."""
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

    def step(self, amp):
        """Advance the complex128 array `amp` by one time step, in place."""
        self.advance(amp, 1)


def make_stepper(grid: Grid, h: HamiltonianSpec):
    """The stepper of the grid's boundary: the split step on a periodic grid,
    Crank-Nicolson on a dirichlet one, and either in its kinetic eigenbasis
    when V == 0."""
    if h.time_step > grid.dx**2 * min(h.masses) / np.pi:
        warnings.warn(
            "time_step exceeds dx^2 * m_min / pi; accuracy may degrade",
            stacklevel=2,
        )
    v = potential_grid(grid, h)
    if not v.any():
        return _KineticStepper(grid, h)
    if grid.spec.boundary == "periodic":
        return _SplitStepper(grid, h, v)
    return _CrankNicolsonStepper(grid, h, v)


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
    """H amp; amp may carry leading batch axes before grid.full_shape."""
    if v is None:
        v = potential_grid(grid, h)
    out = v * amp
    for ax in range(grid.n_pos_axes):
        out = out - laplacian_axis(amp, grid, ax) / (2.0 * h.mass_of_axis(grid, ax))
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
    * any other grid up to DENSE_EIG_BUDGET points: eigh of the matrix one
      LinearOperator over apply_hamiltonian makes of the identity, a block
      of columns per apply_hamiltonian call (_hamiltonian_operator);
    * larger: ARPACK (eigsh) on that operator, see _lowest_eigsh.
    Lanczos converges slowly on a fine 1-D Laplacian (a 1-D dirichlet grid of
    8192 points took 44 s under eigsh), so a 1-D periodic grid above the
    budget is slow.
    """
    from scipy.linalg import eigh, eigh_tridiagonal

    total = grid.spec.total_points
    v = potential_grid(grid, h)
    if (grid.n_pos_axes == 1 and not grid.spin_shape
            and grid.spec.boundary == "dirichlet"):
        m = h.masses[0]
        n = grid.spec.points_per_axis
        diag = 1.0 / (m * grid.dx**2) + v
        off = np.full(n - 1, -1.0 / (2 * m * grid.dx**2))
        vals, vecs = eigh_tridiagonal(diag, off, select="i",
                                      select_range=(0, count - 1))
    else:
        op = _hamiltonian_operator(grid, h, v)
        vals, vecs = (eigh(op @ np.eye(total), overwrite_a=True,
                           subset_by_index=(0, count - 1))
                      if total <= DENSE_EIG_BUDGET else _lowest_eigsh(op, count))
    amps = vecs.astype(np.complex128) / np.sqrt(grid.weight)
    return list(vals), [WaveField(grid, amps[:, i].reshape(grid.full_shape))
                        for i in range(count)]


# columns of the identity per apply_hamiltonian call when the dense matrix is
# built: about 4 MiB of complex FFT work at any grid size
_COLUMN_BLOCK_POINTS = 1 << 18


def _hamiltonian_operator(grid: Grid, h: HamiltonianSpec, v):
    """H on the flattened grid as a real LinearOperator.  A block of columns
    goes through apply_hamiltonian at once, on a leading batch axis, so
    building the dense matrix takes total / block calls, not one per
    column; a matvec is a block of one."""
    from scipy.sparse.linalg import LinearOperator

    total = grid.spec.total_points
    block = max(1, _COLUMN_BLOCK_POINTS // total)

    def matmat(cols):
        out = np.empty((total, cols.shape[1]))
        for j in range(0, cols.shape[1], block):
            batch = cols[:, j:j + block].T.reshape((-1,) + grid.full_shape)
            out[:, j:j + block] = apply_hamiltonian(
                batch, grid, h, v=v).reshape(-1, total).T
        return out

    return LinearOperator((total, total), dtype=np.float64, matmat=matmat,
                          matvec=lambda x: matmat(x.reshape(total, 1)))


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
