import numpy as np
import pytest

from bohmstat import schrodinger
from bohmstat.lattice import Grid, WaveField, integrate
from bohmstat.schrodinger import (DENSE_EIG_BUDGET, HamiltonianSpec,
                                  apply_hamiltonian, eigenstates, energy,
                                  evolve, frame_count, make_stepper,
                                  potential_grid)


def gaussian_packet(grid, center, width, momentum):
    x = grid.axis_coords
    amp = ((2 * np.pi * width**2) ** -0.25
           * np.exp(-(x - center) ** 2 / (4 * width**2) + 1j * momentum * x))
    return WaveField(grid, amp).normalized()


def packet_moments(psi):
    g = psi.grid
    rho = np.abs(psi.amplitudes) ** 2
    mean = integrate(g.axis_coords * rho, g)
    var = integrate((g.axis_coords - mean) ** 2 * rho, g)
    return mean, var


class TestFreePacket:
    """Analytic free-Gaussian dispersion: <x> = x0 + (p/m) t and
    Var = s^2 + t^2/(4 m^2 s^2)."""

    def test_drift_and_spread(self):
        grid = Grid(1, 1, 256, (-16.0, 16.0))
        h = HamiltonianSpec((1.0,), [{"kind": "free"}], time_step=1e-3)
        psi = gaussian_packet(grid, -4.0, 1.0, 1.0)
        frames = list(evolve(psi, h, 1.0, frame_stride=1000))
        mean, var = packet_moments(frames[-1])
        assert mean == pytest.approx(-3.0, abs=1e-6)
        assert var == pytest.approx(1.0 + 0.25, abs=1e-6)

    def test_norm_and_energy_conserved(self):
        grid = Grid(1, 1, 128, (-12.0, 12.0))
        h = HamiltonianSpec((1.0,), [{"kind": "free"}], time_step=1e-3)
        psi = gaussian_packet(grid, 0.0, 1.0, 2.0)
        e0 = energy(psi, h)
        frames = list(evolve(psi, h, 0.5, frame_stride=500))
        assert frames[-1].norm_sq() == pytest.approx(1.0, abs=1e-12)
        assert energy(frames[-1], h) == pytest.approx(e0, abs=1e-10)


class TestHarmonic:
    def test_coherent_state_period(self):
        # a displaced ground state revisits itself after T = 2 pi / omega
        grid = Grid(1, 1, 256, (-12.0, 12.0))
        h = HamiltonianSpec((1.0,), [{"kind": "harmonic", "omega": 1.0}],
                            time_step=1e-3)
        psi = gaussian_packet(grid, 3.0, np.sqrt(0.5), 0.0)
        frames = list(evolve(psi, h, 2 * np.pi,
                             frame_stride=int(2 * np.pi / 1e-3)))
        overlap = abs(np.vdot(frames[0].amplitudes, frames[-1].amplitudes)
                      * grid.weight)
        assert overlap == pytest.approx(1.0, abs=1e-4)

    def test_classical_oscillation_of_mean(self):
        grid = Grid(1, 1, 256, (-12.0, 12.0))
        h = HamiltonianSpec((1.0,), [{"kind": "harmonic", "omega": 1.0}],
                            time_step=1e-3)
        psi = gaussian_packet(grid, 3.0, np.sqrt(0.5), 0.0)
        frames = list(evolve(psi, h, 1.0, frame_stride=1000))
        mean, _ = packet_moments(frames[-1])
        assert mean == pytest.approx(3.0 * np.cos(1.0), abs=1e-4)


class TestCrankNicolson:
    def test_unitary_in_box(self):
        grid = Grid(1, 1, 128, (0.0, 8.0), boundary="dirichlet")
        h = HamiltonianSpec((1.0,), [{"kind": "box"}], time_step=2e-4)
        psi = gaussian_packet(grid, 2.0, 0.4, 0.0)
        frames = list(evolve(psi, h, 0.2, frame_stride=500))
        assert frames[-1].norm_sq() == pytest.approx(frames[0].norm_sq(),
                                                     abs=1e-12)

    def test_box_eigenstate_is_stationary(self):
        grid = Grid(1, 1, 128, (0.0, 4.0), boundary="dirichlet")
        h = HamiltonianSpec((1.0,), [{"kind": "box"}], time_step=2e-4)
        _, states = eigenstates(grid, h, 1)
        frames = list(evolve(states[0], h, 0.2, frame_stride=1000))
        rho0 = np.abs(frames[0].amplitudes) ** 2
        rho1 = np.abs(frames[-1].amplitudes) ** 2
        np.testing.assert_allclose(rho1, rho0, atol=1e-10)


def oracle_split_step(stepper, grid, h, amp):
    """The allocating Strang step through fftn: a new array from every
    operation; it builds its own phases and ignores `stepper`."""
    dt = h.time_step
    half_v = np.exp(-0.5j * dt * potential_grid(grid, h))
    k2_total = np.zeros(grid.pos_shape)
    for ax in range(grid.n_pos_axes):
        shape = [1] * grid.n_pos_axes
        shape[ax] = len(grid.wavenumbers)
        k2_total = k2_total + grid.wavenumbers.reshape(shape) ** 2 / (
            2.0 * h.mass_of_axis(grid, ax)
        )
    pos_axes = grid.pos_axes(grid.full_shape)
    amp = amp * half_v
    amp = np.fft.fftn(amp, axes=pos_axes)
    amp *= np.exp(-1j * dt * k2_total)
    amp = np.fft.ifftn(amp, axes=pos_axes)
    amp *= half_v
    return amp


def oracle_cn_step(stepper, grid, h, amp):
    """The Crank-Nicolson step through scipy's validating solve_banded; it
    builds its own Cayley factors and bands and ignores `stepper`."""
    from scipy.linalg import solve_banded

    dt = h.time_step
    v = potential_grid(grid, h)
    half_v = (1.0 - 0.25j * dt * v) / (1.0 + 0.25j * dt * v)
    n = grid.n
    amp = amp * half_v
    for pos_axis in range(grid.n_pos_axes):
        m = h.mass_of_axis(grid, pos_axis)
        off = -1.0 / (2 * m * grid.dx**2)
        diag = 1.0 / (m * grid.dx**2)
        z = 0.5j * dt
        ab = np.zeros((3, n), dtype=np.complex128)
        ab[0, 1:] = z * off
        ab[1, :] = 1.0 + z * diag
        ab[2, :-1] = z * off
        ax = grid.pos_axes(grid.full_shape)[pos_axis]
        moved = np.moveaxis(amp, ax, 0)
        shp = moved.shape
        flat = moved.reshape(shp[0], -1)
        rhs = (1.0 - z * diag) * flat
        rhs[:-1] -= z * off * flat[1:]
        rhs[1:] -= z * off * flat[:-1]
        sol = solve_banded((1, 1), ab, rhs)
        amp = np.moveaxis(sol.reshape(shp), 0, ax)
    return amp * half_v


def _random_state(grid, seed):
    rng = np.random.default_rng(seed)
    shape = grid.full_shape
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


# the grid's boundary picks the stepper: the split step on a periodic grid,
# Crank-Nicolson (cn) on a dirichlet one
STEPPER_CASES = {
    "split_1d": (Grid(1, 1, 64, (-6.0, 6.0)),
                 [{"kind": "harmonic", "omega": 1.0}], oracle_split_step),
    "split_2d": (Grid(2, 1, 24, (-6.0, 6.0)),
                 [{"kind": "pair_coupling", "lam": 0.3}], oracle_split_step),
    "cn_1d": (Grid(1, 1, 48, (0.0, 4.0), boundary="dirichlet"),
              [{"kind": "harmonic", "omega": 2.0}], oracle_cn_step),
    "cn_2d": (Grid(2, 1, 20, (-3.0, 3.0), boundary="dirichlet"),
              [{"kind": "pair_coupling", "lam": 0.5}], oracle_cn_step),
}


# V == 0 on the grid: the steppers propagate in the kinetic eigenbasis
ZERO_POTENTIAL_CASES = {
    "split_1d": (Grid(1, 1, 64, (-6.0, 6.0)), (1.0,), oracle_split_step),
    "split_2d": (Grid(2, 1, 24, (-6.0, 6.0)), (1.0, 2.5), oracle_split_step),
    "split_spin": (Grid(1, 1, 32, (-6.0, 6.0), spin_dims=(2,)), (1.0,),
                   oracle_split_step),
    "cn_1d": (Grid(1, 1, 48, (0.0, 4.0), boundary="dirichlet"), (1.0,),
              oracle_cn_step),
    "cn_2d": (Grid(2, 1, 20, (-3.0, 3.0), boundary="dirichlet"),
              (1.0, 0.4), oracle_cn_step),
}


def assert_close_to_norm(got, want, tol=1e-12):
    """Every entry within tol times the 2-norm of `want`."""
    assert np.abs(got - want).max() <= tol * np.linalg.norm(want)


class TestStepperOracles:
    """The in-place steppers must match the allocating step and the
    solve_banded step bit for bit when V != 0, and to round-off when V == 0
    (one factor per stored frame is a different floating-point product of
    the same operator)."""

    @pytest.mark.parametrize("case", sorted(STEPPER_CASES))
    def test_200_steps_bit_identical(self, case):
        grid, potential, oracle = STEPPER_CASES[case]
        masses = (1.0,) * grid.particles
        h = HamiltonianSpec(masses, potential, time_step=1e-3)
        stepper = make_stepper(grid, h)
        amp = _random_state(grid, 3)
        want = amp.copy()
        for _ in range(200):
            stepper.advance(amp, 1)
            want = oracle(stepper, grid, h, want)
        np.testing.assert_array_equal(amp, want)

    @pytest.mark.parametrize("case", sorted(ZERO_POTENTIAL_CASES))
    def test_zero_potential_advance_matches_steps(self, case):
        grid, masses, oracle = ZERO_POTENTIAL_CASES[case]
        h = HamiltonianSpec(masses, [{"kind": "free"}], time_step=1e-3)
        stepper = make_stepper(grid, h)
        amp = _random_state(grid, 4)
        want = amp.copy()
        for _ in range(200):
            want = oracle(stepper, grid, h, want)
        # two calls, so two distinct factors
        stepper.advance(amp, 137)
        stepper.advance(amp, 63)
        assert_close_to_norm(amp, want)

    def test_evolve_frames_match_oracle(self):
        # 50 steps at stride 15: frames after 15, 30 and 45 steps, then the
        # remaining 5; bit for bit under a harmonic well, to round-off in
        # the box (V == 0)
        grid = Grid(1, 1, 64, (0.0, 4.0), boundary="dirichlet")
        psi = WaveField(grid, _random_state(grid, 5))
        for potential, tol in (([{"kind": "harmonic", "omega": 2.0}], 0.0),
                               ([{"kind": "box"}], 1e-12)):
            h = HamiltonianSpec((1.0,), potential, time_step=1e-3)
            frames = list(evolve(psi, h, 0.05, frame_stride=15))
            stored = (0, 15, 30, 45, 50)
            assert [f.time for f in frames] == [i * h.time_step for i in stored]
            stepper = make_stepper(grid, h)
            amp = psi.amplitudes.copy()
            for i in range(1, 51):
                amp = oracle_cn_step(stepper, grid, h, amp)
                if i in stored:
                    got = frames[stored.index(i)].amplitudes
                    if tol:
                        assert_close_to_norm(got, amp, tol)
                    else:
                        np.testing.assert_array_equal(got, amp)
            np.testing.assert_array_equal(psi.amplitudes, frames[0].amplitudes)

    def test_cn_rejects_nan_amplitude(self):
        grid = Grid(1, 1, 32, (0.0, 4.0), boundary="dirichlet")
        h = HamiltonianSpec((1.0,), [{"kind": "box"}], time_step=1e-3)
        stepper = make_stepper(grid, h)
        amp = _random_state(grid, 1)
        amp[7] = np.nan
        with pytest.raises(ValueError):
            oracle_cn_step(stepper, grid, h, amp)
        with pytest.raises(ValueError):
            stepper.advance(amp, 1)


class TestEigenstates:
    def test_box_energies(self):
        grid = Grid(1, 1, 512, (0.0, 1.0), boundary="dirichlet")
        h = HamiltonianSpec((1.0,), [{"kind": "box"}])
        energies, _ = eigenstates(grid, h, 3)
        exact = np.array([1, 4, 9]) * np.pi**2 / 2
        np.testing.assert_allclose(energies, exact, rtol=2e-4)

    def test_orthonormality(self):
        grid = Grid(1, 1, 256, (0.0, 1.0), boundary="dirichlet")
        h = HamiltonianSpec((1.0,), [{"kind": "box"}])
        _, states = eigenstates(grid, h, 4)
        for i in range(4):
            for j in range(4):
                ov = np.vdot(states[i].amplitudes, states[j].amplitudes) \
                    * grid.weight
                assert abs(ov - (i == j)) < 1e-8

    def test_harmonic_ladder_dense(self):
        grid = Grid(1, 1, 64, (-8.0, 8.0), boundary="dirichlet")
        h = HamiltonianSpec((1.0,), [{"kind": "harmonic", "omega": 1.0}])
        energies, _ = eigenstates(grid, h, 4)
        # 3-point stencil at n=64: O(dx^2) ~ 5e-2 discretization error
        np.testing.assert_allclose(energies, [0.5, 1.5, 2.5, 3.5], atol=5e-2)


# grids that are not 1-D dirichlet without spin, each solved twice on the one
# operator: dense eigh (DENSE_EIG_BUDGET = the grid size) and ARPACK (budget
# 0)
ROUTE_CASES = {
    # non-degenerate lowest levels 1.35, 2.35, 3.05, 3.35
    "two_particle_periodic": (
        Grid(2, 1, 24, (-6.0, 6.0)),
        HamiltonianSpec((1.0, 1.0), [{"kind": "harmonic", "omega": [1.0, 1.7]}])),
    "spin_half": (
        Grid(1, 1, 48, (-8.0, 8.0), spin_dims=(2,)),
        HamiltonianSpec((1.0,), [{"kind": "harmonic", "omega": 1.0},
                                 {"kind": "spin_coupling", "mu": 0.5}])),
    "dirichlet_2d": (
        Grid(1, 2, 16, (-4.0, 4.0), boundary="dirichlet"),
        HamiltonianSpec((1.0,), [{"kind": "harmonic", "omega": 1.0}])),
}


def eigenstates_under(budget, grid, h, count):
    """eigenstates with DENSE_EIG_BUDGET set to `budget` for the one call;
    ARPACK must run exactly when the grid is above the budget."""
    arpack_calls = []
    lowest = schrodinger._lowest_eigsh
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(schrodinger, "DENSE_EIG_BUDGET", budget)
        mp.setattr(schrodinger, "_lowest_eigsh",
                   lambda *args: arpack_calls.append(args) or lowest(*args))
        result = eigenstates(grid, h, count)
    assert len(arpack_calls) == (grid.total_points > budget)
    return result


def dense_and_arpack(name, count):
    grid, h = ROUTE_CASES[name]
    dense = eigenstates_under(grid.total_points, grid, h, count)
    arpack = eigenstates_under(0, grid, h, count)
    return grid, dense, arpack


class TestEigensolverRoutes:
    @pytest.mark.parametrize("name", list(ROUTE_CASES))
    def test_arpack_energies_match_dense(self, name):
        _, (e_dense, _), (e_arpack, _) = dense_and_arpack(name, 6)
        np.testing.assert_allclose(e_arpack, e_dense, rtol=0, atol=1e-10)

    def test_arpack_states_match_dense(self):
        grid, (_, dense), (_, arpack) = dense_and_arpack(
            "two_particle_periodic", 4)
        for a, b in zip(dense, arpack):
            ov = np.vdot(a.amplitudes, b.amplitudes) * grid.weight
            assert abs(abs(ov) - 1.0) < 1e-8

    def test_states_are_real_orthonormal_eigenvectors(self):
        grid, h = ROUTE_CASES["spin_half"]
        for budget in (grid.total_points, 0):
            energies, states = eigenstates_under(budget, grid, h, 4)
            amps = np.array([s.amplitudes.ravel() for s in states])
            assert not amps.imag.any()
            np.testing.assert_allclose(amps.conj() @ amps.T * grid.weight,
                                       np.eye(4), atol=1e-10)
            for e, s in zip(energies, states):
                resid = apply_hamiltonian(s.amplitudes, grid, h) - e * s.amplitudes
                assert np.max(np.abs(resid)) < 1e-8

    def test_dirichlet_2d_above_budget(self):
        # 72 x 72 = 5184 points > DENSE_EIG_BUDGET: ARPACK, against the
        # exact spectrum of the (1,-2,1) stencil, sum over both axes of
        # 2 / (m dx^2) sin^2(pi k / (2 (N + 1)))
        n = 72
        grid = Grid(1, 2, n, (0.0, 1.0), boundary="dirichlet")
        assert grid.total_points > DENSE_EIG_BUDGET
        h = HamiltonianSpec((1.0,), [{"kind": "box"}])
        energies, states = eigenstates(grid, h, 6)
        axis = 2.0 / grid.dx**2 * np.sin(np.pi * np.arange(1, 5)
                                         / (2 * (n + 1))) ** 2
        exact = np.sort(np.add.outer(axis, axis).ravel())[:6]
        np.testing.assert_allclose(energies, exact, rtol=1e-12)
        assert len(states) == 6

    def test_periodic_degenerate_levels_all_found(self):
        # 72 x 72 periodic oscillator: E = 1, 2, 2, 3, 3, 3 (spectral
        # kinetic operator, exact to round-off at this extent); single-vector
        # Lanczos can return fewer copies of a degenerate level than exist
        grid = Grid(1, 2, 72, (-8.0, 8.0))
        h = HamiltonianSpec((1.0,), [{"kind": "harmonic", "omega": 1.0}])
        energies, _ = eigenstates(grid, h, 6)
        np.testing.assert_allclose(energies, [1, 2, 2, 3, 3, 3], atol=1e-10)


# the dense matrix assembled from the kinetic matrices and V, against one
# apply_hamiltonian call per unit vector: bit for bit on dirichlet grids, to
# round-off on periodic ones (an FFT per column against ifft(k^2) once);
# unequal masses tell the axes apart
BLOCK_CASES = {
    "periodic_1d": (Grid(1, 1, 40, (-6.0, 6.0)),
                    HamiltonianSpec((1.0,), [{"kind": "harmonic",
                                              "omega": 1.0}])),
    "periodic_2d": ROUTE_CASES["two_particle_periodic"],
    "dirichlet_2d": ROUTE_CASES["dirichlet_2d"],
    "spin_half": ROUTE_CASES["spin_half"],
    "periodic_two_masses": (
        Grid(2, 1, 20, (-6.0, 6.0)),
        HamiltonianSpec((1.0, 2.5), [{"kind": "pair_coupling", "lam": 0.3}])),
    "dirichlet_two_masses": (
        Grid(2, 1, 18, (-3.0, 3.0), boundary="dirichlet"),
        HamiltonianSpec((1.0, 2.5), [{"kind": "harmonic", "omega": [1.0, 1.7]}])),
}


class TestDenseHamiltonian:
    @pytest.mark.parametrize("name", list(BLOCK_CASES))
    def test_assembled_equals_one_column_at_a_time(self, name):
        grid, h = BLOCK_CASES[name]
        v = potential_grid(grid, h)
        per_column = np.column_stack([
            apply_hamiltonian(e.reshape(grid.full_shape), grid, h, v=v).ravel()
            for e in np.eye(grid.total_points)])
        dense = schrodinger._dense_hamiltonian(grid, h, v)
        tol = 1e-14 if grid.boundary == "periodic" else 0.0
        np.testing.assert_allclose(dense, per_column, rtol=0,
                                   atol=tol * np.abs(per_column).max())


class TestKineticOperator:
    """apply_hamiltonian at V == 0 on two particles of masses (1.0, 2.5)
    against closed-form eigenvalues, independent of _stencil."""

    MASSES = (1.0, 2.5)

    @pytest.mark.parametrize("modes", [(1, 1), (2, 5), (7, 3), (16, 16)],
                             ids=lambda m: f"{m[0]}_{m[1]}")
    def test_dirichlet_sine_modes(self, modes):
        grid = Grid(2, 1, 16, (-3.0, 3.0), boundary="dirichlet")
        h = HamiltonianSpec(self.MASSES, [{"kind": "box"}])
        n, dx = grid.n, grid.dx
        j = np.arange(1, n + 1)
        lines = [np.sin(np.pi * k * j / (n + 1)) for k in modes]
        amp = np.outer(*lines)
        energy_ = sum(2.0 / (m * dx**2) * np.sin(np.pi * k / (2 * (n + 1))) ** 2
                      for k, m in zip(modes, self.MASSES))
        got = apply_hamiltonian(amp, grid, h)
        np.testing.assert_allclose(got, energy_ * amp, rtol=0,
                                   atol=1e-12 * energy_)

    @pytest.mark.parametrize("modes", [(0, 1), (3, -5), (-7, 2), (-8, -8)],
                             ids=lambda m: f"{m[0]}_{m[1]}")
    def test_periodic_plane_waves(self, modes):
        grid = Grid(2, 1, 16, (-3.0, 3.0))
        h = HamiltonianSpec(self.MASSES, [{"kind": "free"}])
        ks = [2 * np.pi * q / (grid.n * grid.dx) for q in modes]
        x = grid.axis_coords
        amp = np.outer(np.exp(1j * ks[0] * x), np.exp(1j * ks[1] * x))
        energy_ = sum(k**2 / (2 * m) for k, m in zip(ks, self.MASSES))
        got = apply_hamiltonian(amp, grid, h)
        np.testing.assert_allclose(got, energy_ * amp, rtol=0,
                                   atol=1e-12 * energy_)


class TestHamiltonianSpec:
    @pytest.mark.parametrize("mass", [float("nan"), float("inf"),
                                      -float("inf"), 0.0, -1.0])
    def test_rejects_mass_that_is_not_finite_and_positive(self, mass):
        with pytest.raises(ValueError):
            HamiltonianSpec((1.0, mass))


class TestPotential:
    def test_pair_coupling_symmetry(self):
        grid = Grid(2, 1, 16, (-2.0, 2.0))
        h = HamiltonianSpec((1.0, 1.0),
                            [{"kind": "pair_coupling", "lam": 0.7}])
        v = potential_grid(grid, h)
        np.testing.assert_allclose(v, v.T, atol=1e-14)
        x = grid.axis_coords
        expect = 0.7 * (x[:, None] - x[None, :]) ** 2
        np.testing.assert_allclose(v, expect, atol=1e-12)

    def test_unknown_term(self):
        grid = Grid(1, 1, 16, (0.0, 1.0))
        h = HamiltonianSpec((1.0,), [{"kind": "quartic"}])
        with pytest.raises(ValueError):
            potential_grid(grid, h)


def listed_frames(psi, h, t_final, stride):
    """Every frame at once, as evolve returned them when it built a list: one
    working array advanced frame to frame and each frame a copy of it."""
    stepper = make_stepper(psi.grid, h)
    n_steps = int(round((t_final - psi.time) / h.time_step))
    frames = [WaveField(psi.grid, psi.amplitudes.copy(), psi.time)]
    amp = psi.amplitudes.copy()
    done = 0
    while done < n_steps:
        n = min(stride, n_steps - done)
        stepper.advance(amp, n)
        done += n
        frames.append(WaveField(psi.grid, amp.copy(),
                                psi.time + done * h.time_step))
    return frames


# one case per stepper path: (boundary, potential); the boundary picks the
# stepper
STREAM_CASES = {
    "split_step_potential": ("periodic", [{"kind": "harmonic", "omega": 2.0}]),
    "split_step_free": ("periodic", [{"kind": "free"}]),
    "crank_nicolson_potential": ("dirichlet",
                                 [{"kind": "harmonic", "omega": 2.0}]),
    "dirichlet_dst_free": ("dirichlet", [{"kind": "box"}]),
}


class TestFrameStream:
    @pytest.mark.parametrize("case", STREAM_CASES)
    def test_stream_equals_list(self, case):
        boundary, potential = STREAM_CASES[case]
        grid = Grid(1, 1, 64, (-4.0, 4.0), boundary=boundary)
        h = HamiltonianSpec((1.0,), potential, time_step=1e-3)
        psi = WaveField(grid, _random_state(grid, 3))
        # 50 steps, stride 7: the last frame is off-stride
        want = listed_frames(psi, h, 0.05, 7)
        got = []
        for frame in evolve(psi, h, 0.05, 7):
            got.append((frame.time, frame.amplitudes.copy()))
            frame.amplitudes[...] = np.nan  # a frame is a copy, not the state
        assert len(got) == len(want) == frame_count(h, 0.05, 7) == 9
        for (t, amp), f in zip(got, want):
            assert t == f.time
            np.testing.assert_array_equal(amp, f.amplitudes)

    @pytest.mark.parametrize("t_final, stride, count", [
        (0.05, 7, 9), (0.05, 10, 6), (0.05, 50, 2), (0.05, 80, 2), (0.0, 3, 1)])
    def test_frame_count(self, t_final, stride, count):
        grid = Grid(1, 1, 32, (-4.0, 4.0))
        h = HamiltonianSpec((1.0,), time_step=1e-3)
        psi = WaveField(grid, _random_state(grid, 4))
        assert frame_count(h, t_final, stride) == count
        assert len(list(evolve(psi, h, t_final, stride))) == count
