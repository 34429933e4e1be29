import os

import numpy as np
import pytest

from bohmstat import kernels
from bohmstat.bohmian import (Advection, TrajectoryEnsemble, cell_overlap,
                              equivariance_distance, integrate_trajectories,
                              order_inversions, read_trajectories,
                              sample_initial, write_trajectories)
from bohmstat.configio import (build_grid, build_hamiltonian,
                               build_initial_state, load_config,
                               validate_config)
from bohmstat.errors import AxisMismatch, TrajectoryEscapedDomain
from bohmstat.lattice import Grid, ScalarField, VectorField

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


def gaussian_density(grid, center=0.0, width=1.0):
    x = grid.axis_coords
    rho = np.exp(-(x - center) ** 2 / (2 * width**2))
    rho /= rho.sum() * grid.dx
    return ScalarField(grid, rho)


class TestSampling:
    def test_matches_density(self):
        grid = Grid(1, 1, 256, (-10.0, 10.0))
        rho = gaussian_density(grid)
        pos = sample_initial(rho, 50_000, seed=1)
        tv = equivariance_distance(pos, rho, 32)
        assert tv < 0.02

    def test_deterministic(self):
        grid = Grid(1, 1, 64, (-10.0, 10.0))
        rho = gaussian_density(grid)
        a = sample_initial(rho, 100, seed=7)
        b = sample_initial(rho, 100, seed=7)
        np.testing.assert_array_equal(a, b)
        c = sample_initial(rho, 100, seed=8)
        assert not np.array_equal(a, c)

    def test_dirichlet_samples_inside(self):
        grid = Grid(1, 1, 64, (0.0, 1.0), boundary="dirichlet")
        rho = ScalarField(grid, np.ones(64))
        pos = sample_initial(rho, 5000, seed=2)
        assert np.all((pos >= 0.0) & (pos <= 1.0))

    def test_periodic_cell_of_point_zero_wraps(self):
        # grid point 0 sits on lo; the lower half of its cell lies one
        # period up, below hi
        grid = Grid(1, 1, 64, (0.0, 1.0))
        rho = np.zeros(64)
        rho[0] = 1.0 / grid.dx
        pos = sample_initial(ScalarField(grid, rho), 5000, seed=2)[:, 0]
        assert np.all((pos >= 0.0) & (pos < 1.0))
        upper = np.mean(pos > 0.5)
        assert 0.45 < upper < 0.55
        assert np.all((pos < 0.5 * grid.dx) | (pos >= 1.0 - 0.5 * grid.dx))


class TestNoiseFreeDistance:
    # 10^6 samples drawn from rho itself: the distance is sampling noise.
    # Over seeds 0-19 it reached 0.0016 on the bohm_full grid and 0.0047 on
    # the 2-D grid; masses from whole grid points read 0.025 and 0.036.
    def test_bohm_full_grid(self):
        cfg = validate_config(load_config(os.path.join(CONFIG_DIR,
                                                       "bohm_full.json")))
        grid, h = build_grid(cfg), build_hamiltonian(cfg)
        psi = build_initial_state(grid, h, cfg)
        rho = ScalarField(grid, np.abs(psi.amplitudes) ** 2)
        pos = sample_initial(rho, 10**6, seed=0)
        assert equivariance_distance(pos, rho, cfg["ensemble"]["bins"]) < 0.003

    def test_two_dimensional_periodic_grid(self):
        # mass in grid point 0's row and column, whose cells wrap
        grid = Grid(1, 2, 64, (-4.0, 4.0))
        x, y = grid.meshgrid()
        rho = (np.exp(-((x - 0.5) ** 2 + (y + 1) ** 2) / 2.0)
               + 0.5 * np.exp(-((x + 2) ** 2 + y ** 2)))
        rho = ScalarField(grid, rho / (rho.sum() * grid.weight))
        pos = sample_initial(rho, 10**6, seed=0)
        assert equivariance_distance(pos, rho, 16) < 0.008


def uniform_velocity_frames(grid, value, times):
    comps = np.full((1,) + grid.pos_shape, value)
    return [VectorField(grid, comps, t) for t in times]


class TestIntegration:
    def test_uniform_flow_translates(self):
        grid = Grid(1, 1, 128, (-10.0, 10.0))
        frames = uniform_velocity_frames(grid, 0.5, np.linspace(0, 1, 11))
        x0 = np.linspace(-5, 5, 20)[:, None]
        ens = integrate_trajectories(frames, x0, substeps=2)
        np.testing.assert_allclose(ens.paths[:, -1, 0], x0[:, 0] + 0.5,
                                   atol=1e-10)

    def test_periodic_wrap(self):
        grid = Grid(1, 1, 64, (0.0, 1.0))
        frames = uniform_velocity_frames(grid, 1.0, np.linspace(0, 1, 11))
        ens = integrate_trajectories(frames, np.array([[0.9]]), substeps=4)
        assert 0.0 <= ens.paths[0, -1, 0] < 1.0

    def test_dirichlet_escape_raises(self):
        grid = Grid(1, 1, 64, (0.0, 1.0), boundary="dirichlet")
        frames = uniform_velocity_frames(grid, 2.0, np.linspace(0, 1, 11))
        with pytest.raises(TrajectoryEscapedDomain):
            integrate_trajectories(frames, np.array([[0.5]]), substeps=1)

    def test_frame_times_must_increase(self):
        grid = Grid(1, 1, 64, (0.0, 1.0))
        frames = uniform_velocity_frames(grid, 0.1, [0.0, 0.2, 0.1])
        with pytest.raises(ValueError):
            integrate_trajectories(frames, np.array([[0.5]]))

    def test_coordinate_count_checked(self):
        grid = Grid(2, 1, 16, (0.0, 1.0))
        frames = [VectorField(grid, np.zeros((2,) + grid.pos_shape), t)
                  for t in (0.0, 0.1)]
        with pytest.raises(AxisMismatch):
            integrate_trajectories(frames, np.zeros((3, 1)))

    def test_no_crossings_in_smooth_1d_flow(self):
        # a linear velocity field v = 0.3 x preserves ordering exactly
        grid = Grid(1, 1, 128, (-10.0, 10.0))
        comps = (0.3 * grid.axis_coords)[None, :]
        frames = [VectorField(grid, comps, t) for t in np.linspace(0, 1, 21)]
        x0 = np.sort(np.random.default_rng(0).uniform(-4, 4, 200))[:, None]
        ens = integrate_trajectories(frames, x0, substeps=2)
        assert order_inversions(ens) == 0


class TestStreamedAdvection:
    @pytest.mark.parametrize("boundary", ["periodic", "dirichlet"])
    def test_generator_equals_one_kernel_call(self, boundary):
        # frames handed over one at a time from a generator, each dropped by
        # the caller, give the multi-frame kernel call's paths bit for bit
        grid = Grid(1, 2, 16, (-2.0, 2.0), boundary=boundary)
        rng = np.random.default_rng(3)
        times = np.linspace(0.0, 0.4, 6)
        vflat = 0.5 * rng.standard_normal((6, 2, 256))
        x0 = rng.uniform(-1.5, 1.5, (40, 2))
        frames = (VectorField(grid, v.reshape((2,) + grid.pos_shape), t)
                  for v, t in zip(vflat, times))
        ens = integrate_trajectories(frames, x0, substeps=3, nframes=6)
        lo, hi = grid.extent
        paths, escaped = kernels.rk4_paths(
            x0, times, vflat, grid.axis_coords[0], grid.dx, 16,
            boundary == "periodic", 3, lo, hi)
        assert not escaped.any()
        np.testing.assert_array_equal(ens.paths, paths)
        np.testing.assert_array_equal(ens.times, times)

    def test_push_returns_positions_at_each_frame(self):
        grid = Grid(1, 1, 64, (0.0, 1.0))
        adv = Advection(np.array([[0.25]]), 3, substeps=2)
        for frame in uniform_velocity_frames(grid, 0.5, [0.0, 0.2, 0.4]):
            pos = adv.push(frame)
            assert pos[0, 0] == pytest.approx(0.25 + 0.5 * frame.time)
        with pytest.raises(ValueError, match="allotted"):
            adv.push(uniform_velocity_frames(grid, 0.5, [0.6])[0])


class TestBinnedMass:
    def test_sums_to_one(self):
        grid = Grid(1, 1, 64, (-10.0, 10.0))
        rho = gaussian_density(grid)
        mass = rho.values * grid.weight @ cell_overlap(
            grid, np.linspace(-10.0, 10.0, 17))
        assert mass.sum() == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("boundary", ["periodic", "dirichlet"])
    @pytest.mark.parametrize("bins", [16, 10])
    def test_overlap_rows_sum_to_one(self, boundary, bins):
        grid = Grid(1, 1, 64, (-1.0, 3.0), boundary=boundary)
        overlap = cell_overlap(grid, np.linspace(-1.0, 3.0, bins + 1))
        assert overlap.shape == (64, bins)
        np.testing.assert_allclose(overlap.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(overlap >= 0.0)

    def test_periodic_point_zero_splits_between_end_cells(self):
        grid = Grid(1, 1, 64, (0.0, 1.0))
        row = cell_overlap(grid, np.linspace(0.0, 1.0, 17))[0]
        np.testing.assert_allclose(row[[0, -1]], 0.5, atol=1e-12)
        assert not row[1:-1].any()

    def test_tv_zero_for_matched_histogram(self):
        grid = Grid(1, 1, 64, (0.0, 1.0))
        rho = ScalarField(grid, np.ones(64))
        # positions exactly replicating the uniform cell masses
        pos = (np.arange(64) + 0.5)[:, None] / 64
        tv = equivariance_distance(pos, rho, 16)
        assert tv < 1e-12


class TestSerialization:
    def test_round_trip(self, tmp_path):
        times = np.linspace(0, 1, 5)
        paths = np.random.default_rng(0).standard_normal((7, 5, 2))
        ens = TrajectoryEnsemble("full", 3, times, paths)
        p = tmp_path / "t.trj"
        write_trajectories(p, ens)
        back = read_trajectories(p)
        np.testing.assert_array_equal(back.paths, paths)
        np.testing.assert_allclose(back.times, times)
        assert back.flavor == "full"
        assert back.seed == 3
