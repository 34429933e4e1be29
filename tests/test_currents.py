import numpy as np
import pytest

from bohmstat.currents import (FieldFrame, continuity_residual, current,
                               density, divergence, velocity)
from bohmstat.errors import NonuniformFrames
from bohmstat.lattice import Grid, WaveField
from bohmstat.schrodinger import HamiltonianSpec, evolve

H_FREE = HamiltonianSpec((1.0,), [{"kind": "free"}], time_step=1e-3)


def plane_wave(grid, k):
    return WaveField(grid, np.exp(1j * k * grid.axis_coords)).normalized()


class TestCurrent:
    def test_plane_wave_velocity(self):
        # j = (k/m) rho for e^{ikx}, so v = k/m everywhere
        grid = Grid(1, 1, 64, (0.0, 2 * np.pi))
        psi = plane_wave(grid, 3.0)
        frame = FieldFrame.from_wavefield(psi, H_FREE)
        v = velocity(frame)
        np.testing.assert_allclose(v.components[0], 3.0, atol=1e-10)

    def test_real_state_has_zero_current(self):
        grid = Grid(1, 1, 64, (-8.0, 8.0))
        psi = WaveField(grid, np.exp(-grid.axis_coords**2)).normalized()
        j = current(psi, H_FREE)
        np.testing.assert_allclose(j.components, 0.0, atol=1e-14)

    def test_mass_scaling(self):
        grid = Grid(1, 1, 64, (0.0, 2 * np.pi))
        psi = plane_wave(grid, 2.0)
        heavy = HamiltonianSpec((4.0,), [{"kind": "free"}])
        j1 = current(psi, H_FREE).components
        j4 = current(psi, heavy).components
        np.testing.assert_allclose(j4, j1 / 4.0, atol=1e-14)

    def test_spin_summed_density(self):
        grid = Grid(1, 1, 16, (0.0, 1.0), spin_dims=(2,))
        amp = np.ones((2, 16), dtype=complex)
        psi = WaveField(grid, amp).normalized()
        rho = density(psi)
        assert rho.values.shape == (16,)
        assert rho.values.sum() * grid.weight == pytest.approx(1.0)


class TestVelocityRegularization:
    def test_floor_applies_at_nodes(self):
        grid = Grid(1, 1, 64, (0.0, 2 * np.pi))
        psi = WaveField(grid, np.sin(grid.axis_coords) + 0j).normalized()
        frame = FieldFrame.from_wavefield(psi, H_FREE)
        v = velocity(frame)
        assert np.all(np.isfinite(v.components))


class TestDivergence:
    def test_uniform_current_divergence_free(self):
        grid = Grid(1, 1, 32, (0.0, 1.0))
        psi = plane_wave(grid, 2 * np.pi * 3)
        div = divergence(current(psi, H_FREE))
        np.testing.assert_allclose(div.values, 0.0, atol=1e-9)


def _frames(grid, h, psi, stride):
    return [FieldFrame.from_wavefield(f, h)
            for f in evolve(psi, h, 3 * stride * h.time_step, stride)]


class TestContinuityResidual:
    def _packet(self, grid):
        x = grid.axis_coords
        amp = np.exp(-(x + 4.0) ** 2 / 4 + 1j * x)
        return WaveField(grid, amp).normalized()

    def test_small_on_smooth_evolution(self):
        grid = Grid(1, 1, 256, (-16.0, 16.0))
        ffs = _frames(grid, H_FREE, self._packet(grid), 10)
        _, rel = continuity_residual(ffs[:3])
        assert rel < 1e-4

    def test_second_order_in_frame_spacing(self):
        grid = Grid(1, 1, 256, (-16.0, 16.0))
        psi = self._packet(grid)
        _, rel_coarse = continuity_residual(_frames(grid, H_FREE, psi, 20)[:3])
        _, rel_fine = continuity_residual(_frames(grid, H_FREE, psi, 10)[:3])
        assert rel_coarse / rel_fine > 3.5

    def test_rejects_wrong_count(self):
        grid = Grid(1, 1, 256, (-16.0, 16.0))
        ffs = _frames(grid, H_FREE, self._packet(grid), 10)
        with pytest.raises(NonuniformFrames):
            continuity_residual(ffs[:2])

    def test_rejects_nonuniform_times(self):
        grid = Grid(1, 1, 256, (-16.0, 16.0))
        ffs = _frames(grid, H_FREE, self._packet(grid), 10)
        ffs[2].time = ffs[2].time + 0.004
        with pytest.raises(NonuniformFrames):
            continuity_residual(ffs[:3])
