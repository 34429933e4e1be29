import numpy as np
import pytest

from bohmstat.currents import FieldFrame, continuity_residual, current, density
from bohmstat.errors import DenseBudgetExceeded, PartitionMismatch
from bohmstat.lattice import GridSpec, WaveField, make_grid
from bohmstat.schrodinger import HamiltonianSpec, evolve
from bohmstat.subsystem import (ReducedDensityMatrix, SubsystemPartition,
                                a_grid, marginal_density,
                                reduced_density_matrix, read_rdm,
                                subsystem_frame, truncated_current_from_rdm,
                                truncated_current_integral, write_rdm)

H2 = HamiltonianSpec((1.0, 1.0), [{"kind": "free"}], time_step=1e-3)


def two_particle_grid(n=64):
    return make_grid(GridSpec(2, 1, n, (-8.0, 8.0)))


def packet_1d(x, center, width, momentum):
    return ((2 * np.pi * width**2) ** -0.25
            * np.exp(-(x - center) ** 2 / (4 * width**2) + 1j * momentum * x))


def product_state(grid):
    x = grid.axis_coords
    a = packet_1d(x, -1.0, 1.0, 0.8)
    b = packet_1d(x, 2.0, 1.2, -0.5)
    return WaveField(grid, np.outer(a, b)).normalized()


def entangled_state(grid):
    x = grid.axis_coords
    amp = (np.outer(packet_1d(x, -1.5, 1.0, 2.0), packet_1d(x, 1.5, 1.0, -0.5))
           + np.outer(packet_1d(x, 1.5, 1.0, -2.0), packet_1d(x, -1.5, 1.0, 0.5)))
    return WaveField(grid, amp).normalized()


class TestPartition:
    def test_b_complement(self):
        part = SubsystemPartition((0, 2), 4)
        assert part.b_particles == (1, 3)

    def test_empty_sides_rejected(self):
        with pytest.raises(PartitionMismatch):
            SubsystemPartition((0, 1), 2)

    def test_out_of_range_rejected(self):
        with pytest.raises(PartitionMismatch):
            SubsystemPartition((5,), 2)

    def test_particle_count_checked(self):
        grid = two_particle_grid(16)
        part = SubsystemPartition((0,), 3)
        with pytest.raises(PartitionMismatch):
            marginal_density(density(product_state(grid)), part)


class TestReducedDensityMatrix:
    def test_product_state_is_pure(self):
        grid = two_particle_grid()
        part = SubsystemPartition((0,), 2)
        rdm = reduced_density_matrix(product_state(grid), part)
        assert rdm.trace() == pytest.approx(1.0, abs=1e-10)
        assert rdm.purity() == pytest.approx(1.0, abs=1e-8)
        assert rdm.hermiticity_defect() < 1e-14

    def test_entangled_state_is_mixed(self):
        grid = two_particle_grid()
        part = SubsystemPartition((0,), 2)
        rdm = reduced_density_matrix(entangled_state(grid), part)
        assert rdm.trace() == pytest.approx(1.0, abs=1e-10)
        assert rdm.purity() < 0.9
        p = rdm.eigenvalues()
        assert p[0] >= p[-1]          # descending
        assert np.all(p > -1e-10)

    def test_diagonal_matches_marginal(self):
        grid = two_particle_grid()
        part = SubsystemPartition((0,), 2)
        psi = entangled_state(grid)
        rdm = reduced_density_matrix(psi, part)
        marg = marginal_density(density(psi), part)
        np.testing.assert_allclose(rdm.spin_traced_diagonal(), marg.values,
                                   atol=1e-12)

    def test_dense_budget(self):
        grid = two_particle_grid(128)
        part = SubsystemPartition((0,), 2)
        with pytest.raises(DenseBudgetExceeded):
            reduced_density_matrix(product_state(grid), part, dense_budget=64)

    def test_round_trip(self, tmp_path):
        grid = two_particle_grid(32)
        part = SubsystemPartition((0,), 2)
        rdm = reduced_density_matrix(entangled_state(grid), part)
        p = tmp_path / "a.rdm"
        write_rdm(p, rdm)
        mat, header = read_rdm(p)
        np.testing.assert_array_equal(mat, rdm.matrix)
        assert header["dim"] == rdm.dim


class TestTruncatedCurrents:
    def test_product_state_factorizes(self):
        # for psi = a(x1) b(x2), the truncated A current is just a's current
        grid = two_particle_grid()
        part = SubsystemPartition((0,), 2)
        psi = product_state(grid)
        j_tr = truncated_current_integral(current(psi, H2), part)
        sub = a_grid(grid, part)
        x = sub.axis_coords
        a = packet_1d(x, -1.0, 1.0, 0.8)
        a = a / np.sqrt(np.sum(np.abs(a) ** 2) * sub.dx)
        psi_a = WaveField(sub, a)
        h_a = HamiltonianSpec((1.0,), [{"kind": "free"}])
        expect = current(psi_a, h_a)
        np.testing.assert_allclose(j_tr.components, expect.components,
                                   atol=1e-10)

    def test_dual_route_identity(self):
        grid = two_particle_grid(96)
        part = SubsystemPartition((0,), 2)
        psi = entangled_state(grid)
        j_int = truncated_current_integral(current(psi, H2), part)
        rdm = reduced_density_matrix(psi, part)
        j_op = truncated_current_from_rdm(rdm, H2, part)
        scale = np.max(np.abs(j_int.components))
        assert np.max(np.abs(j_int.components - j_op.components)) / scale < 1e-12

    def test_truncated_continuity(self):
        grid = two_particle_grid(96)
        part = SubsystemPartition((0,), 2)
        frames = evolve(entangled_state(grid), H2, 0.03, frame_stride=10)
        sfs = [subsystem_frame(f, H2, part) for f in frames]
        _, rel = continuity_residual(sfs[:3])
        assert rel < 1e-3


class TestSpinTrace:
    def test_spin_kept_on_a_only(self):
        grid = make_grid(GridSpec(2, 1, 16, (-2.0, 2.0), spin_dims=(2, 2)))
        rng = np.random.default_rng(5)
        amp = rng.standard_normal(grid.full_shape) \
            + 1j * rng.standard_normal(grid.full_shape)
        psi = WaveField(grid, amp).normalized()
        part = SubsystemPartition((0,), 2)
        rdm = reduced_density_matrix(psi, part)
        assert rdm.dim == 2 * 16           # A spin x A position
        assert rdm.trace() == pytest.approx(1.0, abs=1e-10)
        marg = marginal_density(density(psi), part)
        np.testing.assert_allclose(rdm.spin_traced_diagonal(), marg.values,
                                   atol=1e-12)
