import numpy as np
import pytest

from bohmstat import subsystem
from bohmstat.currents import FieldFrame, continuity_residual, current
from bohmstat.errors import DenseBudgetExceeded, PartitionMismatch
from bohmstat.lattice import Grid, GridSpec, WaveField
from bohmstat.schrodinger import HamiltonianSpec, evolve, potential_grid
from bohmstat.subsystem import (ReducedDensityMatrix, SubsystemPartition,
                                a_grid, reduced_density_matrix, read_rdm,
                                subsystem_frame, truncated_current_from_rdm,
                                write_rdm)


def spin_traced_diagonal(rdm):
    """rho_A(x_A) on the A position grid: the diagonal of rho_A, summed over
    the A spin axes."""
    g = rdm.a_grid
    diag = np.real(np.diagonal(rdm.matrix)).reshape(g.full_shape)
    return diag.sum(axis=tuple(range(g.n_spin_axes)))


H2 = HamiltonianSpec((1.0, 1.0), [{"kind": "free"}], time_step=1e-3)


def two_particle_grid(n=64):
    return Grid(GridSpec(2, 1, n, (-8.0, 8.0)))


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
            subsystem_frame(FieldFrame.from_wavefield(product_state(grid), H2),
                            part)


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
        p = np.linalg.eigvalsh(rdm.matrix) * rdm.a_grid.weight
        assert np.all(p > -1e-10)

    def test_purity_is_sum_of_squared_eigenvalues(self):
        grid = two_particle_grid()
        rdm = reduced_density_matrix(entangled_state(grid),
                                     SubsystemPartition((0,), 2))
        p = np.linalg.eigvalsh(rdm.matrix) * rdm.a_grid.weight
        want = float(np.sum(p ** 2))
        assert 0.1 < want < 0.9
        assert rdm.purity() == pytest.approx(want, rel=1e-12, abs=0)

    def test_diagonal_matches_marginal(self):
        grid = two_particle_grid()
        part = SubsystemPartition((0,), 2)
        psi = entangled_state(grid)
        rdm = reduced_density_matrix(psi, part)
        marg = subsystem_frame(FieldFrame.from_wavefield(psi, H2), part).rho
        np.testing.assert_allclose(spin_traced_diagonal(rdm), marg.values,
                                   atol=1e-12)

    def test_dense_budget(self, monkeypatch):
        grid = two_particle_grid(128)
        part = SubsystemPartition((0,), 2)
        monkeypatch.setattr(subsystem, "DENSE_RDM_BUDGET", 64)
        with pytest.raises(DenseBudgetExceeded):
            reduced_density_matrix(product_state(grid), part)

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
        j_tr = subsystem_frame(FieldFrame.from_wavefield(psi, H2),
                               part).currents
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
        j_int = subsystem_frame(FieldFrame.from_wavefield(psi, H2),
                                part).currents
        rdm = reduced_density_matrix(psi, part)
        j_op = truncated_current_from_rdm(rdm, H2, part)
        scale = np.max(np.abs(j_int.components))
        assert np.max(np.abs(j_int.components - j_op.components)) / scale < 1e-12

    def test_truncated_continuity(self):
        grid = two_particle_grid(96)
        part = SubsystemPartition((0,), 2)
        frames = evolve(entangled_state(grid), H2, 0.03, frame_stride=10)
        sfs = [subsystem_frame(FieldFrame.from_wavefield(f, H2), part)
               for f in frames]
        _, rel = continuity_residual(sfs[:3])
        assert rel < 1e-3


class TestSpinTrace:
    def test_spin_kept_on_a_only(self):
        grid = Grid(GridSpec(2, 1, 16, (-2.0, 2.0), spin_dims=(2, 2)))
        rng = np.random.default_rng(5)
        amp = rng.standard_normal(grid.full_shape) \
            + 1j * rng.standard_normal(grid.full_shape)
        psi = WaveField(grid, amp).normalized()
        part = SubsystemPartition((0,), 2)
        rdm = reduced_density_matrix(psi, part)
        assert rdm.dim == 2 * 16           # A spin x A position
        assert rdm.trace() == pytest.approx(1.0, abs=1e-10)
        marg = subsystem_frame(FieldFrame.from_wavefield(psi, H2), part).rho
        np.testing.assert_allclose(spin_traced_diagonal(rdm), marg.values,
                                   atol=1e-12)


class TestSpinAxes:
    # spins (2, 1, 2): the array axes are (spin 0, spin 2, x0, x1, x2)
    SPEC = GridSpec(3, 1, 8, (-2.0, 2.0), spin_dims=(2, 1, 2))

    def test_spin_axis_skips_spinless_particles(self):
        grid = Grid(self.SPEC)
        assert [grid.spin_axis(p) for p in range(3)] == [0, None, 1]

    def test_spin_coupling_on_particle_2_acts_on_axis_1(self):
        grid = Grid(self.SPEC)
        h = HamiltonianSpec((1.0,) * 3, [{"kind": "spin_coupling", "mu": 0.5,
                                          "particle": 2}])
        x2 = grid.meshgrid()[2]
        sz = np.array([1.0, -1.0])[None, :, None, None, None]
        np.testing.assert_array_equal(
            potential_grid(grid, h),
            np.broadcast_to(0.5 * sz * x2, grid.full_shape))

    def test_rdm_of_particle_2_is_its_partial_trace(self):
        grid = Grid(self.SPEC)
        rng = np.random.default_rng(8)
        amp = rng.standard_normal(grid.full_shape) \
            + 1j * rng.standard_normal(grid.full_shape)
        psi = WaveField(grid, amp).normalized()
        rdm = reduced_density_matrix(psi, SubsystemPartition((2,), 3))
        # sum over spin 0, x0 and x1; rows and columns are (spin 2, x2)
        expect = np.einsum("aixyz,ajxyw->izjw", psi.amplitudes,
                           psi.amplitudes.conj()).reshape(16, 16) * grid.dx**2
        np.testing.assert_allclose(rdm.matrix, expect, rtol=0, atol=1e-13)


# spinful grids, each spin component its own packet, spin_coupling on
# particle 0 pushing its up and down components apart
SPIN_CASES = {
    "one_particle_1d": (GridSpec(1, 1, 128, (-10.0, 10.0), spin_dims=(2,)),
                        (1.0,)),
    "one_particle_2d": (GridSpec(1, 2, 48, (-8.0, 8.0), spin_dims=(2,)),
                        (1.0,)),
    "two_particles_spins_2_1": (
        GridSpec(2, 1, 64, (-8.0, 8.0), spin_dims=(2, 1)), (1.0, 2.5)),
    "two_particles_spins_2_2": (
        GridSpec(2, 1, 48, (-8.0, 8.0), spin_dims=(2, 2)), (1.0, 2.5)),
}


def spin_frames(name):
    """Three frames 5 steps apart of a spin-dependent packet state."""
    spec, masses = SPIN_CASES[name]
    grid = Grid(spec)
    h = HamiltonianSpec(masses, [{"kind": "spin_coupling", "mu": 0.5,
                                  "particle": 0}], time_step=1e-3)
    coords = grid.meshgrid()
    amp = np.empty(grid.full_shape, dtype=np.complex128)
    for n, s in enumerate(np.ndindex(grid.spin_shape)):
        amp[s] = np.prod([packet_1d(x, (-1) ** (n + ax) * (1.0 + 0.5 * ax), 1.0,
                                    0.7 * (n + 1) * (-1) ** ax)
                          for ax, x in enumerate(coords)], axis=0)
    psi = WaveField(grid, amp).normalized()
    return grid, [FieldFrame.from_wavefield(f, h)
                  for f in evolve(psi, h, 0.01, frame_stride=5)]


class TestSpinGridContinuity:
    @pytest.mark.parametrize("name", list(SPIN_CASES))
    def test_full_frames(self, name):
        _, ffs = spin_frames(name)
        _, rel = continuity_residual(ffs)
        assert rel < 1e-4

    @pytest.mark.parametrize("name", [n for n in SPIN_CASES
                                      if n.startswith("two_particles")])
    def test_subsystem_frames(self, name):
        _, ffs = spin_frames(name)
        part = SubsystemPartition((0,), 2)  # A holds a spin axis
        _, rel = continuity_residual([subsystem_frame(f, part) for f in ffs])
        assert rel < 1e-4
