import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bohmstat.errors import AxisMismatch, InvalidExtent
from bohmstat.lattice import (Grid, WaveField, gradient, integrate,
                              read_field, write_field)


def grid_1d(n=64, lo=0.0, hi=2 * np.pi, boundary="periodic"):
    return Grid(1, 1, n, (lo, hi), boundary=boundary)


class TestGridSpec:
    # an out-of-range value of each grid key Grid checks
    BAD = {"n": 7, "dims": 3, "boundary": "absorbing", "extent": (1.0, 0.0),
           "spin_dims": (2,)}

    @pytest.mark.parametrize("key", list(BAD))
    def test_rejection_names_the_config_key(self, key):
        keys = dict(particles=2, dims=1, n=16, extent=(0.0, 1.0))
        with pytest.raises(InvalidExtent) as exc:
            Grid(**{**keys, key: self.BAD[key]})
        assert exc.value.field == key

    def test_spin_defaults_to_scalar(self):
        grid = Grid(2, 1, 16, (0, 1))
        assert grid.spin_dims == (1, 1)
        assert grid.extent == (0.0, 1.0) and type(grid.extent[1]) is float


class TestCoordinates:
    def test_periodic_excludes_right_endpoint(self):
        g = grid_1d(n=8, lo=0.0, hi=8.0)
        assert g.dx == 1.0
        np.testing.assert_allclose(g.axis_coords, np.arange(8.0))

    def test_dirichlet_points_are_interior(self):
        g = grid_1d(n=9, lo=0.0, hi=10.0, boundary="dirichlet")
        assert g.dx == 1.0
        np.testing.assert_allclose(g.axis_coords, np.arange(1.0, 10.0))

    def test_particle_axes(self):
        g = Grid(2, 2, 8, (0.0, 1.0))
        assert g.particle_axes(0) == [0, 1]
        assert g.particle_axes(1) == [2, 3]


class TestQuadrature:
    def test_unit_constant(self):
        g = grid_1d(n=32, lo=-1.0, hi=3.0)
        assert integrate(np.ones(g.pos_shape), g) == pytest.approx(4.0)

    def test_periodic_trig_exact(self):
        # the midpoint rule is exact for band-limited periodic integrands
        g = grid_1d(n=64)
        x = g.axis_coords
        assert integrate(np.sin(x) ** 2, g) == pytest.approx(np.pi, abs=1e-12)

    def test_marginalization_keeps_other_axes(self):
        g = Grid(2, 1, 16, (0.0, 1.0))
        vals = np.ones(g.pos_shape)
        out = integrate(vals, g, axes=[1])
        assert out.shape == (16,)
        np.testing.assert_allclose(out, 1.0)  # unit extent, unit integrand

    def test_bad_axis(self):
        g = grid_1d()
        with pytest.raises(AxisMismatch):
            integrate(np.ones(g.pos_shape), g, axes=[3])


class TestDerivatives:
    def test_spectral_matches_analytic(self):
        g = grid_1d(n=64)
        x = g.axis_coords
        d = gradient(np.sin(3 * x), g, 0)
        np.testing.assert_allclose(d, 3 * np.cos(3 * x), atol=1e-10)

    def test_spectral_sum_is_zero(self):
        # discrete Gauss theorem on a full period
        rng = np.random.default_rng(0)
        g = grid_1d(n=32)
        d = gradient(rng.standard_normal(32), g, 0)
        assert abs(d.sum() * g.dx) < 1e-12

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 7), st.floats(-2, 2), st.floats(-2, 2))
    def test_spectral_linearity_on_modes(self, k, a, b):
        g = grid_1d(n=64)
        x = g.axis_coords
        f = a * np.sin(k * x) + b * np.cos(k * x)
        expect = a * k * np.cos(k * x) - b * k * np.sin(k * x)
        np.testing.assert_allclose(gradient(f, g, 0), expect, atol=1e-8)

    def test_dirichlet_second_order(self):
        errs = []
        for n in (64, 128):
            g = grid_1d(n=n, lo=0.0, hi=np.pi, boundary="dirichlet")
            x = g.axis_coords
            d = gradient(np.sin(x), g, 0)
            errs.append(np.max(np.abs(d - np.cos(x))))
        assert errs[0] / errs[1] > 3.5  # O(dx^2)

    def test_dirichlet_uses_zero_boundary(self):
        g = grid_1d(n=8, lo=0.0, hi=9.0, boundary="dirichlet")
        f = np.zeros(8)
        f[0] = 1.0
        d = gradient(f, g, 0)
        # left edge: (f[1] - 0) / 2dx = 0; second point sees f[0]
        assert d[0] == 0.0
        assert d[1] == pytest.approx(-1.0 / (2 * g.dx))

    def test_length_mismatch(self):
        g = grid_1d(n=16)
        with pytest.raises(AxisMismatch):
            gradient(np.ones(17), g, 0)


class TestTrailingAxes:
    """Position axes trail in every field array: spin axes lead amplitudes,
    densities and current components have none."""

    @pytest.mark.parametrize("boundary", ["periodic", "dirichlet"])
    def test_gradient_of_amplitude_and_density_agree(self, boundary):
        g = Grid(2, 1, 16, (-3.0, 3.0), boundary=boundary,
                          spin_dims=(2, 3))
        rng = np.random.default_rng(5)
        amp = rng.standard_normal(g.full_shape)
        for ax in range(g.n_pos_axes):
            by_component = [gradient(amp[s], g, ax)
                            for s in np.ndindex(g.spin_shape)]
            np.testing.assert_array_equal(
                gradient(amp, g, ax).reshape(-1, *g.pos_shape), by_component)

    def test_integrate_spin_leading_and_spin_free(self):
        g = Grid(2, 1, 16, (0.0, 1.0), spin_dims=(2, 1))
        amp = np.ones(g.full_shape)
        np.testing.assert_allclose(integrate(amp, g, axes=[0]), np.ones((2, 16)))
        np.testing.assert_allclose(integrate(amp[0], g, axes=[0]), np.ones(16))

    @pytest.mark.parametrize("shape", [(16, 17), (17, 16), (16,), (2, 16, 8)])
    def test_wrong_trailing_shape_rejected(self, shape):
        g = Grid(2, 1, 16, (0.0, 1.0), spin_dims=(2, 1))
        with pytest.raises(AxisMismatch):
            gradient(np.ones(shape), g, 0)
        with pytest.raises(AxisMismatch):
            integrate(np.ones(shape), g)

    def test_position_axis_out_of_range(self):
        g = grid_1d(n=16)
        with pytest.raises(AxisMismatch):
            gradient(np.ones(16), g, 1)


class TestWaveField:
    def test_shape_checked(self):
        g = grid_1d(n=16)
        with pytest.raises(AxisMismatch):
            WaveField(g, np.ones(8))

    def test_normalization(self):
        g = grid_1d(n=32)
        psi = WaveField(g, np.exp(1j * g.axis_coords)).normalized()
        assert psi.norm_sq() == pytest.approx(1.0, abs=1e-12)


class TestFieldIO:
    def test_complex_round_trip(self, tmp_path):
        g = grid_1d(n=16)
        rng = np.random.default_rng(3)
        vals = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        p = tmp_path / "a.fld"
        write_field(p, vals, g, time=0.25)
        back, header = read_field(p)
        np.testing.assert_array_equal(back, vals)
        assert header["time"] == 0.25
        assert header["boundary"] == "periodic"

    def test_real_round_trip(self, tmp_path):
        g = Grid(2, 1, 8, (0.0, 1.0))
        vals = np.arange(64.0).reshape(8, 8)
        p = tmp_path / "b.fld"
        write_field(p, vals, g)
        back, header = read_field(p)
        np.testing.assert_array_equal(back, vals)
        assert header["complex"] is False
