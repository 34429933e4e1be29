import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bohmstat import classical_phase as cp
from bohmstat.configio import load_config, validate_config
from bohmstat.errors import AnalyticDensityUnavailable
from bohmstat.experiments import RUNNERS

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


def harmonic_pair():
    return cp.ClassicalHSpec((1.0, 1.3), omegas=(1.0, 0.7))


def energy(h, x, p):
    """H = sum p^2/2m + m w^2 x^2/2 + (kappa/2) sum (x_{a+1} - x_a)^2 per
    sample, the classical_phase Hamiltonian written out."""
    m, om = np.asarray(h.masses), np.asarray(h.omegas)
    e = np.sum(p**2 / (2 * m) + 0.5 * m * om**2 * x**2, axis=1)
    return e + 0.5 * h.kappa * np.sum(np.diff(x, axis=1) ** 2, axis=1)


class TestHamiltonFlow:
    def test_velocity_shapes(self):
        h = harmonic_pair()
        x = np.zeros((5, 2))
        p = np.ones((5, 2))
        vx, vp = cp.hamilton_velocity(h, x, p)
        np.testing.assert_allclose(vx, p / np.array([1.0, 1.3]))
        np.testing.assert_allclose(vp, 0.0)

    def test_chain_force_antisymmetry(self):
        h = cp.ClassicalHSpec((1.0, 1.0), omegas=(0.0, 0.0), kappa=0.8)
        x = np.array([[1.0, -1.0]])
        f = cp.forces(h, x)
        assert f[0, 0] == pytest.approx(-f[0, 1])
        assert f[0, 0] == pytest.approx(-0.8 * 2.0)

    def test_energy_conserved_coupled(self):
        h = cp.ClassicalHSpec((1.0, 1.0), omegas=(1.0, 1.4), kappa=0.5)
        rng = np.random.default_rng(0)
        x0 = rng.standard_normal((100, 2))
        p0 = rng.standard_normal((100, 2))
        ens = cp.evolve_ensemble(h, x0, p0, 1e-3, 5000, 1000)
        e0 = energy(h, ens.xs[0], ens.ps[0])
        e1 = energy(h, ens.xs[-1], ens.ps[-1])
        assert np.max(np.abs(e1 - e0)) < 1e-5

    def test_off_stride_last_frame_at_its_time(self):
        # 1050 steps with stride 100: the last stored frame is step 1050
        h = harmonic_pair()
        rng = np.random.default_rng(2)
        x0 = rng.standard_normal((50, 2))
        p0 = rng.standard_normal((50, 2))
        ens = cp.evolve_ensemble(h, x0, p0, 1e-3, 1050, 100)
        assert len(ens.times) == 12 and ens.times[-1] == pytest.approx(1.05)
        xb, pb = cp.harmonic_backflow(h, ens.xs[-1], ens.ps[-1], ens.times[-1])
        np.testing.assert_allclose(xb, x0, atol=1e-5)
        np.testing.assert_allclose(pb, p0, atol=1e-5)

    def test_incompressibility_exactly_zero(self):
        # |det J - 1| of one Verlet step: exactly 0 at the shipped config's
        # dt, uncoupled and coupled, and a few ulp per dimension elsewhere
        eps = np.finfo(float).eps
        for kappa in (0.0, 0.4):
            h = cp.ClassicalHSpec((1.0, 1.3), omegas=(1.0, 0.7), kappa=kappa)
            assert cp.incompressibility_check(h, 2e-4) == 0.0
            for dt in (1e-3, 1e-2, 0.1):
                assert cp.incompressibility_check(h, dt) <= 4 * 4 * eps
        chain = cp.ClassicalHSpec((1.0, 2.0, 0.5), omegas=(0.0, 1.0, 3.0),
                                  kappa=0.8)
        assert cp.incompressibility_check(chain, 1e-2) <= 4 * 6 * eps

    def test_damped_control_positive(self):
        # diag(1, exp(-g dt)) on J: det J - 1 = exp(-N g dt) - 1
        h = harmonic_pair()
        ctrl = cp.incompressibility_check(h, 1e-3, damping=0.1)
        assert ctrl == pytest.approx(-np.expm1(-2 * 0.1 * 1e-3), rel=1e-9)
        assert ctrl > 4 * 4 * np.finfo(float).eps


class TestBackflow:
    def test_harmonic_inverts_exact_orbit(self):
        h = cp.ClassicalHSpec((2.0,), omegas=(1.5,))
        x0 = np.array([[0.7]])
        p0 = np.array([[-0.3]])
        t = 0.9
        # exact forward rotation in scaled coordinates
        m, w = 2.0, 1.5
        c, s = np.cos(w * t), np.sin(w * t)
        xt = x0 * c + p0 / (m * w) * s
        pt = p0 * c - m * w * x0 * s
        xb, pb = cp.harmonic_backflow(h, xt, pt, t)
        np.testing.assert_allclose(xb, x0, atol=1e-12)
        np.testing.assert_allclose(pb, p0, atol=1e-12)

    def test_backflow_requires_matching_hamiltonian(self):
        h = cp.ClassicalHSpec((1.0,), omegas=(0.0,))
        with pytest.raises(AnalyticDensityUnavailable):
            cp.harmonic_backflow(h, np.zeros((1, 1)), np.zeros((1, 1)), 1.0)
        h2 = cp.ClassicalHSpec((1.0, 1.0), omegas=(1.0, 1.0), kappa=0.5)
        with pytest.raises(AnalyticDensityUnavailable):
            cp.harmonic_backflow(h2, np.zeros((1, 2)), np.zeros((1, 2)), 1.0)


class TestLiouville:
    def test_transported_density_constant(self):
        h = harmonic_pair()
        beta = 1.0
        x, p = cp.sample_thermal(h, beta, 500, seed=4)
        ens = cp.evolve_ensemble(h, x, p, 2e-4, 5000, 1000)
        m, om = np.asarray(h.masses), np.asarray(h.omegas)
        rho0 = cp.gaussian_phase_density(1 / np.sqrt(beta * m * om**2),
                                         np.sqrt(m / beta))
        assert cp.liouville_constancy(ens, rho0, cp.harmonic_backflow) < 1e-5

    def test_runner_check_sees_mislabelled_frame_times(self, tmp_path,
                                                       monkeypatch):
        # every stored frame labelled 5 % later than the step it holds: the
        # density transported to the labelled time misses the samples
        evolve_ensemble = cp.evolve_ensemble

        def late_clock(*args):
            ens = evolve_ensemble(*args)
            ens.times = ens.times * 1.05
            return ens

        cfg = validate_config(load_config(
            os.path.join(CONFIG_DIR, "classical_liouville.json")))
        run = RUNNERS["classical_liouville"]
        assert run(cfg, str(tmp_path), 0).checks["deviation_below_1e-5"]
        monkeypatch.setattr(cp, "evolve_ensemble", late_clock)
        res = run(cfg, str(tmp_path), 0)
        assert not res.checks["deviation_below_1e-5"]
        assert res.metrics["max_density_deviation"] > 1e-2


class TestTruncatedVelocity:
    def test_conditional_mean_oracle(self):
        h = cp.ClassicalHSpec((1.0, 1.0), omegas=(1.0, 1.0), kappa=0.5)
        free = cp.ClassicalHSpec((1.0, 1.0), omegas=(1.0, 1.0))
        x, p = cp.sample_thermal(free, 1.0, 100_000, seed=6)
        b = cp.truncated_phase_velocity(h, x, p, a_particle=0)
        ix = np.clip(np.digitize(x[:, 0], b.x_edges) - 1, 0,
                     len(b.x_edges) - 2)
        ip = np.clip(np.digitize(p[:, 0], b.p_edges) - 1, 0,
                     len(b.p_edges) - 2)
        flat = ix * (len(b.p_edges) - 1) + ip
        cnt = np.bincount(flat, minlength=b.counts.size)
        oracle = (np.bincount(flat, weights=-1.5 * x[:, 0],
                              minlength=cnt.size)
                  / np.maximum(cnt, 1)).reshape(b.counts.shape)
        occ = b.counts >= b.min_count
        frac = np.mean(np.abs(b.mean_vp - oracle)[occ] <= 3 * b.se_vp[occ])
        assert frac >= 0.95

    def test_sparse_bins_are_nan(self):
        h = cp.ClassicalHSpec((1.0, 1.0), omegas=(1.0, 1.0), kappa=0.1)
        free = cp.ClassicalHSpec((1.0, 1.0), omegas=(1.0, 1.0))
        x, p = cp.sample_thermal(free, 1.0, 500, seed=7)
        b = cp.truncated_phase_velocity(h, x, p, 0, min_count=1000)
        assert np.all(np.isnan(b.mean_vp))
        assert b.counts.sum() == 500


class TestScaling:
    def test_lln_exponent(self):
        rows, slope = cp.ensemble_average_scaling(
            cp.total_energy_observable(), cp.thermal_oscillator_sampler(1.0),
            [16, 64, 256, 1024], 600, seed=8)
        assert slope == pytest.approx(-0.5, abs=0.05)

    def test_mean_matches_equipartition(self):
        # <H> = N k T for N 1D oscillators (two quadratic dof each)
        rows, _ = cp.ensemble_average_scaling(
            cp.total_energy_observable(), cp.thermal_oscillator_sampler(1.0),
            [256], 2000, seed=9)
        size, mean, ratio = rows[0]
        assert mean == pytest.approx(256.0, rel=0.02)

    def test_single_sample_rejected(self):
        with pytest.raises(ValueError):
            cp.ensemble_average_scaling(
                cp.total_energy_observable(),
                cp.thermal_oscillator_sampler(1.0), [16], 1)


class TestScottEdges:
    def test_covers_range(self):
        vals = np.random.default_rng(10).standard_normal(5000)
        edges = cp.scott_edges(vals)
        assert edges[0] <= vals.min() and edges[-1] >= vals.max()
        assert len(edges) > 5


class TestEnsembleIO:
    def test_round_trip(self, tmp_path):
        h = harmonic_pair()
        x, p = cp.sample_thermal(h, 1.0, 50, seed=11)
        ens = cp.evolve_ensemble(h, x, p, 1e-3, 100, 50, seed=11)
        path = tmp_path / "e.ens"
        cp.write_ensemble(path, ens)
        back = cp.read_ensemble(path)
        np.testing.assert_array_equal(back.xs, ens.xs)
        np.testing.assert_array_equal(back.ps, ens.ps)
        np.testing.assert_allclose(back.times, ens.times)
        assert back.h.masses == h.masses


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10**6), st.floats(0.5, 2.0), st.floats(0.0, 1.0))
def test_energy_conservation_property(seed, omega, kappa):
    rng = np.random.default_rng(seed)
    h = cp.ClassicalHSpec((1.0, 1.0), omegas=(omega, omega), kappa=kappa)
    x0 = rng.standard_normal((20, 2))
    p0 = rng.standard_normal((20, 2))
    ens = cp.evolve_ensemble(h, x0, p0, 1e-3, 1000, 1000)
    e0 = energy(h, ens.xs[0], ens.ps[0])
    e1 = energy(h, ens.xs[-1], ens.ps[-1])
    assert np.max(np.abs(e1 - e0) / (np.abs(e0) + 1e-12)) < 1e-4
