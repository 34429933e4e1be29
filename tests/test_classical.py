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


def hamilton_velocity(h, x, p):
    """(dx/dt, dp/dt) = (dH/dp, -dH/dx): p / m and the analytic forces."""
    return p / np.asarray(h.masses), cp.forces(h, x)


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
        vx, vp = hamilton_velocity(h, x, p)
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


# The one-shot arithmetic the scaling and classical_truncated runners used
# before they drew in row chunks: whole (samples, columns) x and p arrays,
# every observable evaluated at once.  The runners must match it bit for bit.

def oneshot_thermal(rng, count, columns, x_scale, p_scale):
    x = rng.standard_normal((count, columns)) / x_scale
    p = rng.standard_normal((count, columns)) * p_scale
    return x, p


def oneshot_scaling_rows(sizes, nsamples, beta, omega, seed, mass=1.0):
    rng = np.random.default_rng(seed)
    rows = []
    for size in sizes:
        x, p = oneshot_thermal(rng, nsamples, size,
                               np.sqrt(beta * mass * omega**2),
                               np.sqrt(mass / beta))
        vals = np.sum(p**2 / (2 * mass) + 0.5 * mass * omega**2 * x**2, axis=1)
        mean = float(vals.mean())
        rows.append((size, mean, float(vals.std(ddof=1)) / abs(mean)))
    return rows


def oneshot_truncated_rows(h, beta, samples, seed, min_count=20):
    """binned_velocity.csv's rows: (x_A, p_A) bin centres, count, mean and
    standard error of dp_A/dt, closed-form conditional mean."""
    m, om = np.asarray(h.masses), np.asarray(h.omegas)
    x, p = oneshot_thermal(np.random.default_rng(seed), samples, h.n,
                           np.sqrt(beta * m * om**2), np.sqrt(m / beta))
    _, vp_all = hamilton_velocity(h, x, p)
    xa, pa, va_p = x[:, 0], p[:, 0], vp_all[:, 0]

    def scott(values):
        width = 3.5 * np.std(values) / len(values) ** (1 / 3)
        lo, hi = np.min(values), np.max(values)
        return np.linspace(lo, hi, max(1, int(np.ceil((hi - lo) / width))) + 1)

    x_edges, p_edges = scott(xa), scott(pa)
    ix = np.clip(np.digitize(xa, x_edges) - 1, 0, len(x_edges) - 2)
    ip = np.clip(np.digitize(pa, p_edges) - 1, 0, len(p_edges) - 2)
    shape = (len(x_edges) - 1, len(p_edges) - 1)
    flat = ix * shape[1] + ip
    counts = np.bincount(flat, minlength=shape[0] * shape[1]).astype(float)
    s = np.bincount(flat, weights=va_p, minlength=counts.size)
    s2 = np.bincount(flat, weights=va_p**2, minlength=counts.size)
    with np.errstate(invalid="ignore", divide="ignore"):
        mean = s / counts
        se = np.sqrt(np.maximum(s2 / counts - mean**2, 0.0) / counts)
    cnt = np.bincount(flat, minlength=counts.size)
    oracle = (np.bincount(flat, weights=-(m[0] * om[0]**2 + h.kappa) * xa,
                          minlength=cnt.size) / np.maximum(cnt, 1))
    xc = 0.5 * (x_edges[:-1] + x_edges[1:])
    pc = 0.5 * (p_edges[:-1] + p_edges[1:])
    return [(xc[k // shape[1]], pc[k % shape[1]], counts[k], mean[k], se[k],
             oracle[k]) for k in range(counts.size) if counts[k] >= min_count]


def shipped(name):
    return validate_config(load_config(os.path.join(CONFIG_DIR,
                                                    f"{name}.json")))


def read_csv_rows(path):
    with open(path) as f:
        next(f)
        return np.array([[float(v) for v in line.split(",")] for line in f])


class TestThermalDraw:
    @pytest.mark.parametrize("count, chunk_rows", [
        (12, 4),       # the chunk divides the count
        (13, 4),       # it does not
        (3, 8),        # the count is below one chunk
        (300, None)])  # the shipped chunk
    @pytest.mark.parametrize("columns", [1, 1024])
    def test_stream_equals_one_call_per_block(self, count, chunk_rows,
                                              columns, monkeypatch):
        if chunk_rows:
            monkeypatch.setattr(cp, "CHUNK_BYTES", 8 * columns * chunk_rows)
        draw = {"x": np.full((count, columns), np.nan),
                "p": np.full((count, columns), np.nan)}
        for name, rows, block in cp.thermal_draw(
                np.random.default_rng(5), count, columns, 1.0, 1.0):
            draw[name][rows] = block
        rng = np.random.default_rng(5)
        np.testing.assert_array_equal(draw["x"],
                                      rng.standard_normal((count, columns)))
        np.testing.assert_array_equal(draw["p"],
                                      rng.standard_normal((count, columns)))

    def test_sample_thermal_equals_one_shot(self):
        h = cp.ClassicalHSpec((1.0, 1.3, 0.4), omegas=(1.0, 0.7, 2.0),
                              kappa=0.5)
        m, om = np.asarray(h.masses), np.asarray(h.omegas)
        x, p = cp.sample_thermal(h, 0.8, 100_001, seed=3)
        ox, op = oneshot_thermal(np.random.default_rng(3), 100_001, 3,
                                 np.sqrt(0.8 * m * om**2), np.sqrt(m / 0.8))
        np.testing.assert_array_equal(x, ox)
        np.testing.assert_array_equal(p, op)

    @pytest.mark.parametrize("a", [0, 1, 2])
    def test_particle_columns_equal_whole_draw(self, a):
        h = cp.ClassicalHSpec((1.0, 1.3, 0.4), omegas=(1.0, 0.7, 2.0),
                              kappa=0.5)
        xa, pa, dpa = cp.sample_thermal_particle(h, 0.8, 100_001, 3, a)
        x, p = cp.sample_thermal(h, 0.8, 100_001, seed=3)
        np.testing.assert_array_equal(xa, x[:, a])
        np.testing.assert_array_equal(pa, p[:, a])
        np.testing.assert_array_equal(dpa, cp.forces(h, x)[:, a])


class TestTruncatedVelocity:
    def test_conditional_mean_oracle(self):
        h = cp.ClassicalHSpec((1.0, 1.0), omegas=(1.0, 1.0), kappa=0.5)
        xa, pa, dpa = cp.sample_thermal_particle(h, 1.0, 100_000, 6, 0)
        b = cp.truncated_phase_velocity(xa, pa, dpa)
        cnt = np.bincount(b.flat, minlength=b.counts.size)
        np.testing.assert_array_equal(cnt.reshape(b.counts.shape), b.counts)
        oracle = (np.bincount(b.flat, weights=-1.5 * xa, minlength=cnt.size)
                  / np.maximum(cnt, 1)).reshape(b.counts.shape)
        occ = b.counts >= b.min_count
        frac = np.mean(np.abs(b.mean_vp - oracle)[occ] <= 3 * b.se_vp[occ])
        assert frac >= 0.95

    def test_sparse_bins_are_nan(self):
        h = cp.ClassicalHSpec((1.0, 1.0), omegas=(1.0, 1.0), kappa=0.1)
        xa, pa, dpa = cp.sample_thermal_particle(h, 1.0, 500, 7, 0)
        b = cp.truncated_phase_velocity(xa, pa, dpa, min_count=1000)
        assert np.all(np.isnan(b.mean_vp))
        assert b.counts.sum() == 500

    def test_single_sample_is_one_empty_bin(self):
        b = cp.truncated_phase_velocity(np.array([0.3]), np.array([-1.0]),
                                        np.array([2.0]))
        assert b.counts.shape == (1, 1) and b.counts[0, 0] == 1
        assert np.isnan(b.mean_vp[0, 0])

    @pytest.mark.parametrize("seed", [0, 5])
    def test_runner_equals_one_shot_oracle(self, seed, tmp_path):
        cfg = shipped("classical_truncated")
        c = cfg["classical"]
        res = RUNNERS["classical_truncated"](cfg, str(tmp_path), seed)
        h = cp.ClassicalHSpec(c["masses"], c["omegas"], c["kappa"])
        rows = np.array(oneshot_truncated_rows(h, c["beta"], c["samples"],
                                               seed))
        np.testing.assert_array_equal(
            read_csv_rows(tmp_path / "binned_velocity.csv"), rows)
        assert res.metrics["occupied_bins"] == len(rows)


class TestScaling:
    def test_lln_exponent(self):
        rows, slope = cp.ensemble_average_scaling([16, 64, 256, 1024], 600,
                                                  1.0, 1.0, seed=8)
        assert slope == pytest.approx(-0.5, abs=0.05)

    def test_mean_matches_equipartition(self):
        # <H> = N k T for N 1D oscillators (two quadratic dof each)
        rows, _ = cp.ensemble_average_scaling([256], 2000, 1.0, 1.0, seed=9)
        size, mean, ratio = rows[0]
        assert mean == pytest.approx(256.0, rel=0.02)

    def test_single_sample_rejected(self):
        with pytest.raises(ValueError):
            cp.ensemble_average_scaling([16], 1, 1.0, 1.0)

    @pytest.mark.parametrize("seed", [0, 5])
    def test_runner_equals_one_shot_oracle(self, seed, tmp_path):
        cfg = shipped("scaling")
        s = cfg["scaling"]
        res = RUNNERS["scaling"](cfg, str(tmp_path), seed)
        rows = oneshot_scaling_rows(s["sizes"], s["samples"], s["beta"],
                                    s["omega"], seed)
        np.testing.assert_array_equal(read_csv_rows(tmp_path / "scaling.csv"),
                                      np.array(rows))
        ratios = [r[2] for r in rows]
        assert res.metrics["slope"] == float(np.polyfit(
            np.log(s["sizes"]), np.log(ratios), 1)[0])


class TestRunnerPeakMemory:
    def test_scaling_holds_one_ensemble_block(self, tmp_path, traced_peak):
        # one (samples, max size) block of (1/2) w^2 x^2, plus a chunk
        cfg = shipped("scaling")
        s = cfg["scaling"]
        peak = traced_peak(RUNNERS["scaling"], cfg, str(tmp_path), 0)
        assert peak < 1.5 * s["samples"] * max(s["sizes"]) * 8

    def test_classical_truncated_holds_particle_a_columns(self, tmp_path,
                                                          traced_peak):
        # x_A, p_A, dp_A/dt and the bin index, and two columns in passing;
        # drawing both particles' x and p at once held 19 MiB here
        cfg = shipped("classical_truncated")
        peak = traced_peak(RUNNERS["classical_truncated"], cfg, str(tmp_path),
                           0)
        assert peak < 6 * cfg["classical"]["samples"] * 8


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
