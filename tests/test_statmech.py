import csv

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from bohmstat import experiments
from bohmstat import statmech as sm
from bohmstat.configio import validate_config
from bohmstat.errors import (GridTooCoarse, NotADensityMatrix, OutsideAllCells,
                             TruncationInsufficient)


def random_density(dim, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


# ---------------------------------------------------------------------------
# reference oracles: the per-point loops that statmech replaced with array code

def loop_macrostate_of(x, edges):
    """Index of the first closed cell [edges[i], edges[i + 1]] holding x."""
    cells = [[(edges[i], edges[i + 1])] for i in range(len(edges) - 1)]
    x = np.atleast_1d(np.asarray(x, dtype=float))
    for idx, cell in enumerate(cells):
        inside = True
        for d, (lo, hi) in enumerate(cell):
            if not (lo <= x[d] <= hi):
                inside = False
                break
        if inside:
            return idx
    raise OutsideAllCells(f"{x} is outside every cell")


def loop_thermo_columns(spectrum_of_volume, v_grid, t_grid):
    """ln Z, direct E and direct S from one scalar evaluation per (V, T)."""
    n_v, n_t = len(v_grid), len(t_grid)
    log_z = np.empty((n_v, n_t))
    e_dir = np.empty((n_v, n_t))
    s_dir = np.empty((n_v, n_t))
    for i, v in enumerate(v_grid):
        spec = spectrum_of_volume(v)
        e = spec.levels
        for j, t in enumerate(t_grid):
            beta = 1.0 / t
            w = np.exp(-beta * (e - e[0]))
            z_shifted = w.sum()
            p = w / z_shifted
            log_z[i, j] = np.log(z_shifted) - beta * e[0]
            e_dir[i, j] = float(np.sum(e * p))
            mask = p > 0
            s_dir[i, j] = float(-np.sum(p[mask] * np.log(p[mask])))
    return log_z, e_dir, s_dir


def full_width_partition_function(spec, beta, tail_tol=1e-12):
    """partition_function evaluating exp on every level, underflowing or not."""
    beta = np.asarray(beta, dtype=float)
    if np.any(beta <= 0):
        raise ValueError("beta must be positive")
    e = spec.levels
    e0 = e[0]
    w = np.exp(-beta[..., None] * (e - e0))
    tail = np.atleast_1d(w[..., -1])
    if spec.truncated and np.any(tail > tail_tol):
        raise TruncationInsufficient(
            f"tail weight {tail[tail > tail_tol][0]:.3g} exceeds {tail_tol}; "
            "add levels")
    z_shifted = w.sum(axis=-1)
    p = w / z_shifted[..., None]
    log_z = np.log(z_shifted) - beta * e0
    if beta.ndim == 0:
        return float(np.exp(log_z)), p, float(log_z)
    return np.exp(log_z), p, log_z


def loop_first_law_residual(table):
    """Per-edge residuals in file order, and the isochoric subset."""
    tiny = 1e-300
    residuals = []
    iso = []
    e, s, p = table.energy, table.entropy, table.pressure
    tg, vg = table.t_grid, table.v_grid
    n_v, n_t = e.shape
    for i in range(1, n_v - 1):            # isochoric edges (T direction)
        for j in range(1, n_t - 2):
            de = e[i, j + 1] - e[i, j]
            ds = s[i, j + 1] - s[i, j]
            tbar = 0.5 * (tg[j] + tg[j + 1])
            r = abs(de - tbar * ds) / (abs(de) + tiny)
            residuals.append(r)
            iso.append(r)
    for j in range(1, n_t - 1):            # isothermal edges (V direction)
        for i in range(1, n_v - 2):
            de = e[i + 1, j] - e[i, j]
            ds = s[i + 1, j] - s[i, j]
            dv = vg[i + 1] - vg[i]
            tbar = tg[j]
            pbar = 0.5 * (p[i, j] + p[i + 1, j])
            r = abs(de - tbar * ds + pbar * dv) / (abs(de) + tiny)
            residuals.append(r)
    return np.array(residuals), np.array(iso)


class TestVonNeumann:
    def test_pure_state_zero(self):
        assert sm.von_neumann_entropy([1.0, 0.0, 0.0]) == 0.0

    def test_maximally_mixed_qubit(self):
        assert sm.von_neumann_entropy(np.eye(2) / 2) == \
            pytest.approx(np.log(2), abs=1e-14)

    def test_harmonic_thermal_closed_form(self):
        beta, omega = 0.7, 1.3
        _, p, _ = sm.partition_function(sm.harmonic_spectrum(omega, 400), beta)
        assert sm.von_neumann_entropy(p) == \
            pytest.approx(sm.harmonic_thermal_entropy(omega, beta), abs=1e-8)

    def test_unitary_invariance(self):
        rho = random_density(6, 0)
        q, _ = np.linalg.qr(np.random.default_rng(1).standard_normal((6, 6))
                            + 1j * np.random.default_rng(2).standard_normal((6, 6)))
        assert sm.von_neumann_entropy(q @ rho @ q.conj().T) == \
            pytest.approx(sm.von_neumann_entropy(rho), abs=1e-10)

    def test_additive_on_products(self):
        p = np.array([0.7, 0.3])
        q = np.array([0.5, 0.25, 0.25])
        assert sm.von_neumann_entropy(np.outer(p, q).ravel()) == \
            pytest.approx(sm.von_neumann_entropy(p)
                          + sm.von_neumann_entropy(q), abs=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(2, 8), st.integers(0, 10**6))
    def test_bounded_by_log_dim(self, dim, seed):
        s = sm.von_neumann_entropy(random_density(dim, seed))
        assert -1e-12 <= s <= np.log(dim) + 1e-12

    def test_rejects_bad_matrices(self):
        with pytest.raises(NotADensityMatrix):
            sm.von_neumann_entropy(np.array([[0.5, 1.0], [0.0, 0.5]]))
        with pytest.raises(NotADensityMatrix):
            sm.von_neumann_entropy([1.2, -0.2])
        with pytest.raises(NotADensityMatrix):
            sm.von_neumann_entropy([0.4, 0.4])


class TestMacrostates:
    def test_dim_arithmetic(self):
        # L * 2 p_cut / (2 pi) = 10 * 2 pi / (2 pi) = 10
        assert sm.macrostate_dim(10.0, np.pi) == 10

    def test_dim_floors_and_clamps(self):
        assert sm.macrostate_dim(0.95, np.pi) == 1   # floor(0.95) -> clamp 1
        assert sm.macrostate_dim(1.99, np.pi) == 1

    def test_dim_requires_positive_cutoff(self):
        with pytest.raises(ValueError):
            sm.macrostate_dim(1.0, 0.0)

    def test_boundary_tie_goes_low(self):
        d = sm.MacrostateDecomposition.from_intervals_1d([0.0, 1.0, 2.0],
                                                         2 * np.pi)
        assert sm.macrostate_of(1.0, d) == 0
        assert sm.macrostate_of(1.5, d) == 1

    def test_outside_raises(self):
        d = sm.MacrostateDecomposition.from_intervals_1d([0.0, 1.0], np.pi)
        with pytest.raises(OutsideAllCells):
            sm.macrostate_of(2.0, d)

    def test_mismatched_dims_rejected(self):
        with pytest.raises(ValueError):
            sm.MacrostateDecomposition([0.0, 1.0], [1, 2])
        with pytest.raises(ValueError):
            sm.MacrostateDecomposition([0.0, 1.0, 2.0], [1, 0])

    @pytest.mark.parametrize("edges", [
        [0.0], [[0.0, 1.0], [1.0, 2.0]], [1.0, 0.0], [0.0, 1.0, 1.0],
        [-12.0, 1.5, -1.5, 4.0, 12.0], [0.0, np.inf], [0.0, np.nan, 2.0]])
    def test_bad_edges_rejected(self, edges):
        with pytest.raises(ValueError):
            sm.MacrostateDecomposition.from_intervals_1d(edges, np.pi)

    def test_entropy_series_values(self):
        d = sm.MacrostateDecomposition([0.0, 1.0, 3.0], [1, 4])
        paths = np.array([[[0.5], [2.0]]])       # one sample, two times
        idx = sm.macrostate_of(paths[:, :, 0], d)
        np.testing.assert_array_equal(idx, [[0, 1]])
        np.testing.assert_allclose(np.log(np.asarray(d.dims, float))[idx],
                                   [[0.0, np.log(4)]])

    def test_scalar_gives_int(self):
        d = sm.MacrostateDecomposition.from_intervals_1d([0.0, 1.0, 2.0], np.pi)
        assert type(sm.macrostate_of(1.5, d)) is int
        assert sm.macrostate_of(np.array([[1.0]]), d).shape == (1, 1)

    def test_outside_or_nan_in_array_raises(self):
        d = sm.MacrostateDecomposition.from_intervals_1d([0.0, 1.0], np.pi)
        for bad in (-1e-300, 1.0 + 1e-15, np.nan):
            with pytest.raises(OutsideAllCells):
                sm.macrostate_of(np.array([[0.5, bad], [0.0, 1.0]]), d)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=8, unique=True),
           st.lists(st.floats(-2e3, 2e3), max_size=20), st.data())
    def test_matches_loop_oracle(self, edges, points, data):
        edges = sorted(edges)
        d = sm.MacrostateDecomposition.from_intervals_1d(edges, np.pi)
        # every edge is an exact tie; points may fall outside the cells
        points = points + edges + data.draw(st.lists(
            st.sampled_from([np.nan, np.nextafter(edges[0], -np.inf),
                             np.nextafter(edges[-1], np.inf)]), max_size=2))
        inside, expect = [], []
        for x in points:
            try:
                expect.append(loop_macrostate_of(x, edges))
            except OutsideAllCells:
                with pytest.raises(OutsideAllCells):
                    sm.macrostate_of(x, d)
                continue
            inside.append(x)
            assert sm.macrostate_of(x, d) == expect[-1]
        got = sm.macrostate_of(np.array(inside, dtype=float), d)
        np.testing.assert_array_equal(got, np.array(expect, dtype=np.intp))
        if len(inside) < len(points):
            with pytest.raises(OutsideAllCells):
                sm.macrostate_of(np.array(points, dtype=float), d)


class TestGibbs:
    def test_delta_z_shift_is_exact(self, coarse_gibbs):
        samples = np.random.default_rng(3).standard_normal(2000)
        edges = np.linspace(-5, 5, 41)
        a = coarse_gibbs(samples, edges, 1.0)
        b = coarse_gibbs(samples, edges, 2.5)
        assert b == pytest.approx(a - np.log(2.5), abs=1e-12)

    def test_gaussian_differential_entropy(self, coarse_gibbs):
        sigma = 1.7
        samples = sigma * np.random.default_rng(4).standard_normal(100_000)
        edges = np.linspace(-6 * sigma, 6 * sigma, 120)
        expect = 0.5 * np.log(2 * np.pi * np.e * sigma**2)
        assert coarse_gibbs(samples, edges, 1.0) == \
            pytest.approx(expect, rel=0.02)

    def test_coarse_grained_single_cell(self):
        assert sm.plugin_entropy([1.0]) == 0.0

    def test_coarse_grained_uniform_log_w(self):
        assert sm.plugin_entropy(np.ones(8) / 8) == \
            pytest.approx(np.log(8), abs=1e-12)

    def test_coarse_grained_weights(self):
        # concentrated mass in a cell of weight W gives k ln W
        assert sm.plugin_entropy([1.0, 0.0], [16.0, 1.0]) == \
            pytest.approx(np.log(16), abs=1e-12)

    def test_rows_equal_one_dimensional_calls(self):
        # a (frames, cells) array with empty cells, as the entropy runs pass
        # it, reduces each row as a 1-D call does
        rng = np.random.default_rng(11)
        counts = rng.integers(0, 5, size=(40, 12)) * (rng.random((40, 12)) < 0.5)
        counts[:, 3] += 1
        p = counts / counts.sum(axis=1, keepdims=True)
        dims = rng.integers(1, 30, size=12)
        assert np.count_nonzero(p == 0) > 100
        s = sm.plugin_entropy(p, dims)
        assert s.shape == (40,)
        for t in range(40):
            assert s[t] == sm.plugin_entropy(p[t], dims)


class TestPartitionFunction:
    def test_two_level_exact(self):
        gap, beta = 1.3, 0.8
        z, p, log_z = sm.partition_function(sm.Spectrum([0.0, gap]), beta)
        assert log_z == pytest.approx(np.log1p(np.exp(-beta * gap)), abs=1e-14)
        assert p[1] / p[0] == pytest.approx(np.exp(-beta * gap), abs=1e-14)

    def test_harmonic_geometric_series(self):
        omega, beta = 1.1, 1.5
        _, _, log_z = sm.partition_function(sm.harmonic_spectrum(omega, 60),
                                            beta)
        exact = -0.5 * beta * omega - np.log1p(-np.exp(-beta * omega))
        assert log_z == pytest.approx(exact, abs=1e-10)

    def test_box_against_logsumexp(self):
        spec = sm.box_spectrum(1.0, mass=50.0, count=10_000)
        beta = 1.0
        _, _, log_z = sm.partition_function(spec, beta)
        assert log_z == pytest.approx(logsumexp(-beta * spec.levels),
                                      abs=1e-12)

    def test_truncation_guard(self):
        spec = sm.box_spectrum(1.0, mass=50.0, count=5)
        with pytest.raises(TruncationInsufficient):
            sm.partition_function(spec, 0.01)

    def test_positive_beta_required(self):
        with pytest.raises(ValueError):
            sm.partition_function(sm.Spectrum([0.0, 1.0]), -1.0)
        with pytest.raises(ValueError):
            sm.partition_function(sm.Spectrum([0.0, 1.0]), np.array([1.0, 0.0]))

    def test_truncation_guard_on_any_beta(self):
        spec = sm.box_spectrum(1.0, mass=50.0, count=5)
        with pytest.raises(TruncationInsufficient):
            sm.partition_function(spec, np.array([10.0, 0.01, 5.0]))

    def test_array_beta_rows_equal_scalar_calls(self):
        spec = sm.box_spectrum(1.0, mass=50.0, count=800)
        betas = 1.0 / np.linspace(0.5, 2.0, 13)
        z, p, log_z = sm.partition_function(spec, betas)
        assert z.shape == log_z.shape == (13,) and p.shape == (13, 800)
        for i, beta in enumerate(betas):
            z_i, p_i, log_z_i = sm.partition_function(spec, beta)
            assert type(z_i) is float and type(log_z_i) is float
            assert (z[i], log_z[i]) == (z_i, log_z_i)
            np.testing.assert_array_equal(p[i], p_i)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_full_width_oracle(self, data):
        # spectra ascending or with the <= 1e-12 descents Spectrum accepts;
        # the exponent at the smallest beta puts no level, some levels or
        # every level but the first below the underflow of exp.  A cluster
        # of close levels before a wide gap gives many live weights of
        # similar size, whose sum depends on the width the sum runs over.
        n = data.draw(st.integers(1, 300))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        steps = rng.exponential(1.0, n - 1) * data.draw(st.sampled_from(
            [1e-3, 1.0, 30.0]))
        if n > 2 and data.draw(st.booleans()):
            steps[data.draw(st.integers(0, n - 2))] += 1e4
        descents = rng.random(n - 1) < data.draw(st.sampled_from([0.0, 0.2]))
        steps[descents] = -rng.uniform(0.0, 1e-12, descents.sum())
        e0 = data.draw(st.floats(-5.0, 5.0))
        levels = e0 + np.concatenate([[0.0], np.cumsum(steps)])
        assume(not np.any(np.diff(levels) < -1e-12))
        spread = levels.max() - e0
        regime = data.draw(st.sampled_from(["none", "partial", "all_but_first",
                                            "edge"]))
        if regime == "none" or spread <= 0:
            beta_min = data.draw(st.floats(1e-3, 700.0)) / max(spread, 1e-300)
        elif regime == "partial":
            beta_min = 746.0 / (spread * data.draw(st.floats(0.05, 0.95)))
        elif regime == "all_but_first":
            gaps = levels[1:] - e0
            beta_min = 800.0 / max(gaps[gaps > 0].min(initial=spread), 1e-300)
        else:  # an exponent within a few ulps of -745.13 or -746
            target = data.draw(st.sampled_from([745.0, 745.13, 745.1332191019,
                                                745.1332191020, 745.2, 746.0,
                                                746.0000001]))
            k = data.draw(st.integers(0, n - 1))
            gap = levels[k] - e0
            assume(gap > 0)
            beta_min = target / gap
        assume(np.isfinite(beta_min) and beta_min > 0)
        if data.draw(st.booleans()):
            beta = beta_min
        else:
            factors = data.draw(st.lists(st.floats(1.0, 3.0), min_size=1,
                                         max_size=5))
            beta = beta_min * np.array(factors)
            beta[data.draw(st.integers(0, len(factors) - 1))] = beta_min
        spec = sm.Spectrum(levels, truncated=data.draw(st.booleans()))
        try:
            # a descent below E_0 at a large beta can overflow Z (and give
            # inf / inf in p) on both sides alike
            with np.errstate(over="ignore", invalid="ignore"):
                want = full_width_partition_function(spec, beta)
        except TruncationInsufficient as exc:
            with pytest.raises(TruncationInsufficient) as got:
                sm.partition_function(spec, beta)
            assert str(got.value) == str(exc)
            return
        with np.errstate(over="ignore", invalid="ignore"):
            got = sm.partition_function(spec, beta)
        for a, b in zip(got, want):
            assert type(a) is type(b)
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("beta", [0.5, 2.0, 20.0, np.array([0.5, 1.0, 4.0]),
                                      np.array([30.0, 25.0])])
    def test_shipped_box_matches_full_width_oracle(self, beta):
        # at beta = 20 every level but the first underflows
        spec = sm.box_spectrum(1.0, mass=50.0, count=800)
        for a, b in zip(sm.partition_function(spec, beta),
                        full_width_partition_function(spec, beta)):
            np.testing.assert_array_equal(a, b)

    def test_two_level_direct_energy(self):
        gap, beta = 2.0, 0.9
        spec = sm.Spectrum([0.0, gap])
        _, p, _ = sm.partition_function(spec, beta)
        w = np.exp(-beta * gap)
        assert np.sum(spec.levels * p) == pytest.approx(gap * w / (1 + w),
                                                        abs=1e-14)

    def test_harmonic_coth_energy(self):
        omega, beta = 0.9, 1.2
        spec = sm.harmonic_spectrum(omega, 200)
        _, p, _ = sm.partition_function(spec, beta)
        assert np.sum(spec.levels * p) == pytest.approx(
            sm.harmonic_thermal_energy(omega, beta), abs=1e-10)

    def test_descending_levels_rejected(self):
        with pytest.raises(ValueError):
            sm.Spectrum([1.0, 0.0])


def two_level_family(v):
    return sm.Spectrum([0.0, 1.0 / v**2])


# the box spectrum of the shipped thermo configs underflows to p_n = 0 in its tail
FAMILIES = {
    "two_level": two_level_family,
    "box": lambda v: sm.box_spectrum(v, mass=50.0, count=800),
    "harmonic": lambda v: sm.harmonic_spectrum(1.3, 200),
}


class TestThermoTable:
    def make(self, nv=41, nt=201):
        return sm.thermo_table(two_level_family,
                               np.linspace(0.95, 1.05, nv),
                               np.linspace(0.9, 1.1, nt))

    def test_dual_route_energy(self):
        t = self.make(nv=5, nt=201)
        interior = t.energy[:, 1:-1]
        rel = np.abs(interior - t.energy_direct[:, 1:-1]) \
            / np.abs(t.energy_direct[:, 1:-1])
        assert np.max(rel) < 1e-4

    def test_dual_route_entropy(self):
        t = self.make(nv=5, nt=201)
        diff = np.abs(t.entropy[:, 1:-1] - t.entropy_direct[:, 1:-1])
        assert np.max(diff) < 1e-4

    def test_first_law_residual_small(self):
        res, stats = sm.first_law_residual(self.make())
        assert stats["median"] < 1e-5
        assert stats["n_edges"] == len(res)

    def test_first_law_second_order(self):
        _, coarse = sm.first_law_residual(self.make(nv=21, nt=51))
        _, fine = sm.first_law_residual(self.make(nv=41, nt=101))
        assert coarse["median"] / fine["median"] > 3.0

    def test_coarse_grid_rejected(self):
        with pytest.raises(GridTooCoarse):
            sm.thermo_table(two_level_family, np.linspace(1, 2, 3),
                            np.linspace(1, 2, 10))

    def test_nonuniform_grid_rejected(self):
        with pytest.raises(GridTooCoarse):
            sm.thermo_table(two_level_family, np.linspace(1, 2, 6),
                            np.geomspace(1, 2, 10))

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_matches_scalar_loop(self, family):
        v_grid, t_grid = np.linspace(0.8, 1.2, 7), np.linspace(0.5, 2.0, 31)
        t = sm.thermo_table(FAMILIES[family], v_grid, t_grid)
        log_z, e_dir, s_dir = loop_thermo_columns(FAMILIES[family], v_grid,
                                                  t_grid)
        np.testing.assert_array_equal(t.log_z, log_z)
        np.testing.assert_array_equal(t.energy_direct, e_dir)
        np.testing.assert_array_equal(t.entropy_direct, s_dir)

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_first_law_matches_loop(self, family):
        t = sm.thermo_table(FAMILIES[family], np.linspace(0.8, 1.2, 7),
                            np.linspace(0.5, 2.0, 9))
        res, stats = sm.first_law_residual(t)
        loop_res, loop_iso = loop_first_law_residual(t)
        np.testing.assert_array_equal(res, loop_res)
        assert stats == {"max": float(loop_res.max()),
                         "median": float(np.median(loop_res)),
                         "median_isochoric": float(np.median(loop_iso)),
                         "n_edges": len(loop_res)}

    def test_direct_columns_only_when_asked(self):
        args = (FAMILIES["box"], np.linspace(0.8, 1.2, 7),
                np.linspace(0.5, 2.0, 9))
        full = sm.thermo_table(*args, direct=True)
        lean = sm.thermo_table(*args, direct=False)
        assert lean.energy_direct is None and lean.entropy_direct is None
        for name in ("log_z", "free_energy", "energy", "entropy", "pressure"):
            np.testing.assert_array_equal(getattr(lean, name),
                                          getattr(full, name))

    def test_table_csv_matches_per_cell_rows(self, tmp_path):
        # the file written from whole columns equals the one written from
        # numpy scalars cell by cell, NaN boundary cells included
        from bohmstat.experiments import _table_csv

        tab = sm.thermo_table(FAMILIES["box"], np.linspace(0.8, 1.2, 7),
                              np.linspace(0.5, 2.0, 9), direct=True)
        rows = [(v, t, tab.log_z[i, j], tab.free_energy[i, j],
                 tab.energy[i, j], tab.entropy[i, j], tab.pressure[i, j],
                 tab.energy_direct[i, j], tab.entropy_direct[i, j])
                for i, v in enumerate(tab.v_grid)
                for j, t in enumerate(tab.t_grid)]
        with open(tmp_path / "loop.csv", "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["volume", "temperature", "log_z", "free_energy",
                        "energy", "entropy", "pressure", "energy_direct",
                        "entropy_direct"])
            w.writerows(rows)
        _table_csv(tmp_path / "table.csv", tab)
        assert (tmp_path / "table.csv").read_bytes() \
            == (tmp_path / "loop.csv").read_bytes()

    def test_free_energy_sign(self):
        t = self.make(nv=5, nt=5)
        np.testing.assert_allclose(
            t.free_energy, -t.t_grid[None, :] * t.log_z)


class TestBohmianVolume:
    def test_thermal_box_occupation(self, thermal_box):
        rep = thermal_box(1.0, 20.0, levels=16, grid_n=128, samples=2000,
                          seed=0)
        assert rep["max_abs_current"] == 0.0
        assert rep["all_inside"]
        assert rep["spread_fraction"] > 0.5


class TestThermoClosedFormCheck:
    @staticmethod
    def run(tmp_path, **thermo):
        cfg = validate_config({"experiment": "thermo", "thermo": {
            "v_count": 7, "t_count": 9, "levels": 200, **thermo}})
        return experiments.run_thermo(cfg, str(tmp_path), 0)

    @pytest.mark.parametrize("family", ["harmonic", "two_level"])
    def test_family_passes_its_closed_form(self, tmp_path, family):
        res = self.run(tmp_path, family=family, omega=1.3, gap=2.0)
        assert res.checks == {"energy_closed_form_within_tail_bound": True}
        assert res.metrics["max_closed_form_energy_rel_error"] < 1e-13

    def test_zero_gap_has_nothing_to_resolve(self, tmp_path):
        res = self.run(tmp_path, family="two_level", gap=0.0)
        assert res.passed
        assert res.metrics["max_closed_form_energy_rel_error"] == 0.0

    def test_wrong_volume_law_fails(self, tmp_path, monkeypatch):
        # a gap falling as 1/V instead of 1/V^2
        monkeypatch.setattr(experiments, "_spectrum_family", lambda t: (
            lambda v: sm.Spectrum([0.0, t["gap"] / v])))
        res = self.run(tmp_path, family="two_level", gap=2.0)
        assert not res.checks["energy_closed_form_within_tail_bound"]
