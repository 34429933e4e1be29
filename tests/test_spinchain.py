import numpy as np
import pytest

from bohmstat import spinchain as sc
from bohmstat.errors import DiagonalizationBudget, NonPositiveBeta, WindowEmpty

SX = np.array([[0.0, 1.0], [1.0, 0.0]])
SZ = np.array([[1.0, 0.0], [0.0, -1.0]])


def site_op(op, site, n):
    out = np.array([[1.0]])
    for i in range(n):
        out = np.kron(out, op if i == site else np.eye(2))
    return out


def kron_tfim(n, j_coupling=1.0, g_field=1.0, ab_coupling=1.0, n_a=1):
    """The TFIM as a sum of Kronecker products of site operators, term by
    term in tfim_hamiltonian's order: the oracle of its bit-operation build."""
    h = np.zeros((2**n, 2**n))
    for i in range(n - 1):
        scale = ab_coupling if i == n_a - 1 else 1.0
        h -= scale * j_coupling * site_op(SZ, i, n) @ site_op(SZ, i + 1, n)
    for i in range(n):
        h -= g_field * site_op(SX, i, n)
    return h


class TestHamiltonian:
    @pytest.mark.parametrize("n, g, ab, n_a", [
        (2, 0.7, 1.0, 1), (5, 0.8, 0.3, 2), (8, 1.0, 0.2, 1),
        (10, 1.0, 0.2, 1)])
    def test_bit_build_equals_kronecker_oracle(self, n, g, ab, n_a):
        np.testing.assert_array_equal(
            sc.tfim_hamiltonian(n, 1.0, g, ab_coupling=ab, n_a=n_a),
            kron_tfim(n, 1.0, g, ab_coupling=ab, n_a=n_a))

    def test_two_spins_manual(self):
        # H = -J sz sz - g (sx 1 + 1 sx) written out in the product basis
        j, g = 1.3, 0.7
        h = sc.tfim_hamiltonian(2, j, g)
        sz = np.diag([1.0, -1.0])
        sx = np.array([[0.0, 1.0], [1.0, 0.0]])
        expect = (-j * np.kron(sz, sz)
                  - g * (np.kron(sx, np.eye(2)) + np.kron(np.eye(2), sx)))
        np.testing.assert_allclose(h, expect, atol=1e-14)

    def test_hermitian(self):
        h = sc.tfim_hamiltonian(5, 1.0, 0.8, ab_coupling=0.3, n_a=2)
        np.testing.assert_allclose(h, h.T, atol=1e-14)

    def test_ab_bond_scaling(self):
        full = sc.tfim_hamiltonian(3, 1.0, 0.0, ab_coupling=1.0, n_a=1)
        cut = sc.tfim_hamiltonian(3, 1.0, 0.0, ab_coupling=0.0, n_a=1)
        sz = np.diag([1.0, -1.0])
        bond01 = -np.kron(np.kron(sz, sz), np.eye(2))
        np.testing.assert_allclose(full - cut, bond01, atol=1e-14)

    def test_budget_guard(self):
        with pytest.raises(DiagonalizationBudget):
            sc.tfim_hamiltonian(13)


class TestTraceDistance:
    def test_identical_states(self):
        rho = np.eye(4) / 4
        assert sc.trace_distance(rho, rho) == 0.0

    def test_orthogonal_pure_states(self):
        a = np.diag([1.0, 0.0])
        b = np.diag([0.0, 1.0])
        assert sc.trace_distance(a, b) == pytest.approx(1.0)

    def test_symmetry_and_triangle(self):
        rng = np.random.default_rng(0)

        def rand_rho():
            m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            r = m @ m.conj().T
            return r / np.trace(r).real

        a, b, c = rand_rho(), rand_rho(), rand_rho()
        assert sc.trace_distance(a, b) == pytest.approx(
            sc.trace_distance(b, a), abs=1e-12)
        assert sc.trace_distance(a, c) <= (sc.trace_distance(a, b)
                                           + sc.trace_distance(b, c) + 1e-12)


class TestCanonicalState:
    def test_infinite_temperature_limit(self):
        eig = np.linalg.eigh(sc.tfim_hamiltonian(1, 1.0, 1.0))
        rho = sc.canonical_state(eig, 1e-12)
        np.testing.assert_allclose(rho, np.eye(2) / 2, atol=1e-10)

    def test_ground_state_limit(self):
        # -g sx, ground = |+>
        eig = np.linalg.eigh(sc.tfim_hamiltonian(1, 1.0, 1.0))
        rho = sc.canonical_state(eig, 50.0)
        plus = np.full((2, 2), 0.5)
        np.testing.assert_allclose(rho, plus, atol=1e-10)

    def test_unit_trace(self):
        eig = np.linalg.eigh(sc.tfim_hamiltonian(2, 1.0, 0.7))
        assert np.trace(sc.canonical_state(eig, 0.8)).real == \
            pytest.approx(1.0, abs=1e-12)


    def test_positive_beta_required(self):
        # the weights are partition_function's, which takes beta > 0
        with pytest.raises(ValueError):
            sc.canonical_state(np.linalg.eigh(sc.tfim_hamiltonian(1, 1.0, 1.0)),
                               0.0)


class TestFitBeta:
    @pytest.mark.parametrize("n_a", [1, 2])
    @pytest.mark.parametrize("beta0", [0.3, 1.0, 2.5])
    def test_recovers_canonical_beta(self, beta0, n_a):
        eig = np.linalg.eigh(sc.tfim_hamiltonian(n_a, 1.0, 1.0))
        beta, dist = sc.fit_beta(sc.canonical_state(eig, beta0), eig)
        assert beta == pytest.approx(beta0, abs=1e-4)
        assert dist < 1e-8

    def test_beta_beyond_the_range_lands_on_its_bound(self):
        eig = np.linalg.eigh(sc.tfim_hamiltonian(1, 1.0, 1.0))
        beta, _ = sc.fit_beta(sc.canonical_state(eig, 5.0), eig)
        assert beta == pytest.approx(3.0, abs=1e-4)


class TestWindows:
    def test_window_indices_inclusive(self):
        e = np.array([0.0, 1.0, 2.0, 3.0])
        np.testing.assert_array_equal(sc.window_indices(e, 1.5, 1.0), [1, 2])

    def test_entropy_beta_synthetic_exponential_dos(self):
        # density of states ~ exp(b E) has d ln dim / dE = b
        b = 0.8
        rng = np.random.default_rng(1)
        u = rng.uniform(np.exp(b * 0.0), np.exp(b * 10.0), 200_000)
        energies = np.sort(np.log(u) / b)
        beta = sc.entropy_beta(energies, center=5.0, width=1.0, delta_e=1.0)
        assert beta == pytest.approx(b, rel=0.05)

    def test_empty_window_raises(self):
        with pytest.raises(WindowEmpty):
            sc.entropy_beta(np.array([0.0, 1.0]), 10.0, 0.1, 0.1)


class TestReducedState:
    def test_decoupled_chain_product_state(self):
        # with the A|B bond switched off, an eigenstate of the full chain is a
        # product and the A marginal is pure
        _, vectors = sc.diagonalize_chain(4, 1.0, 0.9, ab_coupling=0.0, n_a=2)
        rho_a = sc.reduced_density_matrix_spins(vectors[:, 0], 4, 2)
        purity = np.trace(rho_a @ rho_a).real
        assert purity == pytest.approx(1.0, abs=1e-10)

    def test_trace_one(self):
        rng = np.random.default_rng(2)
        psi = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        psi /= np.linalg.norm(psi)
        rho_a = sc.reduced_density_matrix_spins(psi, 4, 1)
        assert np.trace(rho_a).real == pytest.approx(1.0, abs=1e-12)


class TestTypicality:
    def test_small_chain_report(self):
        rep = sc.canonical_typicality(8, trials=5, seed=3)
        assert rep["window_dim"] >= 30
        assert 0.0 <= rep["median_distance_fit"] <= 1.0
        assert len(rep["distances_fit"]) == 5
        assert rep["beta_entropy"] > 0   # below-median window: positive temp

    def test_window_above_the_middle_rejected(self):
        # its entropy beta is negative, and canonical states take beta > 0
        with pytest.raises(NonPositiveBeta):
            sc.canonical_typicality(6, center_quantile=0.8, trials=2)

    def test_distance_shrinks_with_bath(self):
        small = sc.canonical_typicality(6, trials=8, seed=4)
        large = sc.canonical_typicality(10, trials=8, seed=4)
        assert large["median_distance_fit"] < small["median_distance_fit"]
