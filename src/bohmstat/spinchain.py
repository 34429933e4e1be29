"""Transverse-field Ising chains and the microcanonical-to-canonical
typicality experiment.

H = -J sum_i sz_i sz_{i+1} - g sum_i sx_i  on an open chain, with the single
bond that crosses the A|B cut scaled by `ab_coupling` so the subsystem is
weakly coupled to the bath.
"""

from __future__ import annotations

import numpy as np

from .errors import DiagonalizationBudget, NonPositiveBeta, WindowEmpty
from .statmech import Spectrum, partition_function

MAX_SPINS = 12

def tfim_hamiltonian(n: int, j_coupling: float = 1.0, g_field: float = 1.0,
                     ab_coupling: float = 1.0, n_a: int = 1) -> np.ndarray:
    """Dense TFIM chain Hamiltonian; the bond between sites n_a-1 and n_a is
    scaled by ab_coupling.

    Site i is bit n-1-i of the basis index (site 0 leads, as in a Kronecker
    product) and sz = +1 on a 0 bit.  So sz_i sz_{i+1} = 1 - 2 (parity of
    bits i, i+1) fills the diagonal, and sx_i couples s with s ^ (1 << (n-1-i)).
    """
    if n > MAX_SPINS:
        raise DiagonalizationBudget(f"{n} spins exceeds the dense budget ({MAX_SPINS})")
    s = np.arange(2**n)
    diag = np.zeros(2**n)
    for i in range(n - 1):
        scale = ab_coupling if i == n_a - 1 else 1.0
        parity = ((s >> (n - 1 - i)) ^ (s >> (n - 2 - i))) & 1
        diag -= scale * j_coupling * (1 - 2 * parity)
    h = np.diag(diag)
    for i in range(n):
        h[s, s ^ (1 << (n - 1 - i))] -= g_field
    return h


def diagonalize_chain(n: int, j_coupling: float = 1.0, g_field: float = 1.0,
                      ab_coupling: float = 1.0, n_a: int = 1) -> tuple:
    """(energies, vectors) of the chain, as `np.linalg.eigh` returns them:
    ascending energies, eigenvectors in the columns."""
    return np.linalg.eigh(tfim_hamiltonian(n, j_coupling, g_field, ab_coupling, n_a))


def window_indices(energies: np.ndarray, center: float, width: float) -> np.ndarray:
    lo, hi = center - 0.5 * width, center + 0.5 * width
    idx = np.nonzero((energies >= lo) & (energies <= hi))[0]
    return idx


def entropy_beta(energies: np.ndarray, center: float, width: float,
                 delta_e: float) -> float:
    """beta = d ln dim / dE via a centered difference of the log window
    dimension over windows shifted by +-delta_e."""
    d_plus = len(window_indices(energies, center + delta_e, width))
    d_minus = len(window_indices(energies, center - delta_e, width))
    if d_plus == 0 or d_minus == 0:
        raise WindowEmpty("shifted window holds no levels")
    return float((np.log(d_plus) - np.log(d_minus)) / (2 * delta_e))


def reduced_density_matrix_spins(psi: np.ndarray, n: int, n_a: int) -> np.ndarray:
    x = psi.reshape(2**n_a, 2**(n - n_a))
    return x @ x.conj().T


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    vals = np.linalg.eigvalsh(a - b)
    return float(0.5 * np.sum(np.abs(vals)))


def canonical_state(eig_a: tuple, beta: float) -> np.ndarray:
    """exp(-beta H_A) / Z from H_A's eigh (energies, vectors), with the
    Boltzmann weights of `statmech.partition_function` (beta > 0)."""
    vals, vecs = eig_a
    _, w, _ = partition_function(Spectrum(vals), beta)
    return (vecs * w) @ vecs.conj().T


def fit_beta(rho_a: np.ndarray, eig_a: tuple) -> tuple:
    """Beta in [0.01, 3] minimizing the trace distance to the canonical state
    of H_A's (energies, vectors), by bounded Brent; returns (beta, distance)."""
    from scipy.optimize import minimize_scalar

    # xatol: the default 1e-5 stops ~1e-6 from an exact canonical state's
    # beta, at a trace distance of ~1e-7
    res = minimize_scalar(
        lambda b: trace_distance(rho_a, canonical_state(eig_a, b)),
        bounds=(0.01, 3.0), method="bounded", options={"xatol": 1e-8})
    return float(res.x), float(res.fun)


def canonical_typicality(n: int, n_a: int = 1, j_coupling: float = 1.0,
                         g_field: float = 1.0, ab_coupling: float = 0.2,
                         center_quantile: float = 0.2, min_levels: int = 30,
                         trials: int = 20, seed: int = 0) -> dict:
    """Random microcanonical pure states vs the canonical subsystem state.

    The window is centered at the given quantile of the spectrum and widened
    until it holds at least `min_levels` levels.  Per trial: a Haar-random
    unit vector in the window span (normalized Gaussian coefficients), the
    A-subsystem reduced density matrix, and its trace distance to
    exp(-beta H_A)/Z with beta both fitted and taken from the entropy
    derivative.  A window whose entropy beta is not positive (at or above the
    middle of the spectrum) raises NonPositiveBeta: canonical states and the
    fit take beta > 0.
    """
    energies, vectors = diagonalize_chain(n, j_coupling, g_field, ab_coupling, n_a)
    center = float(np.quantile(energies, center_quantile))
    span = energies[-1] - energies[0]
    width = span / 50
    idx = window_indices(energies, center, width)
    while len(idx) < min_levels and width < span:
        width *= 1.3
        idx = window_indices(energies, center, width)
    if len(idx) == 0:
        raise WindowEmpty(f"no levels in window around {center}")
    eig_a = np.linalg.eigh(tfim_hamiltonian(n_a, j_coupling, g_field))
    beta_entropy = entropy_beta(energies, center, width, delta_e=width)
    if beta_entropy <= 0:
        raise NonPositiveBeta(f"entropy beta {beta_entropy:.4g} of the window "
                              f"around {center:.4g}; the window must sit below "
                              "the middle of the spectrum")
    rho_beta_entropy = canonical_state(eig_a, beta_entropy)
    rng = np.random.default_rng(seed)
    basis = vectors[:, idx]
    d_fit, d_ent, betas_fit = [], [], []
    for _ in range(trials):
        c = rng.standard_normal(len(idx)) + 1j * rng.standard_normal(len(idx))
        c /= np.linalg.norm(c)
        psi = basis @ c
        rho_a = reduced_density_matrix_spins(psi, n, n_a)
        b_fit, dist_fit = fit_beta(rho_a, eig_a)
        d_fit.append(dist_fit)
        betas_fit.append(b_fit)
        d_ent.append(trace_distance(rho_a, rho_beta_entropy))
    return {
        "n": n,
        "n_a": n_a,
        "window_center": center,
        "window_width": float(width),
        "window_dim": int(len(idx)),
        "beta_entropy": float(beta_entropy),
        "beta_fit_median": float(np.median(betas_fit)),
        "median_distance_fit": float(np.median(d_fit)),
        "median_distance_entropy_beta": float(np.median(d_ent)),
        "distances_fit": [float(v) for v in d_fit],
        "distances_entropy_beta": [float(v) for v in d_ent],
    }
