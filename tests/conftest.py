"""Helpers that more than one test module uses, each served by a fixture."""

import tracemalloc

import numpy as np
import pytest

from bohmstat import statmech as sm
from bohmstat.bohmian import sample_initial
from bohmstat.currents import current
from bohmstat.lattice import Grid, ScalarField
from bohmstat.schrodinger import HamiltonianSpec, eigenstates


def _coarse_gibbs(samples, edges, delta_z):
    """-sum p_c ln(p_c dz / vol_c) of 1-D samples over the cells between
    `edges`, by the runners' route: `macrostate_of`, one bincount and
    `plugin_entropy`."""
    cells = len(edges) - 1
    idx = sm.macrostate_of(samples, sm.MacrostateDecomposition(edges, [1] * cells))
    counts = np.bincount(idx, minlength=cells)
    return float(sm.plugin_entropy(counts / counts.sum(),
                                   np.diff(edges) / delta_z))


def _thermal_box(length, temperature, levels, grid_n, samples, seed=0):
    """Static Bohmian samples of a 1-D thermal box (unit mass).

    The thermal density is rho(x) = sum_n p_n |psi_n(x)|^2 over the lowest
    `levels` box eigenstates on a Dirichlet grid.  The eigenfunctions are
    real, so the thermal current vanishes identically and the samples stay
    where they are drawn.  Returns the max |j| over the levels, whether every
    sample lies in [0, L], and the fraction of L the samples span."""
    grid = Grid(1, 1, grid_n, (0.0, length), boundary="dirichlet")
    h = HamiltonianSpec((1.0,), [{"kind": "box"}])
    energies, states = eigenstates(grid, h, levels)
    _, p, _ = sm.partition_function(sm.Spectrum(energies, truncated=True),
                                    1.0 / temperature)
    rho = np.zeros(grid.pos_shape)
    j_max = 0.0
    for pn, psi in zip(p, states):
        rho += pn * np.abs(psi.amplitudes) ** 2
        j_max = max(j_max, float(np.max(np.abs(current(psi, h).components))))
    pos = sample_initial(ScalarField(grid, rho), samples, seed)[:, 0]
    return {"max_abs_current": j_max,
            "all_inside": bool(np.all((pos >= 0.0) & (pos <= length))),
            "spread_fraction": float((pos.max() - pos.min()) / length)}


def _traced_peak(run, *args):
    """Peak bytes of numpy buffers and Python objects allocated by one run."""
    tracemalloc.start()
    try:
        run(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture
def coarse_gibbs():
    return _coarse_gibbs


@pytest.fixture
def thermal_box():
    return _thermal_box


@pytest.fixture
def traced_peak():
    return _traced_peak
