"""Probability density, per-particle currents, velocities, continuity residuals.

rho(x,t) = sum_s |psi_s(x,t)|^2
j_ax(x,t) = Re sum_s psi_s* (-i/m_ax) d_ax psi_s      (hbar = 1)
v = j / rho  with a relative floor on rho at nodes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonuniformFrames
from .lattice import ScalarField, VectorField, WaveField, gradient
from .schrodinger import HamiltonianSpec

DEFAULT_EPS_REL = 1e-12


def density(psi: WaveField) -> ScalarField:
    """Spin-summed modulus squared; non-negative by construction."""
    grid = psi.grid
    rho = np.abs(psi.amplitudes) ** 2
    if grid.spin_shape:
        rho = rho.sum(axis=tuple(range(grid.n_spin_axes)))
    return ScalarField(grid, rho)


def current(psi: WaveField, h: HamiltonianSpec) -> VectorField:
    """One component per position axis; spin components are summed."""
    grid = psi.grid
    comps = np.empty((grid.n_pos_axes,) + grid.pos_shape)
    spin_axes = tuple(range(grid.n_spin_axes))
    for ax in range(grid.n_pos_axes):
        m = h.mass_of_axis(grid, ax)
        dpsi = gradient(psi.amplitudes, grid, ax)
        j = np.real(np.conj(psi.amplitudes) * (-1j / m) * dpsi)
        if spin_axes:
            j = j.sum(axis=spin_axes)
        comps[ax] = j
    return VectorField(grid, comps, psi.time)


@dataclass
class FieldFrame:
    """Density and currents of one time slice; velocity derived on demand."""

    time: float
    rho: ScalarField
    currents: VectorField

    @classmethod
    def from_wavefield(cls, psi: WaveField, h: HamiltonianSpec) -> "FieldFrame":
        return cls(psi.time, density(psi), current(psi, h))


def velocity(frame: FieldFrame) -> VectorField:
    """v = j / max(rho, DEFAULT_EPS_REL * max(rho)); finite everywhere."""
    rho = frame.rho
    floor = DEFAULT_EPS_REL * float(np.max(rho.values))
    denom = np.maximum(rho.values, floor)
    return VectorField(rho.grid, frame.currents.components / denom, frame.time)


def divergence(j: VectorField) -> ScalarField:
    grid = j.grid
    div = np.zeros(grid.pos_shape)
    for ax in range(j.components.shape[0]):
        div += gradient(j.components[ax], grid, ax)
    return ScalarField(grid, div)


def continuity_residual(frames):
    """L2 residual of d_t rho + div j at the middle of three uniform frames.

    Returns (abs_residual, rel_residual) where the relative form is scaled by
    the L2 norm of the central-difference d_t rho.
    """
    if len(frames) != 3:
        raise NonuniformFrames("need exactly three consecutive frames")
    t0, t1, t2 = (f.time for f in frames)
    if abs((t2 - t1) - (t1 - t0)) > 1e-9 * max(abs(t2 - t0), 1e-30):
        raise NonuniformFrames(f"nonuniform frame times {t0}, {t1}, {t2}")
    dt = t1 - t0
    grid = frames[1].rho.grid
    drho_dt = (frames[2].rho.values - frames[0].rho.values) / (2 * dt)
    resid = drho_dt + divergence(frames[1].currents).values
    w = grid.weight
    abs_res = float(np.sqrt(np.sum(resid**2) * w))
    denom = float(np.sqrt(np.sum(drho_dt**2) * w))
    rel_res = abs_res / denom if denom > 0 else abs_res
    return abs_res, rel_res
