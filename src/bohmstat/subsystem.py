"""A/B particle partitions, marginals, truncated currents, reduced density matrices.

A SubsystemPartition is one split of one grid, built once per run: it holds
the A and B particles and position axes and the A grid, and every subsystem
frame, reduced density matrix and truncated current of the run reads them
from it rather than resolving the split again.

The truncated current of the A-subsystem comes in two independent routes that
must agree on the shared discrete gradient:

* integral route: integrate the A-components of the full current over the
  B position axes,
* operator route: real part of the spin-traced diagonal of v_A applied to the
  reduced density matrix (the anticommutator form {v_A, rho_A}/2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import codec
from .currents import FieldFrame
from .errors import DenseBudgetExceeded, PartitionMismatch
from .lattice import (Grid, ScalarField, VectorField, WaveField, gradient,
                      integrate)
from .schrodinger import HamiltonianSpec

DENSE_RDM_BUDGET = 4096


class SubsystemPartition:
    """An A/B split of `grid`'s particles, resolved once: the A and B
    particles and position axes (position-axis indices in particle order),
    and a_grid, the grid of the A particles alone (same n, extent, spacing
    and boundary).  PartitionMismatch unless A and B are both nonempty and
    A's indices are distinct particles of the grid."""

    def __init__(self, grid: Grid, a_particles):
        a = tuple(sorted(int(i) for i in a_particles))
        b = tuple(i for i in range(grid.particles) if i not in a)
        if not a or not b:
            raise PartitionMismatch("both A and B must be nonempty")
        if len(set(a)) != len(a) or any(i < 0 or i >= grid.particles for i in a):
            raise PartitionMismatch(f"bad A index set {a}")
        self.grid, self.a_particles, self.b_particles = grid, a, b
        self.a_axes = [ax for p in a for ax in grid.particle_axes(p)]
        self.b_axes = [ax for p in b for ax in grid.particle_axes(p)]
        self.a_grid = Grid(len(a), grid.dims, grid.n, grid.extent, grid.boundary,
                           tuple(grid.spin_dims[p] for p in a))

    def check(self, grid: Grid):
        """PartitionMismatch unless `grid` is the grid this partition splits."""
        if grid != self.grid:
            raise PartitionMismatch(f"partition is of {self.grid}, the field "
                                    f"is on {grid}")


@dataclass
class ReducedDensityMatrix:
    """Dense rho_A with retained A spin indices.

    matrix is indexed by flattened (s_A, x_A; s_A', x_A'); the quadrature
    trace is sum(diag) * dx^(A position axes).
    """

    a_grid: Grid
    matrix: np.ndarray
    time: float = 0.0

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def trace(self) -> float:
        return float(np.real(np.trace(self.matrix)) * self.a_grid.weight)

    def hermiticity_defect(self) -> float:
        return float(np.max(np.abs(self.matrix - self.matrix.conj().T)))

    def purity(self) -> float:
        """Tr rho_A^2 = sum |rho_ij|^2 w^2 for Hermitian rho_A (no eigensolve)."""
        m = self.matrix
        return float(np.vdot(m, m).real * self.a_grid.weight**2)


def reduced_density_matrix(psi: WaveField,
                           part: SubsystemPartition) -> ReducedDensityMatrix:
    """Tr_B |psi><psi| as a dense matrix over the A grid (spin kept on A)."""
    grid = psi.grid
    part.check(grid)
    dim_a = int(np.prod(part.a_grid.full_shape))
    if dim_a > DENSE_RDM_BUDGET:
        raise DenseBudgetExceeded(f"A dimension {dim_a} exceeds budget "
                                  f"{DENSE_RDM_BUDGET}")
    a_spin = [ax for ax in map(grid.spin_axis, part.a_particles) if ax is not None]
    b_spin = [ax for ax in map(grid.spin_axis, part.b_particles) if ax is not None]
    pos = grid.pos_axes(psi.amplitudes.shape)
    a_pos = [pos[i] for i in part.a_axes]
    b_pos = [pos[i] for i in part.b_axes]
    perm = a_spin + a_pos + b_spin + b_pos
    x = np.transpose(psi.amplitudes, perm).reshape(dim_a, -1)
    w_b = grid.dx ** len(b_pos)
    mat = (x @ x.conj().T) * w_b
    return ReducedDensityMatrix(part.a_grid, mat, psi.time)


def truncated_current_from_rdm(rdm: ReducedDensityMatrix,
                               h: HamiltonianSpec,
                               part: SubsystemPartition) -> VectorField:
    """Re of the spin-traced diagonal of v_A rho_A, one component per A axis."""
    g = rdm.a_grid
    a_shape = g.full_shape
    # indexed (column; row), so the row's position axes trail
    block = rdm.matrix.T.reshape(a_shape + a_shape)
    comps = np.empty((g.n_pos_axes,) + g.pos_shape)
    for i in range(g.n_pos_axes):
        particle = part.a_particles[i // g.dims]
        m = h.masses[particle]
        dm = gradient(block, g, i).reshape(rdm.dim, rdm.dim)
        diag = np.diagonal(dm)
        j = np.real((-1j / m) * diag).reshape(a_shape)
        if g.spin_shape:
            j = j.sum(axis=tuple(range(g.n_spin_axes)))
        comps[i] = j
    return VectorField(g, comps, rdm.time)


def subsystem_frame(frame: FieldFrame, part: SubsystemPartition) -> FieldFrame:
    """FieldFrame of (rho_A, j_tr_A) on the A grid: the full frame's density,
    and the A components of its current, integrated over the B axes (the
    integral route)."""
    grid = frame.rho.grid
    part.check(grid)
    sub = part.a_grid
    rho_a = integrate(frame.rho.values, grid, axes=part.b_axes)
    j_tr = np.empty((len(part.a_axes),) + sub.pos_shape)
    for i, ax in enumerate(part.a_axes):
        j_tr[i] = integrate(frame.currents.components[ax], grid, axes=part.b_axes)
    return FieldFrame(frame.time, ScalarField(sub, rho_a),
                      VectorField(sub, j_tr, frame.time))


# .rdm files (format in `codec`)

def write_rdm(path, rdm: ReducedDensityMatrix):
    header = {
        "dim": rdm.dim,
        "n": rdm.a_grid.n,
        "axes": rdm.a_grid.n_pos_axes,
        "extent": list(rdm.a_grid.extent),
        "boundary": rdm.a_grid.boundary,
        "spin_dims": list(rdm.a_grid.spin_dims),
        "time": rdm.time,
    }
    codec.write(path, header, [np.asarray(rdm.matrix, dtype=np.complex128)])


def read_rdm(path):
    header, (mat,) = codec.read(path, lambda h: [((h["dim"], h["dim"]), True)])
    return mat, header
