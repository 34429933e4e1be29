"""A/B particle partitions, marginals, truncated currents, reduced density matrices.

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
from .lattice import (Grid, GridSpec, ScalarField, VectorField, WaveField,
                      gradient, integrate)
from .schrodinger import HamiltonianSpec

DENSE_RDM_BUDGET = 4096


@dataclass(frozen=True)
class SubsystemPartition:
    a_particles: tuple
    total_particles: int

    def __post_init__(self):
        a = tuple(sorted(int(i) for i in self.a_particles))
        object.__setattr__(self, "a_particles", a)
        b = self.b_particles
        if not a or not b:
            raise PartitionMismatch("both A and B must be nonempty")
        if len(set(a)) != len(a) or any(i < 0 or i >= self.total_particles for i in a):
            raise PartitionMismatch(f"bad A index set {a}")

    @property
    def b_particles(self) -> tuple:
        return tuple(i for i in range(self.total_particles) if i not in self.a_particles)


def partition_axes(grid: Grid, part: SubsystemPartition) -> tuple:
    """(A position axes, B position axes) of `part` on `grid`, as position-axis
    indices in particle order; PartitionMismatch unless the partition is for
    the grid's particle count."""
    if part.total_particles != grid.spec.particle_count:
        raise PartitionMismatch(
            f"partition is for {part.total_particles} particles, grid has "
            f"{grid.spec.particle_count}"
        )
    return ([ax for p in part.a_particles for ax in grid.particle_axes(p)],
            [ax for p in part.b_particles for ax in grid.particle_axes(p)])


def a_grid(grid: Grid, part: SubsystemPartition) -> Grid:
    """Grid restricted to the A particles (same spacing and boundary)."""
    partition_axes(grid, part)
    spec = grid.spec
    sub = GridSpec(
        particle_count=len(part.a_particles),
        dims_per_particle=spec.dims_per_particle,
        points_per_axis=spec.points_per_axis,
        axis_extent=spec.axis_extent,
        boundary=spec.boundary,
        spin_dims=tuple(spec.spin_dims[a] for a in part.a_particles),
        memory_budget=spec.memory_budget,
    )
    return Grid(sub)


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
    axes_a, axes_b = partition_axes(grid, part)
    sub = a_grid(grid, part)
    dim_a = int(np.prod(sub.full_shape))
    if dim_a > DENSE_RDM_BUDGET:
        raise DenseBudgetExceeded(f"A dimension {dim_a} exceeds budget "
                                  f"{DENSE_RDM_BUDGET}")
    a_spin = [ax for ax in map(grid.spin_axis, part.a_particles) if ax is not None]
    b_spin = [ax for ax in map(grid.spin_axis, part.b_particles) if ax is not None]
    pos = grid.pos_axes(psi.amplitudes.shape)
    a_pos = [pos[i] for i in axes_a]
    b_pos = [pos[i] for i in axes_b]
    perm = a_spin + a_pos + b_spin + b_pos
    x = np.transpose(psi.amplitudes, perm).reshape(dim_a, -1)
    w_b = grid.dx ** len(b_pos)
    mat = (x @ x.conj().T) * w_b
    return ReducedDensityMatrix(sub, mat, psi.time)


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
        particle = part.a_particles[i // g.spec.dims_per_particle]
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
    axes_a, axes_b = partition_axes(grid, part)
    sub = a_grid(grid, part)
    rho_a = integrate(frame.rho.values, grid, axes=axes_b)
    j_tr = np.empty((len(axes_a),) + sub.pos_shape)
    for i, ax in enumerate(axes_a):
        j_tr[i] = integrate(frame.currents.components[ax], grid, axes=axes_b)
    return FieldFrame(frame.time, ScalarField(sub, rho_a, frame.rho.time),
                      VectorField(sub, j_tr, frame.currents.time))


# .rdm files (format in `codec`)

def write_rdm(path, rdm: ReducedDensityMatrix):
    header = {
        "dim": rdm.dim,
        "n": rdm.a_grid.spec.points_per_axis,
        "axes": rdm.a_grid.n_pos_axes,
        "extent": list(rdm.a_grid.spec.axis_extent),
        "boundary": rdm.a_grid.spec.boundary,
        "spin_dims": list(rdm.a_grid.spec.spin_dims),
        "time": rdm.time,
    }
    codec.write(path, header, np.asarray(rdm.matrix, dtype=np.complex128))


def read_rdm(path):
    header, (mat,) = codec.read(path, lambda h: [((h["dim"], h["dim"]), True)])
    return mat, header
