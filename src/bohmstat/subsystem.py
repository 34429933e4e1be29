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
                      derivative_along, integrate)
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


def _check_partition(grid: Grid, part: SubsystemPartition):
    if part.total_particles != grid.spec.particle_count:
        raise PartitionMismatch(
            f"partition is for {part.total_particles} particles, grid has "
            f"{grid.spec.particle_count}"
        )


def a_pos_axes(grid: Grid, part: SubsystemPartition) -> list:
    axes = []
    for a in part.a_particles:
        axes.extend(grid.particle_axes(a))
    return axes


def b_pos_axes(grid: Grid, part: SubsystemPartition) -> list:
    axes = []
    for b in part.b_particles:
        axes.extend(grid.particle_axes(b))
    return axes


def a_grid(grid: Grid, part: SubsystemPartition) -> Grid:
    """Grid restricted to the A particles (same spacing and boundary)."""
    _check_partition(grid, part)
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


def marginal_density(rho: ScalarField, part: SubsystemPartition) -> ScalarField:
    """rho_A(x_A) = integral of rho over the B axes."""
    grid = rho.grid
    _check_partition(grid, part)
    vals = integrate(rho.values, grid, axes=b_pos_axes(grid, part))
    return ScalarField(a_grid(grid, part), vals, rho.time)


def truncated_current_integral(j: VectorField, part: SubsystemPartition) -> VectorField:
    """A components of the full current, integrated over the B axes."""
    grid = j.grid
    _check_partition(grid, part)
    axes_a = a_pos_axes(grid, part)
    axes_b = b_pos_axes(grid, part)
    sub = a_grid(grid, part)
    comps = np.empty((len(axes_a),) + sub.pos_shape)
    for i, ax in enumerate(axes_a):
        comps[i] = integrate(j.components[ax], grid, axes=axes_b)
    return VectorField(sub, comps, j.time)


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

    def eigenvalues(self) -> np.ndarray:
        """Probability weights (quadrature-normalized), descending."""
        vals = np.linalg.eigvalsh(self.matrix) * self.a_grid.weight
        return vals[::-1]

    def purity(self) -> float:
        p = self.eigenvalues()
        return float(np.sum(p**2))

    def spin_traced_diagonal(self) -> np.ndarray:
        """rho_A(x_A) on the A position grid."""
        g = self.a_grid
        diag = np.real(np.diagonal(self.matrix)).reshape(g.full_shape)
        if g.spin_shape:
            diag = diag.sum(axis=tuple(range(g.n_spin_axes)))
        return diag


def reduced_density_matrix(psi: WaveField, part: SubsystemPartition,
                           dense_budget: int = DENSE_RDM_BUDGET) -> ReducedDensityMatrix:
    """Tr_B |psi><psi| as a dense matrix over the A grid (spin kept on A)."""
    grid = psi.grid
    _check_partition(grid, part)
    sub = a_grid(grid, part)
    dim_a = int(np.prod(sub.full_shape))
    if dim_a > dense_budget:
        raise DenseBudgetExceeded(f"A dimension {dim_a} exceeds budget {dense_budget}")
    # spin axes present in the array, in particle order
    spin_axis_of = {}
    k = 0
    for p in range(grid.spec.particle_count):
        if grid.spec.spin_dims[p] > 1:
            spin_axis_of[p] = k
            k += 1
    a_spin = [spin_axis_of[p] for p in part.a_particles if p in spin_axis_of]
    b_spin = [spin_axis_of[p] for p in part.b_particles if p in spin_axis_of]
    a_pos = [grid.pos_axis(i) for i in a_pos_axes(grid, part)]
    b_pos = [grid.pos_axis(i) for i in b_pos_axes(grid, part)]
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
    block = rdm.matrix.reshape(a_shape + a_shape)
    n_lead = len(a_shape)
    comps = np.empty((g.n_pos_axes,) + g.pos_shape)
    for i in range(g.n_pos_axes):
        particle = part.a_particles[i // g.spec.dims_per_particle]
        m = h.masses[particle]
        arr_axis = g.n_spin_axes + i  # within the row block
        d = derivative_along(block, g, arr_axis)
        dm = d.reshape(rdm.dim, rdm.dim)
        diag = np.diagonal(dm)
        j = np.real((-1j / m) * diag).reshape(a_shape)
        if g.spin_shape:
            j = j.sum(axis=tuple(range(g.n_spin_axes)))
        comps[i] = j
    return VectorField(g, comps, rdm.time)


def subsystem_frame(psi: WaveField, h: HamiltonianSpec,
                    part: SubsystemPartition) -> FieldFrame:
    """FieldFrame of (rho_A, j_tr_A) built through the integral route."""
    from .currents import current, density

    rho_a = marginal_density(density(psi), part)
    j_tr = truncated_current_integral(current(psi, h), part)
    return FieldFrame(psi.time, rho_a, j_tr)


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
