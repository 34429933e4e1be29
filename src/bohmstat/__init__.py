"""Probability-current statistical mechanics laboratory.

Closed-system and subsystem continuity equations on configuration-space
grids, Bohmian trajectory ensembles under full and truncated velocity
fields, their classical phase-space twins, and canonical-ensemble
thermodynamics checks.
"""

from .lattice import Grid, ScalarField, VectorField, WaveField

__all__ = [
    "Grid",
    "ScalarField",
    "VectorField",
    "WaveField",
]

__version__ = "0.1.0"
