"""Laser-dressed resonances, exceptional-point maps, and loop transfer
for two-state diatomic molecules."""

from . import _lapack  # noqa: F401  (first: see its docstring)
from .errors import ContinuationError, ConvergenceError, GridError, ModelError
from .molecule import (
    FieldPoint,
    MoleculeModel,
    RadialGrid,
    adiabatic_potentials,
    load_molecule,
)

__version__ = "0.1.0"

__all__ = [
    "ContinuationError",
    "ConvergenceError",
    "FieldPoint",
    "GridError",
    "ModelError",
    "MoleculeModel",
    "RadialGrid",
    "adiabatic_potentials",
    "load_molecule",
    "__version__",
]
