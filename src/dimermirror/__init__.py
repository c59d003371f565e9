"""Exact combinatorial invariants of dimer models on the torus.

Computes both sides of the closed-string mirror correspondence for a
zigzag-consistent dimer: the symplectic cohomology of the mirror punctured
curve and the compactly supported Hochschild cohomology of the Jacobi-algebra
Landau-Ginzburg model, together with the structural identities relating them.
"""

from .dimer import (
    Arrow,
    Dimer,
    DimerError,
    Face,
    StripDecomposition,
    ValidationReport,
    ZigzagCycle,
    anti_zigzag,
    dimer_isomorphic,
    dual_dimer,
    is_zigzag_consistent,
    parallel_classes,
    strips,
    surface_invariants,
    validate_dimer,
    zigzag_classes,
    zigzag_cycles,
)
from .io import DimerFormatError, load_bundled, parse_dimer

__version__ = "0.1.0"

__all__ = [
    "Arrow",
    "Dimer",
    "DimerError",
    "DimerFormatError",
    "Face",
    "StripDecomposition",
    "ValidationReport",
    "ZigzagCycle",
    "anti_zigzag",
    "dimer_isomorphic",
    "dual_dimer",
    "is_zigzag_consistent",
    "load_bundled",
    "parallel_classes",
    "parse_dimer",
    "strips",
    "surface_invariants",
    "validate_dimer",
    "zigzag_classes",
    "zigzag_cycles",
    "__version__",
]
