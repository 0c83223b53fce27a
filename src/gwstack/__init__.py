"""Exact genus-zero Gromov-Witten invariants of the stacks P(1,b).

The package reconstructs every genus-zero invariant of the weighted
projective lines P(1,b) from their 2- and 3-point structure constants,
using only the degree, identity, and divisor axioms plus WDVV
associativity, entirely over exact rationals.  The same engine drives
the projective plane, where it reproduces the classical counts of
rational plane curves.
"""

from .engine import Reconstructor
from .golden import golden_rows, verify
from .ring import (
    basis_element,
    build_p1b,
    build_p2,
    divisor_generation_check,
    qmul,
    specialize,
    validate_target,
)

__version__ = "0.1.0"

__all__ = [
    "Reconstructor",
    "basis_element",
    "build_p1b",
    "build_p2",
    "divisor_generation_check",
    "golden_rows",
    "qmul",
    "specialize",
    "validate_target",
    "verify",
    "__version__",
]
