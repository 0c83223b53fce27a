"""Exact genus-zero Gromov-Witten invariants of the stacks P(1,b).

The package reconstructs every genus-zero invariant of the weighted
projective lines P(1,b) from their 2- and 3-point structure constants,
using only the degree, identity, and divisor axioms plus WDVV
associativity, entirely over exact rationals.  The same engine drives
the projective plane, where it reproduces the classical counts of
rational plane curves.
"""

import importlib

# Each public name and the submodule that defines it.  A name is imported
# on first use (PEP 562), so ``import gwstack`` -- and through it every
# CLI command, which starts a fresh interpreter -- loads no submodule it
# does not run.
_HOMES = {
    "Reconstructor": "engine",
    "basis_element": "ring",
    "build_p1b": "target",
    "build_p2": "target",
    "divisor_generation_check": "ring",
    "golden_rows": "golden",
    "qmul": "ring",
    "specialize": "ring",
    "validate_target": "target",
    "verify": "golden",
}

__version__ = "0.1.0"

__all__ = [*_HOMES, "__version__"]


def __getattr__(name):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{home}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_HOMES))
