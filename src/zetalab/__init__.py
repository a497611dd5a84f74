"""zetalab: exact-arithmetic zeta functions, bundle masses, lattices, explicit formulas.

The package is organized around an exact rational substrate (`exact`),
point counting over prime fields (`ffield`), zeta functions of elliptic
curves (`artin`, `nazeta`), mass invariants of semistable bundles on elliptic
curves (`bundles`), lattice semistability and theta cohomology over the
rationals (`lattice`), and explicit-formula / intersection-model checks
(`explicit`).  Everything identity-shaped is computed in exact rational
arithmetic; floating point only enters where a value is genuinely real
(theta sums, completed-zeta evaluations, zero sums).
"""

from zetalab.errors import (
    ZetalabError,
    InputError,
    ResourceError,
    CapabilityError,
    NumericError,
    ConfigError,
)

__version__ = "0.1.0"

__all__ = [
    "ZetalabError",
    "InputError",
    "ResourceError",
    "CapabilityError",
    "NumericError",
    "ConfigError",
    "__version__",
]
