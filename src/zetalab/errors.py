"""Error taxonomy and enumeration budget shared across the package.

The CLI maps these onto exit codes: validation failures exit 1,
resource/budget overruns exit 2.
"""


class ZetalabError(Exception):
    """Base class for all package-specific errors."""


class InputError(ZetalabError, ValueError):
    """Invalid or inconsistent input data (validation failure)."""


class ResourceError(ZetalabError):
    """An enumeration or truncation budget was exceeded."""


# the most points any enumeration visits (an F_q census, a theta box, a
# phase grid) before ResourceError
ENUMERATION_BUDGET = 10 ** 7


class CapabilityError(ZetalabError):
    """The request is outside the implemented range (e.g. rank too high)."""


class NumericError(ZetalabError):
    """A numeric routine failed to converge or certify its result."""


class ConfigError(ZetalabError):
    """Requested tolerances/settings are mutually inconsistent."""
