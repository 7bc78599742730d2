"""Exception types shared across the package."""


class AtiyahLabError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(AtiyahLabError):
    """Malformed experiment configuration (exit code 2 in the CLI)."""


class CertificationError(AtiyahLabError):
    """A required certificate (non-torsion class, field size, ...) failed."""


class VerificationError(AtiyahLabError):
    """An independently recomputed certificate contradicts a stored claim."""


class SeriesPrecisionError(AtiyahLabError):
    """A Laurent-series coefficient outside the known window was requested."""
