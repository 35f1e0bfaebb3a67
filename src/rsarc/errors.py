"""Exception types shared across the package."""


class RsarcError(Exception):
    """Base class for all package-specific errors."""


class InvalidDimensionError(RsarcError, ValueError):
    """Raised when array shapes or requested dimensions are incompatible."""


class UnsupportedProblemError(RsarcError, KeyError):
    """Raised for an unknown test-problem name or malformed problem selector."""


class SingularGramError(RsarcError):
    """Raised when the sketch Gram matrix S S^T cannot be factorized."""


class InnerSolverError(RsarcError):
    """Raised when the cubic subproblem root-finding fails to converge."""


class InvalidProblemError(RsarcError, ValueError):
    """Raised when problem or benchmark inputs are inconsistent (e.g. f0 <= f_star)."""


class InvalidInputError(RsarcError, ValueError):
    """Raised for empty or malformed benchmark/profile inputs."""


class ConfigError(RsarcError, ValueError):
    """Raised when a solver configuration violates its parameter ranges."""
