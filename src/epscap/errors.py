"""Exception types shared across the package.

Plain domain violations (a negative energy, a probability outside [0, 1])
raise ValueError directly. ConfigurationError marks a setup the package
refuses to run with, among them every integer input that
params.require_int refuses; it is also a ValueError, so a caller can
catch every refused input as one type.
"""


class EpscapError(Exception):
    """Base class for package-specific errors."""


class ConfigurationError(EpscapError, ValueError):
    """A parameter combination the solver refuses to run with.

    Examples: quadrature order too small to resolve the eigenvalue
    transition band, a packing dimension above the supported cap, a
    Monte Carlo sample budget below the minimum, or a count that is a
    bool or a fraction.
    """


class InsufficientSpectrumError(ConfigurationError):
    """The computed spectrum cannot answer the query.

    Raised when a requested accuracy level falls below the smallest
    trustworthy eigenvalue. The fix is to recompute with a larger
    quadrature order or keep more eigenvalues.
    """


class NumericalError(EpscapError):
    """A numerical routine produced non-finite or inconsistent output."""
