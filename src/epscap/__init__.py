"""Deterministic capacity and entropy bounds for bandlimited signals.

The package treats communication over an energy-constrained, bandlimited,
time-windowed signal space as a geometry problem: how many balls of radius
eps (or 2*eps) fit inside, or cover, the ellipsoid of feasible signals.
Everything downstream of that picture is numeric and testable:

- :mod:`epscap.spectrum` builds the sinc-kernel eigenvalue spectrum that
  defines the ellipsoid and the effective number of degrees of freedom.
- :mod:`epscap.geometry` turns eigenvalues into packing/covering bounds on
  zero-error capacity and metric entropy, plus small exact oracles.
- :mod:`epscap.simulation` runs Monte Carlo random-codebook experiments
  against those bounds.
- :mod:`epscap.comparison` lines the deterministic quantities up against
  the classical stochastic (Gaussian-noise) benchmarks.
- :mod:`epscap.cli` exposes all of it as the ``epscap`` command.

Bound formulas, wide-window rates, the working-dimension rule and the
ball and ellipsoid samplers live in :mod:`epscap.geometry`; the input
checks shared by every module live in :mod:`epscap.params`.

The package namespace holds the names README's Library section documents:
the spectrum, its volume correction and the bound reports, with their
input and errors. Every other name is imported from its module.
"""

# set before the submodules load: epscap.manifest reads it at import time
__version__ = "0.1.0"

from .errors import (
    ConfigurationError,
    EpscapError,
    InsufficientSpectrumError,
    NumericalError,
)
from .geometry import finite_reports
from .params import SignalSpaceParams
from .spectrum import build_spectrum, volume_correction

__all__ = [
    "ConfigurationError",
    "EpscapError",
    "InsufficientSpectrumError",
    "NumericalError",
    "SignalSpaceParams",
    "__version__",
    "build_spectrum",
    "finite_reports",
    "volume_correction",
]
