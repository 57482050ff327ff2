"""Parameter containers for the signal space, and the package's input checks."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError

# Fewest Monte Carlo draws per evaluated codeword that a run accepts.
MIN_SAMPLES = 100


def nominal_dimension(omega: float, t_obs: float) -> float:
    """Time-bandwidth product Omega*T/pi, the nominal dimensionality N0."""
    return omega * t_obs / math.pi


def require_finite(name: str, value, nonnegative: bool = False) -> None:
    """Refuse a value that is not finite and positive (>= 0 with nonnegative)."""
    if not ((value >= 0 if nonnegative else value > 0) and math.isfinite(value)):
        sign = "nonnegative" if nonnegative else "positive"
        raise ValueError(f"{name} must be {sign} and finite, got {value}")


def require_positive_int(name: str, value) -> None:
    """Refuse anything but an integer >= 1 (a Python or numpy integer)."""
    if not isinstance(value, (int, np.integer)) or value < 1:
        raise ValueError(f"{name} must be a positive integer, got {value}")


def require_seed(seed) -> None:
    """Refuse a seed that is not an integer >= 0."""
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError(f"seed must be a nonnegative integer, got {seed}")


def require_setting(name: str, value, minimum: int = 1) -> None:
    """Refuse a run setting that is not an integer >= minimum."""
    if not isinstance(value, (int, np.integer)) or value < minimum:
        raise ConfigurationError(f"{name} must be an integer >= {minimum}, got {value}")


@dataclass(frozen=True)
class SignalSpaceParams:
    """Defining quantities of the signal space under study.

    omega:   one-sided angular bandwidth in rad/s (> 0)
    t_obs:   observation window length in seconds (> 0)
    energy:  energy budget E, signals satisfy integral |f|^2 <= E (> 0)
    eps:     noise / resolution radius epsilon (> 0)
    delta:   allowed error-region fraction, 0 <= delta < 1; delta = 0
             means no decoding-error volume is tolerated
    """

    omega: float
    t_obs: float
    energy: float
    eps: float
    delta: float = 0.0

    def __post_init__(self):
        require_finite("omega", self.omega)
        require_finite("t_obs", self.t_obs)
        require_finite("energy", self.energy)
        require_finite("eps", self.eps)
        if not (0.0 <= self.delta < 1.0):
            raise ValueError(f"delta must lie in [0, 1), got {self.delta}")

    @property
    def nominal_dimension(self) -> float:
        """Time-bandwidth product Omega*T/pi, the nominal dimensionality."""
        return nominal_dimension(self.omega, self.t_obs)

    @property
    def snr(self) -> float:
        """Energy-to-noise-power ratio E/eps^2."""
        return self.energy / self.eps**2

    @property
    def sqrt_snr(self) -> float:
        return math.sqrt(self.energy) / self.eps


@dataclass(frozen=True)
class DofQuery:
    """Accuracy query for the degrees-of-freedom counter.

    mu may be any positive level; mu >= sqrt(energy) simply yields zero
    degrees of freedom rather than an error.
    """

    energy: float
    mu: float

    def __post_init__(self):
        require_finite("energy", self.energy)
        require_finite("mu", self.mu)
