"""Parameter containers for the signal space, and the package's input checks.

Every integer the package takes from a caller (a count, a size, an index,
a seed) passes through require_int, and every real one through
require_finite: each rule is stated once, here.
"""

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


def require_int(name: str, value, minimum: int = 1) -> int:
    """value as a Python int, refused unless an integer >= minimum.

    Python and numpy integers pass; a bool (Python or numpy), a float of
    any value and everything else is refused with a ConfigurationError.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < minimum:
        what = {0: "a nonnegative integer", 1: "a positive integer"}.get(
            minimum, f"an integer >= {minimum}"
        )
        raise ConfigurationError(f"{name} must be {what}, got {value}")
    return int(value)


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
