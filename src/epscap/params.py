"""Parameter containers for the signal space, and the package's input checks.

Every integer the package takes from a caller (a count, a size, an index,
a seed) passes through require_int (a seed through require_seed), and
every real one through require_finite (the eps and energy of a codebook
run also through require_codebook_eps and require_codebook_energy): each
rule is stated once, here.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError

# Fewest Monte Carlo draws per evaluated codeword that a run accepts.
MIN_SAMPLES = 100

# The dense-array budget in bytes, checked before allocating: a prolate
# solve's eigenvector arrays (one parity's matrix, or the Legendre Vandermonde
# and value array together; either solve holds about twice as much) and a
# codebook run's drawn points may not pass it.
DENSE_BYTES = 2 * 10**9


def nominal_dimension(omega: float, t_obs: float) -> float:
    """Time-bandwidth product Omega*T/pi, the nominal dimensionality N0."""
    return omega * t_obs / math.pi


def _is_bool(value) -> bool:
    return isinstance(value, (bool, np.bool_))


def require_finite(name: str, value, nonnegative: bool = False) -> None:
    """Refuse a value that is not finite and positive (>= 0 with nonnegative).

    A bool (Python or numpy) is refused too, though it compares as 0 or 1.
    """
    if _is_bool(value) or not (
        (value >= 0 if nonnegative else value > 0) and math.isfinite(value)
    ):
        sign = "nonnegative" if nonnegative else "positive"
        raise ValueError(f"{name} must be {sign} and finite, got {value}")


def require_int(name: str, value, minimum: int = 1, maximum: int | None = None) -> int:
    """value as a Python int, refused unless an integer >= minimum (and
    <= maximum, when given).

    Python and numpy integers pass; a bool (Python or numpy), a float of
    any value and everything else is refused with a ConfigurationError.
    """
    if (
        _is_bool(value)
        or not isinstance(value, (int, np.integer))
        or value < minimum
        or (maximum is not None and value > maximum)
    ):
        if maximum is not None:
            what = f"an integer in [{minimum}, {maximum}]"
        else:
            what = {0: "a nonnegative integer", 1: "a positive integer"}.get(
                minimum, f"an integer >= {minimum}"
            )
        raise ConfigurationError(f"{name} must be {what}, got {value}")
    return int(value)


# The largest eps a codebook run takes: its neighbour rule compares squared
# distances with (2*eps)^2, which must be a finite double.
MAX_CODEBOOK_EPS = math.sqrt(sys.float_info.max) / 2


def require_codebook_eps(eps) -> None:
    """Refuse an eps that is not positive and finite, or whose (2*eps)^2
    overflows: the noise radius a codebook run takes."""
    require_finite("eps", eps)
    if eps > MAX_CODEBOOK_EPS:
        raise ValueError(
            f"eps must be at most {MAX_CODEBOOK_EPS!r} for a codebook run, so that "
            f"(2*eps)^2 is finite, got {eps}"
        )


# The largest energy a codebook run takes: its close-pair screen sums terms
# of up to 4 |x|^2 with |x|^2 <= energy (screen_margin), which must stay
# finite with room for the rounding of |x|^2.
MAX_CODEBOOK_ENERGY = sys.float_info.max / 8


def require_codebook_energy(energy) -> None:
    """Refuse an energy whose codewords' close-pair screen could overflow."""
    if energy > MAX_CODEBOOK_ENERGY:
        raise ValueError(
            f"energy must be at most {MAX_CODEBOOK_ENERGY!r} for a codebook run, so "
            f"that its close-pair screen stays finite, got {energy}"
        )


# The largest seed: codeword hashes take the seed as a signed 64-bit word.
MAX_SEED = 2**63 - 1


def require_seed(value) -> int:
    """A seed as a Python int, refused unless an integer in [0, MAX_SEED]."""
    return require_int("seed", value, 0, MAX_SEED)


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
        if _is_bool(self.delta) or not (0.0 <= self.delta < 1.0):
            raise ValueError(f"delta must lie in [0, 1), got {self.delta}")

    @property
    def nominal_dimension(self) -> float:
        """Time-bandwidth product Omega*T/pi, the nominal dimensionality."""
        return nominal_dimension(self.omega, self.t_obs)

    @property
    def sqrt_snr(self) -> float:
        return math.sqrt(self.energy) / self.eps
