"""Stochastic baselines and classical bounds next to the deterministic ones.

The stochastic column is the white-Gaussian-noise story: Shannon capacity
(Omega/pi)*log2(sqrt(1 + snr)) bits/s and the rate-distortion function
(Omega/pi)*log2(sqrt(snr)) bits/s, with snr read as the per-coordinate
power ratio P/sigma^2. The deterministic column uses the energy-bounded
noise model with snr = E/eps^2. Pairing the two ratios is a display
convention for side-by-side reading, not an equivalence of the models.

Jagerman's classical lattice-based bounds are included as the historical
reference point; their per-unit-time content vanishes as the window
grows, which is exactly the weakness the volume-ratio bounds fix.

The deterministic column reads the wide-window rates of
:mod:`epscap.geometry` at energy = snr and eps = 1.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

from .geometry import entropy_rate, wide_window_rates
from .params import require_finite


def shannon_capacity(omega: float, snr: float) -> float:
    """AWGN capacity (Omega/pi)*log2(sqrt(1 + snr)) in bits/s."""
    require_finite("omega", omega)
    require_finite("snr", snr, nonnegative=True)
    return (omega / math.pi) * math.log2(math.sqrt(1.0 + snr))

def shannon_rate_distortion(omega: float, snr: float) -> float:
    """Quadratic-distortion rate: the eps-entropy rate at sqrt(snr), clamped at 0."""
    require_finite("omega", omega)
    require_finite("snr", snr)
    return max(0.0, entropy_rate(omega, math.sqrt(snr)))


def jagerman_capacity_lower(nominal_dim: float, snr: float) -> float:
    """Lattice-packing capacity lower bound, in bits.

    N0 * log2((2/sqrt(10)) * sqrt(snr/N0) + 1): packing a hypercube
    inscribed in the energy ball. Grows only like sqrt(N0) at fixed snr,
    so its per-unit-time rate tends to zero.
    """
    return nominal_dim * _lattice_bits_per_dimension(nominal_dim, snr)


def jagerman_capacity_lower_rate(omega: float, nominal_dim: float, snr: float) -> float:
    """The same bound divided by the window T = N0*pi/Omega, in bits/s."""
    require_finite("omega", omega)
    return (omega / math.pi) * _lattice_bits_per_dimension(nominal_dim, snr)


def _lattice_bits_per_dimension(nominal_dim: float, snr: float) -> float:
    if not (nominal_dim >= 1 and math.isfinite(nominal_dim)):
        raise ValueError(f"nominal_dim must be >= 1, got {nominal_dim}")
    require_finite("snr", snr)
    return math.log2((2.0 / math.sqrt(10.0)) * math.sqrt(snr / nominal_dim) + 1.0)


def jagerman_entropy_upper(omega: float, snr: float) -> float:
    """Width-based entropy upper bound (Omega/pi)*log2(2*sqrt(snr) + 1), bits/s."""
    require_finite("omega", omega)
    require_finite("snr", snr)
    return (omega / math.pi) * math.log2(2.0 * math.sqrt(snr) + 1.0)


@dataclass(frozen=True)
class ComparisonRow:
    """One quantity rendered in both models.

    stochastic_bits_per_s is a rate in bits/s; the deterministic side is an
    interval (equal endpoints when the value is exact in the limit).
    """

    label: str
    stochastic_bits_per_s: float
    deterministic_lower_bits_per_s: float
    deterministic_upper_bits_per_s: float
    note: str = ""

    def __post_init__(self):
        lower, upper = self.deterministic_lower_bits_per_s, self.deterministic_upper_bits_per_s
        if math.isfinite(lower) and math.isfinite(upper) and lower > upper + 1e-12:
            raise ValueError(f"{self.label}: deterministic lower {lower} exceeds upper {upper}")

    def to_dict(self) -> dict:
        return asdict(self)


def comparison_table(
    omega: float, snr: float, nominal_dim: float | None = None
) -> list[ComparisonRow]:
    """Side-by-side rates at a paired snr (per-coordinate = energy ratio).

    Rows are per-unit-time quantities; with nominal_dim given, the
    finite-window Jagerman capacity row is added for scale.
    """
    require_finite("omega", omega)
    require_finite("snr", snr)
    rates = wide_window_rates(omega, math.sqrt(snr))
    rows = [
        ComparisonRow(
            label="capacity (bits/s)",
            stochastic_bits_per_s=shannon_capacity(omega, snr),
            deterministic_lower_bits_per_s=rates["capacity_eps_delta"][0],
            deterministic_upper_bits_per_s=rates["capacity_eps_delta"][1],
            note="deterministic side: eps-delta capacity per unit time",
        ),
        ComparisonRow(
            label="source rate at fixed fidelity (bits/s)",
            stochastic_bits_per_s=shannon_rate_distortion(omega, snr),
            deterministic_lower_bits_per_s=rates["entropy_eps"][0],
            deterministic_upper_bits_per_s=rates["entropy_eps"][1],
            note="deterministic side: eps-entropy per unit time (exact limit)",
        ),
        ComparisonRow(
            label="zero-error capacity (bits/s)",
            stochastic_bits_per_s=0.0,
            deterministic_lower_bits_per_s=rates["capacity_2eps"][0],
            deterministic_upper_bits_per_s=rates["capacity_2eps"][1],
            note="stochastic zero-error capacity of the AWGN channel is 0",
        ),
    ]
    if nominal_dim is not None:
        rows.append(
            ComparisonRow(
                label="classical lattice capacity lower bound (bits/s)",
                stochastic_bits_per_s=math.nan,
                deterministic_lower_bits_per_s=jagerman_capacity_lower_rate(
                    omega, nominal_dim, snr
                ),
                deterministic_upper_bits_per_s=rates["capacity_eps_delta"][1],
                note=f"at nominal dimension {nominal_dim:g}; vanishes as the window grows",
            )
        )
    return rows

