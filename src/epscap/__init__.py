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
"""

# set before the submodules load: epscap.manifest reads it at import time
__version__ = "0.1.0"

from .comparison import (
    ComparisonRow,
    capacity_crossover_dimension,
    comparison_table,
    jagerman_capacity_lower,
    jagerman_capacity_lower_rate,
    jagerman_entropy_upper,
    shannon_capacity,
    shannon_rate_distortion,
)
from .errors import (
    ConfigurationError,
    EpscapError,
    InsufficientSpectrumError,
    NumericalError,
)
from .geometry import (
    BoundReport,
    Ellipsoid,
    capacity_2eps_bounds,
    capacity_eps_delta_bounds,
    covering_overhead,
    entropy_eps_bounds,
    finite_reports,
    greedy_pack,
    log_ball_volume,
    log_ellipsoid_volume,
    oracle_cover_interval,
    oracle_pack_interval,
    per_unit_time_report,
    sample_uniform_ball,
    sample_uniform_ellipsoid,
    verify_pairwise_distance_inequality,
)
from .params import DofQuery, SignalSpaceParams
from .simulation import (
    Codebook,
    ExperimentConfig,
    ExperimentOutcome,
    SimulationResult,
    decode_error_indicator,
    empirical_exponent_sweep,
    error_exponent,
    estimate_error_fraction,
    generate_codebook,
    run_random_code_experiment,
    wilson_interval,
)
from .spectrum import (
    EigenSpectrum,
    KernelMatrix,
    build_kernel_matrix,
    build_spectrum,
    compute_spectrum,
    degrees_of_freedom,
    dof_asymptotic,
    n_width,
    phase_transition_residual,
    spectrum_from_record,
    spectrum_record,
    transition_limit,
    volume_correction,
)

__all__ = [
    "BoundReport",
    "Codebook",
    "ComparisonRow",
    "ConfigurationError",
    "DofQuery",
    "EigenSpectrum",
    "Ellipsoid",
    "EpscapError",
    "ExperimentConfig",
    "ExperimentOutcome",
    "InsufficientSpectrumError",
    "KernelMatrix",
    "NumericalError",
    "SignalSpaceParams",
    "SimulationResult",
    "__version__",
    "build_kernel_matrix",
    "build_spectrum",
    "capacity_2eps_bounds",
    "capacity_crossover_dimension",
    "capacity_eps_delta_bounds",
    "comparison_table",
    "compute_spectrum",
    "covering_overhead",
    "decode_error_indicator",
    "degrees_of_freedom",
    "dof_asymptotic",
    "empirical_exponent_sweep",
    "entropy_eps_bounds",
    "error_exponent",
    "estimate_error_fraction",
    "finite_reports",
    "generate_codebook",
    "greedy_pack",
    "jagerman_capacity_lower",
    "jagerman_capacity_lower_rate",
    "jagerman_entropy_upper",
    "log_ball_volume",
    "log_ellipsoid_volume",
    "n_width",
    "oracle_cover_interval",
    "oracle_pack_interval",
    "per_unit_time_report",
    "phase_transition_residual",
    "run_random_code_experiment",
    "sample_uniform_ball",
    "sample_uniform_ellipsoid",
    "shannon_capacity",
    "shannon_rate_distortion",
    "spectrum_from_record",
    "spectrum_record",
    "transition_limit",
    "verify_pairwise_distance_inequality",
    "volume_correction",
    "wilson_interval",
]
