"""Every integer input goes through one check: bools and fractions are refused."""

import math

import numpy as np
import pytest

from epscap import ConfigurationError, build_spectrum
from epscap.geometry import (
    Ellipsoid,
    capacity_2eps_bounds,
    covering_overhead,
    greedy_pack,
    log_ball_volume,
    sample_uniform_ball,
    working_dimension,
)
from epscap.params import MIN_SAMPLES, SignalSpaceParams, require_int
from epscap.simulation import (
    ExperimentConfig,
    estimate_error_fraction,
    generate_codebook,
    wilson_interval,
)
from epscap.spectrum import build_kernel_matrix, n_width, spectrum_from_record, volume_correction

PARAMS = SignalSpaceParams(omega=math.pi, t_obs=4.0, energy=1.0, eps=0.25, delta=0.1)
BOOK = generate_codebook(np.ones(2), 8, 0)
BALL = Ellipsoid.ball(2, 1.0)
SPECTRUM = build_spectrum(math.pi, 4.0, 32)
RECORD = {"omega": 1.0, "t_obs": 1.0, "lambdas": [0.5]}


def rng():
    return np.random.default_rng(0)


# (input name, a call taking its value, a value the call accepts)
INTEGER_INPUTS = [
    ("seed", lambda v: estimate_error_fraction(BOOK, 0.3, MIN_SAMPLES, v), 0),
    ("seed", lambda v: greedy_pack(BALL, 0.5, v, attempts=1, candidates=20), 0),
    ("seed", lambda v: ExperimentConfig(PARAMS, seed=v), 0),
    ("samples", lambda v: estimate_error_fraction(BOOK, 0.3, v, 0), MIN_SAMPLES),
    ("samples", lambda v: ExperimentConfig(PARAMS, samples=v), MIN_SAMPLES),
    (
        "max_eval_codewords",
        lambda v: estimate_error_fraction(BOOK, 0.3, MIN_SAMPLES, 0, max_eval_codewords=v),
        2,
    ),
    ("max_eval_codewords", lambda v: ExperimentConfig(PARAMS, max_eval_codewords=v), 2),
    ("n_codewords", lambda v: generate_codebook(np.ones(2), v, 0), 2),
    ("n_codewords", lambda v: ExperimentConfig(PARAMS, n_codewords=v), 2),
    ("dim_override", lambda v: ExperimentConfig(PARAMS, dim_override=v), 2),
    ("retries", lambda v: ExperimentConfig(PARAMS, retries=v), 2),
    ("max_codewords", lambda v: ExperimentConfig(PARAMS, max_codewords=v), 2),
    ("attempts", lambda v: greedy_pack(BALL, 0.5, 0, attempts=v, candidates=20), 2),
    ("candidates", lambda v: greedy_pack(BALL, 0.5, 0, attempts=1, candidates=v), 20),
    ("dim", lambda v: Ellipsoid.ball(v, 1.0), 2),
    ("dim", lambda v: log_ball_volume(v, 1.0), 2),
    ("dim", lambda v: sample_uniform_ball(v, 1.0, rng(), 3), 2),
    ("n_dim", lambda v: working_dimension(4.0, v), 2),
    ("n_dim", lambda v: capacity_2eps_bounds(v, 1.0, 1.0, 0.25), 2),
    ("n_dim", lambda v: covering_overhead(v), 2),
    ("n_dim", lambda v: volume_correction(SPECTRUM, v), 2),
    ("n_dim", lambda v: Ellipsoid.from_spectrum(SPECTRUM, 1.0, v), 2),
    ("n_dim", lambda v: n_width(SPECTRUM, 1.0, v), 0),
    ("size", lambda v: sample_uniform_ball(2, 1.0, rng(), v), 3),
    ("quad_order", lambda v: build_kernel_matrix(math.pi, 1.0, quad_order=v), 8),
    ("quad_order", lambda v: spectrum_from_record(RECORD | {"quad_order": v}), 8),
    ("trials", lambda v: wilson_interval(0, v), 10),
]
IDS = [f"{name}-{i}" for i, (name, _, _) in enumerate(INTEGER_INPUTS)]


@pytest.mark.parametrize("name, call, good", INTEGER_INPUTS, ids=IDS)
@pytest.mark.parametrize("bad", [True, False, np.True_, 2.5, np.float64(3.0), "3"])
def test_integer_inputs_refuse_bools_and_fractions(name, call, good, bad):
    with pytest.raises(ConfigurationError, match=f"{name} must be") as info:
        call(bad)
    assert isinstance(info.value, ValueError)


@pytest.mark.parametrize("name, call, good", INTEGER_INPUTS, ids=IDS)
def test_integer_inputs_accept_numpy_integers(name, call, good):
    call(np.int64(good))
    call(good)


def test_require_int_returns_a_python_int_and_names_the_bound():
    value = require_int("n", np.int64(7))
    assert value == 7 and type(value) is int
    assert type(ExperimentConfig(PARAMS, samples=np.int32(500)).samples) is int
    bounds = {0: "a nonnegative integer", 1: "a positive integer", 5: "an integer >= 5"}
    for minimum, what in bounds.items():
        with pytest.raises(ConfigurationError, match=f"^n must be {what}, got {minimum - 1}$"):
            require_int("n", minimum - 1, minimum)


def test_successes_refuse_bools_and_out_of_range_counts():
    assert wilson_interval(np.int64(3), 10) == wilson_interval(3, 10)
    for bad in (True, 2.5, -1):
        with pytest.raises(ConfigurationError, match="successes must be"):
            wilson_interval(bad, 10)
    with pytest.raises(ValueError, match="outside"):
        wilson_interval(11, 10)
