"""Every integer input goes through one check: bools and fractions are refused.

Real-valued inputs refuse bools too, though a bool compares as 0 or 1.
"""

import dataclasses
import functools
import math
import sys

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
from epscap.params import (
    DENSE_BYTES,
    MAX_CODEBOOK_ENERGY,
    MAX_CODEBOOK_EPS,
    MAX_SEED,
    MIN_SAMPLES,
    SignalSpaceParams,
    require_dense,
    require_int,
    require_seed,
)
from epscap.simulation import (
    ExperimentConfig,
    empirical_exponent_sweep,
    error_exponent,
    estimate_error_fraction,
    generate_codebook,
    wilson_interval,
)
from epscap.spectrum import (
    build_kernel_matrix,
    degrees_of_freedom,
    n_width,
    spectrum_from_record,
    volume_correction,
)

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
    ("quad_order", lambda v: spectrum_from_record(RECORD | {"quad_order": v}), 1),
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


@pytest.mark.parametrize(
    "call",
    [
        *(call for name, call, _ in INTEGER_INPUTS if name == "seed"),
        lambda v: empirical_exponent_sweep(PARAMS, 0.5, [4.0, 8.0], v, samples=MIN_SAMPLES),
    ],
)
def test_seeds_beyond_63_bits_are_refused(call):
    # codeword hashes take the seed as a signed 64-bit word
    with pytest.raises(ConfigurationError, match=r"^seed must be an integer in \[0, 9223372036854775807\], got 9223372036854775808$"):
        call(MAX_SEED + 1)
    with pytest.raises(ConfigurationError, match="seed must be an integer in"):
        call(-1)
    assert require_seed(np.uint64(MAX_SEED)) == MAX_SEED


@pytest.mark.parametrize(
    "call",
    [
        lambda eps: ExperimentConfig(params=dataclasses.replace(PARAMS, eps=eps), n_codewords=2),
        lambda eps: estimate_error_fraction(BOOK, eps, samples=MIN_SAMPLES, seed=0),
    ],
    ids=["ExperimentConfig", "estimate_error_fraction"],
)
def test_an_eps_whose_doubled_square_overflows_is_refused(call):
    # the neighbour rule compares squared distances with (2*eps)^2
    assert (2.0 * MAX_CODEBOOK_EPS) ** 2 <= sys.float_info.max
    call(MAX_CODEBOOK_EPS)
    message = (
        r"^eps must be at most 6\.703903964971298e\+153 for a codebook run, "
        r"so that \(2\*eps\)\^2 is finite, got 6\.703903964971299e\+153$"
    )
    with pytest.raises(ValueError, match=message):
        call(math.nextafter(MAX_CODEBOOK_EPS, math.inf))


def test_an_energy_whose_screen_could_overflow_is_refused():
    # the close-pair screen sums terms of up to 4 |x|^2, |x|^2 <= energy
    ExperimentConfig(params=dataclasses.replace(PARAMS, energy=MAX_CODEBOOK_ENERGY), n_codewords=2)
    message = (
        r"^energy must be at most 2\.2471164185778946e\+307 for a codebook run, "
        r"so that its close-pair screen stays finite, got 1e\+308$"
    )
    with pytest.raises(ValueError, match=message):
        ExperimentConfig(params=dataclasses.replace(PARAMS, energy=1e308), n_codewords=2)


def test_require_int_names_an_upper_bound():
    assert require_int("n", 5, 0, 5) == 5
    with pytest.raises(ConfigurationError, match=r"^n must be an integer in \[0, 5\], got 6$"):
        require_int("n", 6, 0, 5)


def test_require_dense_admits_the_budget_and_refuses_a_byte_more():
    require_dense(DENSE_BYTES, "never")
    with pytest.raises(ConfigurationError, match=r"^an array needs 2\.0 GB in all, above the 2 GB limit$"):
        require_dense(DENSE_BYTES + 1, "an array needs", " in all")


def test_successes_refuse_bools_and_out_of_range_counts():
    assert wilson_interval(np.int64(3), 10) == wilson_interval(3, 10)
    for bad in (True, 2.5, -1):
        with pytest.raises(ConfigurationError, match="successes must be"):
            wilson_interval(bad, 10)
    with pytest.raises(ValueError, match="outside"):
        wilson_interval(11, 10)


def params_with(field, value):
    return SignalSpaceParams(**(vars(PARAMS) | {field: value}))


# (input name, a call taking its value, the bool its range test alone would take)
REAL_INPUTS = [
    *(
        (field, functools.partial(params_with, field), True)
        for field in ("omega", "t_obs", "energy", "eps")
    ),
    ("delta", functools.partial(params_with, "delta"), False),
    ("omega", lambda v: error_exponent(v, 1.0, 0.25, 0.5), True),
    ("rate", lambda v: error_exponent(math.pi, 1.0, 0.25, v), False),
    ("omega", lambda v: build_kernel_matrix(v, 1.0, quad_order=8), True),
    ("mu", lambda v: degrees_of_freedom(SPECTRUM, 1.0, v), True),
    ("eps", lambda v: greedy_pack(BALL, v, 0, attempts=1, candidates=20), True),
]


@pytest.mark.parametrize(
    "name, call, taken",
    REAL_INPUTS,
    ids=[f"{name}-{i}" for i, (name, _, _) in enumerate(REAL_INPUTS)],
)
@pytest.mark.parametrize("kind", [bool, np.bool_])
def test_real_inputs_refuse_bools(name, call, taken, kind):
    bad = kind(taken)
    with pytest.raises(ValueError, match=f"^{name} must ") as info:
        call(bad)
    assert str(info.value).endswith(f", got {taken}")
    call(float(taken) + 0.5)  # a number in range is taken
