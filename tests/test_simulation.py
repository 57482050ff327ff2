import math
import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy.stats import binom

from epscap import ConfigurationError, simulation
from epscap.geometry import per_unit_time_report, sample_uniform_ball, sample_uniform_ellipsoid
from epscap.params import SignalSpaceParams
from epscap.simulation import (
    Codebook,
    ExperimentConfig,
    empirical_exponent_sweep,
    error_exponent,
    estimate_error_fraction,
    generate_codebook,
    run_random_code_experiment,
    wilson_interval,
)
from reference import cap_fraction, decode_error_indicator


def test_sample_uniform_ball_shapes_and_containment():
    rng = np.random.default_rng(7)
    single = sample_uniform_ball(5, 2.0, rng, size=1)
    assert single.shape == (1, 5)
    batch = sample_uniform_ball(5, 2.0, rng, size=4000)
    assert batch.shape == (4000, 5)
    norms = np.linalg.norm(batch, axis=1)
    assert np.all(norms <= 2.0 * (1.0 + 1e-12))
    # r^dim is uniform on [0, 1] for a uniform draw in the ball
    u = (norms / 2.0) ** 5
    assert abs(u.mean() - 0.5) < 4.0 * 0.2887 / math.sqrt(4000)


def test_sample_uniform_ellipsoid_containment():
    rng = np.random.default_rng(8)
    radii = np.array([3.0, 0.5, 1.0])
    pts = sample_uniform_ellipsoid(radii, rng, size=2000)
    inside = np.sum((pts / radii) ** 2, axis=1)
    assert np.all(inside <= 1.0 + 1e-12)
    # squashing the ball keeps uniformity: the quadratic form is Beta-ish,
    # mean dim/(dim+2)
    assert abs(inside.mean() - 3.0 / 5.0) < 0.05


def test_generate_codebook_deterministic():
    radii = np.ones(4)
    a = generate_codebook(radii, 50, seed=9)
    b = generate_codebook(radii, 50, seed=9)
    c = generate_codebook(radii, 50, seed=10)
    np.testing.assert_array_equal(a.points, b.points)
    assert not np.array_equal(a.points, c.points)
    assert a.n_codewords == 50 and a.dim == 4
    assert a.points.dtype == np.dtype("<f8")


def test_codebook_rejects_escapes():
    with pytest.raises(ValueError):
        Codebook(points=np.array([[1.5, 0.0]]), radii=np.array([1.0, 1.0]))


def test_decode_error_indicator_tie_is_error():
    book = Codebook(points=np.array([[0.0], [1.0]]))
    assert decode_error_indicator(book, 0, np.array([0.2])) is False
    assert decode_error_indicator(book, 0, np.array([0.8])) is True
    assert decode_error_indicator(book, 0, np.array([0.5])) is True  # tie
    with pytest.raises(IndexError):
        decode_error_indicator(book, 5, np.array([0.0]))


def test_wilson_interval_frozen():
    lo, hi = wilson_interval(5, 10)
    assert lo == pytest.approx(0.236593090512564, rel=1e-10)
    assert hi == pytest.approx(0.7634069094874361, rel=1e-10)
    lo, hi = wilson_interval(0, 100)
    assert lo == 0.0 and 0.0 < hi < 0.05
    lo, hi = wilson_interval(100, 100)
    assert hi <= 1.0 and 0.95 < lo < 1.0
    with pytest.raises(ValueError):
        wilson_interval(5, 0)
    with pytest.raises(ValueError):
        wilson_interval(11, 10)


def test_wilson_interval_shrinks_with_trials():
    widths = [
        hi - lo
        for lo, hi in (wilson_interval(n // 4, n) for n in (100, 400, 1600, 6400))
    ]
    assert all(b < a for a, b in zip(widths, widths[1:]))


def test_two_codeword_overlap_matches_analytic():
    # received uniform on [x-eps, x+eps]; the competitor at distance d
    # claims the fraction (eps - d/2)/(2 eps)
    eps = 1.0
    for d, seed in [(0.5, 0), (1.0, 1), (1.5, 2)]:
        book = Codebook(points=np.array([[0.0], [d]]))
        result = estimate_error_fraction(book, eps, samples=8000, seed=seed)
        expected = (eps - d / 2.0) / (2.0 * eps)
        lo, hi = result.mean_error_ci
        assert lo <= expected <= hi
        assert result.mean_error_fraction == pytest.approx(expected, abs=0.02)


def test_cap_fraction_is_the_segment_in_one_and_two_dimensions():
    # 1-d: the interval share (1 - x)/2; 2-d: the circular segment
    # (acos x - x sqrt(1 - x^2))/pi; x = d/(2 eps)
    for x in (0.0, 0.1, 0.5, 0.9):
        assert cap_fraction(1, 0.5, x) == pytest.approx((1.0 - x) / 2.0, rel=1e-12)
        segment = (math.acos(x) - x * math.sqrt(1.0 - x * x)) / math.pi
        assert cap_fraction(2, 0.5, x) == pytest.approx(segment, rel=1e-12)
    assert cap_fraction(12, 0.25, 0.5) == 0.0


def test_single_neighbour_intervals_cover_the_exact_cap():
    # a codeword with exactly one competitor within 2*eps loses the cap of
    # its noise ball cut at d/2 (ties have measure zero); across 2 to 12
    # dimensions the 95% Wilson intervals must cover that exact value as
    # often as Binomial(K, 0.95) allows. Competitors are found here by
    # brute force, not by the package's neighbour search.
    m = 100
    covered = trials = 0
    for dim in range(2, 13):
        eps = 0.5 * m ** (-1.0 / dim)  # about one competitor within 2*eps
        book = generate_codebook(np.ones(dim), m, seed=[7, dim])
        result = estimate_error_fraction(book, eps, samples=4000, seed=dim)
        pts = book.points
        dist = np.sqrt(np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=2))
        np.fill_diagonal(dist, np.inf)
        close = dist <= 2.0 * eps
        for i in np.flatnonzero(close.sum(axis=1) == 1):
            cap = cap_fraction(dim, eps, float(dist[i][close[i]][0]))
            lo, hi = result.error_fraction_cis[i]
            covered += bool(lo <= cap <= hi)
            trials += 1
    assert trials >= 250  # 304 at these seeds
    # both tails at 1e-3: 288 of 304 covered at these seeds
    assert binom.cdf(covered, trials, 0.95) > 1e-3
    assert binom.sf(covered - 1, trials, 0.95) > 1e-3


@pytest.mark.parametrize("threads", [1, 3])
def test_a_failed_codeword_stops_the_others(monkeypatch, threads):
    points = np.random.default_rng(5).uniform(-1.0, 1.0, size=(120, 2))
    eps = 0.5
    neighbors = simulation._neighbor_lists(points, np.arange(120), eps)
    assert all(len(nb) for nb in neighbors)  # every codeword is decoded
    index_of = {bytes(d): i for i, d in enumerate(simulation._codeword_digests(1, points))}
    failing = 4
    started, released = [], []
    pool_closing = threading.Event()
    real = simulation._stream_from_digest

    def stream(digest):
        i = index_of[digest]
        started.append(i)
        if i == failing:
            raise RuntimeError("codeword 4 fails")
        if i > failing:
            # hold later codewords until the pool is being shut down, so
            # that only cancellation, not timing, can keep others from starting
            released.append(pool_closing.wait(timeout=30))
        return real(digest)

    class Pool(ThreadPoolExecutor):
        def shutdown(self, *args, **kwargs):
            pool_closing.set()
            super().shutdown(*args, **kwargs)

    monkeypatch.setattr(simulation, "_stream_from_digest", stream)
    monkeypatch.setattr(simulation, "ThreadPoolExecutor", Pool)
    monkeypatch.setattr(simulation, "_codeword_threads", lambda samples: threads)
    with pytest.raises(RuntimeError, match="codeword 4"):
        estimate_error_fraction(Codebook(points=points), eps, samples=100, seed=1)
    if threads == 1:
        assert started == list(range(failing + 1))
    else:
        # the codewords before it finish; of the rest, only those already
        # in flight when it came out (at most one per thread) start
        assert set(range(failing + 1)) <= set(started)
        assert len(started) <= failing + 1 + threads
        assert all(released)  # no held codeword timed out


def test_more_threads_than_cores_on_short_switches_give_the_serial_result(monkeypatch):
    points = np.random.default_rng(9).uniform(-1.0, 1.0, size=(200, 3))
    book = Codebook(points=points)
    monkeypatch.setattr(simulation, "_codeword_threads", lambda samples: 1)
    serial = estimate_error_fraction(book, 0.3, samples=200, seed=4)
    monkeypatch.setattr(simulation, "_codeword_threads", lambda samples: 8)
    threaded = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        worker = threading.Thread(
            target=lambda: threaded.append(
                estimate_error_fraction(book, 0.3, samples=200, seed=4)
            )
        )
        worker.start()
        worker.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not worker.is_alive() and len(threaded) == 1
    assert np.array_equal(threaded[0].error_fractions, serial.error_fractions)
    assert np.array_equal(threaded[0].error_fraction_cis, serial.error_fraction_cis)
    assert threaded[0].mean_error_ci == serial.mean_error_ci


@pytest.mark.parametrize(
    "env, cpus, threads",
    [
        ({"OPENBLAS_NUM_THREADS": "1"}, 8, 2),
        ({"OPENBLAS_NUM_THREADS": "1"}, 2, 2),
        ({"OPENBLAS_NUM_THREADS": "1"}, 1, 1),
        ({"OMP_NUM_THREADS": "1"}, 4, 2),
        ({"GOTO_NUM_THREADS": "1", "OMP_NUM_THREADS": "4"}, 4, 2),
        # OpenBLAS skips unset, unreadable and non-positive values
        ({"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "1"}, 4, 2),
        ({"OPENBLAS_NUM_THREADS": "x", "OMP_NUM_THREADS": "1"}, 4, 2),
        ({"OPENBLAS_NUM_THREADS": "4", "OMP_NUM_THREADS": "1"}, 4, 1),
        ({"OMP_NUM_THREADS": "2"}, 4, 1),
        ({}, 4, 1),
    ],
)
def test_default_decode_threads_need_blas_on_one_thread(monkeypatch, env, cpus, threads):
    for name in simulation._BLAS_THREAD_VARIABLES:
        monkeypatch.delenv(name, raising=False)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    samples = simulation._MIN_THREADED_SAMPLES
    assert simulation._codeword_threads(samples) == threads
    assert simulation._codeword_threads(samples - 1) == 1
    # off the main thread, as in a pool of the caller's, always one
    off_main = []
    worker = threading.Thread(target=lambda: off_main.append(simulation._codeword_threads(samples)))
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive() and off_main == [1]


def test_separated_codewords_are_error_free():
    pts = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
    result = estimate_error_fraction(Codebook(points=pts), 1.0, samples=200, seed=0)
    np.testing.assert_array_equal(result.error_fractions, np.zeros(3))
    np.testing.assert_array_equal(result.error_fraction_cis, np.zeros((3, 2)))
    assert result.mean_error_fraction == 0.0


def test_coincident_codewords_always_tie():
    pts = np.array([[0.3, -0.2], [0.3, -0.2], [5.0, 5.0]])
    result = estimate_error_fraction(Codebook(points=pts), 0.5, samples=300, seed=1)
    assert result.error_fractions[0] == 1.0
    assert result.error_fractions[1] == 1.0
    assert result.error_fractions[2] == 0.0


def test_permutation_invariance_exact():
    rng = np.random.default_rng(42)
    pts = sample_uniform_ball(3, 1.0, rng, size=40)
    eps = 0.35
    base = estimate_error_fraction(Codebook(points=pts), eps, samples=400, seed=5)
    perm = np.random.default_rng(0).permutation(40)
    shuffled = estimate_error_fraction(
        Codebook(points=pts[perm]), eps, samples=400, seed=5
    )
    assert shuffled.mean_error_fraction == base.mean_error_fraction
    np.testing.assert_array_equal(
        np.sort(base.error_fractions), np.sort(shuffled.error_fractions)
    )
    # row k of the shuffled book is row perm[k] of the original
    inv = np.empty(40, dtype=int)
    inv[perm] = np.arange(40)
    np.testing.assert_array_equal(base.error_fractions, shuffled.error_fractions[inv])


def test_permutation_invariance_with_subset():
    rng = np.random.default_rng(43)
    pts = sample_uniform_ball(4, 1.0, rng, size=120)
    eps = 0.4
    base = estimate_error_fraction(
        Codebook(points=pts), eps, samples=300, seed=6, max_eval_codewords=24
    )
    perm = np.random.default_rng(1).permutation(120)
    shuffled = estimate_error_fraction(
        Codebook(points=pts[perm]), eps, samples=300, seed=6, max_eval_codewords=24
    )
    assert base.eval_indices is not None and len(base.eval_indices) == 24
    # the same codeword values are selected regardless of row order
    np.testing.assert_array_equal(
        np.sort(perm[shuffled.eval_indices]), np.sort(base.eval_indices)
    )
    assert shuffled.mean_error_fraction == base.mean_error_fraction


def test_estimate_rejects_few_samples():
    book = Codebook(points=np.zeros((2, 2)))
    with pytest.raises(ConfigurationError):
        estimate_error_fraction(book, 0.5, samples=10, seed=0)


def test_estimate_verdict_against_target():
    pts = np.array([[0.0, 0.0], [10.0, 0.0]])
    res = estimate_error_fraction(
        Codebook(points=pts), 1.0, samples=200, seed=0, target_delta=0.1
    )
    assert res.verdict is True
    pts = np.array([[0.0], [0.0]])
    res = estimate_error_fraction(
        Codebook(points=pts), 1.0, samples=200, seed=0, target_delta=0.5
    )
    assert res.verdict is False


def test_mean_ci_shrinks_with_samples():
    rng = np.random.default_rng(44)
    pts = sample_uniform_ball(3, 1.0, rng, size=30)
    widths = []
    for samples in (200, 1600):
        res = estimate_error_fraction(Codebook(points=pts), 0.5, samples=samples, seed=2)
        lo, hi = res.mean_error_ci
        widths.append(hi - lo)
    assert widths[1] < widths[0]


def test_experiment_config_validation():
    params = SignalSpaceParams(omega=math.pi, t_obs=8.0, energy=1.0, eps=0.25, delta=0.2)
    with pytest.raises(ConfigurationError):
        ExperimentConfig(params=params, samples=10)
    with pytest.raises(ValueError):
        ExperimentConfig(params=params, rate=1.0, n_codewords=100)
    with pytest.raises(ValueError):
        ExperimentConfig(params=params, dim_override=0)
    with pytest.raises(ConfigurationError):
        ExperimentConfig(params=params, max_eval_codewords=0)


def test_experiment_satisfying_size():
    params = SignalSpaceParams(omega=math.pi, t_obs=8.0, energy=1.0, eps=0.25, delta=0.2)
    config = ExperimentConfig(params=params, samples=500, seed=3)
    outcome = run_random_code_experiment(config)
    # floor(0.2 * 4^8) codewords in 8 dimensions
    assert outcome.n_codewords == 13107
    assert outcome.bound.n_dim == 8
    assert not outcome.capped
    assert outcome.result is not None
    assert outcome.result.verdict is True
    assert outcome.bound.quantity == "capacity_eps_delta"
    assert outcome.radii_source == "ball"


def test_experiment_rate_sizing_and_cap():
    params = SignalSpaceParams(omega=math.pi, t_obs=8.0, energy=1.0, eps=0.25, delta=0.2)
    config = ExperimentConfig(params=params, rate=1.0, samples=300, seed=0)
    outcome = run_random_code_experiment(config)
    assert outcome.n_codewords == 256  # 2^(8*1)
    capped = ExperimentConfig(
        params=params, rate=1.0, samples=300, seed=0, max_codewords=100
    )
    outcome = run_random_code_experiment(capped)
    assert outcome.capped and outcome.n_codewords == 100


def test_experiment_rate_too_low():
    params = SignalSpaceParams(omega=math.pi, t_obs=4.0, energy=1.0, eps=2.0, delta=0.1)
    config = ExperimentConfig(params=params, samples=200, seed=0)
    outcome = run_random_code_experiment(config)
    assert outcome.rate_too_low
    assert outcome.result is None
    assert outcome.n_codewords == 0


def test_experiment_needs_a_size_rule():
    params = SignalSpaceParams(omega=math.pi, t_obs=4.0, energy=1.0, eps=0.25)
    with pytest.raises(ConfigurationError):
        run_random_code_experiment(ExperimentConfig(params=params, samples=200))


def test_experiment_config_refuses_delta_zero_without_a_size():
    params = SignalSpaceParams(omega=math.pi, t_obs=4.0, energy=1.0, eps=0.25)
    with pytest.raises(ConfigurationError, match="needs delta > 0"):
        ExperimentConfig(params=params, samples=200)
    ExperimentConfig(params=params, rate=1.0, samples=200)
    ExperimentConfig(params=params, n_codewords=8, samples=200)


@pytest.mark.parametrize("dim_override", [None, 8])
def test_experiment_refuses_a_spectrum_of_another_window(spec_t10, monkeypatch, dim_override):
    drawn = []
    monkeypatch.setattr(simulation, "generate_codebook", lambda *args: drawn.append(args))
    params = SignalSpaceParams(omega=math.pi, t_obs=40.0, energy=1.0, eps=0.25, delta=0.1)
    config = ExperimentConfig(params=params, dim_override=dim_override, samples=100)
    with pytest.raises(ConfigurationError, match="different omega/t_obs"):
        run_random_code_experiment(config, spec_t10)
    assert drawn == []


def test_experiment_spectrum_dimension(spec_t10):
    params = SignalSpaceParams(omega=math.pi, t_obs=10.0, energy=1.0, eps=0.25, delta=0.2)
    config = ExperimentConfig(params=params, samples=200, seed=1, mu=0.1)
    outcome = run_random_code_experiment(config, spec_t10)
    assert outcome.radii_source == "spectrum"
    assert outcome.bound.n_dim == 13  # degrees of freedom of the T=10 spectrum at mu = 0.1
    assert 0.0 < outcome.bound.zeta_value < 1.0


@pytest.mark.parametrize("mu", [math.inf, math.nan, 0.0, -1.0])
@pytest.mark.parametrize("use_spectrum", [False, True])
def test_experiment_refuses_a_bad_mu(spec_t10, mu, use_spectrum):
    # without a spectrum mu is never read, so only the config can refuse it
    params = SignalSpaceParams(omega=math.pi, t_obs=10.0, energy=1.0, eps=0.25, delta=0.2)
    spectrum = spec_t10 if use_spectrum else None
    with pytest.raises(ValueError, match="mu must be positive and finite"):
        run_random_code_experiment(
            ExperimentConfig(params=params, n_codewords=16, samples=200, mu=mu), spectrum
        )


def test_experiment_bound_is_the_bounds_report(spec_t10):
    # with or without a spectrum, the probed report is the one `bounds`
    # gives at the experiment's working dimension
    params = SignalSpaceParams(omega=math.pi, t_obs=10.0, energy=1.0, eps=0.25, delta=0.2)
    config = ExperimentConfig(params=params, n_codewords=16, samples=200, seed=1)
    for spectrum in (None, spec_t10):
        outcome = run_random_code_experiment(config, spectrum)
        reports = per_unit_time_report(params, spectrum, outcome.bound.n_dim)
        assert outcome.bound == reports["capacity_eps_delta"]


def test_error_exponent_values():
    assert error_exponent(math.pi, 1.0, 0.25, 1.0) == pytest.approx(1.0, abs=1e-12)
    assert error_exponent(math.pi, 1.0, 0.25, 0.0) == pytest.approx(2.0, abs=1e-12)
    assert error_exponent(math.pi, 1.0, 0.25, 3.0) < 0


def test_exponent_sweep_domain():
    params = SignalSpaceParams(omega=math.pi, t_obs=8.0, energy=1.0, eps=0.25, delta=0.1)
    with pytest.raises(ValueError):
        empirical_exponent_sweep(params, rate=2.5, t_values=[8, 12], seed=0)
    with pytest.raises(ValueError):
        empirical_exponent_sweep(params, rate=1.0, t_values=[12, 8], seed=0)
    with pytest.raises(ValueError):
        empirical_exponent_sweep(params, rate=1.0, t_values=[8], seed=0)


def test_exponent_sweep_small_run():
    params = SignalSpaceParams(omega=math.pi, t_obs=6.0, energy=1.0, eps=0.25, delta=0.1)
    sweep = empirical_exponent_sweep(
        params, rate=1.0, t_values=[6.0, 8.0], seed=5, samples=400
    )
    assert len(sweep.points) == 2
    assert sweep.points[0].n_codewords == 64
    assert sweep.points[1].n_codewords == 256
    assert sweep.predicted_decay == pytest.approx(-1.0, abs=1e-9)
    payload = sweep.to_dict()
    assert len(payload["points"]) == 2
    assert payload["rate"] == 1.0
