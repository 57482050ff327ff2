"""Property-based checks of the spectrum, the bound reports and the tables that read them,
and of the packing and Monte Carlo hot paths against their one-at-a-time definitions."""

import dataclasses
import math
from unittest import mock

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from epscap import build_spectrum, finite_reports, simulation
from epscap.comparison import comparison_table
from epscap.geometry import (
    Ellipsoid,
    entropy_eps_bounds,
    greedy_pack,
    per_unit_time_report,
    sample_uniform_ball,
)
from epscap.params import SignalSpaceParams
from epscap.simulation import Codebook, error_exponent, estimate_error_fraction
from reference import (
    plain_ball_sample,
    plain_decode_error_counts,
    plain_greedy_pack,
    plain_neighbor_lists,
)

OMEGA = st.floats(min_value=1e-3, max_value=1e3)
SNR = st.floats(min_value=1e-4, max_value=1e8)


@settings(max_examples=200, deadline=None)
@given(omega=OMEGA, snr=SNR)
def test_comparison_intervals_are_the_report_rates(omega, snr):
    params = SignalSpaceParams(omega=omega, t_obs=1.0, energy=snr, eps=1.0)
    reports = finite_reports(params, n_dim=1)
    capacity, source, zero_error, lattice = comparison_table(omega, snr, nominal_dim=1.0)
    for row, key in (
        (capacity, "capacity_eps_delta"),
        (source, "entropy_eps"),
        (zero_error, "capacity_2eps"),
    ):
        interval = (row.deterministic_lower, row.deterministic_upper)
        assert interval == (reports[key].lower_rate, reports[key].upper_rate)
    assert lattice.deterministic_upper == reports["capacity_eps_delta"].upper_rate


@settings(max_examples=200, deadline=None)
@given(
    omega=OMEGA,
    energy=st.floats(min_value=1e-3, max_value=1e3),
    s=st.floats(min_value=1.0, max_value=1e4),
    rate=st.floats(min_value=0.0, max_value=1e3),
)
def test_error_exponent_is_eps_delta_lower_rate_minus_rate(omega, energy, s, rate):
    eps = math.sqrt(energy) / s
    params = SignalSpaceParams(omega=omega, t_obs=1.0, energy=energy, eps=eps, delta=0.1)
    assume(params.sqrt_snr >= 1.0)  # the division above can round s below 1
    lower = per_unit_time_report(params)["capacity_eps_delta"].lower_rate
    assert error_exponent(omega, energy, eps, rate) == lower - rate


@settings(max_examples=200, deadline=None)
@given(
    n_dim=st.integers(min_value=1, max_value=2000),
    snr=SNR,
    delta=st.one_of(st.just(0.0), st.floats(min_value=1e-6, max_value=0.999)),
    zeta=st.floats(min_value=1e-3, max_value=1.0),
)
def test_finite_reports_lower_never_exceeds_upper(n_dim, snr, delta, zeta):
    params = SignalSpaceParams(omega=math.pi, t_obs=10.0, energy=snr, eps=1.0, delta=delta)
    reports = finite_reports(params, n_dim=n_dim, zeta_value=zeta)
    for rep in reports.values():
        assert rep.lower_rate <= rep.upper_rate
        if rep.lower_bits is not None and not math.isnan(rep.upper_bits):
            assert rep.lower_bits <= rep.upper_bits
        assert "valid" not in rep.to_dict()
    flag = entropy_eps_bounds(n_dim, zeta, snr, 1.0)[2]
    assert reports["entropy_eps"].valid is flag
    assert reports["capacity_2eps"].valid and reports["capacity_eps_delta"].valid


@settings(max_examples=100, deadline=None)
@given(
    n0=st.floats(min_value=1.0, max_value=40.0, exclude_min=True, exclude_max=True),
    a=st.floats(min_value=1e-2, max_value=1e3),
)
def test_spectrum_depends_only_on_the_time_bandwidth_product(n0, a):
    assume(n0 != math.floor(n0))
    # the order is fixed: the default's ceil(N0) can step at an integer N0
    # through a one-ulp change in omega*t_obs/pi
    base = build_spectrum(math.pi, n0, quad_order=256).lambdas
    scaled = build_spectrum(a * math.pi, n0 / a, quad_order=256).lambdas
    np.testing.assert_allclose(scaled, base, rtol=0.0, atol=1e-13)


@settings(max_examples=500, deadline=None)
@given(
    dim=st.integers(min_value=1, max_value=4),
    m=st.integers(min_value=2, max_value=30),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    eps=st.floats(min_value=0.05, max_value=1.0),
    max_eval=st.one_of(st.none(), st.integers(min_value=1, max_value=30)),
    data=st.data(),
)
def test_permuting_a_codebook_permutes_its_error_fractions(dim, m, seed, eps, max_eval, data):
    points = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(m, dim))
    perm = np.array(data.draw(st.permutations(range(m))))
    base, shuffled = (
        estimate_error_fraction(
            Codebook(points=p), eps, samples=100, seed=seed, max_eval_codewords=max_eval
        )
        for p in (points, points[perm])
    )
    # shuffled codeword j is base codeword perm[j]; a subsample picks the
    # same codewords in either order
    base_index = np.arange(m) if base.eval_indices is None else base.eval_indices
    index = np.arange(m) if shuffled.eval_indices is None else shuffled.eval_indices
    rows = np.searchsorted(base_index, perm[index])
    assert np.array_equal(base_index[rows], perm[index])
    assert np.array_equal(shuffled.error_fractions, base.error_fractions[rows])
    assert np.array_equal(shuffled.error_fraction_cis, base.error_fraction_cis[rows])
    assert shuffled.mean_error_fraction == base.mean_error_fraction
    assert shuffled.mean_error_ci == base.mean_error_ci


# --- the blocked hot paths against their one-at-a-time definitions ---

SEED = st.integers(min_value=0, max_value=2**32 - 1)


@settings(max_examples=200, deadline=None)
@given(
    dim=st.integers(min_value=1, max_value=12),
    radius=st.floats(min_value=0.0, max_value=3.0),
    size=st.integers(min_value=1, max_value=50),
    seed=SEED,
)
def test_ball_sampler_draws_the_out_of_place_bits(dim, radius, size, seed):
    got = sample_uniform_ball(dim, radius, np.random.default_rng(seed), size=size)
    want = plain_ball_sample(dim, radius, np.random.default_rng(seed), size)
    assert np.array_equal(got, want)


@settings(max_examples=150, deadline=None)
@given(
    radii=st.lists(st.floats(min_value=0.1, max_value=3.0), min_size=1, max_size=6),
    eps=st.floats(min_value=0.02, max_value=1.0),
    seed=SEED,
    attempts=st.integers(min_value=1, max_value=2),
    candidates=st.integers(min_value=1, max_value=400),
)
def test_greedy_pack_is_the_sequential_rule(radii, eps, seed, attempts, candidates):
    got = greedy_pack(Ellipsoid(np.array(radii)), eps, seed, attempts, candidates)
    assert got == plain_greedy_pack(radii, eps, seed, attempts, candidates)


@st.composite
def small_codebooks(draw):
    """(points, eps): uniform or on a grid of eps/2 spacing, so that some
    pairs sit at exactly 2*eps, and with some rows repeated."""
    dim = draw(st.integers(min_value=1, max_value=4))
    m = draw(st.integers(min_value=1, max_value=30))
    eps = draw(st.floats(min_value=0.05, max_value=1.0))
    rng = np.random.default_rng(draw(SEED))
    if draw(st.booleans()):
        points = rng.uniform(-1.0, 1.0, size=(m, dim))
    else:
        points = rng.integers(-4, 5, size=(m, dim)) * (eps / 2.0)
    repeats = draw(st.lists(st.integers(min_value=0, max_value=m - 1), max_size=5))
    return np.concatenate([points, points[repeats]]), eps


@settings(max_examples=300, deadline=None)
@given(book=small_codebooks(), chunk=st.integers(min_value=1, max_value=40), data=st.data())
def test_neighbor_lists_are_the_hit_by_hit_gather(book, chunk, data):
    points, eps = book
    m = len(points)
    eval_idx = np.array(
        sorted(data.draw(st.sets(st.integers(min_value=0, max_value=m - 1), min_size=1)))
    )
    with mock.patch.object(simulation, "_NEIGHBOR_CHUNK", chunk):
        got = simulation._neighbor_lists(points, eval_idx, eps)
    want = plain_neighbor_lists(points, eval_idx, eps, chunk)
    assert len(got) == len(want)
    for g, w in zip(got, want, strict=True):
        assert g.dtype == w.dtype and np.array_equal(g, w)


@settings(max_examples=200, deadline=None)
@given(
    book=small_codebooks(),
    seed=SEED,
    max_eval=st.one_of(st.none(), st.integers(min_value=1, max_value=30)),
    chunk=st.integers(min_value=1, max_value=40),
)
def test_error_counts_are_the_per_codeword_decode(book, seed, max_eval, chunk):
    points, eps = book
    codebook = Codebook(points=points)
    samples = 100
    with mock.patch.object(simulation, "_NEIGHBOR_CHUNK", chunk):
        result = estimate_error_fraction(
            codebook, eps, samples=samples, seed=seed, max_eval_codewords=max_eval
        )
    eval_idx = np.arange(len(points)) if result.eval_indices is None else result.eval_indices
    counts = plain_decode_error_counts(codebook, eval_idx, eps, samples, seed, chunk)
    assert np.array_equal(result.error_fractions, counts / samples)
    # a coincident codeword ties every draw, and a tie is an error
    _, inverse, copies = np.unique(points, axis=0, return_inverse=True, return_counts=True)
    coincident = copies[inverse.reshape(-1)[eval_idx]] > 1
    assert np.all(result.error_fractions[coincident] == 1.0)


@st.composite
def books_with_blocks(draw):
    """(points, eps, chunk): a small codebook with a neighbour-free codeword
    and a coincident pair, and a block width that leaves at least two full
    blocks and a short tail."""
    points, eps = draw(small_codebooks())
    far = np.full((1, points.shape[1]), 10.0)  # farther than 2*eps from all
    points = np.concatenate([points, points[:1], far])
    m = len(points)
    widths = [c for c in range(1, m) if m // c >= 2 and m % c]
    assume(widths)
    return points, eps, draw(st.sampled_from(widths))


@settings(max_examples=100, deadline=None)
@given(
    book=books_with_blocks(),
    seed=SEED,
    max_eval=st.one_of(st.none(), st.integers(min_value=1, max_value=30)),
)
def test_error_fractions_are_the_same_on_any_number_of_threads(book, seed, max_eval):
    points, eps, chunk = book
    codebook = Codebook(points=points)
    samples = 100
    runs = []
    for threads in (1, 2, 3):
        with (
            mock.patch.object(simulation, "_NEIGHBOR_CHUNK", chunk),
            mock.patch.object(simulation, "_codeword_threads", lambda samples, n=threads: n),
        ):
            runs.append(
                estimate_error_fraction(
                    codebook, eps, samples=samples, seed=seed, max_eval_codewords=max_eval
                )
            )
    for run in runs[1:]:
        for field in dataclasses.fields(run):
            got, want = getattr(run, field.name), getattr(runs[0], field.name)
            if isinstance(want, np.ndarray):
                assert got.dtype == want.dtype and np.array_equal(got, want)
            else:
                assert got == want
    eval_idx = np.arange(len(points)) if runs[0].eval_indices is None else runs[0].eval_indices
    counts = plain_decode_error_counts(codebook, eval_idx, eps, samples, seed, chunk)
    assert np.array_equal(runs[0].error_fractions, counts / samples)


def test_criterion7_sized_neighbor_lists_are_the_fresh_products():
    # full 16,384-column blocks and the tail go through one reused buffer,
    # the tail through its leading columns; each must give the bits of a
    # fresh product per block, in 12-d where OpenBLAS bits depend on the
    # block width
    rng = np.random.default_rng(12)
    m = 2 * simulation._NEIGHBOR_CHUNK + 1234
    points = sample_uniform_ball(12, 1.0, rng, size=m)
    eval_idx = np.sort(rng.choice(m, size=64, replace=False))
    got = simulation._neighbor_lists(points, eval_idx, 0.3)
    want = plain_neighbor_lists(points, eval_idx, 0.3, simulation._NEIGHBOR_CHUNK)
    assert sum(len(w) for w in want) > 64  # the lists are not all empty
    assert len(got) == len(want)
    for g, w in zip(got, want, strict=True):
        assert g.dtype == w.dtype and np.array_equal(g, w)
