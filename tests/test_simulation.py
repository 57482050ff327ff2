import io
import math
import os
import re
import subprocess
import sys
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy.stats import binom, binomtest, fisher_exact, ttest_ind

from epscap import ConfigurationError, simulation
from epscap.geometry import (
    cap_fractions,
    per_unit_time_report,
    sample_uniform_ball,
    sample_uniform_ellipsoid,
)
from epscap.params import MIN_SAMPLES, SignalSpaceParams
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
from reference import (
    assert_same_lists,
    cap_fraction,
    decode_error_indicator,
    direct_neighbor_lists,
    per_codeword_lists,
    plain_ball_sample,
    plain_codeword_key,
    plain_decode_error_counts,
    plain_stream_key,
    plain_uniform,
)


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


@pytest.mark.parametrize("radius", [1e-155, 1e150])
def test_codebook_check_holds_where_squares_leave_the_normal_range(radius):
    # at radius 1e-155 the squared coordinates are subnormal and 1/radius^2
    # overflows, so the check must scale before it squares
    radii = np.full(3, radius)
    book = generate_codebook(radii, 2000, seed=4)
    assert np.all(np.abs(book.points) <= radius)
    with pytest.raises(ValueError, match="inside their ellipsoid"):
        Codebook(points=book.points * 1.001 + radius, radii=radii)


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
    # (acos x - x sqrt(1 - x^2))/pi; x = d/(2 eps), and d = x at eps = 0.5.
    # Both the reference and the package's cap_fractions.
    for x in (0.0, 0.1, 0.5, 0.9):
        segment = (math.acos(x) - x * math.sqrt(1.0 - x * x)) / math.pi
        for dim, want in ((1, (1.0 - x) / 2.0), (2, segment)):
            assert cap_fraction(dim, 0.5, x) == pytest.approx(want, rel=1e-12)
            assert cap_fractions(dim, 0.5, [x])[0] == pytest.approx(want, rel=1e-12)
    assert cap_fraction(12, 0.25, 0.5) == 0.0
    assert np.all(cap_fractions(12, 0.25, [0.5, 0.5 * (1.0 + 1e-12), 3.0]) == 0.0)


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
    # both tails at 1e-3: 291 of 304 covered at these seeds
    assert binom.cdf(covered, trials, 0.95) > 1e-3
    assert binom.sf(covered - 1, trials, 0.95) > 1e-3


def overlapping_cluster(dim: int) -> Codebook:
    """Eight codewords close enough (eps = 1) that each has several
    competitors whose caps overlap, and far enough that their shares sum
    to at most 1."""
    radius = 2.2 / math.sqrt(dim + 1) * (1.0 + 1.5 / dim)
    return Codebook(points=plain_ball_sample(dim, radius, np.random.default_rng([3, dim]), 8))


@pytest.mark.parametrize("dim", range(1, 13))
def test_cap_decode_has_the_law_of_the_ball_decode(dim):
    # the cap draw and the one-by-one decode of `samples` uniform draws
    # (reference.plain_decode_error_counts, its definition) must give each
    # codeword counts of one binomial law. Fisher's exact test, two-sided
    # at level 1e-4 per codeword (96 codewords over the 12 dimensions:
    # family-wise at most 1%), on independent streams (seeds 1-12 and
    # 101-112).
    book = overlapping_cluster(dim)
    samples = 20_000
    result = estimate_error_fraction(book, 1.0, samples=samples, seed=dim)
    assert np.all(result.error_fraction_brackets[:, 1] < 1.0)  # every one drawn from its caps
    assert np.any(result.error_fraction_brackets[:, 0] < result.error_fraction_brackets[:, 1])
    counts = np.rint(result.error_fractions * samples).astype(int)
    ball = plain_decode_error_counts(book, np.arange(8), 1.0, samples, dim + 100)
    for got, want in zip(counts, ball, strict=True):
        table = [[got, samples - got], [want, samples - want]]
        assert fisher_exact(table).pvalue > 1e-4, (got, want)


@pytest.mark.parametrize(
    "competitors, lost",
    [
        # all on one side of the codeword: the caps [d/2, 1] nest
        ([0.6, 1.0, 1.4], 0.35),
        # nested on either side; the two sides are disjoint
        ([-1.2, -0.8, 1.0, 1.6], 0.3 + 0.25),
    ],
)
def test_nested_caps_in_one_dimension_lose_the_largest(competitors, lost):
    # at eps = 1 the lost share of the codeword at 0 is (1 - d_min/2)/2 on
    # each side that holds a competitor; exact binomial test, two-sided at
    # level 1e-3
    book = Codebook(points=np.array([[0.0], *([c] for c in competitors)]))
    samples = 100_000
    result = estimate_error_fraction(book, 1.0, samples=samples, seed=8)
    caps = [(1.0 - abs(c) / 2.0) / 2.0 for c in competitors]
    np.testing.assert_allclose(result.error_fraction_brackets[0], [max(caps), sum(caps)])
    assert sum(caps) <= 1.0  # drawn from the caps
    count = round(result.error_fractions[0] * samples)
    assert binomtest(count, samples, lost).pvalue > 1e-3


@pytest.mark.parametrize("dim", [2, 6, 12])
def test_wilson_intervals_meet_the_no_sampling_brackets(dim):
    # each codeword's lost share lies in [largest cap, min(1, sum of caps)],
    # and its 95% Wilson interval at 10^5 trials must reach that bracket
    book = overlapping_cluster(dim)
    result = estimate_error_fraction(book, 1.0, samples=100_000, seed=dim)
    low, high = result.error_fraction_cis.T
    bracket_low, bracket_high = result.error_fraction_brackets.T
    assert np.all((low <= bracket_high) & (bracket_low <= high))
    # the brackets come from the caps alone
    dist = np.linalg.norm(book.points[:, None, :] - book.points[None, :, :], axis=2)
    caps = [[cap_fraction(dim, 1.0, d) for j, d in enumerate(row) if j != i]
            for i, row in enumerate(dist)]
    np.testing.assert_allclose(bracket_low, [max(c) for c in caps], rtol=1e-12)
    np.testing.assert_allclose(bracket_high, [min(1.0, sum(c)) for c in caps], rtol=1e-12)
    assert result.mean_error_bracket == pytest.approx((bracket_low.mean(), bracket_high.mean()))


@pytest.fixture(scope="module")
def book_12d():
    return generate_codebook(np.ones(12), 20_000, seed=12)


@pytest.mark.parametrize("width", [7, 64, 2048, 16384])
def test_neighbour_block_width_changes_no_result(monkeypatch, book_12d, width):
    # the screen's BLAS bits depend on the tile's shape in 12-d, but the
    # settle decides every pair by its direct difference, so every field is
    # the same as with the whole codebook in one tile; 24-row tiles split
    # the 64 evaluated codewords into two full tiles and a short one, and
    # the survivors are settled in runs of `width` pairs
    def run():
        return estimate_error_fraction(book_12d, 0.3, samples=10_000, seed=4, max_eval_codewords=64)

    monkeypatch.setattr(simulation, "_TILE_COLS", book_12d.n_codewords)
    whole = run()
    monkeypatch.setattr(simulation, "_TILE_COLS", width)
    monkeypatch.setattr(simulation, "_TILE_ROWS", 24)
    monkeypatch.setattr(simulation, "BLOCK_DOUBLES", 12 * width)
    got = run()
    assert np.count_nonzero(whole.error_fractions) > 16
    for name, want in vars(whole).items():
        if isinstance(want, np.ndarray):
            assert np.array_equal(getattr(got, name), want), name
        else:
            assert getattr(got, name) == want, name


@pytest.mark.parametrize("budget", [1, 50, 2**20])
def test_decode_runs_and_blocks_change_no_result(monkeypatch, budget):
    # every draw is a function of (stream key, counter), so how the codewords
    # are split into runs of pairs, and their candidates into blocks, decides
    # nothing; the codebook has coincident, S > 1 and cap-drawn codewords.
    # A budget of one double gives runs of one codeword and blocks of one
    # candidate
    rng = np.random.default_rng(31)
    points = sample_uniform_ball(3, 1.0, rng, size=150)
    points[:20] = points[rng.integers(20, 150, size=20)]
    book = Codebook(points=points)
    whole = estimate_error_fraction(book, 0.25, samples=100, seed=9)
    low, high = whole.error_fraction_brackets.T
    assert np.any(low == 1.0) and np.any((high == 1.0) & (low < 1.0)) and np.any(high < 1.0)
    monkeypatch.setattr(simulation, "BLOCK_DOUBLES", budget)
    got = estimate_error_fraction(book, 0.25, samples=100, seed=9)
    for name, want in vars(whole).items():
        if isinstance(want, np.ndarray):
            assert np.array_equal(getattr(got, name), want), name
        else:
            assert getattr(got, name) == want, name


def test_a_neighbour_at_tiny_eps_is_found():
    # at eps << |x| the expansion |x|^2 - 2 x.y + |y|^2 loses about
    # 1e-16 * |x|^2 absolutely, far more than a slack relative to (2*eps)^2;
    # the settle reads the direct difference, so a competitor just inside
    # 2*eps claims its cap, (1 - d/(2*eps))/2 = 6e-9 in 1-d
    eps = 1e-6
    points = np.array([[0.8121], [0.8121 - 2.0 * eps * (1.0 - 1.2e-8)]])
    cols, starts = simulation._neighbor_lists(points, np.arange(2), eps)
    assert [nb.tolist() for nb in per_codeword_lists(cols, starts)] == [[1], [0]]
    result = estimate_error_fraction(Codebook(points=points), eps, samples=100, seed=0)
    d = float(points[0, 0] - points[1, 0])
    share = (1.0 - d / (2.0 * eps)) / 2.0
    assert share == pytest.approx(6e-9, rel=1e-2)
    np.testing.assert_allclose(result.error_fraction_brackets, share, rtol=1e-6)
    assert np.all(result.error_fraction_cis[:, 1] > 0.0)


@pytest.mark.parametrize("eps, x0", [(1e-9, 0.8121), (1e-6, 3.0)])
def test_the_one_by_one_decode_holds_at_tiny_eps(eps, x0):
    # competitors at 0.1, 0.2 and -0.1 eps from the codeword: caps summing
    # to S = 1.4, so the draws are decoded one by one, and a lost share of
    # (1 - 0.1/2)/2 on each side, 0.95. In absolute coordinates the squared
    # distances lose about 1e-16 * |x|^2, more than eps^2 here; the offsets
    # from the codeword lose nothing. Exact binomial test, two-sided at
    # level 1e-3; the definition, by direct differences, gives the same counts
    book = Codebook(points=x0 + eps * np.array([[0.0], [0.1], [0.2], [-0.1]]))
    samples = 100_000
    result = estimate_error_fraction(book, eps, samples=samples, seed=3)
    low, high = result.error_fraction_brackets[0]
    assert low < 1.0 == high  # S > 1, and no competitor coincides
    counts = np.rint(result.error_fractions * samples).astype(int)
    assert binomtest(int(counts[0]), samples, 0.95).pvalue > 1e-3, counts
    assert np.array_equal(counts, plain_decode_error_counts(book, np.arange(4), eps, samples, 3))


def test_neighbour_search_memory_is_a_tile_whatever_is_evaluated():
    # 20,000 evaluated codewords against 20,000: a block of all evaluated
    # rows by 2,048 columns would be 328 MB; the screen's 512 x 256 tile is
    # 1 MB, and the lists themselves (about 11 neighbours each) under 11 MB
    points = sample_uniform_ball(6, 1.0, np.random.default_rng(3), size=20_000)
    eval_idx = np.arange(20_000)
    tracemalloc.start()
    try:
        cols, starts = simulation._neighbor_lists(points, eval_idx, 0.15)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(starts) == 20_001 and starts[-1] == len(cols) > 10 * 20_000
    assert peak < 24 * 2**20, peak


def test_neighbour_search_memory_does_not_grow_with_the_codebook():
    # 512 evaluated codewords against 2^18: the screen's operands, tile and
    # scaled squared norms (2 MB) stay under a fixed budget; a temporary the
    # size of the 25 MB codebook (np.abs(points), say) would not
    points = sample_uniform_ball(12, 1.0, np.random.default_rng(6), size=2**18)
    eval_idx = np.arange(0, 2**18, 512)
    tracemalloc.start()
    try:
        cols, starts = simulation._neighbor_lists(points, eval_idx, 0.25)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert starts[-1] == len(cols) > 512
    assert peak < 8 * 2**20, peak


def test_neighbour_search_memory_is_bounded_where_every_pair_survives_the_screen():
    # at coordinates near 1e-155 the screen's cutoff holds the smallest
    # normal double, which dwarfs every squared distance: all 512 x 4,096
    # pairs survive it (200 MB of offsets if settled at once, a 15 MB peak
    # if a row tile's survivors are held across its products), yet only
    # about one in ten thousand is a neighbour
    book = generate_codebook(np.full(12, 1e-155), 4096, 1)
    eval_idx = np.arange(0, 4096, 8)
    tracemalloc.start()
    try:
        cols, starts = simulation._neighbor_lists(book.points, eval_idx, 2.5e-156)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert_same_lists(
        per_codeword_lists(cols, starts), direct_neighbor_lists(book.points, eval_idx, 2.5e-156)
    )
    assert peak < 8 * 2**20, peak


def criterion_7_config() -> ExperimentConfig:
    """Criterion 7's run: 512 codewords of a 2^18-point code in 12-d."""
    params = SignalSpaceParams(omega=math.pi, t_obs=12.0, energy=1.0, eps=0.25, delta=0.1)
    return ExperimentConfig(params=params, dim_override=12, samples=1000, seed=20260821,
                            max_codewords=2**18, retries=1, max_eval_codewords=512)


def test_criterion_7_estimate_memory_does_not_hold_the_codebook():
    # 512 codewords of a 2^18-point code are evaluated; a run that draws the
    # whole code holds its 25 MB of points, and a search that holds a row
    # tile's screen survivors across its products about 5 MB more
    tracemalloc.start()
    try:
        outcome = run_random_code_experiment(criterion_7_config())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert outcome.n_codewords == 2**18 and len(outcome.result.error_fractions) == 512
    assert peak < 8 * 2**20, peak


def test_criterion_7_neighbour_search_memory_is_a_few_blocks(monkeypatch):
    # the search on criterion 7's neighbourhood (512 evaluated codewords and
    # about 33,000 candidates drawn in their balls) settles each tile's
    # 260-odd survivors at once: beyond its inputs it holds the tile, its
    # operands, the scaled squared norms and the 34,000 neighbours found,
    # not every survivor of a row tile (8.3 MB)
    peaks, search = [], simulation._neighbor_lists

    def traced(points, eval_idx, eps):
        tracemalloc.start()
        try:
            lists = search(points, eval_idx, eps)
            peaks.append((len(points), tracemalloc.get_traced_memory()[1]))
        finally:
            tracemalloc.stop()
        return lists

    monkeypatch.setattr(simulation, "_neighbor_lists", traced)
    run_random_code_experiment(criterion_7_config())
    [(n_points, peak)] = peaks
    assert n_points > 30_000
    assert peak < 4 * 2**20, peak


def test_neighbour_lists_are_the_same_with_blas_threads_free():
    # the screen's BLAS sums in an order that changes with the thread count;
    # the lists in a process with BLAS on one thread and in one with its
    # threads left free are the oracle's
    code = (
        "import sys, numpy as np\n"
        "from epscap import simulation\n"
        "from epscap.geometry import sample_uniform_ball\n"
        "points = sample_uniform_ball(12, 1.0, np.random.default_rng(8), size=20_000)\n"
        "cols, starts = simulation._neighbor_lists(points, np.arange(0, 20_000, 25), 0.35)\n"
        "np.save(sys.stdout.buffer, cols)\n"
        "np.save(sys.stdout.buffer, starts)\n"
    )
    points = sample_uniform_ball(12, 1.0, np.random.default_rng(8), size=20_000)
    want = direct_neighbor_lists(points, np.arange(0, 20_000, 25), 0.35)
    assert sum(len(nb) for nb in want) > 800
    env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
    for threads in ({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}, {}):
        proc = subprocess.run([sys.executable, "-c", code], env=env | threads, capture_output=True)
        assert proc.returncode == 0, proc.stderr.decode()
        out = io.BytesIO(proc.stdout)
        assert_same_lists(per_codeword_lists(np.load(out), np.load(out)), want)


@pytest.mark.parametrize("threads", [1, 3])
def test_a_failed_codeword_stops_the_others(monkeypatch, threads):
    # the same failing estimate on `threads` caller threads at once, as in
    # sweep's row pool: the batch of candidates that fails stops its own
    # caller's decode, each caller's by itself, and no later batch runs
    book = Codebook(points=np.random.default_rng(5).uniform(-1.0, 1.0, size=(120, 2)))
    local = threading.local()
    together = threading.Barrier(threads, timeout=30)
    real = simulation.sample_uniform_caps

    def caps(*args):
        local.batches += 1
        if local.batches == local.failing:
            raise RuntimeError(f"batch {local.failing} fails")
        return real(*args)

    def run(_):
        local.batches, local.failing = 0, 3
        together.wait()  # every caller is inside its estimate at once
        with pytest.raises(RuntimeError, match="batch 3 fails"):
            estimate_error_fraction(book, 0.1, samples=100, seed=1)
        return local.batches

    monkeypatch.setattr(simulation, "BLOCK_DOUBLES", 256)  # many batches per estimate
    monkeypatch.setattr(simulation, "sample_uniform_caps", caps)
    local.batches, local.failing = 0, None
    estimate_error_fraction(book, 0.1, samples=100, seed=1)
    assert local.batches > 30
    with ThreadPoolExecutor(threads) as pool:
        started = list(pool.map(run, range(threads)))
    assert started == [3] * threads


def test_more_threads_than_cores_on_short_switches_give_the_serial_result():
    # eight caller threads switching every microsecond each get the result
    # of the serial call: the decode keeps no state between calls
    points = np.random.default_rng(9).uniform(-1.0, 1.0, size=(200, 3))
    book = Codebook(points=points)
    serial = estimate_error_fraction(book, 0.3, samples=200, seed=4)
    threaded = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [
            threading.Thread(
                target=lambda: threaded.append(
                    estimate_error_fraction(book, 0.3, samples=200, seed=4)
                )
            )
            for _ in range(8)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers) and len(threaded) == 8
    for run in threaded:
        assert np.array_equal(run.error_fractions, serial.error_fractions)
        assert np.array_equal(run.error_fraction_cis, serial.error_fraction_cis)
        assert np.array_equal(run.error_fraction_brackets, serial.error_fraction_brackets)
        assert run.mean_error_ci == serial.mean_error_ci

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


@pytest.mark.parametrize(
    "seed, row, key",
    [
        # splitmix64's first output from state 0
        (0, [0.0], 0xE220A8397B1DCDAF),
        (1, [0.5, -0.25], 0x1F31B2A4F866AE88),
        (2**63 - 1, [1.0, 2.0, 3.0], 0x61CBAFB920F03FAF),
        (7, [-0.0, 1e-300, 5e-324, 1.7976931348623157e308], 0xE625F4B2F57F6BA7),
    ],
)
def test_codeword_keys_are_frozen(seed, row, key):
    # every subsampled artifact's choice of codewords rests on these values
    assert plain_codeword_key(seed, row) == key
    assert simulation._codeword_keys(seed, np.array([row])).tolist() == [key]


@pytest.mark.parametrize(
    "seed, row, counter, uniform",
    [
        (0, [0.0], 0, 0.33805245419550556),
        (1, [0.5, -0.25], 1, 0.018229226914142305),
        (2**63 - 1, [1.0, 2.0, 3.0], 14, 0.7601278319421695),
        (7, [-0.0, 1e-300, 5e-324, 1.7976931348623157e308], 2**40, 0.3648605037524387),
    ],
)
def test_stream_uniforms_are_frozen(seed, row, counter, uniform):
    # every simulated count rests on these values
    assert plain_uniform(plain_stream_key(seed, row), counter) == uniform
    stream = simulation._finalise(simulation._codeword_keys(seed, np.array([row])))
    got = simulation._uniforms(stream, np.array([counter], dtype=np.uint64))
    assert got.tolist() == [uniform]


@pytest.mark.parametrize("trials", [MIN_SAMPLES, 1000, 10_000])
def test_binomial_counts_are_the_binomial_quantiles(trials):
    # inversion by bisection on bdtr gives scipy's quantile function on a
    # grid of uniforms from the stream's smallest value to 1 - 1e-12. Above
    # that the quantile turns on the last bits of a cdf next to 1, where
    # neither is exact: at 1 - 2^-53, trials = 100 and p = 1/2 both read 88,
    # and the exact quantile is 89
    p = np.array([1e-300, 1e-9, 1e-4, 0.003, 0.05, 0.3, 0.5, 0.77, 0.999, 1.0])
    u = np.concatenate([[2.0**-53, 1e-12, 1e-6], np.linspace(0.01, 0.99, 41), [1.0 - 1e-12]])
    uu, pp = (a.ravel() for a in np.meshgrid(u, p))
    got = simulation._binomial_counts(uu, trials, pp)
    assert np.array_equal(got, binom.ppf(uu, trials, pp).astype(int))
    assert np.all(got[pp == 1.0] == trials) and np.all(got[pp == 1e-300] == 0)


def test_decode_memory_does_not_grow_with_samples():
    # the criterion-7 decode: 512 evaluated codewords of a 2^18 x 12
    # codebook. Expanding every (candidate, competitor) pair at once would
    # hold about 60 MB at 10,000 samples and grow with them; the blocks of
    # BLOCK_DOUBLES and the per-codeword arrays stay under a fixed budget
    points = generate_codebook(np.ones(12), 2**18, seed=[20260821, 0]).points
    keys = simulation._codeword_keys(1, points)
    eval_idx = simulation._smallest_keys(keys, points, 512)
    cols, starts = simulation._neighbor_lists(points, eval_idx, 0.25)
    peaks = []
    for samples in (10_000, 30_000):
        tracemalloc.start()
        try:
            counts, brackets = simulation._decode(
                points, eval_idx, cols, starts, keys, 0.25, samples
            )
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert counts.sum() > samples  # the candidates were drawn
        assert np.all(brackets[:, 1] < 1.0)  # and all from the caps
    assert max(peaks) < 6 * 2**20, peaks


@pytest.mark.parametrize(
    "dim, m, repeated",
    [(2, 80, False), (3, 150, True), (5, 120, False), (12, 200, True)],
)
@pytest.mark.parametrize("eps", [0.2, 0.45])
def test_a_subset_estimates_each_codeword_as_the_full_run_does(dim, m, repeated, eps):
    # only the choice of evaluated codewords depends on the subset: each one
    # keeps its stream, competitor order and so its count, interval and bracket
    rng = np.random.default_rng(dim * m)
    points = sample_uniform_ball(dim, 1.0, rng, size=m)
    if repeated:  # a third of the rows are copies of others
        points[: m // 3] = points[rng.integers(m // 3, m, size=m // 3)]
    book = Codebook(points=points)
    full = estimate_error_fraction(book, eps, samples=300, seed=11)
    assert np.array_equal(full.eval_indices, np.arange(m))
    assert not full.to_dict()["subsampled"]
    for k in (1, m // 4, m - 1):
        sub = estimate_error_fraction(book, eps, samples=300, seed=11, max_eval_codewords=k)
        assert sub.to_dict()["subsampled"]
        idx = sub.eval_indices
        assert len(idx) == k and np.all(np.diff(idx) > 0)
        assert np.array_equal(sub.error_fractions, full.error_fractions[idx])
        assert np.array_equal(sub.error_fraction_cis, full.error_fraction_cis[idx])
        assert np.array_equal(sub.error_fraction_brackets, full.error_fraction_brackets[idx])
    assert np.any(full.error_fractions > 0)


def test_the_neighbourhood_draw_has_the_law_of_the_whole_code():
    # ball N = 4, M = 4,096, k = 64 evaluated, eps = 0.15: the evaluated
    # codewords' 2*eps-balls take a share 64 * 0.3^4 = 0.52 of the body.
    # Over 40 seeds a side, the competitors per evaluated codeword and the
    # mean upper bracket of the neighbourhood draw and of the whole code
    # must agree by Welch's t-test, two-sided at level 1e-3 each. (The
    # whole code gives about 26.3 competitors; the draw without its 1/c
    # thinning 37.5, and without its body test 33.1)
    radii, m, k, eps = np.ones(4), 4096, 64, 0.15
    whole, drawn = {"lists": [], "upper": []}, {"lists": [], "upper": []}
    for seed in range(40):
        book = generate_codebook(radii, m, [seed, 0])
        result = estimate_error_fraction(book, eps, MIN_SAMPLES, seed, max_eval_codewords=k)
        cols, starts = simulation._neighbor_lists(book.points, result.eval_indices, eps)
        whole["lists"].append(len(cols) / k)
        whole["upper"].append(result.mean_error_bracket[1])
    share = k * (2 * eps) ** 4
    for seed in range(1000, 1040):
        points, cols, starts = simulation._neighbourhood(radii, m, k, eps, share, [seed, 0])
        result = simulation._random_code_estimate(radii, m, eps, MIN_SAMPLES, seed, 0, k)
        drawn["lists"].append(len(cols) / k)
        drawn["upper"].append(result.mean_error_bracket[1])
    for name in ("lists", "upper"):
        p = ttest_ind(whole[name], drawn[name], equal_var=False).pvalue
        assert p >= 1e-3, (name, np.mean(whole[name]), np.mean(drawn[name]), p)


@pytest.mark.parametrize("seed", [1, 2])
def test_the_neighbourhood_draw_lists_each_evaluated_codewords_competitors(seed):
    # the lists, renumbered onto the kept points, are the direct-difference
    # oracle's on them; the evaluated codewords lead, and every other point
    # lies in the body and within 2*eps of one of them
    radii, eps = np.array([1.0, 0.8, 0.6, 0.9, 0.7]), 0.15
    share = 48 * (2 * eps) ** 5 / np.prod(radii)  # 0.39
    points, cols, starts = simulation._neighbourhood(radii, 8192, 48, eps, share, [seed, 0])
    assert np.array_equal(points[:48], generate_codebook(radii, 48, [seed, 0]).points)
    lists = direct_neighbor_lists(points, np.arange(48), eps)
    assert_same_lists(per_codeword_lists(cols, starts), lists)
    near = np.concatenate(lists)
    assert np.array_equal(np.unique(near[near >= 48]), np.arange(48, len(points)))
    assert Codebook(points=points, radii=radii).n_codewords == len(points) > 1000


@pytest.mark.parametrize(
    "dim, m, max_eval, drawn",
    [
        (3, 1024, 512, 1024),  # the 2*eps-balls would take 13.8 bodies
        (4, 2048, None, 2048),  # every codeword is evaluated
        (4, 2048, 2048, 2048),
        (4, 2048, 64, 64),  # a share of 0.52: only the neighbourhood
    ],
)
def test_only_a_subsampled_run_with_a_share_of_at_most_one_draws_the_neighbourhood(
    monkeypatch, dim, m, max_eval, drawn
):
    calls = []
    real = simulation.generate_codebook
    monkeypatch.setattr(
        simulation, "generate_codebook", lambda radii, n, seed: calls.append(n) or real(radii, n, seed)
    )
    result = simulation._random_code_estimate(np.ones(dim), m, 0.15, MIN_SAMPLES, 7, 0, max_eval)
    assert calls == [drawn]
    assert result.n_codewords == m
    assert len(result.error_fractions) == min(m, max_eval or m)
    if drawn < m:
        assert np.array_equal(result.eval_indices, np.arange(drawn))
    else:  # the whole code's estimate, field for field
        book = real(np.ones(dim), m, [7, 0])
        whole = estimate_error_fraction(book, 0.15, MIN_SAMPLES, 7, max_eval_codewords=max_eval)
        for key, value in vars(whole).items():
            assert np.array_equal(getattr(result, key), value), key


@pytest.mark.parametrize(
    "points, radii, message",
    [
        (np.zeros((0, 3)), None, "points must form a nonempty (M, N) array"),
        (np.zeros((2, 2, 2)), None, "points must form a nonempty (M, N) array"),
        ([[0.0, math.nan]], None, "codebook points must be finite"),
        ([[math.inf, 0.0]], None, "codebook points must be finite"),
        (np.zeros((2, 3)), np.ones(2), "radii shape (2,) does not match point dimension 3"),
    ],
)
def test_codebook_refuses_points_it_cannot_hold(points, radii, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        Codebook(points=points, radii=radii)


def test_a_size_past_2_to_the_62_saturates_there():
    assert simulation._floor_pow2_exponent(61.0) == 2**61
    for log2_size in (62.0, 70.0, 1200.0):
        assert simulation._floor_pow2_exponent(log2_size) == 2**62
    # 12 s at 100 bits/s is 2^1200 codewords, past a double: the size
    # saturates, and max_codewords then sizes the codebook
    params = SignalSpaceParams(omega=math.pi, t_obs=12.0, energy=1.0, eps=0.25, delta=0.1)
    outcome = run_random_code_experiment(
        ExperimentConfig(params=params, rate=100.0, samples=MIN_SAMPLES, max_codewords=64)
    )
    assert outcome.log2_target_size == 1200.0
    assert outcome.capped and outcome.n_codewords == 64


def test_estimate_rejects_few_samples():
    book = Codebook(points=np.zeros((2, 2)))
    with pytest.raises(ConfigurationError):
        estimate_error_fraction(book, 0.5, samples=10, seed=0)


def test_estimate_verdict_against_target():
    pts = np.array([[0.0, 0.0], [10.0, 0.0]])
    res = estimate_error_fraction(Codebook(points=pts), 1.0, samples=200, seed=0)
    assert res.verdict is None and res.target_delta is None
    assert res.judged(0.1).verdict is True
    assert res.judged(0.1).target_delta == 0.1
    pts = np.array([[0.0], [0.0]])
    res = estimate_error_fraction(Codebook(points=pts), 1.0, samples=200, seed=0)
    assert res.judged(0.5).verdict is False
    assert res.judged(None).verdict is None


@pytest.mark.parametrize("target", [0.0, 1.0, math.nan])
def test_verdict_refuses_a_target_outside_the_unit_interval(target):
    res = estimate_error_fraction(Codebook(points=np.zeros((2, 1))), 1.0, samples=200, seed=0)
    with pytest.raises(ValueError, match="target_delta must lie in \\(0, 1\\)"):
        res.judged(target)


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


def test_experiment_refuses_another_window_before_reading_its_dimension(spec_t10):
    # at eps = 1e-8 the degrees of freedom would be refused for the spectral
    # resolution floor, which is also a ConfigurationError: match the message
    params = SignalSpaceParams(omega=math.pi, t_obs=40.0, energy=1.0, eps=1e-8, delta=0.1)
    config = ExperimentConfig(params=params, samples=100)
    with pytest.raises(ConfigurationError, match="different omega/t_obs"):
        run_random_code_experiment(config, spec_t10)


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
    for windows in ([-8, 12], [0, 12]):
        with pytest.raises(ValueError, match="t_values must be positive"):
            empirical_exponent_sweep(params, rate=1.0, t_values=windows, seed=0)


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


def _outcome_record(outcome):
    """An outcome's fields with every array as a list, for equality."""
    record = outcome.to_dict()
    record["result"] = {
        key: value.tolist() if isinstance(value, np.ndarray) else value
        for key, value in record["result"].items()
    }
    return record


def test_twins_whose_verdicts_differ_match_their_unshared_runs(spec_t10, monkeypatch):
    # with the size fixed, delta only judges the estimate: one memo shares
    # attempt 0, the row it fails retries on new keys, and each row is what
    # it is without the memo
    def config(delta):
        params = SignalSpaceParams(omega=math.pi, t_obs=10.0, energy=1.0, eps=0.35, delta=delta)
        return ExperimentConfig(params=params, n_codewords=256, samples=200, seed=3,
                                max_eval_codewords=64)

    first = run_random_code_experiment(config(0.5), spec_t10)
    assert first.attempts == 1
    high = first.result.mean_error_ci[1]
    deltas = (high / 2, 0.5)  # attempt 0 fails the first and passes the second
    unshared = [_outcome_record(run_random_code_experiment(config(d), spec_t10)) for d in deltas]
    assert unshared[0]["attempts"] > 1 and unshared[1]["attempts"] == 1

    drawn = []
    real = simulation.generate_codebook
    monkeypatch.setattr(
        simulation, "generate_codebook", lambda *args: drawn.append(args[2]) or real(*args)
    )
    memo = {}
    shared = [_outcome_record(run_random_code_experiment(config(d), spec_t10, memo))
              for d in deltas]
    assert shared == unshared
    # attempt 0 is drawn once for both rows
    assert drawn == [[3, attempt] for attempt in range(unshared[0]["attempts"])]
    assert len(memo) == unshared[0]["attempts"]


def test_a_shared_estimate_that_raises_reaches_every_waiter(monkeypatch):
    # the row computing a key fails after its twin has begun to wait on it:
    # both see the error, and the estimate ran once
    calls = []
    started = threading.Event()

    def estimate(*args, **kwargs):
        calls.append(threading.get_ident())
        started.set()
        time.sleep(0.2)
        raise FloatingPointError("estimate failed")

    monkeypatch.setattr(simulation, "estimate_error_fraction", estimate)

    def run(delta):
        params = SignalSpaceParams(omega=math.pi, t_obs=6.0, energy=1.0, eps=0.35, delta=delta)
        config = ExperimentConfig(params=params, n_codewords=16, samples=200, seed=1)
        if delta == 0.2:
            assert started.wait(5)
        return run_random_code_experiment(config, None, memo)

    memo = {}
    with ThreadPoolExecutor(max_workers=2) as pool:
        futures = [pool.submit(run, delta) for delta in (0.1, 0.2)]
        for future in futures:
            with pytest.raises(FloatingPointError, match="estimate failed"):
                future.result(timeout=30)
    assert len(calls) == 1


def test_shared_estimates_are_computed_once_under_thread_switching():
    # more threads than cores ask for the same few keys while the interpreter
    # switches threads as often as it can: each key is computed once, and
    # every caller gets that one result
    computed = []
    results = {}

    def compute(key):
        computed.append(key)
        time.sleep(0.001)
        return object()

    def ask(worker):
        for i in range(200):
            key = (worker + i) % 13
            got = simulation._shared(memo, key, lambda: compute(key))
            assert results.setdefault(key, got) is got

    memo = {}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(ask, worker) for worker in range(8)]
            for future in futures:
                future.result(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert sorted(computed) == list(range(13))
