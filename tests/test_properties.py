"""Property-based checks of the spectrum, the bound reports and the tables that read them,
and of the packing and Monte Carlo hot paths against their one-at-a-time definitions."""

import dataclasses
import math
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from epscap import build_spectrum, finite_reports, geometry, simulation
from epscap.comparison import comparison_table
from epscap.geometry import (
    Ellipsoid,
    cap_fractions,
    entropy_eps_bounds,
    greedy_pack,
    per_unit_time_report,
    row_square_sums,
    sample_uniform_ball,
)
from epscap.params import SignalSpaceParams
from epscap.simulation import Codebook, error_exponent, estimate_error_fraction
from reference import (
    assert_same_lists,
    cap_fraction,
    direct_neighbor_lists,
    formula_neighbor_lists,
    per_codeword_lists,
    plain_ball_sample,
    plain_codeword_key,
    plain_decode_error_counts,
    plain_greedy_pack,
    plain_stream_key,
    plain_uniform,
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
        interval = (row.deterministic_lower_bits_per_s, row.deterministic_upper_bits_per_s)
        assert interval == (reports[key].lower_rate, reports[key].upper_rate)
    assert lattice.deterministic_upper_bits_per_s == reports["capacity_eps_delta"].upper_rate


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
    base_index, index = base.eval_indices, shuffled.eval_indices
    rows = np.searchsorted(base_index, perm[index])
    assert np.array_equal(base_index[rows], perm[index])
    assert np.array_equal(shuffled.error_fractions, base.error_fractions[rows])
    assert np.array_equal(shuffled.error_fraction_cis, base.error_fraction_cis[rows])
    assert shuffled.mean_error_fraction == base.mean_error_fraction
    assert shuffled.mean_error_ci == base.mean_error_ci


# --- the blocked hot paths against their one-at-a-time definitions ---

SEED = st.integers(min_value=0, max_value=2**32 - 1)


def row_block(rows):
    """geometry's row block, patched to rows."""
    return mock.patch.object(geometry, "ROW_BLOCK", rows)


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


def test_ball_sampler_bits_hold_across_row_blocks():
    # 20,000 rows span three of geometry's 8,192-row blocks
    got = sample_uniform_ball(12, 0.7, np.random.default_rng(5), size=20_000)
    assert np.array_equal(got, plain_ball_sample(12, 0.7, np.random.default_rng(5), 20_000))


@settings(max_examples=150, deadline=None)
@given(
    dim=st.integers(min_value=1, max_value=12),
    rows=st.integers(min_value=0, max_value=40),
    block=st.integers(min_value=1, max_value=9),
    seed=SEED,
)
def test_row_square_sums_are_the_one_shot_sums_in_any_block(dim, rows, block, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((rows, dim)) * 10.0 ** rng.integers(-3, 4, size=dim)
    want = np.sum(x**2, axis=1)
    with row_block(block):
        assert len(list(geometry.row_blocks(rows))) == -(-rows // block)
        assert np.array_equal(row_square_sums(x), want)


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


TILE = st.integers(min_value=1, max_value=40)


def tiles(rows, cols):
    """The neighbour screen's tile, patched to rows x cols."""
    return mock.patch.multiple(simulation, _TILE_ROWS=rows, _TILE_COLS=cols)


def neighbor_lists(points, eval_idx, eps):
    """The neighbour search's flat pairs, one list per evaluated codeword."""
    return per_codeword_lists(*simulation._neighbor_lists(points, eval_idx, eps))


def eval_subsets(m):
    return st.sets(st.integers(min_value=0, max_value=m - 1), min_size=1).map(
        lambda s: np.array(sorted(s))
    )


@settings(max_examples=300, deadline=None)
@given(book=small_codebooks(), rows=TILE, cols=TILE, data=st.data())
def test_neighbor_lists_are_the_direct_difference_oracle(book, rows, cols, data):
    points, eps = book
    eval_idx = data.draw(eval_subsets(len(points)))
    with tiles(rows, cols):
        got = neighbor_lists(points, eval_idx, eps)
    assert_same_lists(got, direct_neighbor_lists(points, eval_idx, eps))


@pytest.mark.parametrize(
    "scale, eps",
    [(1e-160, 1e-162), (1e-160, 1e-170), (1e200, 1e150), (1e200, 1.0)],
)
def test_neighbor_lists_are_the_oracle_where_squares_leave_the_normal_range(scale, eps):
    # subnormal squares carry an absolute roundoff that a margin relative
    # to the codebook does not cover; overflowing ones make the screen NaN
    # or infinite, and such pairs go on to the settle
    rng = np.random.default_rng(2)
    points = rng.uniform(-scale, scale, size=(60, 2))
    points[1::3] = points[::3] + rng.uniform(-eps, eps, size=(20, 2))
    eval_idx = np.arange(0, 60, 2)
    with np.errstate(over="ignore", under="ignore", invalid="ignore"), tiles(7, 9):
        got = neighbor_lists(points, eval_idx, eps)
        want = direct_neighbor_lists(points, eval_idx, eps)
    assert any(len(w) for w in want)
    assert_same_lists(got, want)


@pytest.mark.parametrize("scale, eps", [(1.0, 2.0**-10), (1e-160, 1e-153), (1e200, 1e150)])
def test_pairs_one_float32_step_inside_the_cutoff_are_kept(scale, eps):
    # 64 pairs at norm 128 eps, each at a squared distance one float32 step
    # of its |x|^2 + |y|^2 inside (2*eps)^2, among codewords spread over
    # +-scale. At scale 1 the float32 screen puts some of them past the
    # cutoff (by one such step), and only its margin keeps them. At 1e-160
    # the pairs set the prescale, and at 1e200 the spread does: without it
    # the spread's float32 squares would overflow
    rng = np.random.default_rng(4)
    unit = rng.standard_normal((2, 64, 3))
    unit /= np.linalg.norm(unit, axis=2, keepdims=True)
    near = 128.0 * eps * unit[0]
    sums = 2.0 * np.einsum("ij,ij->i", near, near)
    # one float32 step at sums, in sums' own units: 2^-23 of its power of two
    steps = np.ldexp(1.0, np.frexp(sums)[1] - 24)
    partners = near + np.sqrt((2.0 * eps) ** 2 - steps)[:, None] * unit[1]
    spread = rng.uniform(-scale, scale, size=(60, 3))
    points = np.concatenate([spread, near, partners])
    eval_idx = np.arange(60, 124)
    with np.errstate(under="ignore"):
        got = neighbor_lists(points, eval_idx, eps)
        want = direct_neighbor_lists(points, eval_idx, eps)
    assert all(i + 64 in w for i, w in zip(eval_idx, want))
    assert_same_lists(got, want)


def assert_differ_only_by_empty_caps(points, eval_idx, eps, got, other):
    """Every competitor in one list and not the other claims a cap of
    exactly 0 of the codeword's noise ball, by the decode's own distance."""
    dim = points.shape[1]
    for i, g, o in zip(eval_idx, got, other, strict=True):
        extra = np.setxor1d(g, o)
        offsets = points[extra] - points[i]
        dist = np.sqrt(np.einsum("ij,ij->i", offsets, offsets))
        assert np.all(cap_fractions(dim, eps, dist) == 0.0), (i, extra)


@settings(max_examples=300, deadline=None)
@given(book=small_codebooks(), chunk=TILE, data=st.data())
def test_formula_lists_differ_only_by_empty_caps(book, chunk, data):
    # the rule the dense search kept before the settle, |x|^2 - 2 x.y +
    # |y|^2 within a relative slack of (2*eps)^2, differs from the settled
    # lists only by competitors the decode never draws from or counts as
    # closer: why the settle leaves every output byte the same at these
    # scales
    points, eps = book
    eval_idx = data.draw(eval_subsets(len(points)))
    got = neighbor_lists(points, eval_idx, eps)
    other = formula_neighbor_lists(points, eval_idx, eps, chunk)
    assert_differ_only_by_empty_caps(points, eval_idx, eps, got, other)


@settings(max_examples=300, deadline=None)
@given(
    seed=SEED,
    m=st.integers(min_value=1, max_value=60),
    dim=st.integers(min_value=1, max_value=3),
    scale=st.sampled_from([1, 2**63]),
    data=st.data(),
)
def test_evaluated_subset_is_the_smallest_keys_then_bytes(seed, m, dim, scale, data):
    # keys of 0 or `scale`, so that they tie often; rows of 0/1 bytes that
    # repeat, share a leading run of bytes with row 0 (so that some differ
    # only in trailing bytes) and often end in zero bytes
    rng = np.random.default_rng(seed)
    raw = rng.integers(0, 2, size=(m, 8 * dim), dtype=np.uint8)
    shared = rng.integers(0, 8 * dim + 1)
    raw[:, :shared] = raw[0, :shared]
    points = raw[rng.integers(0, m, size=m)].view("<f8")
    keys = rng.integers(0, 2, size=m).astype(np.uint64) * np.uint64(scale)
    k = data.draw(st.integers(min_value=1, max_value=m))
    # Python's sort is stable: equal (key, bytes) stay in index order
    order = sorted(range(m), key=lambda i: (int(keys[i]), points[i].tobytes()))
    want = np.sort(order[:k])
    assert np.array_equal(simulation._smallest_keys(keys, points, k), want)


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**63 - 1),
    m=st.integers(min_value=1, max_value=30),
    dim=st.integers(min_value=1, max_value=4),
    block=st.integers(min_value=1, max_value=9),
)
def test_codeword_keys_are_the_plain_fold_in_any_block(seed, m, dim, block):
    points = np.random.default_rng(seed % 2**32).uniform(-1.0, 1.0, size=(m, dim))
    want = [plain_codeword_key(seed, row) for row in points]
    with row_block(block):
        assert simulation._codeword_keys(seed, points).tolist() == want
    assert simulation._codeword_keys(seed, points).tolist() == want
    streams = simulation._finalise(simulation._codeword_keys(seed, points))
    assert streams.tolist() == [plain_stream_key(seed, row) for row in points]


WORD = st.integers(min_value=0, max_value=2**64 - 1)


@settings(max_examples=200, deadline=None)
@given(
    keys=st.lists(
        st.one_of(WORD, st.integers(min_value=2**64 - 2**16, max_value=2**64 - 1)),
        min_size=1,
        max_size=6,
    ),
    counters=st.lists(st.one_of(st.integers(min_value=0, max_value=2**20), WORD), max_size=6),
)
def test_stream_uniforms_are_the_plain_splitmix64(keys, counters):
    # numpy's uint64 arithmetic wraps where the oracle's Python integers are
    # reduced mod 2^64, stream keys near 2^64 - 1 included; every value lies
    # strictly inside (0, 1)
    got = simulation._uniforms(
        np.array(keys, dtype=np.uint64)[:, None], np.array(counters, dtype=np.uint64)
    )
    assert got.tolist() == [[plain_uniform(k, c) for c in counters] for k in keys]
    assert np.all((0.0 < got) & (got < 1.0))


def competitor_caps(points, eval_idx, eps):
    """Per evaluated codeword: whether a competitor coincides with it, and
    the largest and the sum S of the caps its competitors claim
    (reference.cap_fraction)."""
    dim = points.shape[1]
    coincident, largest, totals = [], [], []
    for i, nb in zip(eval_idx, direct_neighbor_lists(points, eval_idx, eps), strict=True):
        dist = np.linalg.norm(points[nb] - points[i], axis=1)
        caps = [cap_fraction(dim, eps, float(d)) for d in dist]
        coincident.append(bool(np.any(dist == 0.0)))
        largest.append(max(caps, default=0.0))
        totals.append(math.fsum(caps))
    return np.array(coincident, dtype=bool), np.array(largest), np.array(totals)


@settings(max_examples=200, deadline=None)
@given(
    book=small_codebooks(),
    seed=SEED,
    max_eval=st.one_of(st.none(), st.integers(min_value=1, max_value=30)),
    rows=TILE,
    cols=TILE,
)
def test_error_counts_are_the_per_codeword_decode(book, seed, max_eval, rows, cols):
    # where the caps' shares sum past 1 (beyond a roundoff margin) or a
    # competitor coincides, the count is the one-by-one decode, bit for bit;
    # where every cap is empty it is an exact zero. The codewords between
    # are drawn from the caps: test_cap_decode_has_the_law_of_the_ball_decode
    points, eps = book
    codebook = Codebook(points=points)
    samples = 100
    with tiles(rows, cols):
        result = estimate_error_fraction(
            codebook, eps, samples=samples, seed=seed, max_eval_codewords=max_eval
        )
    eval_idx = result.eval_indices
    counts = plain_decode_error_counts(codebook, eval_idx, eps, samples, seed)
    coincident, largest, totals = competitor_caps(points, eval_idx, eps)
    exact = coincident | (totals > 1.0 + 1e-9)
    assert np.array_equal(result.error_fractions[exact], counts[exact] / samples)
    # a coincident codeword ties every draw, and a tie is an error
    assert np.all(result.error_fractions[coincident] == 1.0)
    assert np.all(result.error_fraction_brackets[coincident] == 1.0)
    empty = ~coincident & (totals == 0.0)
    assert np.all(result.error_fractions[empty] == 0.0) and np.all(counts[empty] == 0)
    # the bracket is [largest cap, min(1, S)]; an exact zero has the interval (0, 0)
    want = np.stack([largest, np.minimum(1.0, totals)], axis=1)[~coincident]
    np.testing.assert_allclose(result.error_fraction_brackets[~coincident], want, atol=1e-12)
    zero = result.error_fraction_brackets[:, 1] == 0.0
    assert np.all(result.error_fractions[zero] == 0.0)
    assert np.all(result.error_fraction_cis[zero] == 0.0)


@st.composite
def books_with_blocks(draw):
    """(points, eps, cols): a small codebook with a neighbour-free codeword
    and a coincident pair, and a tile width that leaves at least two full
    tiles and a short tail."""
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
    rows=TILE,
)
def test_error_fractions_are_the_same_on_any_number_of_threads(book, seed, max_eval, rows):
    # the same estimate on 1, 2 and 3 caller threads at once, as sweep's
    # row pool runs its rows, gives every thread the serial result
    points, eps, cols = book
    codebook = Codebook(points=points)
    samples = 100

    def estimate(_):
        return estimate_error_fraction(
            codebook, eps, samples=samples, seed=seed, max_eval_codewords=max_eval
        )

    with tiles(rows, cols):
        serial = estimate(None)
        runs = []
        for threads in (1, 2, 3):
            with ThreadPoolExecutor(threads) as pool:
                runs.extend(pool.map(estimate, range(threads)))
    for run in runs:
        for field in dataclasses.fields(run):
            got, want = getattr(run, field.name), getattr(serial, field.name)
            if isinstance(want, np.ndarray):
                assert got.dtype == want.dtype and np.array_equal(got, want)
            else:
                assert got == want
    # where the decode is one by one, it is the definition's, bit for bit
    eval_idx = serial.eval_indices
    counts = plain_decode_error_counts(codebook, eval_idx, eps, samples, seed)
    coincident, _, totals = competitor_caps(points, eval_idx, eps)
    exact = coincident | (totals > 1.0 + 1e-9)
    assert np.array_equal(serial.error_fractions[exact], counts[exact] / samples)


def test_criterion7_sized_neighbor_lists_are_the_oracle():
    # a 2^18 x 12 codebook: 1,024 full tiles of the screen, whose BLAS bits
    # depend on the tile shape in 12-d, must give the oracle's lists; the
    # 2,048-column formula lists differ from them by empty caps at most
    rng = np.random.default_rng(12)
    m = 2**18
    points = sample_uniform_ball(12, 1.0, rng, size=m)
    eval_idx = np.sort(rng.choice(m, size=64, replace=False))
    got = neighbor_lists(points, eval_idx, 0.25)
    want = direct_neighbor_lists(points, eval_idx, 0.25)
    assert sum(len(w) for w in want) > 64  # the lists are not all empty
    assert_same_lists(got, want)
    other = formula_neighbor_lists(points, eval_idx, 0.25, 2048)
    assert_differ_only_by_empty_caps(points, eval_idx, 0.25, got, other)
