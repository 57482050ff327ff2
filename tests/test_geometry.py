import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import binomtest, ks_2samp

from epscap import ConfigurationError, finite_reports
from epscap.geometry import (
    BoundReport,
    _pack_candidates,
    _pair_square_sums,
    Ellipsoid,
    capacity_2eps_bounds,
    cap_fractions,
    capacity_eps_delta_bounds,
    covering_overhead,
    entropy_eps_bounds,
    greedy_pack,
    log_ball_volume,
    oracle_cover_interval,
    oracle_pack_interval,
    per_unit_time_report,
    sample_uniform_caps,
    sample_uniform_ellipsoid,
    screen_margin,
)
from epscap.params import SignalSpaceParams
from reference import (
    cap_fraction,
    log_ellipsoid_volume,
    plain_ball_sample,
    plain_greedy_pack,
    sequential_pack_count,
    verify_pairwise_distance_inequality,
)

STRICT_GAP_THRESHOLD = math.sqrt(2.0) / (math.sqrt(2.0) - 1.0)


def brute_force_pack_interval(radius: float, eps: float) -> int:
    """Greedy sweep over a grid of step eps/100; optimal in one dimension."""
    step = eps / 100.0
    count = 0
    x = -radius
    while x <= radius + 1e-12 * radius:
        count += 1
        x += 2.0 * eps  # exact multiple of the grid step
    return count


def brute_force_cover_interval(radius: float, eps: float) -> int:
    step = eps / 100.0
    count = 0
    covered_up_to = -radius
    while covered_up_to < radius - 1e-12 * radius:
        # snap the next center down to the grid; its ball reaches center+eps
        center = math.floor((covered_up_to + eps) / step) * step
        covered_up_to = center + eps
        count += 1
    return count


def test_log_ball_volume_known_values():
    assert log_ball_volume(1, 1.0) == pytest.approx(1.0, abs=1e-12)
    assert log_ball_volume(2, 1.0) == pytest.approx(math.log2(math.pi), abs=1e-12)
    assert log_ball_volume(3, 1.0) == pytest.approx(
        math.log2(4.0 * math.pi / 3.0), abs=1e-12
    )
    # radius scaling adds dim*log2(r)
    assert log_ball_volume(3, 2.0) - log_ball_volume(3, 1.0) == pytest.approx(3.0)


def test_log_ellipsoid_volume_matches_radii_product():
    radii = np.array([2.0, 0.5, 1.25])
    expected = log_ball_volume(3, 1.0) + np.sum(np.log2(radii))
    assert log_ellipsoid_volume(Ellipsoid(radii)) == pytest.approx(expected, abs=1e-12)


def test_ellipsoid_validation():
    with pytest.raises(ValueError):
        Ellipsoid(np.array([1.0, -0.5]))
    with pytest.raises(ValueError):
        Ellipsoid(np.array([]))


def test_ellipsoid_from_spectrum(spec_t10):
    body = Ellipsoid.from_spectrum(spec_t10, 4.0, 6)
    np.testing.assert_allclose(body.radii, 2.0 * np.sqrt(spec_t10.lambdas[:6]))


def test_capacity_2eps_bounds_frozen():
    lower, upper = capacity_2eps_bounds(20, 1.0, 1.0, 0.125)
    assert lower == pytest.approx(40.0, abs=1e-12)
    assert upper == pytest.approx(58.15624324022133, rel=1e-12)
    # the lower bound clamps at zero once zeta*s drops under 2
    lower, _ = capacity_2eps_bounds(20, 1.0, 1.0, 0.9)
    assert lower == 0.0


def test_capacity_eps_delta_bounds_frozen():
    lower, upper = capacity_eps_delta_bounds(20, 1.0, 1.0, 0.125, 0.1)
    assert lower == pytest.approx(56.67807190511264, rel=1e-12)
    assert upper == pytest.approx(63.550503122291296, rel=1e-12)


def test_capacity_eps_delta_bounds_delta_domain():
    for bad in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(ValueError):
            capacity_eps_delta_bounds(10, 1.0, 1.0, 0.1, bad)


def test_entropy_bounds_frozen():
    lower, upper, valid = entropy_eps_bounds(20, 1.0, 1.0, 0.125)
    assert lower == pytest.approx(60.0, abs=1e-12)
    assert upper == pytest.approx(75.83659417857834, rel=1e-12)
    assert valid is False  # s = 8 exceeds 20/ln(20)
    lower, upper, valid = entropy_eps_bounds(64, 1.0, 1.0, 0.125)
    assert lower == pytest.approx(192.0, abs=1e-12)
    assert upper == pytest.approx(211.3886060538942, rel=1e-12)
    assert valid is True


def test_covering_overhead_domain():
    assert math.isnan(covering_overhead(7))
    assert covering_overhead(8) == pytest.approx(15.65285373768504, rel=1e-12)
    assert covering_overhead(20) == pytest.approx(15.836594178578332, rel=1e-12)
    with pytest.raises(ValueError):
        covering_overhead(0)


@pytest.mark.parametrize("zeta", [0.0, -0.5, 1.5, math.nan])
def test_bounds_refuse_a_zeta_outside_the_unit_interval(zeta):
    message = re.escape(f"zeta_value must lie in (0, 1], got {zeta}")
    with pytest.raises(ValueError, match=message):
        capacity_2eps_bounds(8, zeta, 1.0, 0.1)
    with pytest.raises(ValueError, match=message):
        capacity_eps_delta_bounds(8, zeta, 1.0, 0.1, 0.1)
    with pytest.raises(ValueError, match=message):
        entropy_eps_bounds(8, zeta, 1.0, 0.1)


def test_bound_report_rejects_inverted_bounds():
    with pytest.raises(ValueError):
        BoundReport(
            quantity="capacity_2eps",
            lower_bits=10.0,
            upper_bits=5.0,
            lower_rate=1.0,
            upper_rate=2.0,
            n_dim=4,
            zeta_value=1.0,
        )


def test_finite_reports_keys_and_order():
    params = SignalSpaceParams(omega=math.pi, t_obs=20.0, energy=1.0, eps=0.125, delta=0.1)
    reports = finite_reports(params, n_dim=20)
    assert set(reports) == {"capacity_2eps", "capacity_eps_delta", "entropy_eps"}
    for report in reports.values():
        if report.upper_bits is not None and not math.isnan(report.upper_bits):
            assert report.lower_bits <= report.upper_bits + 1e-9
        assert report.lower_rate <= report.upper_rate + 1e-12
        assert report.to_dict()["quantity"] == report.quantity


def test_finite_reports_delta_zero_has_no_eps_delta_bits():
    params = SignalSpaceParams(omega=math.pi, t_obs=20.0, energy=1.0, eps=0.125)
    reports = finite_reports(params, n_dim=20)
    assert reports["capacity_eps_delta"].lower_bits is None
    assert any("delta" in note for note in reports["capacity_eps_delta"].notes)


def test_per_unit_time_entropy_rate_is_exact():
    params = SignalSpaceParams(omega=math.pi, t_obs=20.0, energy=1.0, eps=0.25, delta=0.1)
    report = per_unit_time_report(params)["entropy_eps"]
    expected = math.log2(params.sqrt_snr)
    assert report.lower_rate == pytest.approx(expected, rel=1e-12)
    assert report.upper_rate == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("omega, t_obs", [(math.pi, 40.0), (2.0 * math.pi, 10.0)])
def test_reports_refuse_a_spectrum_of_another_window(spec_t10, omega, t_obs):
    params = SignalSpaceParams(omega=omega, t_obs=t_obs, energy=1.0, eps=0.25, delta=0.1)
    with pytest.raises(ConfigurationError, match="different omega/t_obs"):
        per_unit_time_report(params, spec_t10)


def test_reports_take_a_spectrum_of_their_own_window(spec_t10):
    params = SignalSpaceParams(omega=math.pi, t_obs=10.0 + 1e-10, energy=1.0, eps=0.25)
    assert per_unit_time_report(params, spec_t10)["capacity_2eps"].zeta_value < 1.0


def test_rate_ordering_random_grid():
    rng = np.random.default_rng(777)
    for _ in range(200):
        snr = 10.0 ** rng.uniform(math.log10(1.1), 4.0)
        delta = rng.choice([0.01, 0.1, 0.5])
        omega = rng.uniform(0.3, 8.0)
        params = SignalSpaceParams(
            omega=omega, t_obs=10.0, energy=1.0, eps=snr**-0.5, delta=float(delta)
        )
        reports = per_unit_time_report(params)
        r = omega / math.pi
        h = reports["entropy_eps"].lower_rate
        assert h == pytest.approx(r * math.log2(math.sqrt(snr)), rel=1e-12, abs=1e-12)
        assert reports["capacity_2eps"].lower_rate <= h + 1e-12
        assert h <= reports["capacity_eps_delta"].upper_rate + 1e-12


def test_strict_gap_threshold():
    # above sqrt(2)/(sqrt(2)-1) the eps-delta lower rate beats the 2eps upper
    for s in np.linspace(STRICT_GAP_THRESHOLD * 1.01, 200.0, 25):
        params = SignalSpaceParams(
            omega=math.pi, t_obs=10.0, energy=1.0, eps=1.0 / s, delta=0.1
        )
        reports = per_unit_time_report(params)
        assert (
            reports["capacity_eps_delta"].lower_rate
            > reports["capacity_2eps"].upper_rate
        )
    for s in np.linspace(1.05, STRICT_GAP_THRESHOLD * 0.999, 25):
        params = SignalSpaceParams(
            omega=math.pi, t_obs=10.0, energy=1.0, eps=1.0 / s, delta=0.1
        )
        reports = per_unit_time_report(params)
        assert (
            reports["capacity_eps_delta"].lower_rate
            <= reports["capacity_2eps"].upper_rate + 1e-12
        )


def test_pairwise_distance_inequality_on_random_clouds():
    rng = np.random.default_rng(9241)
    for _ in range(1000):
        dim = int(rng.integers(1, 9))
        m = int(rng.integers(2, 12))
        points = rng.normal(size=(m, dim)) * rng.uniform(0.1, 5.0)
        center = points.mean(axis=0)
        holds, slack = verify_pairwise_distance_inequality(center, points)
        assert holds
        # at the centroid the inequality is tight
        assert abs(slack) <= 1e-9 * max(1.0, float(np.sum((points - center) ** 2)))
        shifted = center + rng.normal(size=dim)
        holds2, slack2 = verify_pairwise_distance_inequality(shifted, points)
        assert holds2
        assert slack2 >= slack - 1e-9


def test_pairwise_distance_inequality_dimension_mismatch():
    with pytest.raises(ValueError):
        verify_pairwise_distance_inequality(np.zeros(2), np.zeros((3, 4)))


def test_interval_oracles_frozen():
    assert oracle_pack_interval(1.0, 0.3) == 4
    assert oracle_cover_interval(1.0, 0.3) == 4
    assert oracle_pack_interval(2.0, 0.25) == 9
    assert oracle_cover_interval(2.0, 0.25) == 8
    with pytest.raises(ValueError):
        oracle_pack_interval(-1.0, 0.3)
    with pytest.raises(ValueError):
        oracle_cover_interval(1.0, 0.0)


def test_interval_oracles_match_brute_force():
    rng = np.random.default_rng(515)
    checked = 0
    while checked < 12:
        radius = rng.uniform(0.5, 3.0)
        eps = radius * rng.uniform(0.05, 0.4)
        ratio = radius / eps
        if abs(ratio - round(ratio)) < 0.02:  # grid search is blind at the jumps
            continue
        assert oracle_pack_interval(radius, eps) == brute_force_pack_interval(radius, eps)
        assert oracle_cover_interval(radius, eps) == brute_force_cover_interval(radius, eps)
        checked += 1


def test_greedy_pack_deterministic_and_bounded():
    ball = Ellipsoid.ball(2, 1.0)
    a = greedy_pack(ball, 0.2, seed=11, attempts=2, candidates=4000)
    b = greedy_pack(ball, 0.2, seed=11, attempts=2, candidates=4000)
    assert a == b
    assert a >= (1.0 / 0.4) ** 2  # volume-ratio packing lower bound
    # count can never exceed the 1-d exact answer in dimension 1
    line = Ellipsoid.ball(1, 1.0)
    got = greedy_pack(line, 0.26, seed=4, attempts=4, candidates=4000)
    assert got <= oracle_pack_interval(1.0, 0.26)


def test_greedy_pack_dimension_cap():
    with pytest.raises(ConfigurationError):
        greedy_pack(Ellipsoid.ball(7, 1.0), 0.2, seed=0)


@pytest.mark.parametrize(
    "eps, dim, offset",
    [(0.1, 1, 0.0), (0.1, 2, -1.3), (0.15, 3, 0.1), (0.35, 2, 0.0), (0.7, 3, -1.3), (0.7, 2, 1e3)],
)
def test_pack_screen_settles_exact_ties_and_duplicates(eps, dim, offset):
    # neighbours on a grid of 2*eps spacing sit on the separation threshold,
    # where the screen's own roundoff would decide without its margin; each
    # point comes twice in a row, so survivors of one block must be settled
    # against each other
    n = {1: 40, 2: 9, 3: 5}[dim]
    axis = offset + 2.0 * eps * np.arange(n)
    pts = np.repeat(np.array(list(itertools.product(axis, repeat=dim))), 2, axis=0)
    min_sep_sq = (2.0 * eps) ** 2
    assert _pack_candidates(pts, min_sep_sq) == sequential_pack_count(pts, min_sep_sq)


@pytest.mark.parametrize(
    "radius, eps, dim",
    [
        (1e-160, 1e-162, 1),
        (1e-160, 1e-170, 1),
        (1e-160, 1e-162, 3),
        (1e200, 1.0, 2),
        (1.2e154, 1e152, 1),
        (1.2e154, 1e152, 2),
    ],
)
def test_pack_screen_is_exact_where_squares_leave_the_normal_range(radius, eps, dim):
    # subnormal squares carry an absolute roundoff that a margin relative
    # to the body does not cover; overflowing ones make the screen NaN, and
    # squares just below overflow can make -2 x.y overflow to -inf
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        got = greedy_pack(Ellipsoid.ball(dim, radius), eps, seed=1, attempts=1, candidates=300)
        assert got == plain_greedy_pack([radius] * dim, eps, 1, 1, 300)


# (offset, scale, eps scale) of packing inputs: points offset + scale * x for
# x of unit size, eps a multiple of the eps scale. Squares at 1e-160 are
# subnormal; at 1.2e154 the screen's -2 x.y overflows; at 1e155 and 1e200
# the squares overflow, so the screen's minimum is NaN (the offset keeps
# differences, and the 1e150 eps scale (2*eps)^2, finite)
PACK_FRAMES = [
    (0.0, 1.0, 1.0),
    (-1.3, 1.0, 1.0),
    (1e3, 1.0, 1.0),
    (0.0, 1e-160, 1e-160),
    (1.2e154, 1e152, 1e152),
    (1e155, 1e152, 1e152),
    (0.0, 1e200, 1e150),
]


@st.composite
def pack_inputs(draw):
    """(points, min_sep_sq): uniform in the unit ball, or a grid of 2*eps
    spacing with every point twice and the order shuffled or not."""
    dim = draw(st.integers(min_value=1, max_value=6))
    rel_eps = draw(st.sampled_from([1e-3, 0.05, 0.2, 0.35, 0.7]))
    offset, scale, eps_scale = draw(st.sampled_from(PACK_FRAMES))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32)))
    if draw(st.booleans()):
        n = draw(st.integers(min_value=1, max_value=3000))
        x = plain_ball_sample(dim, 1.0, rng, n)
    else:
        side = draw(st.integers(min_value=1, max_value=int(1500 ** (1.0 / dim))))
        axis = 2.0 * rel_eps * np.arange(side)
        x = np.repeat(np.array(list(itertools.product(axis, repeat=dim))), 2, axis=0)
        if draw(st.booleans()):
            x = rng.permutation(x)
    with np.errstate(over="ignore"):
        pts = offset + scale * x
        min_sep_sq = (2.0 * rel_eps * eps_scale) ** 2
    return pts, min_sep_sq


@settings(max_examples=60, deadline=None)
@given(pack_inputs())
def test_pack_candidates_is_the_sequential_rule(inputs):
    pts, min_sep_sq = inputs
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        assert _pack_candidates(pts, min_sep_sq) == sequential_pack_count(pts, min_sep_sq)


def test_screen_margin_is_infinite_where_the_screen_may_overflow():
    top = np.finfo(float).max / 4.0
    assert screen_margin(np.array([0.5, top])) == pytest.approx(4e-9 * top)
    assert screen_margin(np.array([0.5, np.nextafter(top, np.inf)])) == math.inf
    assert screen_margin(np.array([np.inf])) == math.inf


def test_screen_margin_at_float32_roundoff():
    # the neighbour search's float32 screen: gamma = (dim + 4) u / (1 - (dim + 4) u)
    # at u = 2^-24, above 1e-9 at any dim, plus float32's smallest normal
    f32 = np.finfo(np.float32)
    gamma = 16 * 2.0**-24 / (1 - 16 * 2.0**-24)
    top = float(f32.max) / 4.0
    assert screen_margin(np.array([0.5, top]), np.float32, 12) == pytest.approx(4 * gamma * top)
    assert screen_margin(np.array([0.5, 1.0]), np.float32, 12) == pytest.approx(4 * gamma)
    assert screen_margin(np.array([0.0]), np.float32, 12) == float(f32.tiny)
    assert screen_margin(np.array([np.nextafter(top, np.inf)]), np.float32, 12) == math.inf
    assert screen_margin(np.array([np.inf]), np.float32, 12) == math.inf
    # float64's slack stays 1e-9 for dim up to about 9e6
    assert screen_margin(np.array([1.0]), np.float64, 12) == 4e-9 + np.finfo(float).tiny


def test_pack_sends_a_nan_screen_to_the_exact_test():
    # norms that overflow make every screen minimum NaN; a NaN read as clear
    # would accept the second point, 0.1 * eps from the first
    pts = 1e155 + np.array([[0.0, 0.0], [1e151, 0.0], [3e153, 0.0]])
    min_sep_sq = (2.0 * 1e152) ** 2
    with np.errstate(over="ignore", invalid="ignore"):
        assert _pack_candidates(pts, min_sep_sq) == sequential_pack_count(pts, min_sep_sq) == 2


@pytest.mark.parametrize("dim", range(1, 7))
@pytest.mark.parametrize("scale", [1.0, 1e-160, 1e3, 1e152])
def test_pair_square_sums_are_the_exact_tests_bits(dim, scale):
    # the survivors of a block are settled from one pairwise array; each of
    # its rows must hold the bits of the one-row exact test
    rng = np.random.default_rng([dim, 7])
    points = scale * rng.standard_normal((60, dim)) + rng.choice([0.0, 1e3 * scale], size=(60, 1))
    points[5] = points[4]  # a duplicate: an exact zero
    with np.errstate(over="ignore", under="ignore"):
        pairs = _pair_square_sums(points)
        for i, cand in enumerate(points):
            row = np.sum((points - cand) ** 2, axis=1)
            assert pairs[i].tobytes() == row.tobytes()


@pytest.mark.parametrize(
    "dim, eps, accepted, peak_mb",
    # peaks measured before blocks were sized by their screen product: 0.753
    # and 4.304 MB (a 3,890 x 64 product); a block as wide as 4,096 at 520
    # accepted would hold 17 MB
    [(5, 0.2, 514, 0.8), (2, 0.01, 3890, 4.4)],
)
def test_pack_memory_is_bounded_by_the_screen_product(dim, eps, accepted, peak_mb):
    pts = sample_uniform_ellipsoid(np.ones(dim), np.random.default_rng([1, 0]), size=20000)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        count = _pack_candidates(pts, (2.0 * eps) ** 2)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert count == accepted
    assert peak <= peak_mb * 1e6


def test_greedy_pack_anisotropic_body():
    body = Ellipsoid(np.array([1.0, 0.25]))
    count = greedy_pack(body, 0.1, seed=3, attempts=3, candidates=8000)
    volume_bound = (1.0 * 0.25) / (2.0 * 0.1) ** 2
    assert count >= volume_bound


# --- caps of the noise ball ---


@pytest.mark.parametrize("dim", range(1, 13))
def test_caps_and_their_sampler_are_the_ball_beyond_the_bisector(dim):
    # uniform points of the eps-ball (reference.plain_ball_sample) that lie
    # beyond the hyperplane at d/2 along a unit vector are the cap: their
    # share must be cap_fractions' (reference.cap_fraction, the definition),
    # and the cap sampler's points, from dim + 1 uniforms each, must share
    # their law along the vector, orthogonal to it and across it. Exact binomial and two-sample
    # Kolmogorov-Smirnov tests, two-sided at level 1e-4 each.
    rng = np.random.default_rng([11, dim])
    eps = 0.8
    d = 2.0 * eps * 0.9 / math.sqrt(dim + 2)  # a cap of about a fifth of the ball
    unit = rng.standard_normal(dim)
    unit[0] = (-1) ** dim * abs(unit[0])  # the sampler branches on this sign
    unit /= np.linalg.norm(unit)
    cap = float(cap_fractions(dim, eps, [d])[0])
    assert cap == pytest.approx(cap_fraction(dim, eps, d), rel=1e-13)

    ball = plain_ball_sample(dim, eps, rng, 200_000)
    beyond = ball[ball @ unit >= d / 2.0]
    assert binomtest(len(beyond), len(ball), cap).pvalue > 1e-4

    n = 4000
    uniforms = rng.random((n, dim + 1))
    drawn = sample_uniform_caps(eps, np.tile(unit, (n, 1)), np.full(n, cap), uniforms)
    assert drawn.shape == (n, dim)
    along = drawn @ unit
    assert np.all(along >= d / 2.0 * (1.0 - 1e-12))
    assert np.all(np.linalg.norm(drawn, axis=1) <= eps * (1.0 + 1e-12))
    assert ks_2samp(along, beyond @ unit).pvalue > 1e-4
    if dim > 1:
        def across(points):
            return np.linalg.norm(points - np.outer(points @ unit, unit), axis=1)

        assert ks_2samp(across(drawn), across(beyond)).pvalue > 1e-4
        # one fixed direction orthogonal to the unit vector
        other = rng.standard_normal(dim)
        other -= (other @ unit) * unit
        other /= np.linalg.norm(other)
        assert ks_2samp(drawn @ other, beyond @ other).pvalue > 1e-4
