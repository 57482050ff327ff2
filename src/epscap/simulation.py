"""Monte Carlo codebook experiments against the error-fraction bounds.

A codebook of M points inside the energy body is hit by eps-bounded
noise; minimum-distance decoding fails on the part of each noise ball
that lies closer (ties included) to a competing codeword. The fraction
of the i-th ball lost this way is the per-codeword error fraction, and
the codebook-wide mean is the quantity the eps-delta capacity bounds
control: random codebooks of size floor(delta * (zeta*sqrt(E)/eps)^N)
should keep the mean at or below delta.

Randomness is reproducible and order-independent. Every codeword gets a
64-bit content key from (global seed, codeword bytes), computed in numpy
for the whole codebook. The key picks the evaluated subset, orders each
codeword's competitors, and keys the codeword's own counter-based stream:
each uniform is a pure function of (key, counter), so permuting the
codebook permutes the per-codeword results without changing any of them,
and all codewords are decoded in one numpy batch.

A random code whose evaluated codewords are a subset is not drawn whole
when their 2*eps-balls take at most the body between them: only those
codewords and the others they can see are drawn (_neighbourhood), with the
law the whole code gives them, and its evaluated codewords are its first.

The cap shares, the uniform ball, cap and ellipsoid samplers, the
neighbour screen's padded operands and margin, the bound reports (which
give each run its working dimension N and zeta), the satisfying-size
formula and the wide-window rate behind the error exponent all live in
:mod:`epscap.geometry`.
"""

from __future__ import annotations

import math
import threading
from concurrent.futures import Future
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import bdtr

from .errors import ConfigurationError
from .geometry import (
    BoundReport,
    Ellipsoid,
    cap_fractions,
    entropy_rate,
    log2_satisfying_size,
    per_unit_time_report,
    row_blocks,
    require_points,
    sample_uniform_ball,
    sample_uniform_caps,
    sample_uniform_ellipsoid,
    screen_margin,
    screen_operands,
    zeta_or_one,
)
from .params import (
    MIN_SAMPLES,
    SignalSpaceParams,
    require_codebook_energy,
    require_codebook_eps,
    require_dense,
    require_finite,
    require_int,
    require_seed,
)
from .spectrum import build_spectrum, degrees_of_freedom, require_window

Z95 = 1.959963984540054  # two-sided 95% normal quantile

# The neighbour screen's tile: this many evaluated codewords by this many
# codewords. Its survivors are settled once they pass this many doubles of
# offsets, in runs of at most that many.
_TILE_ROWS = 512
_TILE_COLS = 256
_SETTLE_DOUBLES = 2**19
# The decode works through this many (codeword, competitor) pairs at a
# time, and through its candidates in blocks whose arrays hold at most this
# many doubles (512 KB): dim + 3 uniforms per candidate, and the product of
# a codeword's candidates with its competitors' offsets.
_PAIR_CHUNK = 2**14
_PAIR_BLOCK = 2**16


# --- codebooks ---


@dataclass(frozen=True)
class Codebook:
    """Points to be distinguished under eps-bounded noise.

    radii, when present, is the generating ellipsoid; every point must lie
    inside it (within roundoff).
    """

    points: np.ndarray
    radii: np.ndarray | None = None

    def __post_init__(self):
        points = np.ascontiguousarray(np.atleast_2d(self.points), dtype="<f8")
        if points.ndim != 2 or points.shape[0] < 1:
            raise ValueError("points must form a nonempty (M, N) array")
        if not np.all(np.isfinite(points)):
            raise ValueError("codebook points must be finite")
        object.__setattr__(self, "points", points)
        if self.radii is not None:
            radii = np.asarray(self.radii, dtype=float)
            if radii.shape != (points.shape[1],):
                raise ValueError(
                    f"radii shape {radii.shape} does not match point "
                    f"dimension {points.shape[1]}"
                )
            object.__setattr__(self, "radii", radii)
            if np.any(_escapes(points, radii)):
                raise ValueError("codebook points must lie inside their ellipsoid")

    @property
    def n_codewords(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


def _escapes(points: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """Whether each point lies outside the ellipsoid radii beyond roundoff:
    sum((x / radii)^2) > 1 + 1e-12, a row block at a time. The quotient
    goes first, so no square leaves the normal range before it is scaled."""
    norms = np.empty(len(points))
    for block in row_blocks(len(points)):
        scaled = points[block] / radii
        np.einsum("ij,ij->i", scaled, scaled, out=norms[block])
    return norms > 1.0 + 1e-12


def generate_codebook(radii, n_codewords: int, seed) -> Codebook:
    """Draw n_codewords points uniformly in the ellipsoid given by radii."""
    n_codewords = require_int("n_codewords", n_codewords)
    radii = np.asarray(radii, dtype=float)
    rng = np.random.default_rng(seed)
    points = sample_uniform_ellipsoid(radii, rng, size=n_codewords)
    return Codebook(points=points, radii=radii)


# --- error-fraction estimation ---


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """Wilson score interval (95%) for a binomial proportion."""
    trials = require_int("trials", trials)
    successes = require_int("successes", successes, minimum=0)
    if successes > trials:
        raise ValueError(f"successes {successes} outside [0, {trials}]")
    lower, upper = _wilson_intervals(np.array([successes]), trials)[0]
    return float(lower), float(upper)


def _wilson_intervals(successes: np.ndarray, trials: int) -> np.ndarray:
    """wilson_interval of each count in [0, trials], as rows (lower, upper)."""
    p = successes / trials
    z2 = Z95 * Z95
    denom = 1.0 + z2 / trials
    center = (p + z2 / (2.0 * trials)) / denom
    half = Z95 * np.sqrt(p * (1.0 - p) / trials + z2 / (4.0 * trials**2)) / denom
    # the exact endpoints at the degenerate counts; roundoff must not
    # push the interval off the point estimate
    lower = np.where(successes == 0, 0.0, np.maximum(0.0, center - half))
    upper = np.where(successes == trials, 1.0, np.minimum(1.0, center + half))
    return np.stack([lower, upper], axis=1)


# splitmix64's increment and finaliser multipliers (Steele, Lea and Flood,
# OOPSLA 2014)
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def _finalise(z: np.ndarray) -> np.ndarray:
    """splitmix64's finaliser, in place on a uint64 array, which it returns."""
    z ^= z >> np.uint64(30)
    z *= _MIX1
    z ^= z >> np.uint64(27)
    z *= _MIX2
    z ^= z >> np.uint64(31)
    return z


def _codeword_keys(seed: int, points: np.ndarray) -> np.ndarray:
    """A 64-bit content key per codeword, which picks the evaluated subset,
    orders each codeword's competitors and keys its random stream.

    From the seed, each little-endian 8-byte word of the codeword's
    coordinates is folded in by one splitmix64 step: key ^= word, then the
    finaliser of key + 0x9E3779B97F4A7C15. Row blocks (geometry.row_blocks)
    keep the work in cache: on a 2^18 x 12 codebook (2-core x86-64) this
    takes 0.016 s, 0.030 s unblocked.
    """
    keys = np.full(len(points), seed, dtype=np.uint64)
    words = points.view("<u8")
    for block in row_blocks(len(points)):
        key = keys[block]
        for word in words[block].T:
            key ^= word
            key += _GOLDEN
            _finalise(key)
    return keys


def _smallest_keys(keys: np.ndarray, points: np.ndarray, k: int) -> np.ndarray:
    """Ascending indices of the k codewords of smallest key.

    Equal keys are ordered by the codeword's coordinate bytes, then by
    index, so that a permutation of the codebook selects the same codeword
    values. Only the codewords that share the k-th smallest key are sorted.
    """
    kth = np.partition(keys, k - 1)[k - 1]
    below = np.flatnonzero(keys < kth)
    ties = np.flatnonzero(keys == kth)
    # same-width byte strings order as their bytes do, trailing nulls included
    row_bytes = points[ties].view(f"S{points.shape[1] * points.itemsize}").ravel()
    ties = ties[np.argsort(row_bytes, kind="stable")]
    return np.sort(np.concatenate([below, ties[: k - len(below)]]))


def _uniforms(stream_keys: np.ndarray, counters: np.ndarray) -> np.ndarray:
    """Uniform doubles in (0, 1), each a pure function of (stream key, counter).

    The splitmix64 output of stream key + (counter + 1) * 0x9E3779B97F4A7C15,
    broadcast over the two uint64 arrays; its top 52 bits plus one half,
    times 2^-52. (Open at both ends: the top 53 bits plus one half would
    round to 1.0 at the top.)
    """
    z = stream_keys + (counters + np.uint64(1)) * _GOLDEN
    return ((_finalise(z) >> np.uint64(12)).astype(float) + 0.5) * 2.0**-52


def _binomial_counts(u: np.ndarray, trials: int, p: np.ndarray) -> np.ndarray:
    """Binomial(trials, p) by inversion of the uniforms u: the smallest k with
    bdtr(k, trials, p) >= u, by bisection on each element at once.

    The law is Binomial(trials, p) to bdtr's accuracy, about 1e-11 near the
    median at large trial counts: bdtr(6172, 12345, 0.5) is 0.49999999999384,
    where scipy.stats.binom.cdf gives 0.4999999999999998.
    """
    low = np.full(len(u), -1)  # P(X <= -1) = 0 < u
    high = np.full(len(u), trials)  # P(X <= trials) = 1 >= u
    while np.any(high - low > 1):
        # a settled element has mid = low, where the cdf is below u (NaN at -1)
        mid = (low + high) // 2
        above = bdtr(mid, trials, p) >= u
        high = np.where(above, mid, high)
        low = np.where(above, low, mid)
    return high


@dataclass(frozen=True)
class SimulationResult:
    """Per-codeword and aggregate error fractions with 95% intervals.

    error_fractions[k] is the estimated lost fraction of the noise ball
    around codeword eval_indices[k]; rows of error_fraction_cis are Wilson
    intervals ((0, 0) when no competitor claims any of the ball and the
    fraction is exactly zero), rows of error_fraction_brackets the bounds
    [largest cap, min(1, sum of caps)] that need no sampling ([1, 1] for a
    coincident competitor). mean_error_fraction and mean_error_bracket
    average the evaluated codewords; when eval_indices is a strict subset
    the mean's interval also accounts for codeword-to-codeword spread.
    verdict, when a target was given, states whether the interval's upper
    end stays at or below it.
    """

    error_fractions: np.ndarray
    error_fraction_cis: np.ndarray
    mean_error_fraction: float
    mean_error_ci: tuple[float, float]
    error_fraction_brackets: np.ndarray
    mean_error_bracket: tuple[float, float]
    samples_per_codeword: int
    n_codewords: int
    eval_indices: np.ndarray
    eps: float
    seed: int
    target_delta: float | None = None
    verdict: bool | None = None

    def judged(self, target_delta: float | None) -> SimulationResult:
        """This estimate with target_delta and its verdict (None without one).

        Raises ValueError unless target_delta is None or lies in (0, 1).
        """
        if target_delta is not None and not 0.0 < target_delta < 1.0:
            raise ValueError(f"target_delta must lie in (0, 1), got {target_delta}")
        verdict = None if target_delta is None else bool(self.mean_error_ci[1] <= target_delta)
        return replace(self, target_delta=target_delta, verdict=verdict)

    def to_dict(self) -> dict:
        """The fields; eval_indices goes out as n_evaluated and subsampled."""
        record = {k: v for k, v in vars(self).items() if k != "eval_indices"}
        return record | {
            "n_evaluated": len(self.error_fractions),
            "subsampled": len(self.eval_indices) < self.n_codewords,
        }


def _neighbor_lists(
    points: np.ndarray, eval_idx: np.ndarray, eps: float
) -> tuple[np.ndarray, np.ndarray]:
    """Indices within 2*eps of each evaluated codeword (itself excluded), as
    (cols, starts): cols[starts[r]:starts[r + 1]] are the r-th evaluated
    codeword's, ascending, and starts has len(eval_idx) + 1 entries.

    Codeword j is a neighbour of codeword i when the squared length of
    points[j] - points[i], summed by np.einsum, is at most (2*eps)^2. The
    decode reads its caps from that same number, so a codeword the rule
    leaves out claims an empty cap: its distance is then at least 2*eps,
    since sqrt(fl(y^2)) = y for a double y whose square stays normal.

    A screen, then a settle, as geometry's packing does. The screen works
    in float32 on the points times 2^k, the power of two that takes every
    row norm to at most 1, so that no square leaves float32's range: one
    matrix product of screen_operands per tile of _TILE_ROWS evaluated
    codewords by _TILE_COLS codewords, [x, |x|^2, 1] . [-2y, 1, |y|^2] =
    |x|^2 - 2 x.y + |y|^2, written into one reused buffer of 512 KB, which
    stays in cache whatever the number of evaluated codewords. The scaled
    squared norms are summed in float64 a row block at a time. The screen
    drops a pair only above 4^k ((2*eps)^2 + the smallest normal double,
    which bounds the settle's subnormal steps) plus screen_margin in
    float32, rounded up to a float32, where the rule drops it too; so the
    BLAS summation order, which changes with the thread count and the tile
    shape, decides nothing. The settle applies the rule to the survivors,
    in column order, whenever a row tile's held survivors pass
    _SETTLE_DOUBLES of offsets or its columns end, a run of that many
    doubles at a time: where every pair survives the screen (coordinates
    near 1e-155, whose squared distances the smallest normal double
    dwarfs) its memory stays bounded, and at criterion 7 (about 34,000
    survivors of its 512 evaluated codewords by their 33,000 drawn
    neighbours, or 14,000 by a whole code of 2^18) each row tile settles
    once.

    On a 2^18 x 12 codebook with 512 evaluated codewords (2-core x86-64,
    OpenBLAS on one thread) this takes about 0.1 s, the tile products 0.05
    s of it, against 0.15-0.2 s for the same screen in float64, unscaled.
    Tiles 512 or 1,024 columns wide took 0.14 and 0.15 s; blocks of all
    evaluated rows by 2,048 columns of |x|^2 - 2 x.y + |y|^2 against a
    slack relative to (2*eps)^2, which missed true neighbours at eps <<
    |x|, 0.5 s (in float64); scipy's cKDTree 1.5 s. A
    window on the norm, exact as it is (|x| - |y| <= |x - y|), keeps
    nearly every codeword in these dimensions, since in a 12-d unit ball
    P(|x| < 1/2) = 2^-12.
    """
    m, dim = points.shape
    # |coordinate| < 2^e, and sqrt(dim) <= 2^ceil(log2(dim + 1) / 2)
    e = math.frexp(max(float(points.max()), -float(points.min())))[1]
    k = -e - (dim.bit_length() + 1) // 2
    sq = np.empty(m)
    for block in row_blocks(m):
        rows = np.ldexp(points[block], k)
        np.einsum("ij,ij->i", rows, rows, out=sq[block])
    within = (2.0 * eps) ** 2
    with np.errstate(over="ignore"):
        bound = np.ldexp(within + np.finfo(float).tiny, 2 * k) + screen_margin(sq, np.float32, dim)
        cutoff = np.float32(bound)
    if cutoff < bound:
        cutoff = np.nextafter(cutoff, np.float32(np.inf))
    lhs = np.empty((min(len(eval_idx), _TILE_ROWS), dim + 2), dtype=np.float32)
    rhs = np.empty((min(m, _TILE_COLS), dim + 2), dtype=np.float32)
    scaled = np.empty((len(rhs), dim))
    tile = np.empty((len(lhs), len(rhs)), dtype=np.float32)
    run = max(1, _SETTLE_DOUBLES // dim)
    all_rows, all_cols = [], []
    for r0 in range(0, len(eval_idx), _TILE_ROWS):
        own = eval_idx[r0 : r0 + _TILE_ROWS]
        x = screen_operands(np.ldexp(points[own], k), sq[own], lhs[: len(own)])
        hit_rows, hit_cols, held = [], [], 0
        for c0 in range(0, m, _TILE_COLS):
            c1 = min(c0 + _TILE_COLS, m)
            y = np.ldexp(points[c0:c1], k, out=scaled[: c1 - c0])
            y = screen_operands(y, sq[c0:c1], rhs[: c1 - c0], right=True)
            g = np.matmul(x, y.T, out=tile[: len(x), : len(y)])
            # one flat scan: the 2-d np.nonzero costs ten times as much here
            rows, cols = np.divmod(np.flatnonzero(g <= cutoff), len(y))
            hit_rows.append(rows + r0)
            hit_cols.append(cols + c0)
            held += len(rows)
            if held < run and c1 < m:
                continue
            rows, cols = np.concatenate(hit_rows), np.concatenate(hit_cols)
            hit_rows, hit_cols, held = [], [], 0
            for a in range(0, len(rows), run):
                r, c = rows[a : a + run], cols[a : a + run]
                i = eval_idx[r]
                offsets = points[c] - points[i]
                keep = (np.einsum("ij,ij->i", offsets, offsets) <= within) & (c != i)
                all_rows.append(r[keep])
                all_cols.append(c[keep])
    rows, cols = np.concatenate(all_rows), np.concatenate(all_cols)
    # each tile's hits come row by row in ascending column order, and the
    # tiles of a row, settled or not, in ascending column order, so a
    # stable sort by row leaves every list ascending
    cols = cols[np.argsort(rows, kind="stable")]
    starts = np.zeros(len(eval_idx) + 1, dtype=np.intp)
    np.cumsum(np.bincount(rows, minlength=len(eval_idx)), out=starts[1:])
    return cols, starts


def _decode(
    points: np.ndarray,
    eval_idx: np.ndarray,
    cols: np.ndarray,
    starts: np.ndarray,
    keys: np.ndarray,
    eps: float,
    samples: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Error counts, and the brackets [largest cap, min(1, S)] of the lost
    shares, of the codewords eval_idx, whose competitors are
    cols[starts[r]:starts[r + 1]] (_neighbor_lists' format).

    Competitors go in content-key order, equal keys by their bytes. Each
    codeword reads its own stream, keyed by its content key through the
    finaliser once more, at fixed counters: 0 for its Binomial(samples, S)
    candidate count, then dim + 3 for each candidate c = 0, 1, ... from
    1 + c * (dim + 3) on: its cap, its point in that cap (the dim + 1
    uniforms of sample_uniform_caps) and its keep, with probability one
    over the number of caps the point lies in. The candidates of every
    codeword are drawn together, in blocks of at most _PAIR_BLOCK doubles,
    so that the memory does not grow with samples. Within a block a
    codeword's candidates are consecutive and its competitors are a run of
    the offsets, so one searchsorted on its running cap sums picks their
    caps, and one matrix product with its competitors' offsets gives every
    2 x.v_j. A codeword whose S exceeds 1 draws its samples from a
    Generator seeded with its stream key instead, and decodes them one by
    one against the same product, checked against DENSE_BYTES first.
    """
    k, dim = len(eval_idx), points.shape[1]
    lengths = np.diff(starts)
    rows = np.repeat(np.arange(k), lengths)
    offsets = points[cols]
    order = np.lexsort((offsets.view(f"S{dim * points.itemsize}").ravel(), keys[cols], rows))
    offsets = offsets[order]
    offsets -= points[eval_idx[rows]]
    sq = np.einsum("ij,ij->i", offsets, offsets)
    dist = np.sqrt(sq)
    caps = cap_fractions(dim, eps, dist)
    # each codeword's running sum of its own caps, in its competitors' order
    cdf = caps.copy()
    for step in range(1, lengths.max(initial=0)):
        at = starts[:-1][lengths > step] + step
        cdf[at] += cdf[at - 1]
    totals, largest, coincident = np.zeros(k), np.zeros(k), np.zeros(k, dtype=bool)
    np.maximum.at(totals, rows, cdf)  # the last of each, as caps are >= 0
    np.maximum.at(largest, rows, caps)
    coincident[rows[sq == 0.0]] = True
    counts = np.where(coincident, samples, 0)
    brackets = np.stack([largest, np.minimum(1.0, totals)], axis=1)
    brackets[coincident] = 1.0
    stream = _finalise(keys[eval_idx])

    over = np.flatnonzero(~coincident & (totals > 1.0))
    longest = int(lengths[over].max(initial=0))
    require_dense(8 * samples * longest,
                  f"decoding {samples} draws against {longest} competitors needs")
    for r in over:
        rng = np.random.default_rng(int(stream[r]))
        u = sample_uniform_ball(dim, eps, rng, size=samples)
        # the draw u is lost to the competitor at offset v_j when
        # 2 u.v_j >= |v_j|^2, the rule the candidates below are kept by
        own = slice(starts[r], starts[r + 1])
        closer = 2.0 * (u @ offsets[own].T) >= sq[own]
        counts[r] = np.count_nonzero(closer.any(axis=1))

    live = np.flatnonzero(~coincident & (totals > 0.0) & (totals <= 1.0))
    drawn = _binomial_counts(_uniforms(stream[live], np.uint64(0)), samples, totals[live])
    drawn_end, n_drawn = np.cumsum(drawn), int(drawn.sum())
    width = np.uint64(dim + 3)
    block = max(1, _PAIR_BLOCK // max(int(lengths.max(initial=1)), dim + 3))
    for q0 in range(0, n_drawn, block):
        # candidates q0 on: each the c-th of its codeword r
        q = np.arange(q0, min(q0 + block, n_drawn))
        owner = np.searchsorted(drawn_end, q, side="right")
        r = live[owner]
        c = (q - drawn_end[owner] + drawn[owner]).astype(np.uint64)
        counters = (1 + c * width)[:, None] + np.arange(width, dtype=np.uint64)
        u = _uniforms(stream[r, None], counters)
        # a codeword's candidates are a run of the block, its competitors
        # the run offsets[starts[r]:starts[r + 1]]
        bounds = np.flatnonzero(np.diff(owner, prepend=-1, append=len(live)))
        runs = [(a, b, slice(starts[r[a]], starts[r[a] + 1])) for a, b in zip(bounds, bounds[1:])]
        # the cap: competitor j with probability cap_j/S
        pick = np.empty(len(q), dtype=np.intp)
        for a, b, own in runs:
            pick[a:b] = np.searchsorted(cdf[own] / totals[r[a]], u[a:b, 0], side="right")
        picked = starts[r] + pick
        x = sample_uniform_caps(eps, offsets[picked] / dist[picked, None], caps[picked], u[:, 1:-1])
        # competitor j is at least as close to x as the codeword is when
        # 2 x.v_j >= |v_j|^2; the cap x came from counts whatever roundoff
        # says at its edge
        n_closer = np.empty(len(q))
        for a, b, own in runs:
            closer = 2.0 * (x[a:b] @ offsets[own].T) >= sq[own]
            closer[np.arange(b - a), pick[a:b]] = True
            n_closer[a:b] = np.count_nonzero(closer, axis=1)
        keep = u[:, -1] < 1.0 / n_closer
        counts += np.bincount(r[keep], minlength=k)
    return counts, brackets


def estimate_error_fraction(
    codebook: Codebook,
    eps: float,
    samples: int,
    seed: int,
    max_eval_codewords: int | None = None,
) -> SimulationResult:
    """Monte Carlo estimate of the mean decoding-error fraction.

    A codeword's error fraction is the share of its eps-ball that decodes
    elsewhere by minimum distance (ties are errors): the union of the caps
    (cap_fractions) its competitors within 2*eps claim. Its error count has
    the law of `samples` uniform draws decoded one by one, Binomial(samples,
    that share). A coincident competitor gives `samples`, empty caps an
    exact zero, and caps whose shares sum to S > 1 are decoded that way.
    Where S <= 1, N ~ Binomial(samples, S) candidates are drawn uniformly
    from the caps (cap j with probability cap_j/S), each kept with
    probability 1/c, c the number of competitors at least as close to it as
    the codeword: the kept count is Binomial(samples, S*E[1/c]), the union's
    share (Karp, Luby and Madras, J. Algorithms 10, 1989). The bracket
    [max cap_j, min(1, S)] of the share needs no sampling. Every codeword
    draws from its own counter-based stream, and all are decoded in one
    batch (_decode), run after run of about _PAIR_CHUNK (codeword,
    competitor) pairs.

    With max_eval_codewords set below the codebook size, evaluation runs
    on that many codewords chosen by smallest 64-bit content key
    (_codeword_keys: a fixed pseudo-random subset independent of codebook
    order), and the mean's interval widens to cover codeword-to-codeword
    spread. Each evaluated codeword's count is the one a full run gives it.
    """
    require_codebook_eps(eps)
    samples = require_int("samples", samples, MIN_SAMPLES)
    seed = require_seed(seed)
    if max_eval_codewords is not None:
        max_eval_codewords = require_int("max_eval_codewords", max_eval_codewords)

    points = codebook.points
    m = len(points)
    keys = _codeword_keys(seed, points)
    if max_eval_codewords is not None and m > max_eval_codewords:
        eval_idx = _smallest_keys(keys, points, max_eval_codewords)
    else:
        eval_idx = np.arange(m)
    cols, starts = _neighbor_lists(points, eval_idx, eps)
    return _estimate(points, keys, eval_idx, cols, starts, m, eps, samples, seed)


def _estimate(
    points: np.ndarray,
    keys: np.ndarray,
    eval_idx: np.ndarray,
    cols: np.ndarray,
    starts: np.ndarray,
    m: int,
    eps: float,
    samples: int,
    seed: int,
) -> SimulationResult:
    """The estimate of a code of m codewords from its points' content keys
    and the evaluated codewords eval_idx's competitors (_neighbor_lists'
    format): the decode runs, the intervals, the brackets and the means."""
    k = len(eval_idx)
    error_counts = np.zeros(k, dtype=np.int64)
    brackets = np.zeros((k, 2))
    r0 = 0
    while r0 < k:
        # at least one codeword, and as many more as fit in _PAIR_CHUNK pairs
        fit = np.searchsorted(starts[1:], starts[r0] + _PAIR_CHUNK, side="right")
        r1 = max(r0 + 1, int(fit))
        run = cols[starts[r0] : starts[r1]]
        error_counts[r0:r1], brackets[r0:r1] = _decode(
            points, eval_idx[r0:r1], run, starts[r0 : r1 + 1] - starts[r0], keys, eps, samples
        )
        r0 = r1
    # a codeword whose caps are all empty is an exact zero, its interval (0, 0)
    live = brackets[:, 1] > 0.0
    fractions = error_counts / samples
    cis = np.zeros((k, 2))
    cis[live] = _wilson_intervals(error_counts[live], samples)

    # exactly rounded sums: the mean and the spread must not depend on the
    # order of the codebook
    mean = math.fsum(fractions) / k
    pooled = wilson_interval(error_counts.sum(), k * samples)
    if k < m:
        # cluster interval: spread across codewords dominates; keep the
        # pooled interval as a floor so an all-zero subset is not read as
        # exactly zero
        sd = math.sqrt(math.fsum((fractions - mean) ** 2) / (k - 1)) if k > 1 else 0.0
        se = sd / math.sqrt(k)
        lo = min(max(0.0, mean - Z95 * se), pooled[0])
        hi = max(min(1.0, mean + Z95 * se), pooled[1])
        mean_ci = (lo, hi)
    else:
        mean_ci = pooled
    mean_bracket = (math.fsum(brackets[:, 0]) / k, math.fsum(brackets[:, 1]) / k)

    return SimulationResult(
        error_fractions=fractions,
        error_fraction_cis=cis,
        mean_error_fraction=mean,
        mean_error_ci=mean_ci,
        error_fraction_brackets=brackets,
        mean_error_bracket=mean_bracket,
        samples_per_codeword=samples,
        n_codewords=m,
        eval_indices=eval_idx,
        eps=float(eps),
        seed=seed,
    )


# --- the randomized codebook experiment ---


@dataclass(frozen=True)
class ExperimentConfig:
    """Settings for one randomized codebook run.

    Codebook size resolution order: explicit n_codewords, then rate
    (floor(2^(T*rate)) codewords), then the satisfying size
    floor(delta * (zeta*sqrt(E)/eps)^N); always capped at max_codewords.
    dim_override forces the working dimension; otherwise it comes from
    the spectrum's degrees of freedom at accuracy mu (default eps), or
    round(N0) without a spectrum. The satisfying size needs delta > 0, so
    a delta = 0 run must give rate or n_codewords. A run whose verdict
    fails is retried with a fresh codebook up to `retries` times.
    """

    params: SignalSpaceParams
    dim_override: int | None = None
    rate: float | None = None
    n_codewords: int | None = None
    samples: int = 1000
    seed: int = 0
    max_codewords: int = 2**18
    retries: int = 3
    max_eval_codewords: int | None = 512
    mu: float | None = None

    def __post_init__(self):
        # each integer setting is stored as the int require_int returns
        def setting(name, minimum=1):
            object.__setattr__(self, name, require_int(name, getattr(self, name), minimum))

        for name in ("dim_override", "n_codewords", "max_eval_codewords"):
            if getattr(self, name) is not None:
                setting(name)
        setting("samples", MIN_SAMPLES)
        object.__setattr__(self, "seed", require_seed(self.seed))
        require_codebook_eps(self.params.eps)
        require_codebook_energy(self.params.energy)
        setting("max_codewords")
        setting("retries")
        if self.rate is not None:
            require_finite("rate", self.rate, nonnegative=True)
        if self.rate is not None and self.n_codewords is not None:
            raise ValueError("give rate or n_codewords, not both")
        if self.mu is not None:
            require_finite("mu", self.mu)
        if self.rate is None and self.n_codewords is None and self.params.delta <= 0.0:
            raise ConfigurationError(
                "sizing a codebook from the satisfying formula needs delta > 0; "
                "pass rate or n_codewords instead"
            )


@dataclass(frozen=True)
class ExperimentOutcome:
    """Everything one experiment produced.

    result is None when the codebook size floored to zero (rate_too_low);
    bound is the report of the quantity the run probes (the eps-delta
    capacity, or the 2*eps capacity when delta = 0), and holds the run's
    working dimension and zeta (None for the zeta = 1 ball idealization).
    """

    result: SimulationResult | None
    bound: BoundReport
    n_codewords: int
    log2_target_size: float
    capped: bool
    attempts: int
    rate_too_low: bool
    radii_source: str

    def to_dict(self) -> dict:
        return vars(self) | {
            "result": None if self.result is None else self.result.to_dict(),
            "bound": self.bound.to_dict(),
        }


def run_random_code_experiment(
    config: ExperimentConfig, spectrum=None, memo: dict | None = None
) -> ExperimentOutcome:
    """Size a random codebook, estimate its error fraction, retry on failure.

    The satisfying-size codebook is the constructive side of the capacity
    lower bound: on average it meets the delta budget, so within a few
    retries a drawn codebook should pass the verdict.

    An estimate depends on the body's radii, the codebook size, the seed,
    the attempt, eps, samples and max_eval_codewords; delta only judges it.
    A subsampled run whose evaluated codewords' 2*eps-balls take a share
    of at most 1 of the body draws only them and their neighbourhood
    (_random_code_estimate), so its size is not bounded by the memory a
    whole code would take.
    Experiments that pass one memo dict (a sweep's rows) share each such
    estimate: the first to need it computes it, and the others wait for
    its result, or its error, instead of computing it again.
    """
    params = config.params
    n_dim = config.dim_override
    if spectrum is not None:
        # refused before the dimension is read off a spectrum of another window
        require_window(spectrum, params.omega, params.t_obs)
        if n_dim is None:
            # where the experiment differs from `bounds`: N is the degrees of
            # freedom at accuracy mu, not round(N0)
            n_dim = max(1, degrees_of_freedom(spectrum, params.energy, config.mu or params.eps))
    reports = per_unit_time_report(params, spectrum, n_dim)
    bound = reports["capacity_eps_delta" if params.delta > 0 else "capacity_2eps"]
    n_dim = bound.n_dim
    if spectrum is not None:
        body = Ellipsoid.from_spectrum(spectrum, params.energy, n_dim)
        radii_source = "spectrum"
    else:
        body = Ellipsoid.ball(n_dim, math.sqrt(params.energy))
        radii_source = "ball"

    # codebook size
    capped = False
    if config.n_codewords is not None:
        n_codewords = config.n_codewords
        log2_target = math.log2(n_codewords)
    elif config.rate is not None:
        log2_target = params.t_obs * config.rate
        n_codewords = _floor_pow2_exponent(log2_target)
    else:  # ExperimentConfig makes sure delta > 0 here
        zeta_value = zeta_or_one(bound.zeta_value)
        log2_target = log2_satisfying_size(n_dim, zeta_value, params.sqrt_snr, params.delta)
        n_codewords = _floor_pow2_exponent(log2_target)
    if n_codewords > config.max_codewords:
        n_codewords = config.max_codewords
        capped = True

    target = params.delta if params.delta > 0 else None
    result = None
    attempts = 0
    if n_codewords > 0:  # else the size floored to zero: nothing to simulate
        for attempt in range(config.retries):
            attempts = attempt + 1
            args = (body.radii, n_codewords, params.eps, config.samples, config.seed, attempt,
                    config.max_eval_codewords)
            key = (body.radii.tobytes(), *args[1:])
            result = _shared(memo, key, lambda: _random_code_estimate(*args)).judged(target)
            if result.verdict is None or result.verdict:
                break
    return ExperimentOutcome(
        result=result,
        bound=bound,
        n_codewords=n_codewords,
        log2_target_size=log2_target,
        capped=capped,
        attempts=attempts,
        rate_too_low=n_codewords == 0,
        radii_source=radii_source,
    )


def _random_code_estimate(
    radii: np.ndarray,
    m: int,
    eps: float,
    samples: int,
    seed: int,
    attempt: int,
    max_eval_codewords: int | None,
) -> SimulationResult:
    """The estimate of a random code of m codewords uniform in the ellipsoid
    radii, drawn for (seed, attempt).

    A run that evaluates k = max_eval_codewords < m codewords, whose
    2*eps-balls take a share k (2 eps)^N / prod(radii) <= 1 of the body,
    draws only the codewords they can see (_neighbourhood); any other run
    draws the whole code for estimate_error_fraction. Either draw is refused
    with a ConfigurationError, before it is allocated, when its points would
    pass DENSE_BYTES (require_points).
    """
    dim = len(radii)
    if max_eval_codewords is not None and max_eval_codewords < m:
        # in logs: (2 eps)^N and prod(radii) leave the double range at N
        # in the hundreds
        log_share = (math.log(max_eval_codewords) + dim * math.log(2.0 * eps)
                     - math.fsum(np.log(radii)))
        if log_share <= 0.0:
            points, cols, starts = _neighbourhood(
                radii, m, max_eval_codewords, eps, math.exp(log_share), [seed, attempt]
            )
            keys = _codeword_keys(seed, points)
            eval_idx = np.arange(max_eval_codewords)
            return _estimate(points, keys, eval_idx, cols, starts, m, eps, samples, seed)
    return estimate_error_fraction(
        generate_codebook(radii, m, [seed, attempt]), eps, samples, seed,
        max_eval_codewords=max_eval_codewords,
    )


def _neighbourhood(
    radii: np.ndarray, m: int, k: int, eps: float, share: float, seed
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """k evaluated codewords of a random code of m codewords uniform in the
    ellipsoid radii, and those of the other m - k that lie within 2*eps of
    one of them, as (points, cols, starts): the evaluated ones lead points,
    and cols[starts[r]:starts[r + 1]] are the r-th one's competitors
    (_neighbor_lists' format). share is k (2 eps)^N / prod(radii), at most 1.

    The evaluated codewords are generate_codebook's draw for seed. In a
    whole code the subset of smallest content key is a uniform one, so its
    points are uniform in the body too. Only the others in U, the union of
    the evaluated codewords' 2*eps-balls, reach a list; each lies in U with
    probability |U & body| / |body|, and is then uniform on U & body.

    So, from the stream [*seed, 1], n ~ Binomial(m - k, share) candidates
    are drawn, each uniform in the ball about an evaluated codeword picked
    uniformly (the balls have equal volumes). A candidate in the body is
    kept with probability 1/c, c the number of evaluated codewords within
    2*eps of it: the thinning of Karp, Luby and Madras that the decode uses
    too. Each other codeword is then kept at x with density
    share * c / (k |B|) * 1/c = 1 / |body| on U & body, which is that law,
    and no lens volume is needed.
    """
    rng = np.random.default_rng([*seed, 1])
    n = int(rng.binomial(m - k, share))
    dim = len(radii)
    # before the 8n-byte competitor index, not only the sampler's n points
    require_points(n, dim)
    evaluated = generate_codebook(radii, k, seed).points
    near = rng.integers(k, size=n)
    ball = sample_uniform_ball(dim, 2.0 * eps, rng, size=n) if n else np.empty((0, dim))
    u = rng.random(n)
    points = np.concatenate([evaluated, ball])
    del ball  # not held through the neighbour search
    points[k:] += evaluated[near]
    cols, starts = _neighbor_lists(points, np.arange(k), eps)
    c = np.bincount(cols, minlength=k + n)[k:]
    kept = np.concatenate([np.ones(k, dtype=bool), (c >= 1) & (u * c < 1.0)])
    kept[k:] &= ~_escapes(points[k:], radii)
    # renumber onto the kept points; the map is increasing, so every list
    # stays ascending
    live = kept[cols]
    starts = np.concatenate([[0], np.cumsum(live)])[starts]
    cols = (np.cumsum(kept) - 1)[cols[live]]
    return points[kept], cols, starts


_MEMO_LOCK = threading.Lock()


def _shared(memo: dict | None, key, compute):
    """compute(), once per key of memo (None: no sharing). A caller that
    finds the key taken waits on the computing caller's Future, which
    carries its exception too, so no waiter is left waiting."""
    if memo is None:
        return compute()
    with _MEMO_LOCK:
        future = memo.get(key)
        mine = future is None
        if mine:
            future = memo[key] = Future()
    if mine:
        try:
            future.set_result(compute())
        except BaseException as exc:
            future.set_exception(exc)
            raise
    return future.result()


def _floor_pow2_exponent(log2_size: float) -> int:
    """floor(2^log2_size) guarded against overflow; huge sizes saturate."""
    if log2_size >= 62:
        return 2**62
    if log2_size < 0:
        return 0
    return int(math.floor(2.0**log2_size))


# --- error exponent ---


def error_exponent(omega: float, energy: float, eps: float, rate: float) -> float:
    """Decay rate (Omega/pi)*log2(sqrt(energy)/eps) - rate of the error fraction.

    For rates below the per-unit-time capacity lower bound, the satisfying
    codebook's error fraction shrinks like 2^(-T * exponent) as the window
    grows.
    """
    require_finite("omega", omega)
    require_finite("energy", energy)
    require_finite("eps", eps)
    require_finite("rate", rate, nonnegative=True)
    return entropy_rate(omega, math.sqrt(energy) / eps) - rate


@dataclass(frozen=True)
class SweepPoint:
    t_obs: float
    n_dim: int
    n_codewords: int
    capped: bool
    mean_error_fraction: float
    ci_low: float
    ci_high: float


@dataclass(frozen=True)
class ExponentSweep:
    """Measured error fractions over growing windows at a fixed rate.

    fitted_slope is the least-squares slope of log2(mean error fraction)
    against t_obs over the points with a positive measured fraction (None
    when fewer than two qualify); predicted_decay = -error_exponent is the
    theory value to compare against.
    """

    points: tuple
    fitted_slope: float | None
    predicted_decay: float
    rate: float
    samples: int
    seed: int

    def to_dict(self) -> dict:
        return vars(self) | {"points": [vars(p) for p in self.points]}


def empirical_exponent_sweep(
    params: SignalSpaceParams,
    rate: float,
    t_values,
    seed: int,
    samples: int = 2000,
    use_spectrum: bool = False,
    max_codewords: int = ExperimentConfig.max_codewords,
    max_eval_codewords: int | None = 256,
) -> ExponentSweep:
    """Run the codebook experiment across window lengths at one rate.

    The rate must sit strictly below the per-unit-time capacity lower
    bound (Omega/pi)*log2(sqrt(snr)); otherwise no decay is predicted and
    the sweep is refused.
    """
    cap_lower = entropy_rate(params.omega, params.sqrt_snr)
    if not (0 <= rate < cap_lower):
        raise ValueError(
            f"rate {rate} must lie in [0, {cap_lower:.6g}) so the error "
            "fraction is predicted to decay"
        )
    t_values = [float(t) for t in t_values]
    if len(t_values) < 2 or any(b <= a for a, b in zip(t_values, t_values[1:])):
        raise ValueError("t_values must be at least two strictly increasing windows")
    if any(t <= 0 for t in t_values):
        raise ValueError("t_values must be positive")

    points = []
    for t_obs in t_values:
        config = ExperimentConfig(
            params=replace(params, t_obs=t_obs),
            rate=rate,
            samples=samples,
            seed=seed,
            max_codewords=max_codewords,
            retries=1,
            max_eval_codewords=max_eval_codewords,
        )
        spectrum = build_spectrum(params.omega, t_obs) if use_spectrum else None
        outcome = run_random_code_experiment(config, spectrum)
        result = outcome.result
        points.append(
            SweepPoint(
                t_obs=t_obs,
                n_dim=outcome.bound.n_dim,
                n_codewords=outcome.n_codewords,
                capped=outcome.capped,
                mean_error_fraction=result.mean_error_fraction,
                ci_low=result.mean_error_ci[0],
                ci_high=result.mean_error_ci[1],
            )
        )

    positive = [(p.t_obs, p.mean_error_fraction) for p in points if p.mean_error_fraction > 0]
    slope = None
    if len(positive) >= 2:
        ts = np.array([t for t, _ in positive])
        logs = np.log2([v for _, v in positive])
        slope = float(np.polyfit(ts, logs, 1)[0])
    return ExponentSweep(
        points=tuple(points),
        fitted_slope=slope,
        predicted_decay=-error_exponent(params.omega, params.energy, params.eps, rate),
        rate=rate,
        samples=samples,
        seed=seed,
    )
