"""Monte Carlo codebook experiments against the error-fraction bounds.

A codebook of M points inside the energy body is hit by eps-bounded
noise; minimum-distance decoding fails on the part of each noise ball
that lies closer (ties included) to a competing codeword. The fraction
of the i-th ball lost this way is the per-codeword error fraction, and
the codebook-wide mean is the quantity the eps-delta capacity bounds
control: random codebooks of size floor(delta * (zeta*sqrt(E)/eps)^N)
should keep the mean at or below delta.

Randomness is reproducible and order-independent: each codeword gets its
own generator seeded from a content hash of (global seed, codeword
bytes), so permuting the codebook permutes the per-codeword results
without changing any of them.

The uniform ball and ellipsoid samplers, the squared distances that
find neighbours and decode, the bound reports (which give each run its
working dimension N and zeta), the satisfying-size formula and the
wide-window rate behind the error exponent all live in
:mod:`epscap.geometry`.
"""

from __future__ import annotations

import hashlib
import math
import os
import struct
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigurationError
from .geometry import (
    BoundReport,
    Ellipsoid,
    entropy_rate,
    log2_satisfying_size,
    per_unit_time_report,
    sample_uniform_ball,
    sample_uniform_ellipsoid,
    squared_distances,
    zeta_or_one,
)
from .params import MIN_SAMPLES, SignalSpaceParams, require_finite, require_int
from .spectrum import build_spectrum, degrees_of_freedom

Z95 = 1.959963984540054  # two-sided 95% normal quantile

# Codewords farther apart than 2*eps*(1 + slack) cannot contribute errors;
# the slack absorbs roundoff in squared-distance computations.
_NEIGHBOR_SLACK = 1e-12

# Evaluated codewords are compared with this many codewords at a time.
_NEIGHBOR_CHUNK = 16384

# The decode uses at most this many threads, the most measured (2 cores).
_MAX_CODEWORD_THREADS = 2
# Fewer draws per codeword than this decode on one thread: below it each
# codeword's interpreter-bound overhead outweighs its draw and product, and
# two threads took 1.0-1.8x the one-thread time at 2,000 samples and
# 0.5-0.8x at 10,000 (1- to 12-d codebooks, BLAS on one thread, 2 cores).
_MIN_THREADED_SAMPLES = 10000
# BLAS thread settings, in the order OpenBLAS reads them.
_BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


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
            inside = np.sum((points / radii) ** 2, axis=1)
            if np.any(inside > 1.0 + 1e-12):
                raise ValueError("codebook points must lie inside their ellipsoid")

    @property
    def n_codewords(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


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
    p = successes / trials
    z2 = Z95 * Z95
    denom = 1.0 + z2 / trials
    center = (p + z2 / (2.0 * trials)) / denom
    half = Z95 * math.sqrt(p * (1.0 - p) / trials + z2 / (4.0 * trials**2)) / denom
    # the exact endpoints at the degenerate counts; roundoff must not
    # push the interval off the point estimate
    lower = 0.0 if successes == 0 else max(0.0, center - half)
    upper = 1.0 if successes == trials else min(1.0, center + half)
    return lower, upper


def _codeword_digests(seed: int, points: np.ndarray) -> np.ndarray:
    """Content hash per codeword; the basis of order-independent streams."""
    prefix = struct.pack("<q", seed)
    out = np.empty(len(points), dtype="S32")
    for i, row in enumerate(points):
        out[i] = hashlib.sha256(prefix + row.tobytes()).digest()
    return out


def _stream_from_digest(digest: bytes) -> np.random.Generator:
    # S-dtype retrieval strips trailing nulls; digests are exactly 32 bytes
    words = struct.unpack("<4Q", digest.ljust(32, b"\x00"))
    return np.random.default_rng(np.random.SeedSequence(list(words)))


@dataclass(frozen=True)
class SimulationResult:
    """Per-codeword and aggregate error fractions with 95% intervals.

    error_fractions[k] is the estimated lost fraction of the noise ball
    around codeword eval_indices[k]; rows of error_fraction_cis are Wilson
    intervals ((0, 0) when no competitor is within reach and the fraction
    is exactly zero). mean_error_fraction averages the evaluated
    codewords; when eval_indices is a strict subset its interval also
    accounts for codeword-to-codeword spread. verdict, when a target was
    given, states whether the interval's upper end stays at or below it.
    """

    error_fractions: np.ndarray
    error_fraction_cis: np.ndarray
    mean_error_fraction: float
    mean_error_ci: tuple[float, float]
    samples_per_codeword: int
    n_codewords: int
    eval_indices: np.ndarray | None
    eps: float
    seed: int
    target_delta: float | None = None
    verdict: bool | None = None

    def to_dict(self) -> dict:
        """The fields; eval_indices goes out as n_evaluated and subsampled."""
        record = {k: v for k, v in vars(self).items() if k != "eval_indices"}
        return record | {
            "n_evaluated": len(self.error_fractions),
            "subsampled": self.eval_indices is not None,
        }


def _neighbor_lists(points: np.ndarray, eval_idx: np.ndarray, eps: float) -> list[np.ndarray]:
    """Indices within 2*eps of each evaluated codeword (itself excluded), ascending.

    Codeword j is a neighbour of x when |x|^2 - 2 x.y_j + |y_j|^2 is at
    most (2*eps)^2 * (1 + slack), computed over the whole codebook in
    blocks of columns by squared_distances, so every entry is the
    bit-for-bit value of the plain expression. Every block's matrix goes
    into the leading columns of one buffer allocated up front (np.matmul
    with out=, the same BLAS call as `@`), so no block is allocated while
    the previous one is still held.

    No pruning: the dense scan beats spatial trees in these dimensions,
    and a window on the norm, exact as it is (|x| - |y| <= |x - y|),
    keeps nearly every codeword there, since in a 12-d unit ball
    P(|x| < 1/2) = 2^-12.
    """
    m = len(points)
    sq_all = np.einsum("ij,ij->i", points, points)
    eval_pts = points[eval_idx]
    sq_eval = sq_all[eval_idx]
    cutoff = (2.0 * eps) ** 2 * (1.0 + _NEIGHBOR_SLACK)
    block = np.empty((len(eval_idx), min(m, _NEIGHBOR_CHUNK)))
    hit_rows, hit_cols = [], []
    for start in range(0, m, _NEIGHBOR_CHUNK):
        stop = min(start + _NEIGHBOR_CHUNK, m)
        d2 = squared_distances(
            eval_pts, sq_eval, points[start:stop], sq_all[start:stop], out=block[:, : stop - start]
        )
        # one flat scan: the 2-d np.nonzero costs ten times as much here
        rows, cols = np.divmod(np.flatnonzero(d2 <= cutoff), stop - start)
        hit_rows.append(rows)
        hit_cols.append(cols + start)
    rows = np.concatenate(hit_rows)
    cols = np.concatenate(hit_cols)
    others = cols != eval_idx[rows]
    rows, cols = rows[others], cols[others]
    # each block's hits come row by row in ascending column order, so a
    # stable sort by row leaves every list ascending
    cols = cols[np.argsort(rows, kind="stable")]
    counts = np.bincount(rows, minlength=len(eval_idx))
    return np.split(cols, np.cumsum(counts)[:-1])


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _blas_threads() -> int | None:
    """The BLAS thread count the environment sets, None where it sets none."""
    for name in _BLAS_THREAD_VARIABLES:
        try:
            threads = int(os.environ.get(name, ""))
        except ValueError:
            continue
        if threads > 0:
            return threads
    return None


def _codeword_threads(samples: int) -> int:
    """Thread count of the per-codeword decode at `samples` draws per codeword.

    Two (numpy releases the GIL in the draws, the product and the ufuncs)
    where two CPUs are usable, but one in three cases. Unless BLAS runs on
    one thread (the first of _BLAS_THREAD_VARIABLES set is 1): its own
    threads compete with the decode threads, and criterion-7 `simulate` on
    2 cores took 4.7-4.9 s with or without decode threads (3.2-3.4 s with
    BLAS on one thread and two decode threads). Below
    _MIN_THREADED_SAMPLES draws per codeword. And off the main thread, so
    the decode never nests threads inside a caller's pool, such as
    `sweep`'s rows.
    """
    if (
        samples < _MIN_THREADED_SAMPLES
        or _blas_threads() != 1
        or threading.current_thread() is not threading.main_thread()
    ):
        return 1
    return min(_MAX_CODEWORD_THREADS, _usable_cpus())


def estimate_error_fraction(
    codebook: Codebook,
    eps: float,
    samples: int,
    seed: int,
    target_delta: float | None = None,
    max_eval_codewords: int | None = None,
) -> SimulationResult:
    """Monte Carlo estimate of the mean decoding-error fraction.

    For each evaluated codeword, `samples` points are drawn uniformly in
    its eps-ball and decoded by minimum distance over the whole codebook;
    competitors at equal distance count as errors. Only codewords within
    2*eps can claim volume, so decoding reduces to the precomputed
    neighbor set; codewords with no neighbors contribute an exact zero.

    With max_eval_codewords set below the codebook size, evaluation runs
    on that many codewords chosen by smallest content hash (a fixed
    pseudo-random subset independent of codebook order), and the mean's
    interval widens to cover codeword-to-codeword spread.

    The codewords that have neighbours are decoded on as many threads as
    _codeword_threads allows. Each codeword draws from its own stream and
    its count is stored by index, so every result is bit-for-bit the
    serial one. A codeword's exception comes out of this call, and
    codewords not yet started are cancelled.
    """
    require_finite("eps", eps)
    samples = require_int("samples", samples, MIN_SAMPLES)
    seed = require_int("seed", seed, minimum=0)
    if target_delta is not None and not (0.0 < target_delta < 1.0):
        raise ValueError(f"target_delta must lie in (0, 1), got {target_delta}")
    if max_eval_codewords is not None:
        max_eval_codewords = require_int("max_eval_codewords", max_eval_codewords)

    points = codebook.points
    m, dim = points.shape

    digests = _codeword_digests(seed, points)
    subsampled = max_eval_codewords is not None and m > max_eval_codewords
    if subsampled:
        # stable sort on the digest bytes: a permutation of the codebook
        # selects the same set of codeword values
        order = np.argsort(digests, kind="stable")
        eval_idx = np.sort(order[:max_eval_codewords])
    else:
        eval_idx = np.arange(m)

    neighbors = _neighbor_lists(points, eval_idx, eps)

    def decode_errors(r: int) -> int:
        """Draws in the r-th evaluated codeword's ball that decode elsewhere."""
        i = int(eval_idx[r])
        rng = _stream_from_digest(bytes(digests[i]))
        draws = sample_uniform_ball(dim, eps, rng, size=samples)
        draws += points[i]
        # own distance goes through the same matmul as the competitors so
        # that a coincident codeword ties bit-for-bit and counts as error
        cols = np.concatenate([points[i : i + 1], points[neighbors[r]]], axis=0)
        d2 = squared_distances(
            draws, np.einsum("ij,ij->i", draws, draws), cols, np.einsum("ij,ij->i", cols, cols)
        )
        return int(np.count_nonzero(d2[:, 1:].min(axis=1) <= d2[:, 0]))

    k = len(eval_idx)
    # a codeword with no neighbours is an exact zero, its interval (0, 0)
    live = [r for r in range(k) if len(neighbors[r])]
    error_counts = np.zeros(k, dtype=np.int64)
    threads = min(_codeword_threads(samples), len(live))
    if threads > 1:
        # leaving the block after an exception cancels the codewords not
        # yet started and waits for those in flight
        with ThreadPoolExecutor(threads) as pool:
            error_counts[live] = list(pool.map(decode_errors, live))
    else:
        error_counts[live] = list(map(decode_errors, live))
    fractions = error_counts / samples
    cis = np.zeros((k, 2))
    for r in live:
        cis[r] = wilson_interval(error_counts[r], samples)

    # exactly rounded sums: the mean and the spread must not depend on the
    # order of the codebook
    mean = math.fsum(fractions) / k
    pooled = wilson_interval(error_counts.sum(), k * samples)
    if subsampled:
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

    verdict = None if target_delta is None else bool(mean_ci[1] <= target_delta)
    return SimulationResult(
        error_fractions=fractions,
        error_fraction_cis=cis,
        mean_error_fraction=mean,
        mean_error_ci=mean_ci,
        samples_per_codeword=samples,
        n_codewords=m,
        eval_indices=eval_idx if subsampled else None,
        eps=float(eps),
        seed=seed,
        target_delta=target_delta,
        verdict=verdict,
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
        setting("seed", 0)
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
    config: ExperimentConfig, spectrum=None
) -> ExperimentOutcome:
    """Size a random codebook, estimate its error fraction, retry on failure.

    The satisfying-size codebook is the constructive side of the capacity
    lower bound: on average it meets the delta budget, so within a few
    retries a drawn codebook should pass the verdict.
    """
    params = config.params
    n_dim = config.dim_override
    if spectrum is not None and n_dim is None:
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
            codebook = generate_codebook(body.radii, n_codewords, [config.seed, attempt])
            result = estimate_error_fraction(
                codebook,
                params.eps,
                config.samples,
                config.seed,
                target_delta=target,
                max_eval_codewords=config.max_eval_codewords,
            )
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
    max_codewords: int = 2**18,
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
