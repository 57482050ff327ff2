"""Euclidean geometry of the signal body: volumes, bounds, and oracles.

Signals with energy at most E, expanded in the eigenbasis of the
time-frequency limiting operator and truncated to N modes, fill an
ellipsoid with semi-axes sqrt(E * lambda_n). Packing that body with
disjoint eps-balls bounds how many signals stay distinguishable under
eps-bounded noise; covering it with eps-balls bounds how many bits
describe any signal to accuracy eps. All bound formulas here are exact
finite-N statements in bits (log2); the per-unit-time report divides out
the observation window and takes the wide-window limit.

The bound formulas (the eps-delta one also sizes the random codebooks
of the experiments), the wide-window rates that the comparison table and
the error exponent read, the working-dimension rule N = round(N0), the
squared-distance expression and the uniform ball and ellipsoid samplers
all live here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaln

from .errors import ConfigurationError
from .params import SignalSpaceParams, require_finite, require_int
from .spectrum import require_index, require_window, volume_correction

_LN2 = math.log(2.0)


# --- bodies and volumes ---


@dataclass(frozen=True)
class Ellipsoid:
    """Axis-aligned ellipsoid centered at the origin."""

    radii: np.ndarray

    def __post_init__(self):
        radii = np.atleast_1d(np.asarray(self.radii, dtype=float))
        if radii.ndim != 1 or len(radii) == 0:
            raise ValueError("radii must be a nonempty 1-d array")
        if not np.all(np.isfinite(radii)) or np.any(radii <= 0):
            raise ValueError("all radii must be positive and finite")
        object.__setattr__(self, "radii", radii)

    @property
    def dim(self) -> int:
        return len(self.radii)

    @classmethod
    def ball(cls, dim: int, radius: float) -> "Ellipsoid":
        return cls(np.full(require_int("dim", dim), float(radius)))

    @classmethod
    def from_spectrum(cls, spectrum, energy: float, n_dim: int) -> "Ellipsoid":
        """Energy ellipsoid of the first n_dim modes: semi-axes sqrt(E*lambda)."""
        require_finite("energy", energy)
        n_dim = require_index(spectrum, n_dim)
        return cls(np.sqrt(energy * spectrum.lambdas[:n_dim]))


def log_ball_volume(dim: int, radius: float) -> float:
    """log2 of the volume of the dim-ball of the given radius."""
    dim = require_int("dim", dim)
    require_finite("radius", radius)
    log2_unit_ball = (dim / 2.0) * math.log2(math.pi) - gammaln(dim / 2.0 + 1.0) / _LN2
    return log2_unit_ball + dim * math.log2(radius)


def squared_distances(x, x_sq, y, y_sq, out=None) -> np.ndarray:
    """|x_i|^2 - 2 x_i.y_j + |y_j|^2 for every row pair, given the squared norms.

    One matrix product (np.matmul, written into out when given), then
    built in place in that order: times 2, subtracted from x_sq, plus
    y_sq. Callers that replay a result bit for bit rely on that order.
    """
    d2 = np.matmul(x, y.T, out=out)
    d2 *= 2.0
    np.subtract(x_sq[:, None], d2, out=d2)
    d2 += y_sq
    return d2


# --- samplers ---


def sample_uniform_ball(
    dim: int, radius: float, rng: np.random.Generator, size: int
) -> np.ndarray:
    """Uniform points in the dim-ball: isotropic direction times U^(1/dim) radius.

    Returns shape (size, dim).
    """
    dim = require_int("dim", dim)
    require_finite("radius", radius, nonnegative=True)
    n = require_int("size", size)
    direction = rng.standard_normal((n, dim))
    # np.linalg.norm(axis=1)'s own expression, so every bit of the draws
    # stays the same; the direction is then scaled in place
    norms = np.sqrt(np.add.reduce(direction * direction, axis=1, keepdims=True))
    norms[norms == 0.0] = 1.0  # probability-zero guard
    scale = radius * rng.random((n, 1)) ** (1.0 / dim)
    direction /= norms
    direction *= scale
    return direction


def sample_uniform_ellipsoid(
    radii: np.ndarray, rng: np.random.Generator, size: int
) -> np.ndarray:
    """Uniform points in an axis-aligned ellipsoid (ball sample scaled per axis).

    Returns shape (size, len(radii)).
    """
    radii = Ellipsoid(radii).radii
    ball = sample_uniform_ball(len(radii), 1.0, rng, size=size)
    return ball * radii


# --- finite-dimensional bound formulas (bits) ---


def zeta_or_one(zeta_value: float | None) -> float:
    """The zeta the bits are taken at: the measured one, or 1 for None (no spectrum)."""
    return 1.0 if zeta_value is None else zeta_value


def _check_bound_args(n_dim, zeta_value, energy, eps):
    require_int("n_dim", n_dim)
    if not (0.0 < zeta_value <= 1.0):
        raise ValueError(f"zeta_value must lie in (0, 1], got {zeta_value}")
    require_finite("energy", energy)
    require_finite("eps", eps)


def capacity_2eps_bounds(
    n_dim: int, zeta_value: float, energy: float, eps: float
) -> tuple[float, float]:
    """Bits of a maximal codebook with pairwise distance at least 2*eps.

    Lower: volume-ratio packing of the mode ellipsoid, N*(log2(zeta*s) - 1)
    with s = sqrt(energy)/eps, clamped at 0.
    Upper: shell counting, N*log2(1 + s/sqrt(2)) + log2(1 + N/2).
    """
    _check_bound_args(n_dim, zeta_value, energy, eps)
    s = math.sqrt(energy) / eps
    lower = max(0.0, n_dim * (math.log2(zeta_value * s) - 1.0))
    upper = n_dim * math.log2(1.0 + s / math.sqrt(2.0)) + math.log2(1.0 + n_dim / 2.0)
    return lower, upper


def log2_satisfying_size(n_dim: int, zeta_value: float, s: float, delta: float) -> float:
    """N*log2(zeta*s) + log2(delta): log2 of a random codebook size that meets
    delta on average. Clamped at 0, it is the eps-delta capacity lower bound.
    """
    return n_dim * math.log2(zeta_value * s) + math.log2(delta)


def capacity_eps_delta_bounds(
    n_dim: int, zeta_value: float, energy: float, eps: float, delta: float
) -> tuple[float, float]:
    """Bits of a maximal codebook whose error-region fraction is <= delta.

    Lower: average-overlap argument, log2_satisfying_size clamped at 0.
    Upper: volume bound discounted by the tolerated error volume,
    N*log2(1 + s) + log2(1/(1 - delta)).
    """
    _check_bound_args(n_dim, zeta_value, energy, eps)
    if not (0.0 < delta < 1.0):
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    s = math.sqrt(energy) / eps
    lower = max(0.0, log2_satisfying_size(n_dim, zeta_value, s, delta))
    upper = n_dim * math.log2(1.0 + s) + math.log2(1.0 / (1.0 - delta))
    return lower, upper


def covering_overhead(n_dim: int) -> float:
    """log2 of the covering-density factor 4e*N^(3/2)/(ln N - 2) * N*ln N.

    The explicit covering construction behind the entropy upper bound is
    only meaningful once ln N > 2; below that the factor is undefined and
    NaN is returned.
    """
    require_int("n_dim", n_dim)
    ln_n = math.log(n_dim)
    if ln_n <= 2.0:
        return math.nan
    return math.log2(4.0 * math.e * n_dim**1.5 / (ln_n - 2.0) * n_dim * ln_n)


def entropy_eps_bounds(
    n_dim: int, zeta_value: float, energy: float, eps: float
) -> tuple[float, float, bool]:
    """Bits needed to describe any signal in the body to accuracy eps.

    Lower: volume-ratio covering, N*log2(zeta*s), clamped at 0.
    Upper: N*log2(s) plus the explicit covering overhead, clamped at 0
    (at s <= 1 one eps-ball covers the body, so 0 bits is exact); NaN
    when the overhead is undefined (N <= 7).

    The third element flags the regime where the upper bound's derivation
    holds: N >= 9 and 1 < s < N/ln N. Outside it the numbers are still
    computed but should not be quoted as a proven bound.
    """
    _check_bound_args(n_dim, zeta_value, energy, eps)
    s = math.sqrt(energy) / eps
    lower = max(0.0, n_dim * math.log2(zeta_value * s))
    overhead = covering_overhead(n_dim)
    upper = max(0.0, n_dim * math.log2(s) + overhead) if not math.isnan(overhead) else math.nan
    valid = n_dim >= 9 and 1.0 < s < n_dim / math.log(n_dim)
    return lower, upper, valid


# --- wide-window rates (bits/s) and the working dimension ---


def entropy_rate(omega: float, sqrt_snr: float) -> float:
    """(Omega/pi)*log2(sqrt_snr) bits/s: the eps-entropy rate, not clamped at 0.

    Clamped, it is also the eps-delta capacity lower rate and Shannon's
    rate-distortion rate; the error exponent reads it unclamped, negative
    when sqrt_snr < 1.
    """
    return (omega / math.pi) * math.log2(sqrt_snr)


def wide_window_rates(omega: float, sqrt_snr: float) -> dict[str, tuple[float, float]]:
    """(lower, upper) bits/s of each quantity in the wide-window limit.

    The rates depend only on the bandwidth and s = sqrt(snr) (not on
    delta, and not on the eigenvalues, since zeta -> 1).
    """
    r = omega / math.pi
    h_rate = max(0.0, entropy_rate(omega, sqrt_snr))
    return {
        "capacity_2eps": (
            max(0.0, r * (math.log2(sqrt_snr) - 1.0)),
            r * math.log2(1.0 + sqrt_snr / math.sqrt(2.0)),
        ),
        "capacity_eps_delta": (h_rate, r * math.log2(1.0 + sqrt_snr)),
        "entropy_eps": (h_rate, h_rate),
    }


def working_dimension(nominal_dimension: float, n_dim: int | None = None) -> int:
    """The dimension finite-N bounds are taken at: n_dim if given, else round(N0).

    A given n_dim must be a positive integer; round(N0) is raised to 1.
    """
    if n_dim is not None:
        return require_int("n_dim", n_dim)
    return max(1, round(nominal_dimension))


# --- consolidated reports ---


@dataclass(frozen=True)
class BoundReport:
    """Lower/upper bounds for one quantity, in bits and bits per second.

    Either pair may be absent (None); NaN marks a formula outside its
    domain. formula_tags names the method behind each populated field;
    notes carries validity caveats. valid is False when the bits lie
    outside the regime their derivation covers (the entropy bound's, see
    entropy_eps_bounds); to_dict leaves it out, the notes say it in words.
    """

    quantity: str
    lower_bits: float | None = None
    upper_bits: float | None = None
    lower_rate: float | None = None
    upper_rate: float | None = None
    n_dim: int | None = None
    zeta_value: float | None = None
    formula_tags: dict = field(default_factory=dict)
    notes: tuple = ()
    valid: bool = True

    def __post_init__(self):
        for lo, hi, label in (
            (self.lower_bits, self.upper_bits, "bits"),
            (self.lower_rate, self.upper_rate, "rate"),
        ):
            if lo is None or hi is None:
                continue
            if math.isnan(lo) or math.isnan(hi):
                continue
            if lo > hi + 1e-9:
                raise ValueError(
                    f"{self.quantity}: lower {label} {lo} exceeds upper {hi}"
                )

    def to_dict(self) -> dict:
        return {k: v for k, v in vars(self).items() if k != "valid"}


# the method behind each report field: both rates, and each quantity's
# (lower, upper) bits
_RATE_TAGS = {"lower_rate": "per-unit-time-limit", "upper_rate": "per-unit-time-limit"}
_BITS_METHODS = {
    "capacity_2eps": ("volume-ratio-packing", "shell-counting"),
    "capacity_eps_delta": ("average-overlap", "error-volume-discount"),
    "entropy_eps": ("volume-ratio-covering", "rogers-covering"),
}


def per_unit_time_report(
    params: SignalSpaceParams, spectrum=None, n_dim: int | None = None
) -> dict[str, BoundReport]:
    """Bound reports per quantity: wide-window rates and finite-N bits.

    The bits are taken at the working dimension: n_dim if given, else
    round(N0) of the spectrum (of params without one). They use the
    spectrum's measured zeta(N), or the zeta = 1 idealization without one.
    A spectrum must have been computed for params' omega and t_obs.
    """
    if spectrum is not None:
        require_window(spectrum, params.omega, params.t_obs)
    source = params if spectrum is None else spectrum
    n_dim = working_dimension(source.nominal_dimension, n_dim)
    zeta_value = None if spectrum is None else volume_correction(spectrum, n_dim)
    return finite_reports(params, n_dim=n_dim, zeta_value=zeta_value)


def finite_reports(
    params: SignalSpaceParams,
    n_dim: int,
    zeta_value: float | None = None,
) -> dict[str, BoundReport]:
    """The three BoundReports: wide-window rates and finite-N bits at n_dim.

    zeta_value is the spectrum's measured zeta(n_dim); without one (None)
    the bits take the idealized wide-window value 1 and the notes say so.
    At delta = 0 the eps-delta report holds rates only: its finite-N bits
    are the 2eps-capacity report's.
    """
    rates = wide_window_rates(params.omega, params.sqrt_snr)
    z = zeta_or_one(zeta_value)
    idealized = () if zeta_value is not None else ("zeta = 1 idealization (no spectrum)",)

    def report(key, bits, notes=(), valid=True):
        lower_method, upper_method = _BITS_METHODS[key]
        return BoundReport(
            quantity=key,
            lower_bits=bits[0],
            upper_bits=bits[1],
            lower_rate=rates[key][0],
            upper_rate=rates[key][1],
            n_dim=n_dim,
            zeta_value=zeta_value,
            formula_tags=_RATE_TAGS | {"lower_bits": lower_method, "upper_bits": upper_method},
            notes=notes + idealized,
            valid=valid,
        )

    c2 = report("capacity_2eps", capacity_2eps_bounds(n_dim, z, params.energy, params.eps))
    if params.delta > 0.0:
        cd = report(
            "capacity_eps_delta",
            capacity_eps_delta_bounds(n_dim, z, params.energy, params.eps, params.delta),
            (
                "finite-N bits apply to the N-mode coefficient space; "
                "the full-space statement is the per-unit-time limit",
            ),
        )
    else:
        cd = BoundReport(
            quantity="capacity_eps_delta",
            lower_rate=rates["capacity_eps_delta"][0],
            upper_rate=rates["capacity_eps_delta"][1],
            formula_tags=dict(_RATE_TAGS),
            notes=(
                "delta = 0: zero-error regime, finite-N bits given by the "
                "2eps-capacity report",
            ),
        )
    h_lo, h_hi, h_valid = entropy_eps_bounds(n_dim, z, params.energy, params.eps)
    h_notes = () if h_valid else (
        "outside the covering bound regime (need N >= 9 and "
        "1 < sqrt(snr) < N/ln N); upper bits are indicative only",
    )
    he = report("entropy_eps", (h_lo, h_hi), h_notes, h_valid)
    return {"capacity_2eps": c2, "capacity_eps_delta": cd, "entropy_eps": he}


# --- identities and oracles ---


def oracle_pack_interval(sqrt_energy: float, eps: float) -> int:
    """Exact maximal count of 2*eps-separated points in [-sqrt_energy, sqrt_energy].

    Walking from one end in steps of exactly 2*eps is optimal in 1-d, so
    the count is floor(sqrt_energy/eps) + 1 (separation is non-strict).
    """
    _check_oracle_args(sqrt_energy, eps)
    return int(math.floor(sqrt_energy / eps)) + 1


def oracle_cover_interval(sqrt_energy: float, eps: float) -> int:
    """Exact minimal count of eps-balls covering [-sqrt_energy, sqrt_energy].

    Each ball covers an interval of length 2*eps, so ceil(sqrt_energy/eps)
    balls are necessary and sufficient.
    """
    _check_oracle_args(sqrt_energy, eps)
    return int(math.ceil(sqrt_energy / eps))


def _check_oracle_args(sqrt_energy, eps):
    require_finite("sqrt_energy", sqrt_energy)
    require_finite("eps", eps)


def greedy_pack(
    ellipsoid: Ellipsoid,
    eps: float,
    seed: int,
    attempts: int = 4,
    candidates: int = 20000,
) -> int:
    """Randomized sequential packing: count 2*eps-separated points found.

    Draws uniform candidates in the ellipsoid and accepts each one that
    keeps all pairwise distances >= 2*eps. A lower-bound witness for the
    true packing number, not the optimum; with enough candidates it
    saturates well above the volume-ratio bound. Capped at dim <= 6,
    where saturation is reachable with modest candidate budgets.

    Each attempt replays the one-candidate-at-a-time rule exactly: every
    decision is made by np.sum((accepted - c) ** 2, axis=1) >= (2*eps)^2
    against every point accepted before c. A screen only saves work: one
    matrix product gives |c|^2 - 2 c.a + |a|^2 for a block of candidates
    against the points accepted before the block, and a candidate is
    rejected there only when its minimum lies below (2*eps)^2 - margin.
    The margin, 1e-9 * (2 * max |c|)^2 plus the smallest normal number,
    is orders above the roundoff of either expression (about
    1e-15 * (|c| + |a|)^2, or one subnormal step per operation), so the
    exact test would reject it too and BLAS summation order decides
    nothing. The
    survivors are settled in order by the exact test, against the points
    accepted earlier in the same block as well.
    """
    if ellipsoid.dim > 6:
        raise ConfigurationError(
            f"greedy_pack supports dim <= 6, got {ellipsoid.dim}; higher "
            "dimensions need exponentially many candidates to saturate"
        )
    require_finite("eps", eps)
    seed = require_int("seed", seed, minimum=0)
    attempts = require_int("attempts", attempts)
    candidates = require_int("candidates", candidates)

    min_sep_sq = (2.0 * eps) ** 2
    best = 0
    for attempt in range(attempts):
        rng = np.random.default_rng([seed, attempt])
        pts = sample_uniform_ellipsoid(ellipsoid.radii, rng, size=candidates)
        best = max(best, _pack_candidates(pts, min_sep_sq))
    return best


# Candidates screened per matrix product in _pack_candidates.
_PACK_BLOCK = 64


def _pack_candidates(pts: np.ndarray, min_sep_sq: float) -> int:
    """The count sequential packing accepts from pts, in order: screened a
    block at a time, settled one by one (see greedy_pack)."""
    sq = np.einsum("ij,ij->i", pts, pts)
    # the smallest normal number covers the absolute roundoff of subnormals
    margin = 4e-9 * float(sq.max(initial=0.0)) + np.finfo(float).tiny
    screen_floor = min_sep_sq - margin
    accepted = np.empty_like(pts)
    accepted_sq = np.empty_like(sq)
    count = 0
    for start in range(0, len(pts), _PACK_BLOCK):
        block = pts[start : start + _PACK_BLOCK]
        if count:
            g = squared_distances(
                block, sq[start : start + _PACK_BLOCK], accepted[:count], accepted_sq[:count]
            )
            # a NaN minimum (norms that overflow) goes on to the exact test
            survivors = np.flatnonzero(~(g.min(axis=1) < screen_floor))
        else:
            survivors = range(len(block))
        for i in survivors:
            cand = block[i]
            if count:
                d2 = np.sum((accepted[:count] - cand) ** 2, axis=1)
                if float(d2.min()) < min_sep_sq:
                    continue
            accepted[count] = cand
            accepted_sq[count] = sq[start + i]
            count += 1
    return count
