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
padded operands of the close-pair screens and the margin they keep, the cap
of a ball that a competitor claims, and the uniform ball, cap and
ellipsoid samplers all live here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import betainc, betaincinv, gammaln, ndtri

from .errors import ConfigurationError
from .params import SignalSpaceParams, require_dense, require_finite, require_int, require_seed
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
        dim = require_int("dim", dim)
        require_dense(8 * dim, f"the radii of a ball in {dim} dimensions need")
        return cls(np.full(dim, float(radius)))

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


def cap_fractions(dim: int, radius: float, distances) -> np.ndarray:
    """Share of the dim-ball beyond the bisector of its centre and a point at
    each distance d: what a competitor at d claims of a codeword's noise ball.
    1/2 * I_{1 - (d/2r)^2}((dim + 1)/2, 1/2), I the regularised incomplete
    beta function: 1/2 at d = 0, exactly 0 from d = 2r on.
    """
    x = np.asarray(distances, dtype=float) / (2.0 * radius)
    return 0.5 * betainc((dim + 1) / 2.0, 0.5, np.maximum(1.0 - x * x, 0.0))


ROW_BLOCK = 8192


def row_blocks(n_rows: int):
    """Slices of ROW_BLOCK consecutive rows that cover n_rows rows in order: a
    row-wise pass over a codebook-sized array works a block at a time, so
    that its temporaries stay in cache and none is the size of the array."""
    return (slice(start, start + ROW_BLOCK) for start in range(0, n_rows, ROW_BLOCK))


def row_square_sums(x: np.ndarray) -> np.ndarray:
    """np.sum(x ** 2, axis=1), bit for bit; a row block at a time."""
    out = np.empty(len(x))
    for block in row_blocks(len(x)):
        np.add.reduce(x[block] * x[block], axis=1, out=out[block])
    return out


def screen_operands(points: np.ndarray, sq: np.ndarray, out: np.ndarray, right: bool = False):
    """points padded into out, (len(points), dim + 2), so that a left row
    [x, |x|^2, 1] times a right row [-2y, 1, |y|^2] is |x|^2 - 2 x.y + |y|^2:
    one matrix product screens every pair of a block. sq holds the points'
    squared norms. out's dtype is the screen's precision: each entry is
    rounded to it once. Returns out."""
    dim = points.shape[1]
    if right:
        np.multiply(points, -2.0, out=out[:, :dim])
        out[:, dim], out[:, dim + 1] = 1.0, sq
    else:
        out[:, :dim] = points
        out[:, dim], out[:, dim + 1] = sq, 1.0
    return out


def screen_margin(sq: np.ndarray, dtype=np.float64, dim: int = 0) -> float:
    """How far a screen by |x|^2 - 2 x.y + |y|^2, with operands and sums in
    dtype, must stay from a cutoff on squared distances, among points of
    dim coordinates whose squared norms are sq.

    4 max |x|^2 * max(1e-9, gamma) plus dtype's smallest normal number,
    where gamma = (dim + 4) u / (1 - (dim + 4) u) and u is dtype's unit
    roundoff. (2 max |x|)^2 bounds the sum of the screen's terms' sizes, so
    gamma times it bounds the rounding of the operands into dtype and of
    their dim + 2 products summed in any order (Higham, Accuracy and
    Stability of Numerical Algorithms, 2002, section 3.1), and the smallest
    normal number bounds one subnormal step per operation. So a pair the
    screen puts beyond the cutoff by more than this is beyond it exactly,
    whatever BLAS summation order was used. In float64, gamma stays below
    1e-9 up to dim of about 9e6, and 1e-9 * (2 max |x|)^2 is orders above
    the roundoff of the screen or of a direct difference (about 1e-15 *
    (|x| + |y|)^2); float32 has no such room (gamma is 9.5e-7 at dim 12).

    Infinite where 4 * max |x|^2 overflows dtype: every partial sum of the
    screen is at most that, so below it none overflows, and above it an
    overflow to -inf or +inf can stand for a finite squared distance.
    """
    info = np.finfo(dtype)
    top = float(sq.max(initial=0.0))
    rounding = (dim + 4) * float(info.eps) / 2.0
    if not 4.0 * top <= float(info.max) or rounding >= 1.0:
        return math.inf
    return 4.0 * max(1e-9, rounding / (1.0 - rounding)) * top + float(info.tiny)


# --- samplers ---


def require_points(n: int, dim: int) -> None:
    """Refuse a draw of n points in dim dimensions above DENSE_BYTES."""
    require_dense(8 * n * dim, f"drawing {n} points in {dim} dimensions needs")


def sample_uniform_ball(dim: int, radius: float, rng: np.random.Generator, size: int):
    """(size, dim) uniform points in the dim-ball: isotropic direction times U^(1/dim) radius,
    refused by require_points before any draw (every point array is drawn here)."""
    dim = require_int("dim", dim)
    require_finite("radius", radius, nonnegative=True)
    n = require_int("size", size)
    require_points(n, dim)
    direction = rng.standard_normal((n, dim))
    # np.linalg.norm(axis=1)'s values, bit for bit; the direction is then scaled in place
    norms = np.sqrt(row_square_sums(direction))[:, None]
    norms[norms == 0.0] = 1.0  # probability-zero guard
    scale = radius * rng.random((n, 1)) ** (1.0 / dim)
    direction /= norms
    direction *= scale
    return direction


def sample_uniform_caps(
    radius: float, units: np.ndarray, shares: np.ndarray, uniforms: np.ndarray
) -> np.ndarray:
    """One uniform point in each of len(shares) caps of the ball about the origin.

    Cap k lies beyond a hyperplane normal to the unit vector units[k] and
    holds the share shares[k] of the ball (a cap_fractions value). Row k of
    uniforms holds dim + 1 uniforms in (0, 1). By the first, the point's
    coordinate t along units[k] solves 1/2 * I_{1 - (t/r)^2}((dim + 1)/2,
    1/2) = U * shares[k]; the rest of it is uniform in the (dim - 1)-ball of
    radius sqrt(r^2 - t^2) orthogonal to units[k], at a radius set by the
    second and in the direction of the dim - 1 normals (ndtri) of the
    others. In 1-d there is no such ball and the second goes unread.
    """
    n, dim = units.shape
    # w = 1 - (t/r)^2: t = r*sqrt(1 - w), and the disc radius is r*sqrt(w)
    w = betaincinv((dim + 1) / 2.0, 0.5, 2.0 * shares * uniforms[:, 0])
    points = (radius * np.sqrt(1.0 - w))[:, None] * units
    if dim > 1:
        # the normals fill the coordinates orthogonal to e_1; the Householder
        # reflection about v = units[k] + s e_1, s = +-1 the sign of
        # units[k, 0] (|v|^2 = 2 (1 + |units[k, 0]|) >= 2), takes e_1 to
        # -s units[k] and so them to the plane orthogonal to units[k]
        normals = ndtri(uniforms[:, 2:])
        head = units[:, 0]
        coef = np.einsum("ij,ij->i", units[:, 1:], normals) / (1.0 + np.abs(head))
        disc = -coef[:, None] * units
        disc[:, 0] -= np.where(head < 0.0, -coef, coef)
        disc[:, 1:] += normals
        norms = np.sqrt(np.einsum("ij,ij->i", normals, normals))  # a reflection keeps lengths
        norms[norms == 0.0] = 1.0  # probability-zero guard
        scale = radius * np.sqrt(w) * uniforms[:, 1] ** (1.0 / (dim - 1)) / norms
        points += scale[:, None] * disc
    return points


def sample_uniform_ellipsoid(radii: np.ndarray, rng: np.random.Generator, size: int):
    """(size, len(radii)) uniform points in an axis-aligned ellipsoid: a unit-ball
    sample scaled per axis, in place."""
    radii = Ellipsoid(radii).radii
    ball = sample_uniform_ball(len(radii), 1.0, rng, size=size)
    ball *= radii
    return ball


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
    decision is the one np.sum((accepted - c) ** 2, axis=1) >= (2*eps)^2
    makes against every point accepted before c. A screen only saves
    work: one matrix product of screen_operands gives |c|^2 - 2 c.a + |a|^2
    for a block of candidates against the points accepted before the
    block, and screen_margin bounds its distance from the exact sums, so
    BLAS summation order decides nothing. A candidate's minimum there has
    three outcomes:

    - below (2*eps)^2 - margin: rejected, as the exact test would;
    - at least (2*eps)^2 + margin: clear of those points, with no exact
      test;
    - in between, or NaN (norms that overflow): the exact test against
      the points accepted before the block.

    The survivors are then settled in order against each other by the
    same exact sums. Blocks widen as acceptances thin out, as far as a
    block's screen product and operand stay within 2^16 doubles.
    """
    if ellipsoid.dim > 6:
        raise ConfigurationError(
            f"greedy_pack supports dim <= 6, got {ellipsoid.dim}; higher "
            "dimensions need exponentially many candidates to saturate"
        )
    require_finite("eps", eps)
    seed = require_seed(seed)
    attempts = require_int("attempts", attempts)
    candidates = require_int("candidates", candidates)

    min_sep_sq = (2.0 * eps) ** 2
    best = 0
    for attempt in range(attempts):
        rng = np.random.default_rng([seed, attempt])
        pts = sample_uniform_ellipsoid(ellipsoid.radii, rng, size=candidates)
        best = max(best, _pack_candidates(pts, min_sep_sq))
    return best


# Doubles a block of _pack_candidates may hold in its screen product and
# right operand ((accepted points + dim + 2) times block candidates, 512 KB)
# and in the pairwise differences of the survivors settled together
# (survivors^2 * dim).
_PACK_PRODUCT = 2**16


def _pack_candidates(pts: np.ndarray, min_sep_sq: float) -> int:
    """The count sequential packing accepts from pts, in order: screened a
    block at a time, tested exactly only where the screen cannot decide
    (see greedy_pack)."""
    n, dim = pts.shape
    sq = np.einsum("ij,ij->i", pts, pts)
    margin = screen_margin(sq)
    # an infinite margin (a screen that may overflow) decides nothing
    reject_below = min_sep_sq - margin
    clear_from = min_sep_sq + margin if margin < math.inf else math.nan
    most = math.isqrt(_PACK_PRODUCT // dim)
    # the accepted points as the screen's left operands, whose first dim
    # columns are the points themselves, in a buffer doubled when full (a
    # row per candidate raised a sweep-then-pack process's peak by 1-2 MB)
    accepted = np.empty((64, dim + 2))
    count = start = 0
    width = 64
    while start < n:
        block = pts[start : start + width]
        if count:
            right = np.empty((len(block), dim + 2))
            screen_operands(block, sq[start : start + width], right, right=True)
            low = (right @ accepted[:count].T).min(axis=1)
        else:
            low = np.full(len(block), np.inf)
        # a NaN minimum (norms that overflow) is neither rejected nor clear
        survivors = np.flatnonzero(~(low < reject_below))
        if len(survivors) > most:  # the rest of the block goes to the next
            block = block[: survivors[most]]
            survivors = survivors[:most]
        keep = np.ones(len(survivors), dtype=bool)
        for j in np.flatnonzero(~(low[survivors] >= clear_from)):
            d2 = np.sum((accepted[:count, :dim] - block[survivors[j]]) ** 2, axis=1)
            keep[j] = not float(d2.min(initial=math.inf)) < min_sep_sq
        new = survivors[keep]
        if len(new) > 1:
            # every survivor is clear of the points accepted before the
            # block; settle them in order against each other
            close = _pair_square_sums(block[new]) < min_sep_sq
            np.fill_diagonal(close, False)
            take = ~close.any(axis=1)
            for i in np.flatnonzero(~take):
                take[i] = not np.any(close[i, :i] & take[:i])
            new = new[take]
        while count + len(new) > len(accepted):
            accepted = np.concatenate([accepted, np.empty_like(accepted)])
        screen_operands(block[new], sq[start + new], accepted[count : count + len(new)])
        count += len(new)
        # the next block: about 8 candidates per point this one accepted,
        # from 64 to twice this block, and its product and right operand
        # within _PACK_PRODUCT
        width = min(2 * len(block), max(64, 8 * len(block) // max(len(new), 1)))
        width = max(1, min(width, _PACK_PRODUCT // (count + dim + 2)))
        start += len(block)
    return count


def _pair_square_sums(points: np.ndarray) -> np.ndarray:
    """[i, j] = np.sum((points[j] - points[i]) ** 2), bit for bit the exact
    test's sum over one row: the same differences, squared and summed in
    the same order."""
    diff = points - points[:, None]
    np.square(diff, out=diff)
    return diff.sum(axis=2)
