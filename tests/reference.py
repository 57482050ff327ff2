"""Reference helpers and oracles that only the tests read.

Each one checks a package result from outside it: a brute-force identity,
a closed form, a limit, or a search the package itself never runs.
"""

import math
import struct

import numpy as np
from scipy.special import betainc, expit, gammaln

from epscap.comparison import jagerman_capacity_lower
from epscap.geometry import Ellipsoid, wide_window_rates
from epscap.simulation import Codebook
from epscap.spectrum import EigenSpectrum, _transition_log


def log_ellipsoid_volume(ellipsoid: Ellipsoid) -> float:
    """log2 of the volume of an axis-aligned ellipsoid."""
    dim = ellipsoid.dim
    log2_unit_ball = (dim / 2.0) * math.log2(math.pi) - gammaln(dim / 2.0 + 1.0) / math.log(2.0)
    return log2_unit_ball + float(np.sum(np.log2(ellipsoid.radii)))


def verify_pairwise_distance_inequality(
    center: np.ndarray, points: np.ndarray
) -> tuple[bool, float]:
    """Check sum_jk |x_j - x_k|^2 <= 2m * sum_j |c - x_j|^2 by brute force.

    Returns (holds, slack) with slack = rhs - lhs. Equality holds exactly
    when c is the centroid; moving c away only increases the right side,
    which is what makes the inequality useful as a test oracle.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    center = np.asarray(center, dtype=float).ravel()
    if points.shape[1] != len(center):
        raise ValueError(
            f"dimension mismatch: points are {points.shape[1]}-d, "
            f"center is {len(center)}-d"
        )
    m = points.shape[0]
    lhs = 0.0
    for j in range(m):
        lhs += float(np.sum((points - points[j]) ** 2))
    rhs = 2.0 * m * float(np.sum((points - center) ** 2))
    slack = rhs - lhs
    holds = slack >= -1e-12 * max(1.0, abs(rhs))
    return holds, slack


def decode_error_indicator(codebook: Codebook, index: int, received) -> bool:
    """True when minimum-distance decoding of `received` misses codeword `index`.

    A competitor at exactly the same distance counts as an error (ties are
    resolved against the transmitted word).
    """
    points = codebook.points
    if not isinstance(index, (int, np.integer)) or not (0 <= index < len(points)):
        raise IndexError(f"index {index} out of range for {len(points)} codewords")
    received = np.asarray(received, dtype=float).ravel()
    if received.shape != (points.shape[1],):
        raise ValueError(
            f"received point has dimension {received.shape}, "
            f"codebook is {points.shape[1]}-d"
        )
    d2 = np.sum((points - received) ** 2, axis=1)
    own = d2[int(index)]
    d2[int(index)] = np.inf
    return bool(d2.min() <= own)


def cap_fraction(n: int, eps: float, d: float) -> float:
    """Share of an n-ball of radius eps lying beyond a hyperplane at d/2
    from its centre: what one competitor at distance d claims from the
    codeword's noise ball under minimum-distance decoding.

    The closed form is 1/2 * I_{1 - (d/2eps)^2}((n + 1)/2, 1/2), with I the
    regularised incomplete beta function; it is zero from d = 2*eps on.
    """
    x = d / (2.0 * eps)
    if x >= 1.0:
        return 0.0
    return 0.5 * float(betainc((n + 1) / 2.0, 0.5, 1.0 - x * x))


def capacity_crossover_dimension(snr: float) -> int:
    """Smallest integer N0 where the volume-ratio capacity lower bound
    overtakes the lattice-packing one.

    Needs snr > 4 so the volume-ratio rate log2(sqrt(snr)) - 1 is
    positive; past the crossover the advantage only grows with N0.
    """
    if not (snr > 4 and math.isfinite(snr)):
        raise ValueError(
            f"snr must exceed 4 for the volume-ratio bound to win, got {snr}"
        )
    # at Omega = pi one second carries one nominal dimension, so the
    # 2eps-capacity lower rate there is the bound's bits per dimension
    per_dim = wide_window_rates(math.pi, math.sqrt(snr))["capacity_2eps"][0]

    def advantage(n0: float) -> float:
        return n0 * per_dim - jagerman_capacity_lower(n0, snr)

    hi = 1
    while advantage(hi) <= 0:
        hi *= 2
        if hi > 2**40:  # unreachable for snr > 4, defensive
            raise ArithmeticError("crossover search did not terminate")
    lo = hi // 2
    # advantage is negative at lo (or lo = 0), positive at hi; it crosses once
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if mid < 1 or advantage(mid) <= 0:
            lo = mid
        else:
            hi = mid
    return hi


def transition_limit(k: float) -> float:
    """Limiting eigenvalue 1 / (1 + exp(k * pi^2)) at transition offset k."""
    # expit form is overflow-safe for large |k|
    return float(expit(-k * math.pi**2))


def phase_transition_residual(spectrum: EigenSpectrum, k: float) -> float:
    """Deviation of lambda at index floor(N0 + k*ln(N0*pi/2)) from its limit.

    The limit is 1/(1 + exp(k*pi^2)); at k = 0 the eigenvalue nearest the
    nominal dimensionality tends to 1/2. Convergence in N0 is logarithmic,
    so finite-window residuals shrink slowly (about 0.17 at N0 = 20).
    """
    if not math.isfinite(k):
        raise ValueError(f"k must be finite, got {k}")
    n0 = spectrum.nominal_dimension
    index_1b = math.floor(n0 + k * _transition_log(n0))
    if index_1b < 1 or index_1b > len(spectrum.lambdas):
        raise ValueError(
            f"transition index {index_1b} for k={k} is outside the computed "
            f"spectrum of length {len(spectrum.lambdas)}"
        )
    return float(spectrum.lambdas[index_1b - 1]) - transition_limit(k)


# --- exact replays of the packing and Monte Carlo hot paths ---
#
# The package computes these with blocked, in-place arithmetic; the
# one-at-a-time loops below are the definitions it must reproduce bit for
# bit (same accept decisions, same neighbour lists, same error counts).


def plain_ball_sample(dim: int, radius: float, rng: np.random.Generator, size: int):
    """Uniform points in the dim-ball, as plain out-of-place arithmetic."""
    direction = rng.standard_normal((size, dim))
    norms = np.linalg.norm(direction, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    scale = radius * rng.random((size, 1)) ** (1.0 / dim)
    return direction / norms * scale


def sequential_pack_count(pts: np.ndarray, min_sep_sq: float) -> int:
    """Points accepted in order, each one only if its squared distance to
    every point accepted before it is at least min_sep_sq."""
    accepted = np.empty_like(pts)
    count = 0
    for cand in pts:
        if count == 0:
            accepted[0] = cand
            count = 1
            continue
        d2 = np.sum((accepted[:count] - cand) ** 2, axis=1)
        if float(d2.min()) >= min_sep_sq:
            accepted[count] = cand
            count += 1
    return count


def plain_greedy_pack(radii, eps: float, seed: int, attempts: int, candidates: int) -> int:
    """The best sequential packing count over attempts, one candidate at a time."""
    radii = np.asarray(radii, dtype=float)
    best = 0
    for attempt in range(attempts):
        rng = np.random.default_rng([seed, attempt])
        pts = plain_ball_sample(len(radii), 1.0, rng, candidates) * radii
        best = max(best, sequential_pack_count(pts, (2.0 * eps) ** 2))
    return best


def per_codeword_lists(cols: np.ndarray, starts: np.ndarray) -> list[np.ndarray]:
    """The neighbour search's flat pairs (cols, starts) as one array per
    evaluated codeword, cols[starts[r]:starts[r + 1]]; starts must run from 0
    to len(cols) without a step down."""
    assert starts[0] == 0 and starts[-1] == len(cols) and np.all(np.diff(starts) >= 0)
    return [cols[a:b] for a, b in zip(starts[:-1], starts[1:], strict=True)]


def assert_same_lists(got, want):
    """Equal neighbour lists, dtype included."""
    assert len(got) == len(want)
    for g, w in zip(got, want, strict=True):
        assert g.dtype == w.dtype and np.array_equal(g, w)


def direct_neighbor_lists(points: np.ndarray, eval_idx: np.ndarray, eps: float):
    """Indices j != i with |points[j] - points[i]|^2 <= (2*eps)^2, one
    evaluated codeword i at a time over the whole codebook: the direct
    differences, squared and summed by the einsum the decode reads its caps
    from (np.sum's order differs from it in the last bit at distances of
    exactly 2*eps, where the cap is 0 either way)."""
    lists = []
    for i in eval_idx:
        offsets = points - points[i]
        near = np.flatnonzero(np.einsum("ij,ij->i", offsets, offsets) <= (2.0 * eps) ** 2)
        lists.append(near[near != i])
    return lists


# splitmix64 (Steele, Lea and Flood, OOPSLA 2014) in Python integers, so
# that no step leans on numpy's uint64 wraparound
_MASK = 2**64 - 1
_GOLDEN = 0x9E3779B97F4A7C15


def plain_finalise(z: int) -> int:
    """splitmix64's finaliser of a 64-bit integer."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def plain_codeword_key(seed: int, row) -> int:
    """The 64-bit content key of one codeword: from the seed, each
    little-endian 8-byte word of the row folded in by one splitmix64 step."""
    key = seed
    for (word,) in struct.iter_unpack("<Q", np.asarray(row, dtype="<f8").tobytes()):
        key = plain_finalise(((key ^ word) + _GOLDEN) & _MASK)
    return key


def plain_stream_key(seed: int, row) -> int:
    """The key of one codeword's random stream: its content key through the
    finaliser once more."""
    return plain_finalise(plain_codeword_key(seed, row))


def plain_uniform(stream_key: int, counter: int) -> float:
    """The stream's uniform at a counter: the splitmix64 output of
    stream_key + (counter + 1) * 0x9E3779B97F4A7C15, its top 52 bits plus
    one half over 2^52."""
    z = plain_finalise((stream_key + (counter + 1) * _GOLDEN) & _MASK)
    return ((z >> 12) + 0.5) / 2**52


# The slack of the formula rule below, relative to (2*eps)^2.
FORMULA_SLACK = 1e-12


def formula_neighbor_lists(points: np.ndarray, eval_idx: np.ndarray, eps: float, chunk: int):
    """Indices j != i with |x|^2 - 2 x.y_j + |y_j|^2 <= (2*eps)^2 * (1 + slack),
    x = points[i], computed in blocks of chunk columns: the rule the dense
    neighbour search kept before it settled each pair by its direct
    difference. It misses true neighbours once the expression's roundoff,
    about 1e-16 * |x|^2, outgrows the slack: at eps << |x|."""
    sq_all = np.einsum("ij,ij->i", points, points)
    eval_pts = points[eval_idx]
    sq_eval = sq_all[eval_idx]
    cutoff = (2.0 * eps) ** 2 * (1.0 + FORMULA_SLACK)
    hits = [[] for _ in range(len(eval_idx))]
    for start in range(0, len(points), chunk):
        stop = min(start + chunk, len(points))
        block = points[start:stop]
        d2 = sq_eval[:, None] - 2.0 * (eval_pts @ block.T) + sq_all[start:stop][None, :]
        rows, cols = np.nonzero(d2 <= cutoff)
        for r, c in zip(rows, cols, strict=True):
            j = start + int(c)
            if j != int(eval_idx[r]):
                hits[int(r)].append(j)
    return [np.asarray(h, dtype=np.intp) for h in hits]


def plain_decode_error_counts(
    codebook: Codebook, eval_idx: np.ndarray, eps: float, samples: int, seed: int
) -> np.ndarray:
    """Errors among `samples` draws in each evaluated codeword's eps-ball,
    decoded by minimum distance over its neighbours, ties counted as errors;
    the draws come from a Generator seeded with the codeword's stream key.
    Each |draw - y|^2 is summed from the difference, as in
    direct_neighbor_lists, so that the decisions hold at eps << |x| too."""
    points = codebook.points
    dim = points.shape[1]
    neighbors = direct_neighbor_lists(points, eval_idx, eps)
    counts = np.zeros(len(eval_idx), dtype=np.int64)
    for r, i in enumerate(eval_idx):
        nb = neighbors[r]
        if len(nb) == 0:
            continue
        rng = np.random.default_rng(plain_stream_key(seed, points[i]))
        draws = points[i] + plain_ball_sample(dim, eps, rng, samples)
        diffs = draws[:, None, :] - points[np.concatenate([[i], nb])][None, :, :]
        d2 = np.einsum("ijk,ijk->ij", diffs, diffs)
        counts[r] = int(np.sum(np.min(d2[:, 1:], axis=1) <= d2[:, 0]))
    return counts
