"""Reference helpers and oracles that only the tests read.

Each one checks a package result from outside it: a brute-force identity,
a closed form, a limit, or a search the package itself never runs.
"""

import math

import numpy as np
from scipy.special import expit, gammaln

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
