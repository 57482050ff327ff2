"""Eigenvalue spectrum of the time-frequency limiting (sinc-kernel) operator.

A signal bandlimited to [-Omega, Omega] and observed on [-T/2, T/2] is
governed by the Fredholm eigenproblem

    lambda_n psi_n(t) = integral_{-T/2}^{T/2} psi_n(s) sin(Omega(t-s)) / (pi(t-s)) ds,

whose eigenfunctions are the prolate spheroidal wave functions and whose
eigenvalues 1 > lambda_1 > lambda_2 > ... > 0 cluster near 1 up to about
N0 = Omega*T/pi and then plunge to 0 across a transition band of width
O(log N0). Everything downstream (effective dimensionality, volume
corrections, capacity and entropy bounds) is a functional of this spectrum.

build_spectrum solves the differential operator that commutes with the
integral one (Slepian & Pollak 1961; Osipov, Rokhlin & Xiao, "Prolate
Spheroidal Wave Functions of Order Zero", 2013). On [-1, 1], with
c = Omega*T/2, it is -(d/dx)(1 - x^2)(d/dx) + c^2 x^2; in the normalised
Legendre basis Pbar_k = sqrt(k + 1/2) P_k it is a symmetric matrix coupling
k only to k and k +- 2, so it splits into an even and an odd tridiagonal,
each solved for its eigenvectors by MRRR on about c + 32 Legendre degrees
past the modes wanted. The eigenvalues then come from the coefficients:
the largest from psi_0(0) (the prolate functions count from 0, so psi_n
belongs to lambda_{n+1}), and each later one from the ratio identity of
_prolate_ratios, whose two inner products are O(1), so a tiny lambda
keeps full relative accuracy. No matrix of the order's size is built,
and the work does not grow with the order: the order only sets how many
eigenvalues are reported (modes below CLIP_FLOOR store the floor) and,
for eigenvectors, the Gauss-Legendre nodes they are sampled at.

Three checks can fail. The exact eigenvalues sum to the operator's trace,
N0, so trace_error = |sum of computed lambda - N0| measures the solve
(2e-12 at N0 = 200, 1.4e-11 at N0 = 1000). Every mode's trailing
Legendre coefficients must be negligible, or the basis truncated it. And
the last mode solved must lie below CLIP_FLOOR, or the floor stored for
the later ones would stand for larger eigenvalues.

The stored eigenvalues are non-increasing. On the plateau, where 1 - lambda
is below roundoff (the tests take 1e-13 as that floor), the recurrence's
product carries a few ulps of noise; a running minimum removes its rises,
and there the stored order of the distinct exact values is roundoff.

build_kernel_matrix and compute_spectrum keep the Nystrom method on a
Gauss-Legendre rule as an independent oracle for the tests: with nodes t_i
and weights w_i, the symmetrized matrix

    K_ij = sqrt(w_i w_j) * (Omega/pi) * sinc(Omega (t_i - t_j))

has the eigenvalues of the quadrature-discretized operator, found by one
dense eigenvalues-only solve; the oracle has no eigenvectors. The tests
check build_spectrum's eigenvectors against K itself.

Index conventions follow the classical literature: eigenvalues are
1-based in formulas (lambda_1 is the largest) and stored 0-based in
arrays, so lambda_n == spectrum.lambdas[n-1]. Transition-band index
offsets use natural log; information quantities elsewhere use log2.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, replace

import numpy as np
from numpy.polynomial import legendre
from scipy.linalg import eigh_tridiagonal, eigvalsh_tridiagonal

from .errors import ConfigurationError, InsufficientSpectrumError, NumericalError
from .params import nominal_dimension, require_dense, require_finite, require_int

logger = logging.getLogger(__name__)

# Eigenvalues are clipped into [CLIP_FLOOR, 1 - CLIP_FLOOR]: the exact ones
# lie strictly inside (0, 1), while a double-precision solve rounds the
# leading plateau to 1 and cannot resolve the deep tail.
CLIP_FLOOR = 1e-15

# The smallest mu^2 / energy that degrees_of_freedom counts eigenvalues
# against: 100 * CLIP_FLOOR, the 1e-13 below which the stored eigenvalues'
# values and order are roundoff (ROADMAP, "Standing"). Lower it only after
# a test shows the spectrum is accurate below it.
RESOLUTION_FLOOR = 1e-13

# A solved mode's last Legendre coefficients (of a unit coefficient vector)
# must stay below this; a larger one means the basis cut the mode off.
_TAIL_TOLERANCE = 1e-14


def gauss_legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], bit-identical to leggauss.

    This is numpy's ``leggauss`` algorithm with one step changed: the first
    guess at the roots comes from a tridiagonal eigensolve of the symmetric
    Legendre companion matrix (whose diagonal is zero) instead of a dense
    one, which makes it O(order^2) instead of O(order^3). The Newton polish
    and the weight formula are numpy's.
    """
    c = np.zeros(order + 1)
    c[-1] = 1.0
    scl = 1.0 / np.sqrt(2 * np.arange(order) + 1)
    x = eigvalsh_tridiagonal(
        np.zeros(order), np.arange(1, order) * scl[: order - 1] * scl[1:order]
    )
    df = legendre.legval(x, legendre.legder(c))
    x -= legendre.legval(x, c) / df
    fm = legendre.legval(x, c[1:])
    fm /= np.abs(fm).max()
    df /= np.abs(df).max()
    w = 1.0 / (fm * df)
    w = (w + w[::-1]) / 2
    x = (x - x[::-1]) / 2
    w *= 2.0 / w.sum()
    return x, w


def default_quad_order(omega: float, t_obs: float) -> int:
    """Default order: max(256, 8 * ceil(N0)).

    build_spectrum reports that many eigenvalues, and samples eigenvectors
    at that many Gauss-Legendre nodes; the Nystrom oracle uses it as its
    node count, where eight nodes per nominal degree of freedom resolve the
    transition band with a wide margin.
    """
    return max(256, 8 * math.ceil(nominal_dimension(omega, t_obs)))


def _checked_order(omega: float, t_obs: float, quad_order: int | None) -> int:
    """The order (default_quad_order when None), refused below 4 * ceil(N0)
    and where its eigenvalues would pass DENSE_BYTES."""
    require_finite("omega", omega)
    require_finite("t_obs", t_obs)
    if quad_order is None:
        quad_order = default_quad_order(omega, t_obs)
    quad_order = require_int("quad_order", quad_order)
    min_order = 4 * math.ceil(nominal_dimension(omega, t_obs))
    if quad_order < min_order:
        raise ConfigurationError(
            f"quad_order {quad_order} is below 4 * ceil(N0) = {min_order}; "
            "the eigenvalue transition band would be unresolved"
        )
    require_dense(8 * quad_order, f"reporting {quad_order} eigenvalues needs")
    return quad_order


@dataclass(frozen=True)
class EigenSpectrum:
    """Descending eigenvalues and, on request, node-sampled eigenfunctions.

    lambdas:     the first quad_order eigenvalues, non-increasing, clipped
                 to [CLIP_FLOOR, 1 - CLIP_FLOOR]
    trace_error: |sum of computed eigenvalues - N0|; the exact ones sum to
                 N0, so a wrong solve shows here
    eigvecs:     None unless vectors were requested (build_spectrum(...,
                 vectors=True)); then column n holds psi_{n+1} evaluated at
                 the nodes, scaled so that the L2 norm over the whole line
                 is 1, equivalently sum_i w_i psi_n(t_i)^2 == lambda_n
                 (concentration on the observation window)
    nodes:       the quad_order Gauss-Legendre nodes on [-T/2, T/2] and
    weights:     their weights (sum T); both empty unless eigvecs is set
    """

    lambdas: np.ndarray
    omega: float
    t_obs: float
    trace_error: float
    eigvecs: np.ndarray | None = None
    nodes: np.ndarray = field(default_factory=lambda: np.empty(0))
    weights: np.ndarray = field(default_factory=lambda: np.empty(0))

    @property
    def clip_floor(self) -> float:
        """CLIP_FLOOR, which every spectrum is clipped to."""
        return CLIP_FLOOR

    @property
    def quad_order(self) -> int:
        """How many eigenvalues are reported; it does not set their accuracy."""
        return len(self.lambdas)

    @property
    def nominal_dimension(self) -> float:
        return nominal_dimension(self.omega, self.t_obs)


def _legendre_count(c: float, n_modes: int) -> int:
    """Legendre coefficients kept for the first n_modes prolate functions.

    An even count of about n_modes + c + 32: psi_n's coefficients fall
    below 1e-17 within 0.7 c + 30 degrees past n, and closer once n >> c
    (measured up to N0 = 1000); _prolate_coefficients refuses a shortfall.
    """
    return 2 * ((n_modes + math.ceil(c)) // 2 + 16)


def _prolate_coefficients(
    c: float, n_coeffs: int, n_modes: int
) -> tuple[np.ndarray, np.ndarray]:
    """Normalised Legendre coefficients of psi_0, ..., psi_{n_modes-1}.

    The prolate operator's matrix on Pbar_0, ..., Pbar_{n_coeffs-1} has
    diagonal k(k+1) + c^2 (2k(k+1) - 1) / ((2k+3)(2k-1)) and couples k to
    k + 2 by c^2 (k+2)(k+1) / ((2k+3) sqrt((2k+1)(2k+5))). Its eigenvectors,
    by ascending eigenvalue, are the prolate functions by descending lambda.
    Returns (even, odd): column j of even holds psi_{2j} on Pbar_0, Pbar_2,
    ...; column j of odd holds psi_{2j+1} on Pbar_1, Pbar_3, .... Each
    column has unit norm, so each function has unit norm on [-1, 1].

    Raises ConfigurationError, before solving, when one parity's
    eigenvector matrix would pass DENSE_BYTES, and NumericalError when a
    mode's trailing coefficients exceed _TAIL_TOLERANCE: n_coeffs
    truncated it.
    """
    require_dense(8 * ((n_coeffs + 1) // 2) ** 2, f"the prolate solve at N0 = "
                  f"{2.0 * c / math.pi:.6g} needs {n_coeffs} Legendre coefficients,",
                  " of eigenvectors per parity")
    k = np.arange(n_coeffs, dtype=float)
    diagonal = k * (k + 1) + c * c * (2 * k * (k + 1) - 1) / ((2 * k + 3) * (2 * k - 1))
    k = k[:-2]
    coupling = c * c * (k + 2) * (k + 1) / ((2 * k + 3) * np.sqrt((2 * k + 1) * (2 * k + 5)))
    blocks = []
    for parity in (0, 1):
        try:
            # MRRR makes no BLAS-3 call, so the bits do not follow BLAS
            # threads; solving every mode is faster than selecting some. A
            # Fortran-order copy of the kept columns frees the whole matrix
            # before the next solve and keeps the later sums' bits
            blocks.append(eigh_tridiagonal(
                diagonal[parity::2], coupling[parity::2], lapack_driver="stemr"
            )[1][:, : (n_modes + 1 - parity) // 2].copy(order="F"))
        except np.linalg.LinAlgError as exc:  # pragma: no cover - MRRR on
            # a finite symmetric tridiagonal essentially cannot fail
            raise NumericalError(f"prolate eigensolve failed: {exc}") from exc
    tail = max(float(np.max(np.abs(vecs[-2:]))) for vecs in blocks)
    if not tail <= _TAIL_TOLERANCE:
        raise NumericalError(
            f"{n_coeffs} Legendre coefficients truncate the first {n_modes} "
            f"prolate functions: a trailing coefficient is {tail:.3g}"
        )
    return blocks[0], blocks[1]


def _column_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Inner product of each column of a with the same column of b."""
    return np.einsum("ij,ij->j", a, b)


def _prolate_ratios(even: np.ndarray, odd: np.ndarray) -> np.ndarray:
    """lambda_{n+2} / lambda_{n+1} from psi_n and psi_{n+1}, for each n.

    With F psi = integral_{-1}^{1} exp(icxt) psi(t) dt, F psi_n = mu_n psi_n
    and lambda_{n+1} = (c / 2 pi) |mu_n|^2. Differentiating under the
    integral gives mu_n <psi_m, psi_n'> = ic mu_m <x psi_n, psi_m>, so
    |<psi_{n+1}, psi_n'>| / |<psi_n, psi_{n+1}'>| is the eigenvalue ratio,
    both inner products O(1). The derivative of a Pbar series beta is
    (D beta)_j = sqrt(2j+1) sum_{k>j, k+j odd} sqrt(2k+1) beta_k: a reverse
    cumulative sum over the other parity's rows.
    """
    rows = np.arange(len(even))[:, None]
    root_even = np.sqrt(4 * rows + 1)  # sqrt(2k+1) at k = 2 * row
    root_odd = np.sqrt(4 * rows + 3)  # sqrt(2k+1) at k = 2 * row + 1
    # even modes' derivatives on the odd rows (k = 2i > j = 2l + 1: i > l),
    # odd modes' on the even rows (k = 2i + 1 > j = 2l: i >= l)
    d_even = np.zeros_like(even)
    d_even[:-1] = root_odd[:-1] * np.cumsum((root_even * even)[::-1], axis=0)[-2::-1]
    d_odd = root_even * np.cumsum((root_odd * odd)[::-1], axis=0)[::-1]
    n_even, n_odd = even.shape[1], odd.shape[1]
    ratios = np.empty(n_even + n_odd - 1)
    # from psi_2a to psi_2a+1, then from psi_2a+1 to psi_2a+2
    ratios[0::2] = np.abs(_column_dots(odd, d_even[:, :n_odd])) / np.abs(
        _column_dots(even[:, :n_odd], d_odd)
    )
    ratios[1::2] = np.abs(_column_dots(even[:, 1:], d_odd[:, : n_even - 1])) / np.abs(
        _column_dots(odd[:, : n_even - 1], d_even[:, 1:])
    )
    return ratios


def _prolate_lambda1(c: float, even: np.ndarray) -> float:
    """lambda_1 = (c / 2 pi) mu_0^2, with mu_0 = sqrt(2) beta_0 / psi_0(0).

    F psi_0 = mu_0 psi_0 at x = 0 reads mu_0 psi_0(0) = integral psi_0 =
    sqrt(2) beta_0, and Pbar_2i(0) = sqrt(2i + 1/2) P_2i(0) with
    P_2i(0) = prod_{j=1}^{i} -(2j - 1) / (2j).
    """
    j = np.arange(1, len(even))
    p_at_zero = np.cumprod(np.concatenate([[1.0], (1 - 2 * j) / (2 * j)]))
    psi0_at_zero = float(np.sum(even[:, 0] * np.sqrt(2 * np.arange(len(even)) + 0.5) * p_at_zero))
    mu0 = math.sqrt(2.0) * float(even[0, 0]) / psi0_at_zero
    return c / (2.0 * math.pi) * mu0 * mu0


def _prolate_values(c: float, n_modes: int, x: np.ndarray) -> np.ndarray:
    """psi_0, ..., psi_{n_modes-1} (unit norm on [-1, 1]) at the points x."""
    even, odd = _prolate_coefficients(c, _legendre_count(c, n_modes), n_modes)
    degrees = np.arange(2 * len(even))
    vander = legendre.legvander(x, degrees[-1])
    vander *= np.sqrt(degrees + 0.5)
    values = np.empty((len(x), n_modes))
    values[:, 0::2] = vander[:, 0::2] @ even
    values[:, 1::2] = vander[:, 1::2] @ odd
    return values


def _clip(raw_lambdas: np.ndarray) -> np.ndarray:
    """Clip into [CLIP_FLOOR, 1 - CLIP_FLOOR], logging how many moved."""
    below = int(np.sum(raw_lambdas < CLIP_FLOOR))
    above = int(np.sum(raw_lambdas > 1.0 - CLIP_FLOOR))
    if below or above:
        logger.debug("clipped %d eigenvalues below %g and %d above %g",
                     below, CLIP_FLOOR, above, 1.0 - CLIP_FLOOR)
    return np.clip(raw_lambdas, CLIP_FLOOR, 1.0 - CLIP_FLOOR)


def build_spectrum(
    omega: float, t_obs: float, quad_order: int | None = None, vectors: bool = False
) -> EigenSpectrum:
    """The first quad_order eigenvalues, from the prolate tridiagonals.

    Args:
        omega: one-sided angular bandwidth in rad/s, > 0.
        t_obs: observation window length, > 0.
        quad_order: eigenvalues reported, and Gauss-Legendre nodes for the
            eigenvectors; defaults to max(256, 8 * ceil(N0)) and must be
            >= 4 * ceil(N0).
        vectors: also sample the eigenfunctions at the nodes. The
            eigenvalues are the same either way. Refused, before anything
            is solved, when the Legendre Vandermonde and value array this
            needs would pass DENSE_BYTES.

    One solve covers the modes up to 16 past the asymptotic count of
    eigenvalues above CLIP_FLOOR (all quad_order, when that is fewer); the
    later ones store the floor. Raises NumericalError when fewer than
    quad_order modes were solved and the last is not below CLIP_FLOOR, so
    the floor never stands for an eigenvalue above it.
    """
    quad_order = _checked_order(omega, t_obs, quad_order)
    n0 = nominal_dimension(omega, t_obs)
    c = omega * t_obs / 2.0
    if vectors:
        n_coeffs = _legendre_count(c, quad_order)
        require_dense(8 * quad_order * (n_coeffs + quad_order),
                      f"eigenvectors at order {quad_order} need a {quad_order} x {n_coeffs} "
                      f"Legendre Vandermonde and a {quad_order} x {quad_order} value array,",
                      " together")
    above_floor = dof_asymptotic(max(n0, 2.0), 1.0, math.sqrt(CLIP_FLOOR))
    n_modes = min(quad_order, math.ceil(above_floor) + 16)
    even, odd = _prolate_coefficients(c, _legendre_count(c, n_modes), n_modes)
    steps = np.concatenate([[_prolate_lambda1(c, even)], _prolate_ratios(even, odd)])
    raw_lambdas = np.cumprod(steps)
    if not np.all(np.isfinite(raw_lambdas)):
        raise NumericalError("prolate recurrence returned non-finite eigenvalues")
    if n_modes < quad_order and not raw_lambdas[-1] < CLIP_FLOOR:
        raise NumericalError(
            f"lambda_{n_modes} = {raw_lambdas[-1]:.3g}, the last of the {n_modes} prolate "
            f"modes solved, is not below the clip floor {CLIP_FLOOR:g}"
        )

    trace_error = abs(float(raw_lambdas.sum()) - n0)
    # the exact values strictly decrease; the running minimum takes out the
    # few-ulp rises of the product on the plateau
    lambdas = _clip(
        np.concatenate([np.minimum.accumulate(raw_lambdas), np.zeros(quad_order - n_modes)])
    )
    spectrum = EigenSpectrum(lambdas=lambdas, omega=omega, t_obs=t_obs, trace_error=trace_error)
    if vectors:
        x, w = gauss_legendre(quad_order)
        half = t_obs / 2.0
        # unit norm on [-1, 1] -> on the window -> energy lambda_n inside it
        eigvecs = _prolate_values(c, quad_order, x) * np.sqrt(lambdas / half)
        spectrum = replace(spectrum, eigvecs=eigvecs, nodes=x * half, weights=w * half)
    return spectrum


def build_kernel_matrix(omega: float, t_obs: float, quad_order: int | None = None) -> np.ndarray:
    """The symmetrized Nystrom matrix of the sinc kernel (the test oracle).

    K_ij = sqrt(w_i w_j) (Omega/pi) sinc((Omega/pi)(t_i - t_j)) on the
    quad_order Gauss-Legendre nodes t_i and weights w_i of [-T/2, T/2];
    quad_order defaults and is refused as in build_spectrum.
    """
    quad_order = _checked_order(omega, t_obs, quad_order)
    x, w = gauss_legendre(quad_order)
    nodes, weights = x * (t_obs / 2.0), w * (t_obs / 2.0)
    scale = omega / math.pi
    sinc = np.sinc(scale * np.subtract.outer(nodes, nodes))
    return np.sqrt(np.multiply.outer(weights, weights)) * scale * sinc


def compute_spectrum(omega: float, t_obs: float, quad_order: int | None = None) -> EigenSpectrum:
    """The Nystrom matrix's eigenvalues from one dense solve (the test oracle).

    Sorted descending and clipped like build_spectrum's; trace_error is
    |eigenvalue sum - N0|, the matrix trace's distance from N0.
    """
    raw_lambdas = np.linalg.eigvalsh(build_kernel_matrix(omega, t_obs, quad_order))[::-1]
    return EigenSpectrum(
        lambdas=_clip(raw_lambdas),
        omega=omega,
        t_obs=t_obs,
        trace_error=abs(float(raw_lambdas.sum()) - nominal_dimension(omega, t_obs)),
    )


# --- scalar functionals of the spectrum ---


def volume_correction(spectrum: EigenSpectrum, n_dim: int) -> float:
    """Geometric-mean root (prod_{n<=N} lambda_n)^(1/(2N)) of the spectrum.

    This is the volume correction between the energy ellipsoid of the
    first N modes and the enclosing ball; it tends to 1 as the window
    grows. Computed in log space to avoid underflow.
    """
    n_dim = require_index(spectrum, n_dim)
    log_sum = float(np.sum(np.log(spectrum.lambdas[:n_dim])))
    return math.exp(log_sum / (2.0 * n_dim))


def n_width(spectrum: EigenSpectrum, energy: float, n_dim: int) -> float:
    """Kolmogorov width d_N = sqrt(energy * lambda_{N+1}).

    The worst-case error of the best N-dimensional approximating subspace
    for signals of energy at most `energy`; n_dim = 0 gives the trivial
    subspace and d_0 = sqrt(energy * lambda_1).
    """
    require_finite("energy", energy)
    n_dim = require_int("n_dim", n_dim, minimum=0)
    if n_dim >= spectrum.quad_order:
        raise InsufficientSpectrumError(
            f"n_dim {n_dim} needs eigenvalue {n_dim + 1} but only "
            f"{spectrum.quad_order} were computed; raise quad_order"
        )
    return math.sqrt(energy * float(spectrum.lambdas[n_dim]))


def degrees_of_freedom(spectrum: EigenSpectrum, energy: float, mu: float) -> int:
    """Smallest N with d_N <= mu: the effective dimensionality at accuracy mu.

    Equivalently the count of eigenvalues exceeding mu^2 / energy. Returns 0
    when even the empty subspace meets the accuracy (mu >= sqrt(E * lambda_1)).

    Raises InsufficientSpectrumError when the threshold falls below the
    trustworthy part of the computed spectrum.
    """
    require_finite("energy", energy)
    require_finite("mu", mu)
    threshold = mu**2 / energy
    if threshold < RESOLUTION_FLOOR:
        raise InsufficientSpectrumError(
            f"accuracy threshold {threshold:.3e} is below the spectral "
            f"resolution floor {RESOLUTION_FLOOR:.3e}; recompute with higher precision"
        )
    hits = np.nonzero(spectrum.lambdas <= threshold)[0]
    if len(hits) == 0:
        raise InsufficientSpectrumError(
            f"all {spectrum.quad_order} computed eigenvalues exceed the "
            f"threshold {threshold:.3e}; raise quad_order"
        )
    return int(hits[0])


def dof_asymptotic(n0: float, energy: float, mu: float) -> float:
    """Large-window prediction N0 + ln(E/mu^2 - 1) * ln(N0*pi/2) / pi^2.

    The o(log N0) remainder of the underlying expansion is dropped.
    Requires n0 > 1 (so the inner log is positive) and 0 < mu^2 < energy.
    """
    if not (n0 > 1 and math.isfinite(n0)):
        raise ValueError(f"n0 must exceed 1, got {n0}")
    require_finite("energy", energy)
    if not (mu > 0 and mu * mu < energy):
        raise ValueError(
            f"mu must satisfy 0 < mu^2 < energy, got mu={mu}, energy={energy}"
        )
    return n0 + math.log(energy / mu**2 - 1.0) * _transition_log(n0) / math.pi**2


def _transition_log(n0: float) -> float:
    """ln(N0*pi/2), the scale of the transition band's index offsets."""
    return math.log(n0 * math.pi / 2.0)


def spectrum_record(spectrum: EigenSpectrum) -> dict:
    """JSON-ready summary of a spectrum (eigenvalues, not eigenvectors)."""
    return {
        "omega": spectrum.omega,
        "t_obs": spectrum.t_obs,
        "nominal_dimension": spectrum.nominal_dimension,
        "quad_order": spectrum.quad_order,
        "clip_floor": spectrum.clip_floor,
        "trace_error": spectrum.trace_error,
        "lambdas": [float(v) for v in spectrum.lambdas],
    }


def spectrum_from_record(record: dict) -> EigenSpectrum:
    """Rebuild a spectrum from a summary record.

    Eigenvector and node data are not round-tripped; the result supports
    the scalar functionals (zeta, n_width, degrees_of_freedom)
    but has no eigvecs and empty nodes/weights arrays.

    Raises ValueError unless omega and t_obs are positive and finite, the
    eigenvalues form a non-empty, non-increasing list of finite values in
    (0, 1], quad_order counts them, and trace_error, when present, is a
    number; 1 itself is accepted because 12-digit printing rounds the
    plateau's 1 - 1e-15 up to it. The record's clip_floor is not read:
    every spectrum is clipped to CLIP_FLOOR.
    """
    try:
        lambdas = np.asarray(record["lambdas"], dtype=float)
        omega = float(record["omega"])
        t_obs = float(record["t_obs"])
        quad_order = record["quad_order"]
        trace_error = float(record.get("trace_error", math.nan))
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed spectrum record: {exc}") from exc
    # a NaN would pass every later comparison against the requested window
    require_finite("spectrum record omega", omega)
    require_finite("spectrum record t_obs", t_obs)
    require_int("spectrum record quad_order", quad_order)
    if lambdas.ndim != 1 or lambdas.size == 0:
        raise ValueError("spectrum record needs a non-empty list of eigenvalues")
    if quad_order != lambdas.size:
        raise ValueError(
            f"spectrum record has quad_order {quad_order} beside {lambdas.size} "
            "eigenvalues; they must agree"
        )
    bad = np.flatnonzero(~((lambdas > 0.0) & (lambdas <= 1.0)))
    if bad.size:
        raise ValueError(
            f"spectrum record has lambda_{bad[0] + 1} = {float(lambdas[bad[0]])!r}; "
            "every eigenvalue must be finite and lie in (0, 1]"
        )
    rises = np.flatnonzero(np.diff(lambdas) > 0.0)
    if rises.size:
        raise ValueError(
            f"spectrum record eigenvalues increase from lambda_{rises[0] + 1} "
            f"to lambda_{rises[0] + 2}; "
            "they must be sorted non-increasing"
        )
    return EigenSpectrum(lambdas=lambdas, omega=omega, t_obs=t_obs, trace_error=trace_error)


def require_index(spectrum: EigenSpectrum, n_dim: int) -> int:
    """n_dim as an int, refused unless 1 <= n_dim <= the computed eigenvalues."""
    n_dim = require_int("n_dim", n_dim)
    if n_dim > spectrum.quad_order:
        raise InsufficientSpectrumError(
            f"n_dim {n_dim} exceeds the {spectrum.quad_order} computed "
            "eigenvalues; raise quad_order"
        )
    return n_dim


def require_window(spectrum: EigenSpectrum, omega: float, t_obs: float) -> None:
    """Refuse a spectrum computed for an omega or t_obs more than 1e-9 away."""
    if abs(spectrum.omega - omega) > 1e-9 or abs(spectrum.t_obs - t_obs) > 1e-9:
        raise ConfigurationError(
            f"spectrum was computed for different omega/t_obs ({spectrum.omega:.12g}, "
            f"{spectrum.t_obs:.12g}) than requested ({omega:.12g}, {t_obs:.12g})"
        )
