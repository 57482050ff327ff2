"""Eigenvalue spectrum of the time-frequency limiting (sinc-kernel) operator.

A signal bandlimited to [-Omega, Omega] and observed on [-T/2, T/2] is
governed by the Fredholm eigenproblem

    lambda_n psi_n(t) = integral_{-T/2}^{T/2} psi_n(s) sin(Omega(t-s)) / (pi(t-s)) ds,

whose eigenfunctions are the prolate spheroidal wave functions and whose
eigenvalues 1 > lambda_1 > lambda_2 > ... > 0 cluster near 1 up to about
N0 = Omega*T/pi and then plunge to 0 across a transition band of width
O(log N0). Everything downstream (effective dimensionality, volume
corrections, capacity and entropy bounds) is a functional of this spectrum.
The stored eigenvalues are only non-increasing where lambda or 1 - lambda
is below roundoff (the tests take 1e-13 as that floor): there the distinct
exact values can tie or swap, e.g. lambda_3 and lambda_4 both store as
1 - 2.9e-15 at N0 = 20 with quadrature order 512.

The discretization is the Nystrom method on a Gauss-Legendre rule:
with nodes t_i and weights w_i on [-T/2, T/2], the symmetrized matrix

    K_ij = sqrt(w_i w_j) * (Omega/pi) * sinc(Omega (t_i - t_j))

has the same eigenvalues as the quadrature-discretized operator. Its
trace equals (Omega/pi) * sum(w_i) = N0 exactly; the recorded trace_error
compares the eigenvalue sum with N0, but since that sum always equals the
trace, the check is tautological and cannot catch a wrong solve.

The kernel is even and the Gauss nodes are symmetric about 0, so K is
centrosymmetric (K = J K J, J the reversal matrix). With K split into
blocks A = K[:m, :m] and B = K[:m, -m:], m = order // 2, it is similar to
the direct sum of the half-size blocks A + B J (even functions) and
A - B J (odd functions); an odd order adds the middle node to the even
block with a sqrt(2) coupling. This is the even/odd split of the prolate
functions (Slepian & Pollak 1961). Each block is solved for eigenvalues
only; eigenvectors are built, through [I; +-J] / sqrt(2), only when they
are asked for, and never change the eigenvalues.

Index conventions follow the classical literature: eigenvalues are
1-based in formulas (lambda_1 is the largest) and stored 0-based in
arrays, so lambda_n == spectrum.lambdas[n-1]. Transition-band index
offsets use natural log; information quantities elsewhere use log2.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import legendre
from scipy.linalg import eigh, eigvalsh_tridiagonal

from .errors import ConfigurationError, InsufficientSpectrumError, NumericalError
from .params import DofQuery, nominal_dimension, require_finite, require_positive_int

logger = logging.getLogger(__name__)

# Eigenvalues are clipped into [CLIP_FLOOR, 1 - CLIP_FLOOR]: the exact ones
# lie strictly inside (0, 1), while the discretized tail goes negative at
# roundoff scale and the leading plateau rounds to 1.
CLIP_FLOOR = 1e-15

# Below arg = 1e-6, sin(arg)/arg loses accuracy to cancellation; the Taylor
# series is exact to double precision there.
_SINC_SERIES_CUTOFF = 1e-6


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
    """Default quadrature order: max(256, 8 * ceil(N0)).

    Gauss-Legendre converges spectrally for this analytic kernel; eight
    nodes per nominal degree of freedom resolves the transition band with
    a wide margin (doubling the order moves the first 2*N0 eigenvalues
    by less than 1e-12 in practice).
    """
    return max(256, 8 * math.ceil(nominal_dimension(omega, t_obs)))


@dataclass(frozen=True)
class KernelMatrix:
    """Symmetrized Nystrom discretization of the sinc kernel."""

    matrix: np.ndarray  # (order, order), symmetric
    nodes: np.ndarray  # quadrature nodes on [-T/2, T/2]
    weights: np.ndarray  # Gauss-Legendre weights, sum = T
    omega: float
    t_obs: float
    quad_order: int


@dataclass(frozen=True)
class EigenSpectrum:
    """Descending eigenvalues and, on request, node-sampled eigenfunctions.

    lambdas:     eigenvalues sorted descending, clipped to
                 [clip_floor, 1 - clip_floor]
    eigvecs:     None unless vectors were requested (build_spectrum(...,
                 vectors=True)); then column n holds psi_{n+1} evaluated at
                 the nodes, assembled from the even/odd block eigenvectors
                 and scaled so that the L2 norm over the whole line is 1,
                 equivalently sum_i w_i psi_n(t_i)^2 == lambda_n
                 (concentration on the observation window)
    trace_error: |sum of raw eigenvalues - N0|; the sum equals the matrix
                 trace by construction, so this check cannot fail
    """

    lambdas: np.ndarray
    eigvecs: np.ndarray | None
    nodes: np.ndarray
    weights: np.ndarray
    omega: float
    t_obs: float
    quad_order: int
    clip_floor: float
    trace_error: float

    @property
    def nominal_dimension(self) -> float:
        return nominal_dimension(self.omega, self.t_obs)

    def __len__(self) -> int:
        return len(self.lambdas)


def build_kernel_matrix(
    omega: float, t_obs: float, quad_order: int | None = None
) -> KernelMatrix:
    """Discretize the sinc kernel on a Gauss-Legendre rule.

    Args:
        omega: one-sided angular bandwidth in rad/s, > 0.
        t_obs: observation window length, > 0.
        quad_order: number of quadrature nodes; defaults to
            max(256, 8 * ceil(N0)). Must be >= 4 * ceil(N0) so the
            transition band is resolved.

    Returns:
        KernelMatrix with the symmetric matrix, nodes, and weights.
    """
    require_finite("omega", omega)
    require_finite("t_obs", t_obs)
    n0 = nominal_dimension(omega, t_obs)
    if quad_order is None:
        quad_order = default_quad_order(omega, t_obs)
    quad_order = int(quad_order)
    min_order = 4 * math.ceil(n0)
    if quad_order < min_order:
        raise ConfigurationError(
            f"quad_order {quad_order} is below 4 * ceil(N0) = {min_order}; "
            "the eigenvalue transition band would be unresolved"
        )

    x, w = gauss_legendre(quad_order)
    nodes = x * (t_obs / 2.0)
    weights = w * (t_obs / 2.0)

    # (Omega/pi) sinc(Omega (t_i - t_j)) sqrt(w_i w_j), built in place; the
    # Taylor branch sin(x)/x = 1 - x^2/6 + x^4/120 is taken only where
    # |x| < cutoff, which keeps it exact to double precision.
    arg = np.subtract.outer(nodes, nodes)
    arg *= omega
    small = np.abs(arg) < _SINC_SERIES_CUTOFF
    x2 = arg[small] ** 2
    arg[small] = 1.0
    matrix = np.sin(arg)
    matrix /= arg
    matrix[small] = 1.0 - x2 / 6.0 + x2 * x2 / 120.0
    matrix *= omega / math.pi
    root_w = np.multiply.outer(weights, weights, out=arg)
    matrix *= np.sqrt(root_w, out=root_w)
    del arg, root_w
    matrix += matrix.T
    matrix *= 0.5
    if not np.all(np.isfinite(matrix)):
        raise NumericalError("kernel matrix contains non-finite entries")
    return KernelMatrix(
        matrix=matrix,
        nodes=nodes,
        weights=weights,
        omega=omega,
        t_obs=t_obs,
        quad_order=quad_order,
    )


def _parity_blocks(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Even and odd half-size blocks of a symmetric centrosymmetric matrix.

    With m = n // 2, A = K[:m, :m] and (B J)[i, j] = K[i, n-1-j], the even
    block is A + B J and the odd block A - B J. For odd n the middle node
    joins the even block, coupled to the others through sqrt(2) K[:m, m].
    """
    n = len(matrix)
    m = n // 2
    a = matrix[:m, :m]
    bj = matrix[:m, : n - m - 1 : -1]
    even = np.empty((n - m, n - m))
    np.add(a, bj, out=even[:m, :m])
    if n % 2:
        even[:m, m] = even[m, :m] = math.sqrt(2.0) * matrix[:m, m]
        even[m, m] = matrix[m, m]
    return even, a - bj


def _parity_eigvecs(even: np.ndarray, odd: np.ndarray) -> np.ndarray:
    """Orthonormal eigenvectors of the full matrix, by descending eigenvalue.

    Block eigenvectors x map back as [x; J x] / sqrt(2) (even) and
    [x; -J x] / sqrt(2) (odd); the middle entry of an odd order's even
    vector is carried over as is.
    """
    # divide and conquer keeps the vectors of the clustered roundoff tail
    # orthogonal to ~1e-15, where the default MRRR driver drifts to ~1e-13
    vals_even, vecs_even = eigh(even, driver="evd")
    vals_odd, vecs_odd = eigh(odd, driver="evd")
    m, n_even = len(odd), len(even)
    n = n_even + m
    half = math.sqrt(0.5)
    vecs = np.zeros((n, n))
    vecs[:m, :n_even] = half * vecs_even[:m]
    vecs[n - m :, :n_even] = half * vecs_even[:m][::-1]
    if n % 2:
        vecs[m, :n_even] = vecs_even[m]
    vecs[:m, n_even:] = half * vecs_odd
    vecs[n - m :, n_even:] = -half * vecs_odd[::-1]
    order = np.argsort(np.concatenate([vals_even, vals_odd]), kind="stable")[::-1]
    return vecs[:, order]


def compute_spectrum(kernel: KernelMatrix, vectors: bool = False) -> EigenSpectrum:
    """Solve the symmetric eigenproblem and postprocess the spectrum.

    The matrix is split into its even and odd parity blocks (see the
    module docstring), each solved for eigenvalues only. Eigenvalues are
    sorted descending and clipped into [CLIP_FLOOR, 1 - CLIP_FLOOR];
    clipping events are counted and logged because they mark where the
    discretized tail is pure roundoff. With ``vectors=True`` the blocks are
    solved a second time for eigenvectors, whose columns are rescaled from
    the symmetrized coordinates back to function values at the nodes,
    normalized to unit energy on the whole line; the eigenvalues always
    come from the eigenvalues-only solve.
    """
    even, odd = _parity_blocks(kernel.matrix)
    try:
        raw_lambdas = np.concatenate(
            [eigh(even, eigvals_only=True), eigh(odd, eigvals_only=True)]
        )
        raw_vecs = _parity_eigvecs(even, odd) if vectors else None
    except np.linalg.LinAlgError as exc:  # pragma: no cover - eigh on
        # symmetric input essentially cannot fail, but surface it as ours
        raise NumericalError(f"eigensolve failed: {exc}") from exc
    if not np.all(np.isfinite(raw_lambdas)):
        raise NumericalError("eigensolve returned non-finite eigenvalues")
    raw_lambdas = np.sort(raw_lambdas)[::-1]

    n0 = nominal_dimension(kernel.omega, kernel.t_obs)
    trace_error = abs(float(raw_lambdas.sum()) - n0)

    below = int(np.sum(raw_lambdas < CLIP_FLOOR))
    above = int(np.sum(raw_lambdas > 1.0 - CLIP_FLOOR))
    if below or above:
        logger.debug(
            "clipped %d eigenvalues below %g and %d above %g",
            below,
            CLIP_FLOOR,
            above,
            1.0 - CLIP_FLOOR,
        )
    lambdas = np.clip(raw_lambdas, CLIP_FLOOR, 1.0 - CLIP_FLOOR)

    eigvecs = None
    if raw_vecs is not None:
        # Back out function values: the symmetric solve works in sqrt(w)-scaled
        # coordinates, and sqrt(lambda) converts interval-normalized functions
        # to line-normalized ones (energy lambda_n falls inside the window).
        eigvecs = (raw_vecs / np.sqrt(kernel.weights)[:, None]) * np.sqrt(lambdas)[None, :]

    return EigenSpectrum(
        lambdas=lambdas,
        eigvecs=eigvecs,
        nodes=kernel.nodes,
        weights=kernel.weights,
        omega=kernel.omega,
        t_obs=kernel.t_obs,
        quad_order=kernel.quad_order,
        clip_floor=CLIP_FLOOR,
        trace_error=trace_error,
    )


def build_spectrum(
    omega: float, t_obs: float, quad_order: int | None = None, vectors: bool = False
) -> EigenSpectrum:
    """Convenience wrapper: discretize and solve in one call.

    Eigenvectors are built only with ``vectors=True``; the eigenvalues are
    the same either way.
    """
    return compute_spectrum(build_kernel_matrix(omega, t_obs, quad_order), vectors=vectors)


# --- scalar functionals of the spectrum ---


def volume_correction(spectrum: EigenSpectrum, n_dim: int) -> float:
    """Geometric-mean root (prod_{n<=N} lambda_n)^(1/(2N)) of the spectrum.

    This is the volume correction between the energy ellipsoid of the
    first N modes and the enclosing ball; it tends to 1 as the window
    grows. Computed in log space to avoid underflow.
    """
    n_dim = _check_index(spectrum, n_dim)
    log_sum = float(np.sum(np.log(spectrum.lambdas[:n_dim])))
    return math.exp(log_sum / (2.0 * n_dim))


def n_width(spectrum: EigenSpectrum, energy: float, n_dim: int) -> float:
    """Kolmogorov width d_N = sqrt(energy * lambda_{N+1}).

    The worst-case error of the best N-dimensional approximating subspace
    for signals of energy at most `energy`; n_dim = 0 gives the trivial
    subspace and d_0 = sqrt(energy * lambda_1).
    """
    require_finite("energy", energy)
    if not isinstance(n_dim, (int, np.integer)) or n_dim < 0:
        raise ValueError(f"n_dim must be a nonnegative integer, got {n_dim}")
    if n_dim >= len(spectrum.lambdas):
        raise InsufficientSpectrumError(
            f"n_dim {n_dim} needs eigenvalue {n_dim + 1} but only "
            f"{len(spectrum.lambdas)} were computed; raise quad_order"
        )
    return math.sqrt(energy * float(spectrum.lambdas[n_dim]))


def degrees_of_freedom(spectrum: EigenSpectrum, query: DofQuery) -> int:
    """Smallest N with d_N <= mu: the effective dimensionality at accuracy mu.

    Equivalently the count of eigenvalues exceeding mu^2 / energy. Returns 0
    when even the empty subspace meets the accuracy (mu >= sqrt(E * lambda_1)).

    Raises InsufficientSpectrumError when the threshold falls below the
    trustworthy part of the computed spectrum.
    """
    threshold = query.mu**2 / query.energy
    floor = max(100.0 * spectrum.clip_floor, 1e-13)
    if threshold < floor:
        raise InsufficientSpectrumError(
            f"accuracy threshold {threshold:.3e} is below the spectral "
            f"resolution floor {floor:.3e}; recompute with higher precision"
        )
    hits = np.nonzero(spectrum.lambdas <= threshold)[0]
    if len(hits) == 0:
        raise InsufficientSpectrumError(
            f"all {len(spectrum.lambdas)} computed eigenvalues exceed the "
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

    Raises ValueError unless the eigenvalues form a non-empty,
    non-increasing list of finite values in (0, 1]; 1 itself is accepted
    because 12-digit printing rounds the plateau's 1 - 1e-15 up to it.
    """
    try:
        lambdas = np.asarray(record["lambdas"], dtype=float)
        omega = float(record["omega"])
        t_obs = float(record["t_obs"])
        quad_order = int(record["quad_order"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed spectrum record: {exc}") from exc
    if lambdas.ndim != 1 or lambdas.size == 0:
        raise ValueError("spectrum record needs a non-empty list of eigenvalues")
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
    clip_floor = float(record.get("clip_floor", CLIP_FLOOR))
    return EigenSpectrum(
        lambdas=lambdas,
        eigvecs=None,
        nodes=np.empty(0),
        weights=np.empty(0),
        omega=omega,
        t_obs=t_obs,
        quad_order=quad_order,
        clip_floor=clip_floor,
        trace_error=float(record.get("trace_error", math.nan)),
    )


def _check_index(spectrum: EigenSpectrum, n_dim: int) -> int:
    require_positive_int("n_dim", n_dim)
    n_dim = int(n_dim)
    if n_dim > len(spectrum.lambdas):
        raise InsufficientSpectrumError(
            f"n_dim {n_dim} exceeds the {len(spectrum.lambdas)} computed "
            "eigenvalues; raise quad_order"
        )
    return n_dim
