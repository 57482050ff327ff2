import json
import math
import re
import tracemalloc

import numpy as np
import pytest

from epscap import (
    ConfigurationError,
    InsufficientSpectrumError,
    NumericalError,
    build_spectrum,
    volume_correction,
)
from epscap import spectrum
from epscap.spectrum import (
    CLIP_FLOOR,
    build_kernel_matrix,
    compute_spectrum,
    degrees_of_freedom,
    dof_asymptotic,
    gauss_legendre,
    n_width,
    spectrum_from_record,
    spectrum_record,
)
from reference import phase_transition_residual, transition_limit

# Nystrom-Gauss-Legendre values at omega=pi, t_obs=20, order 512, frozen
# from an independent run cross-checked against a DPSS (Slepian sequence)
# computation and a plain rectangle-rule discretization; all three agree
# to 7 significant digits on this transition band.
FROZEN_T20_TRANSITION = np.array(
    [
        9.996740804669e-01,
        9.973663209199e-01,
        9.821925600117e-01,
        9.067858919498e-01,
        6.744485058307e-01,
        3.248642542068e-01,
        9.341351259814e-02,
        1.812252139326e-02,
        2.764521381011e-03,
        3.599695981067e-04,
        4.141534949761e-05,
        4.281347706628e-06,
        4.018219532856e-07,
        3.449832752608e-08,
        2.725526595242e-09,
    ]
)

FROZEN_ZETA = {
    10.0: 0.9776682348120795,
    20.0: 0.9872648331109307,
    40.0: 0.9928615537970727,
}


def test_nominal_dimension(spec_t20):
    assert spec_t20.nominal_dimension == pytest.approx(20.0, abs=1e-12)


def test_head_eigenvalue_near_one(spec_t20):
    assert spec_t20.lambdas[0] > 1.0 - 1e-12
    assert spec_t20.lambdas[0] <= 1.0 - 1e-15 + 1e-17


def test_eigenvalues_within_clip_range(spec_t20):
    lam = spec_t20.lambdas
    assert np.all(lam >= 1e-15)
    assert np.all(lam <= 1.0 - 1e-15)


def test_monotone_nonincreasing(spec_t20, spec_t20_512):
    for spec in (spec_t20, spec_t20_512):
        lam = spec.lambdas
        assert np.all(np.diff(lam) <= 0)
        # strictly decreasing where lambda and 1 - lambda both exceed roundoff;
        # nearer either end the stored order of the (distinct) exact values
        # is noise (lambda_1 to lambda_6 all store as the clipped 1 - 1e-15)
        resolvable = (lam > 1e-13) & (1.0 - lam > 1e-13)
        assert np.all(np.diff(lam[resolvable]) < 0)


def test_trace_matches_nominal_dimension(spec_t20):
    assert spec_t20.trace_error < 1e-10


def test_frozen_transition_band(spec_t20_512):
    got = spec_t20_512.lambdas[15:30]
    np.testing.assert_allclose(got, FROZEN_T20_TRANSITION, rtol=1e-6, atol=1e-14)


def test_refinement_stability(spec_t20_512):
    finer = build_spectrum(math.pi, 20.0, 1024)
    np.testing.assert_allclose(
        spec_t20_512.lambdas[:40], finer.lambdas[:40], rtol=0, atol=1e-8
    )


def test_quadrature_order_precondition():
    for build in (build_kernel_matrix, build_spectrum):
        with pytest.raises(ConfigurationError, match="below 4 \\* ceil\\(N0\\) = 80"):
            build(math.pi, 20.0, quad_order=40)


def test_order_sets_the_count_not_the_values(spec_t20, spec_t20_512):
    # the modes solved depend on N0 alone, so a larger order only appends
    # eigenvalues at the floor
    assert np.array_equal(spec_t20_512.lambdas[: spec_t20.quad_order], spec_t20.lambdas)
    assert np.all(spec_t20_512.lambdas[spec_t20.quad_order :] == CLIP_FLOOR)


@pytest.mark.parametrize(
    "t_obs, order", [(6.0, 64), (6.0, 65), (20.0, 256), (20.0, 512), (50.0, 400), (100.0, 800)]
)
def test_prolate_spectrum_matches_the_nystrom_oracle(t_obs, order):
    prolate = build_spectrum(math.pi, t_obs, order).lambdas
    nystrom = compute_spectrum(math.pi, t_obs, order).lambdas
    assert len(prolate) == len(nystrom) == order
    lead = 2 * round(t_obs)
    np.testing.assert_allclose(prolate[:lead], nystrom[:lead], rtol=0, atol=1e-12)


def test_build_spectrum_builds_no_dense_matrix(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("build_spectrum reached the Nystrom oracle")

    monkeypatch.setattr(spectrum, "build_kernel_matrix", refuse)
    monkeypatch.setattr(spectrum, "compute_spectrum", refuse)
    tracemalloc.start()
    try:
        spec = build_spectrum(math.pi, 200.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one order x order float64 matrix would be 20 MB at order 1600
    assert spec.quad_order == 1600 and spec.eigvecs is None and spec.nodes.size == 0
    assert peak < 8 * 1600**2 / 4
    assert build_spectrum(math.pi, 20.0, vectors=True).eigvecs.shape == (256, 256)


def test_trace_error_catches_a_perturbed_ratio(monkeypatch):
    # mutation: one step of the eigenvalue-ratio recurrence off by 1e-9
    exact = spectrum._prolate_ratios

    def perturbed(even, odd):
        ratios = exact(even, odd)
        ratios[0] *= 1.0 + 1e-9
        return ratios

    monkeypatch.setattr(spectrum, "_prolate_ratios", perturbed)
    assert build_spectrum(math.pi, 20.0).trace_error > 1e-10


def test_too_few_legendre_coefficients_raise(monkeypatch):
    # mutation: two coefficients past the last mode cannot hold its tail
    monkeypatch.setattr(spectrum, "_legendre_count", lambda c, n_modes: 2 * (n_modes // 2 + 1))
    with pytest.raises(NumericalError, match="Legendre coefficients truncate"):
        build_spectrum(math.pi, 20.0)


def test_kernel_matrix_symmetric():
    for order in (64, 65):
        km = build_kernel_matrix(math.pi, 6.0, quad_order=order)
        assert km.shape == (order, order)
        assert np.array_equal(km, km.T)
        # the nodes and weights are mirror images about the window's centre
        assert np.array_equal(km, km[::-1, ::-1])


def test_eigvec_weighted_gram(spec_t20_vectors):
    # the scaled vectors satisfy sum_i w_i psi_n(t_i) psi_m(t_i) = lam_n delta_nm
    v = spec_t20_vectors.eigvecs
    assert v.shape == (spec_t20_vectors.quad_order,) * 2
    gram = v.T @ (spec_t20_vectors.weights[:, None] * v)
    np.testing.assert_allclose(gram, np.diag(spec_t20_vectors.lambdas), atol=1e-10)


def test_eigvecs_only_on_request(spec_t20, spec_t20_vectors):
    assert spec_t20.eigvecs is None
    np.testing.assert_array_equal(spec_t20.lambdas, spec_t20_vectors.lambdas)


@pytest.mark.parametrize("t_obs, order", [(6.0, 64), (6.0, 65), (20.0, 256), (50.0, 400)])
def test_prolate_eigvecs_solve_the_kernel_matrix(t_obs, order):
    # oracle: the Nystrom matrix on the same nodes, which build_spectrum
    # never builds; sqrt(w) psi_n(t_i) is its eigenvector with lambda_n
    spec = build_spectrum(math.pi, t_obs, order, vectors=True)
    u = spec.eigvecs * np.sqrt(spec.weights)[:, None]
    residual = build_kernel_matrix(math.pi, t_obs, order) @ u - u * spec.lambdas
    assert np.max(np.abs(residual)) <= 1e-12


def test_prolate_solve_memory_keeps_only_the_used_columns():
    # only the kept eigenvector columns outlive their parity's solve: at
    # N0 = 1000 the peak was 44.7 MB while each whole matrix stayed alive
    tracemalloc.start()
    try:
        build_spectrum(math.pi, 1000.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32e6


def test_prolate_solve_above_the_budget_is_refused_before_it_runs(monkeypatch):
    # N0 = 40,000 needs 102,918 coefficients: a 21.2 GB eigenvector matrix
    calls = []

    def solve(*args, **kwargs):
        calls.append(len(args[0]))
        raise AssertionError("solved")

    monkeypatch.setattr(spectrum, "eigh_tridiagonal", solve)
    with pytest.raises(ConfigurationError, match=re.escape(
        "the prolate solve at N0 = 40000 needs 102918 Legendre coefficients, "
        "21.2 GB of eigenvectors per parity, above the 2 GB limit"
    )):
        build_spectrum(math.pi, 40000.0)
    assert calls == []
    # N0 = 4000 (0.21 GB) is admitted and reaches the solve
    with pytest.raises(AssertionError, match="solved"):
        build_spectrum(math.pi, 4000.0)
    assert calls == [5181]


@pytest.mark.parametrize("order", [64, 65, 256, 400, 512, 800, 1600])
def test_gauss_legendre_matches_numpy(order):
    x, w = gauss_legendre(order)
    x_ref, w_ref = np.polynomial.legendre.leggauss(order)
    assert np.array_equal(x, x_ref)
    assert np.array_equal(w, w_ref)


def test_scaling_covariance():
    # eigenvalues depend on the time-bandwidth product only
    a = build_spectrum(math.pi, 10.0, 256)
    b = build_spectrum(2.0 * math.pi, 5.0, 256)
    np.testing.assert_allclose(a.lambdas[:25], b.lambdas[:25], rtol=1e-9, atol=1e-13)


def test_volume_correction_frozen(spec_t10, spec_t20, spec_t40):
    for spec in (spec_t10, spec_t20, spec_t40):
        n = round(spec.nominal_dimension)
        assert volume_correction(spec, n) == pytest.approx(
            FROZEN_ZETA[spec.t_obs], rel=1e-10
        )


def test_volume_correction_monotone_in_dim(spec_t20):
    # adding smaller eigenvalues only drags the geometric mean down
    values = [volume_correction(spec_t20, n) for n in (5, 10, 15, 20, 25)]
    assert all(b < a for a, b in zip(values, values[1:]))
    assert all(0.0 < v < 1.0 for v in values)


def test_n_width_frozen(spec_t20):
    assert n_width(spec_t20, 1.0, 30) == pytest.approx(1.4110857205587009e-05, rel=1e-6)


def test_n_width_decreasing(spec_t20):
    # strict decrease holds while the eigenvalues sit above the clip floor
    widths = [n_width(spec_t20, 1.0, n) for n in range(10, 33)]
    assert all(b < a for a, b in zip(widths, widths[1:]))
    tail = [n_width(spec_t20, 1.0, n) for n in range(33, 45)]
    assert all(b <= a for a, b in zip(tail, tail[1:]))


def test_n_width_needs_enough_eigenvalues(spec_t10):
    with pytest.raises(InsufficientSpectrumError):
        n_width(spec_t10, 1.0, spec_t10.quad_order + 1)


def test_degrees_of_freedom_frozen(spec_t20):
    n = degrees_of_freedom(spec_t20, 1.0, 0.1)
    assert n == 23
    asym = dof_asymptotic(spec_t20.nominal_dimension, 1.0, 0.1)
    assert asym == pytest.approx(21.60501118841211, rel=1e-12)
    assert abs(n - asym) <= 3.0


def test_degrees_of_freedom_monotone_in_mu(spec_t20):
    query_values = [0.9, 0.5, 0.1, 0.01, 0.001]
    counts = [
        degrees_of_freedom(spec_t20, 1.0, m) for m in query_values
    ]
    assert all(b >= a for a, b in zip(counts, counts[1:]))


def test_degrees_of_freedom_zero_when_mu_swallows_energy(spec_t20):
    assert degrees_of_freedom(spec_t20, 1.0, 1.5) == 0


def test_degrees_of_freedom_below_resolution(spec_t20):
    with pytest.raises(InsufficientSpectrumError):
        degrees_of_freedom(spec_t20, 1.0, 1e-8)


@pytest.mark.parametrize(
    "energy, mu, message",
    [
        (0.0, 0.1, "energy must be positive and finite, got 0.0"),
        (math.inf, 0.1, "energy must be positive and finite, got inf"),
        (1.0, -0.1, "mu must be positive and finite, got -0.1"),
        (1.0, math.nan, "mu must be positive and finite, got nan"),
    ],
)
def test_degrees_of_freedom_refuses_bad_energy_or_mu(spec_t20, energy, mu, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        degrees_of_freedom(spec_t20, energy, mu)


def test_dof_asymptotic_domain():
    with pytest.raises(ValueError):
        dof_asymptotic(0.5, 1.0, 0.1)
    with pytest.raises(ValueError):
        dof_asymptotic(20.0, 1.0, 2.0)


def test_transition_limit_values():
    assert transition_limit(0.0) == pytest.approx(0.5, abs=1e-15)
    assert transition_limit(1.0) == pytest.approx(5.1720511054188524e-05, rel=1e-10)
    ks = np.linspace(-2, 2, 9)
    vals = [transition_limit(k) for k in ks]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    assert all(0.0 < v < 1.0 for v in vals)


def test_phase_transition_residual_shrinks(spec_t10, spec_t20, spec_t40):
    r10 = phase_transition_residual(spec_t10, 0.0)
    r20 = phase_transition_residual(spec_t20, 0.0)
    r40 = phase_transition_residual(spec_t40, 0.0)
    assert r10 == pytest.approx(0.19234127171366455, rel=1e-8)
    assert r20 == pytest.approx(0.1744485058306624, rel=1e-8)
    assert r40 == pytest.approx(0.15943354268000653, rel=1e-8)
    assert r10 > r20 > r40


def test_phase_transition_residual_index_range(spec_t10):
    with pytest.raises(ValueError):
        phase_transition_residual(spec_t10, 200.0)


def test_record_roundtrip(spec_t10):
    record = spectrum_record(spec_t10)
    text = json.dumps(record)
    back = spectrum_from_record(json.loads(text))
    np.testing.assert_array_equal(back.lambdas, spec_t10.lambdas)
    assert back.omega == spec_t10.omega
    assert back.t_obs == spec_t10.t_obs
    assert back.quad_order == spec_t10.quad_order
    assert back.trace_error == spec_t10.trace_error


@pytest.mark.parametrize(
    "index, value, message",
    [
        (-1, -1e-15, "lambda_256 = -1e-15; every eigenvalue must be finite"),
        (3, math.nan, "lambda_4 = nan"),
        (11, 0.5, "increase from lambda_11 to lambda_12"),
    ],
)
def test_record_rejects_invalid_eigenvalues(spec_t10, index, value, message):
    record = spectrum_record(spec_t10)
    record["lambdas"][index] = value
    with pytest.raises(ValueError, match=re.escape(message)):
        spectrum_from_record(record)


@pytest.mark.parametrize(
    "change, message",
    [
        (lambda r: r.pop("lambdas"), "malformed spectrum record: 'lambdas'"),
        (lambda r: r.pop("omega"), "malformed spectrum record: 'omega'"),
        (lambda r: r.pop("t_obs"), "malformed spectrum record: 't_obs'"),
        (lambda r: r.pop("quad_order"), "malformed spectrum record: 'quad_order'"),
        (lambda r: r.update(lambdas=[]), "needs a non-empty list of eigenvalues"),
        (lambda r: r.update(lambdas=[[0.5]]), "needs a non-empty list of eigenvalues"),
    ],
)
def test_record_refuses_a_missing_key_or_no_eigenvalue_list(spec_t10, change, message):
    record = spectrum_record(spec_t10)
    change(record)
    with pytest.raises(ValueError, match=re.escape(message)):
        spectrum_from_record(record)


def test_degrees_of_freedom_refuses_a_spectrum_all_above_the_threshold():
    short = spectrum_from_record(
        {"omega": math.pi, "t_obs": 1.0, "quad_order": 2, "lambdas": [0.9, 0.5]}
    )
    message = "all 2 computed eigenvalues exceed the threshold 1.000e-02; raise quad_order"
    with pytest.raises(InsufficientSpectrumError, match=re.escape(message)):
        degrees_of_freedom(short, 1.0, 0.1)


def test_record_accepts_rounded_plateau(spec_t10):
    # 12-digit artifacts print 1 - 1e-15 as exactly 1
    record = spectrum_record(spec_t10)
    record["lambdas"][:3] = [1.0, 1.0, 1.0]
    assert spectrum_from_record(record).lambdas[0] == 1.0


def test_random_spectra_properties():
    rng = np.random.default_rng(1203)
    for _ in range(12):
        n0 = rng.uniform(2.0, 24.0)
        omega = rng.uniform(0.5, 6.0)
        t_obs = n0 * math.pi / omega
        spec = build_spectrum(omega, t_obs)
        lam = spec.lambdas
        assert np.all(lam > 0) and np.all(lam < 1)
        assert np.all(np.diff(lam) <= 0)
        assert spec.trace_error < 1e-8
        n = max(1, round(spec.nominal_dimension))
        assert 0.0 < volume_correction(spec, n) < 1.0


def test_build_spectrum_rejects_bad_domain():
    with pytest.raises(ValueError):
        build_spectrum(-1.0, 10.0)
    with pytest.raises(ValueError):
        build_spectrum(math.pi, 0.0)
