"""Property-based checks of the spectrum, the bound reports and the tables that read them."""

import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from epscap import build_spectrum, finite_reports
from epscap.comparison import comparison_table
from epscap.geometry import entropy_eps_bounds, per_unit_time_report
from epscap.params import SignalSpaceParams
from epscap.simulation import error_exponent

OMEGA = st.floats(min_value=1e-3, max_value=1e3)
SNR = st.floats(min_value=1e-4, max_value=1e8)


@settings(max_examples=200, deadline=None)
@given(omega=OMEGA, snr=SNR)
def test_comparison_intervals_are_the_report_rates(omega, snr):
    params = SignalSpaceParams(omega=omega, t_obs=1.0, energy=snr, eps=1.0)
    reports = finite_reports(params, n_dim=1)
    capacity, source, zero_error, lattice = comparison_table(omega, snr, nominal_dim=1.0)
    for row, key in (
        (capacity, "capacity_eps_delta"),
        (source, "entropy_eps"),
        (zero_error, "capacity_2eps"),
    ):
        interval = (row.deterministic_lower, row.deterministic_upper)
        assert interval == (reports[key].lower_rate, reports[key].upper_rate)
    assert lattice.deterministic_upper == reports["capacity_eps_delta"].upper_rate


@settings(max_examples=200, deadline=None)
@given(
    omega=OMEGA,
    energy=st.floats(min_value=1e-3, max_value=1e3),
    s=st.floats(min_value=1.0, max_value=1e4),
    rate=st.floats(min_value=0.0, max_value=1e3),
)
def test_error_exponent_is_eps_delta_lower_rate_minus_rate(omega, energy, s, rate):
    eps = math.sqrt(energy) / s
    params = SignalSpaceParams(omega=omega, t_obs=1.0, energy=energy, eps=eps, delta=0.1)
    assume(params.sqrt_snr >= 1.0)  # the division above can round s below 1
    lower = per_unit_time_report(params)["capacity_eps_delta"].lower_rate
    assert error_exponent(omega, energy, eps, rate) == lower - rate


@settings(max_examples=200, deadline=None)
@given(
    n_dim=st.integers(min_value=1, max_value=2000),
    snr=SNR,
    delta=st.one_of(st.just(0.0), st.floats(min_value=1e-6, max_value=0.999)),
    zeta=st.floats(min_value=1e-3, max_value=1.0),
)
def test_finite_reports_lower_never_exceeds_upper(n_dim, snr, delta, zeta):
    params = SignalSpaceParams(omega=math.pi, t_obs=10.0, energy=snr, eps=1.0, delta=delta)
    reports = finite_reports(params, n_dim=n_dim, zeta_value=zeta)
    for rep in reports.values():
        assert rep.lower_rate <= rep.upper_rate
        if rep.lower_bits is not None and not math.isnan(rep.upper_bits):
            assert rep.lower_bits <= rep.upper_bits
        assert "valid" not in rep.to_dict()
    flag = entropy_eps_bounds(n_dim, zeta, snr, 1.0)[2]
    assert reports["entropy_eps"].valid is flag
    assert reports["capacity_2eps"].valid and reports["capacity_eps_delta"].valid


@settings(max_examples=100, deadline=None)
@given(
    n0=st.floats(min_value=1.0, max_value=40.0, exclude_min=True, exclude_max=True),
    a=st.floats(min_value=1e-2, max_value=1e3),
)
def test_spectrum_depends_only_on_the_time_bandwidth_product(n0, a):
    assume(n0 != math.floor(n0))
    # the order is fixed: the default's ceil(N0) can step at an integer N0
    # through a one-ulp change in omega*t_obs/pi
    base = build_spectrum(math.pi, n0, quad_order=256).lambdas
    scaled = build_spectrum(a * math.pi, n0 / a, quad_order=256).lambdas
    np.testing.assert_allclose(scaled, base, rtol=0.0, atol=1e-13)
