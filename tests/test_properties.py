"""Property-based checks of the bound reports and the tables that read them."""

import math

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from epscap import (
    comparison_table,
    entropy_eps_bounds,
    error_exponent,
    finite_reports,
    per_unit_time_report,
)
from epscap.params import SignalSpaceParams

OMEGA = st.floats(min_value=1e-3, max_value=1e3)
SNR = st.floats(min_value=1e-4, max_value=1e8)
# below sqrt(snr) = 1 the entropy upper bits N*log2(s) + overhead can fall
# under the lower bits' clamp at 0, and BoundReport refuses the pair
SNR_AT_LEAST_ONE = st.floats(min_value=1.0, max_value=1e8)


@settings(max_examples=200, deadline=None)
@given(omega=OMEGA, snr=SNR)
def test_comparison_intervals_are_the_report_rates(omega, snr):
    params = SignalSpaceParams(omega=omega, t_obs=1.0, energy=snr, eps=1.0)
    reports = finite_reports(params)
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
    snr=SNR_AT_LEAST_ONE,
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
