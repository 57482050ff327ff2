"""Acceptance gate: ten numbered criteria, one PASS/FAIL line each.

Each test prints its verdict line even under output capture so the gate
is auditable from a plain pytest run. Tolerances are stated inline; a
failing criterion fails its test.
"""

import json
import math
import time

import numpy as np
import pytest
from scipy.stats import binom

from epscap import build_spectrum, finite_reports, volume_correction
from epscap.cli import main
from epscap.comparison import jagerman_capacity_lower, jagerman_capacity_lower_rate
from epscap.geometry import (
    Ellipsoid,
    capacity_2eps_bounds,
    greedy_pack,
    oracle_cover_interval,
    oracle_pack_interval,
    per_unit_time_report,
)
from epscap.params import SignalSpaceParams
from epscap.simulation import (
    Codebook,
    ExperimentConfig,
    empirical_exponent_sweep,
    estimate_error_fraction,
    _wilson_intervals,
    run_random_code_experiment,
)
from test_geometry import (
    STRICT_GAP_THRESHOLD,
    brute_force_cover_interval,
    brute_force_pack_interval,
)
from test_spectrum import FROZEN_T20_TRANSITION


def report(capsys, number, ok, detail):
    line = f"{'PASS' if ok else 'FAIL'} criterion {number}: {detail}"
    with capsys.disabled():
        print(line)
    assert ok, line


def test_criterion_01_spectrum_fidelity(capsys):
    t0 = time.perf_counter()
    spec = build_spectrum(math.pi, 20.0, 512)
    elapsed = time.perf_counter() - t0
    lam = spec.lambdas

    head_ok = lam[0] > 0.999
    # the exact eigenvalues are distinct, but where lambda or 1 - lambda is
    # below roundoff their stored order is noise (lambda_1 to lambda_6 all
    # store as the clipped 1 - 1e-15 here), so strict decrease is required
    # only between the two floors
    resolvable = (lam > 1e-13) & (1.0 - lam > 1e-13)
    strict_ok = bool(np.all(np.diff(lam[resolvable]) < 0) and np.all(np.diff(lam) <= 0))
    trace_ok = spec.trace_error <= 1e-4
    time_ok = elapsed < 10.0

    # Landau (1993): the count of eigenvalues above 1/2 is floor(N0) or
    # floor(N0) + 1, at every N0, not only in the limit
    spectra = {20.0: spec}
    for n0 in (20.5, 40.0, 80.0, 160.0, 400.0, 1000.0):
        spectra[n0] = build_spectrum(math.pi, n0)
    above_half = {n0: int(np.sum(s.lambdas > 0.5)) for n0, s in spectra.items()}
    bracket_ok = all(
        math.floor(n0) <= count <= math.floor(n0) + 1 for n0, count in above_half.items()
    )
    # Landau & Widom (1980): lambda_N0 -> 1/2 as N0 -> infinity; at finite
    # N0 the residual is positive and shrinks (logarithmically)
    limit_n0s = (20.0, 40.0, 80.0, 160.0, 400.0, 1000.0)
    residuals = [float(spectra[n0].lambdas[int(n0) - 1]) - 0.5 for n0 in limit_n0s]
    limit_ok = min(residuals) > 0 and bool(np.all(np.diff(residuals) < 0))
    lam20 = float(lam[19])
    pin_ok = bool(np.isclose(lam20, FROZEN_T20_TRANSITION[4], rtol=1e-6, atol=1e-14))

    ok = head_ok and strict_ok and trace_ok and time_ok and bracket_ok and limit_ok and pin_ok
    counts = ", ".join(f"{n0:g}:{c}" for n0, c in above_half.items())
    report(
        capsys,
        1,
        ok,
        f"lambda_1={lam[0]:.12f} (>0.999 {head_ok}); strict decrease on "
        f"{int(resolvable.sum())} eigenvalues with lambda and 1-lambda above "
        f"1e-13, non-increasing elsewhere {strict_ok}; "
        f"|trace-20|={spec.trace_error:.2e} (<=1e-4 {trace_ok}); "
        f"#(lambda>1/2) at N0 {counts} in [floor(N0), floor(N0)+1] {bracket_ok}; "
        f"lambda_N0-1/2 at N0={','.join(f'{n0:g}' for n0 in limit_n0s)} = "
        f"{', '.join(f'{r:.4f}' for r in residuals)} positive and decreasing "
        f"{limit_ok}; lambda_20={lam20:.10f} equal to the frozen "
        f"{FROZEN_T20_TRANSITION[4]:.10f} (rtol 1e-6) {pin_ok}; "
        f"runtime={elapsed:.2f}s (<10s {time_ok})",
    )


def test_criterion_02_volume_correction_convergence(capsys, spec_t10, spec_t20, spec_t40):
    zetas = {}
    for spec in (spec_t10, spec_t20, spec_t40):
        zetas[spec.t_obs] = volume_correction(spec, round(spec.nominal_dimension))
    increasing = zetas[10.0] < zetas[20.0] < zetas[40.0] < 1.0
    residual_ratio = (1.0 - zetas[40.0]) / (1.0 - zetas[10.0])
    halved = residual_ratio < 0.5
    ok = increasing and halved
    report(
        capsys,
        2,
        ok,
        f"zeta = {zetas[10.0]:.6f} -> {zetas[20.0]:.6f} -> {zetas[40.0]:.6f} "
        f"strictly increasing toward 1 ({increasing}); residual ratio "
        f"(1-zeta(40))/(1-zeta(10)) = {residual_ratio:.3f} (< 0.5 {halved})",
    )


def test_criterion_03_bound_sanity_sweep(capsys):
    snrs = np.logspace(math.log10(1.1), 4.0, 200)
    violations = 0
    checks = 0
    for snr in snrs:
        for delta in (0.01, 0.1, 0.5):
            for n_dim in (4, 16, 64):
                params = SignalSpaceParams(
                    omega=math.pi, t_obs=10.0, energy=1.0,
                    eps=float(snr) ** -0.5, delta=delta,
                )
                reports = finite_reports(params, n_dim=n_dim)
                for rep in reports.values():
                    if rep.lower_bits is not None and rep.upper_bits is not None:
                        if not math.isnan(rep.upper_bits):
                            checks += 1
                            if rep.lower_bits > rep.upper_bits + 1e-9:
                                violations += 1
                    checks += 1
                    if rep.lower_rate > rep.upper_rate + 1e-12:
                        violations += 1
                h = reports["entropy_eps"].lower_rate
                expected_h = math.log2(math.sqrt(snr))
                checks += 3
                if abs(h - expected_h) > 1e-9 * max(1.0, expected_h):
                    violations += 1
                if reports["capacity_2eps"].lower_rate > h + 1e-12:
                    violations += 1
                if h > reports["capacity_eps_delta"].upper_rate + 1e-12:
                    violations += 1
    ok = violations == 0
    report(
        capsys,
        3,
        ok,
        f"{checks} ordering checks over 200 snr points x 3 deltas x 3 dims: "
        f"{violations} violations (lower<=upper everywhere; 2eps-capacity "
        f"lower <= entropy rate = log2(sqrt(snr)) <= eps-delta upper)",
    )


def test_criterion_04_high_snr_tightness(capsys):
    params = SignalSpaceParams(omega=math.pi, t_obs=10.0, energy=1.0, eps=1e-3)
    rep = per_unit_time_report(params)["capacity_2eps"]
    gap = rep.upper_rate - rep.lower_rate
    ok = abs(gap - 0.5) <= 0.55
    report(
        capsys,
        4,
        ok,
        f"snr=1e6: 2eps-capacity rate gap upper-lower = {gap:.6f} bits/s, "
        f"within 0.55 of the 0.5 bits/s shell-counting overhead ({ok})",
    )


def test_criterion_05_strict_gap_threshold(capsys):
    above = np.linspace(STRICT_GAP_THRESHOLD * 1.001, 100.0, 20)
    below = np.linspace(1.01, STRICT_GAP_THRESHOLD * 0.999, 20)
    strict_holds = 0
    for s in above:
        params = SignalSpaceParams(
            omega=math.pi, t_obs=10.0, energy=1.0, eps=1.0 / float(s), delta=0.1
        )
        reports = per_unit_time_report(params)
        if reports["capacity_eps_delta"].lower_rate > reports["capacity_2eps"].upper_rate:
            strict_holds += 1
    false_strict = 0
    for s in below:
        params = SignalSpaceParams(
            omega=math.pi, t_obs=10.0, energy=1.0, eps=1.0 / float(s), delta=0.1
        )
        reports = per_unit_time_report(params)
        if (
            reports["capacity_eps_delta"].lower_rate
            > reports["capacity_2eps"].upper_rate + 1e-12
        ):
            false_strict += 1
    ok = strict_holds == 20 and false_strict == 0
    report(
        capsys,
        5,
        ok,
        f"eps-delta lower rate > 2eps upper rate at {strict_holds}/20 points "
        f"above sqrt(2)/(sqrt(2)-1)={STRICT_GAP_THRESHOLD:.6f}; "
        f"{false_strict} violations beyond 1e-12 below it",
    )


def test_criterion_06_oracle_agreement(capsys):
    rng = np.random.default_rng(515151)
    matches = 0
    trials = 0
    while trials < 30:
        radius = float(rng.uniform(0.5, 3.0))
        eps = radius * float(rng.uniform(0.05, 0.4))
        ratio = radius / eps
        if abs(ratio - round(ratio)) < 0.02:  # grid search is blind at jumps
            continue
        trials += 1
        pack_ok = oracle_pack_interval(radius, eps) == brute_force_pack_interval(radius, eps)
        cover_ok = oracle_cover_interval(radius, eps) == brute_force_cover_interval(radius, eps)
        matches += pack_ok and cover_ok

    min_margin = math.inf
    greedy_runs = 0
    greedy_ok = 0
    for dim in (1, 2, 3):
        for _ in range(3):
            radius = float(rng.uniform(0.8, 1.5))
            eps = radius / float(rng.uniform(3.0, 7.0))
            bound = (radius / (2.0 * eps)) ** dim
            for seed in (0, 1):
                count = greedy_pack(
                    Ellipsoid.ball(dim, radius), eps, seed=seed,
                    attempts=3, candidates=10000,
                )
                greedy_runs += 1
                greedy_ok += count >= bound
                min_margin = min(min_margin, count / bound)
    ok = matches == 30 and greedy_ok == greedy_runs
    report(
        capsys,
        6,
        ok,
        f"1-d pack/cover formulas match eps/100-grid brute force on "
        f"{matches}/30 random pairs; greedy packing beat the volume-ratio "
        f"lower bound in {greedy_ok}/{greedy_runs} runs over dims 1-3 "
        f"(min count/bound = {min_margin:.2f})",
    )


def test_criterion_07_simulation_vs_bound(capsys):
    t0 = time.perf_counter()
    params = SignalSpaceParams(omega=math.pi, t_obs=12.0, energy=1.0, eps=0.25, delta=0.1)
    config = ExperimentConfig(
        params=params, dim_override=12, samples=10_000, seed=20260821,
        max_codewords=2**18, retries=3, max_eval_codewords=512,
    )
    outcome = run_random_code_experiment(config)
    elapsed = time.perf_counter() - t0
    result = outcome.result
    size_ok = outcome.n_codewords == min(int(0.1 * 4**12), 2**18)
    ci_ok = result.mean_error_ci[1] <= 0.1
    retries_ok = outcome.attempts <= 3
    time_ok = elapsed < 60.0

    # two codewords at separation d, eps = 1. From d >= 2 eps neither claims
    # any of the other's ball: an exact zero, with the interval (0, 0).
    # Below, the pooled 95% Wilson interval over both codewords' trials
    # covers the exact share (1 - d/2)/2 with a probability that the
    # binomial pmf gives exactly; the number covered is a Poisson-binomial
    # count over those probabilities, and must not lie in its lower tail
    # beyond 1e-3 (requiring all 11 covered would pass with probability
    # about 0.95^11 = 0.57 under fresh random bits)
    samples = 4000
    far_ok, coverage, covered = 0, [], 0
    for j in range(20):
        frac = 0.05 + 0.09 * j
        d = 2.0 * frac  # eps = 1
        book = Codebook(points=np.array([[0.0], [d]]))
        res = estimate_error_fraction(book, 1.0, samples=samples, seed=2000 + j)
        expected = max(0.0, (1.0 - d / 2.0) / 2.0)
        if expected == 0.0:
            far_ok += bool(
                np.all(res.error_fractions == 0.0) and np.all(res.error_fraction_cis == 0.0)
            )
            continue
        lo, hi = res.mean_error_ci
        covered += lo <= expected <= hi
        coverage.append(wilson_coverage(expected, 2 * samples))
    tail = poisson_binomial_cdf(coverage, covered)
    analytic_ok = far_ok == 20 - len(coverage) == 9 and tail >= 1e-3

    ok = size_ok and ci_ok and retries_ok and time_ok and analytic_ok
    report(
        capsys,
        7,
        ok,
        f"N=12, sqrt(snr)=4, delta=0.1: M={outcome.n_codewords} "
        f"(floor(0.1*4^12) capped at 2^18 {size_ok}), mean error fraction "
        f"{result.mean_error_fraction:.5f} with upper CI "
        f"{result.mean_error_ci[1]:.5f} <= 0.1 ({ci_ok}) in "
        f"{outcome.attempts} attempt(s); runtime {elapsed:.1f}s (<60s "
        f"{time_ok}); two-codeword analytic overlap: exact zero at {far_ok}/9 "
        f"separations >= 2 eps, inside the 95% CI at {covered}/{len(coverage)} "
        f"others (expected {sum(coverage):.2f}, lower tail {tail:.3g} >= 1e-3)",
    )


def wilson_coverage(p: float, trials: int) -> float:
    """P(the 95% Wilson interval of K covers p), K ~ Binomial(trials, p),
    summed exactly over every count."""
    counts = np.arange(trials + 1)
    lower, upper = _wilson_intervals(counts, trials).T
    return float(np.sum(binom.pmf(counts, trials, p)[(lower <= p) & (p <= upper)]))


def poisson_binomial_cdf(probabilities, k: int) -> float:
    """P(at most k successes) among independent trials with these probabilities."""
    pmf = np.array([1.0])
    for p in probabilities:
        pmf = np.append(pmf * (1.0 - p), 0.0) + np.append(0.0, pmf * p)
    return float(pmf[: k + 1].sum())


def test_criterion_08_error_exponent_direction(capsys):
    params = SignalSpaceParams(omega=math.pi, t_obs=8.0, energy=1.0, eps=0.25, delta=0.1)
    rate = 0.5 * math.log2(params.sqrt_snr)  # half the capacity lower rate
    sweep = empirical_exponent_sweep(
        params, rate=rate, t_values=[8.0, 12.0, 16.0, 20.0],
        seed=20260821, samples=2000,
    )
    means = [p.mean_error_fraction for p in sweep.points]
    non_increasing = sum(b <= a for a, b in zip(means, means[1:]))
    slope = sweep.fitted_slope
    slope_ok = slope is None or slope <= 0.0
    ok = non_increasing >= 3 and slope_ok
    report(
        capsys,
        8,
        ok,
        f"rate={rate} (half the capacity lower rate): error fractions "
        f"{['%.3g' % m for m in means]} non-increasing in "
        f"{non_increasing}/3 consecutive comparisons; fitted log2 slope "
        f"{'n/a (fractions hit zero)' if slope is None else f'{slope:.3f}'} "
        f"<= 0 ({slope_ok}; predicted {sweep.predicted_decay:.1f})",
    )


def test_criterion_09_lattice_comparison(capsys):
    ours = capacity_2eps_bounds(100, 1.0, 1.0, 1.0 / 8.0)[0]
    lattice = jagerman_capacity_lower(100.0, 64.0)
    exact_ok = abs(ours - 200.0) < 1e-9
    quoted_ok = abs(lattice - 59.2) < 0.5
    beats = ours > lattice
    tail_rate = jagerman_capacity_lower_rate(math.pi, 1e4, 64.0)
    tail_ok = tail_rate < 0.1 * 1.0
    ok = exact_ok and quoted_ok and beats and tail_ok
    report(
        capsys,
        9,
        ok,
        f"N0=100, sqrt(snr)=8: volume-ratio lower bound {ours:.1f} bits "
        f"(exactly 200 {exact_ok}) exceeds the lattice bound "
        f"{lattice:.4f} bits (within 0.5 of the quoted 59.2 {quoted_ok}); "
        f"lattice rate at N0=1e4 is {tail_rate:.4f} < 0.1*(omega/pi) ({tail_ok})",
    )


def test_criterion_10_determinism(capsys, tmp_path):
    argv = [
        "simulate", "--omega", "3.14159265", "--t-obs", "8", "--energy", "1",
        "--eps", "0.25", "--delta", "0.2", "--samples", "400", "--seed", "7",
    ]
    out = tmp_path / "det.json"
    assert main(argv + ["--out", str(out)]) == 0
    first = out.read_bytes()
    assert main(argv + ["--out", str(out)]) == 0
    second = out.read_bytes()

    def canon(raw):
        payload = json.loads(raw)
        payload["manifest"].pop("timestamp")
        return json.dumps(payload, sort_keys=True)

    bytes_ok = canon(first) == canon(second)

    rng = np.random.default_rng(99)
    pts = rng.normal(size=(60, 5)) * 0.4
    base = estimate_error_fraction(Codebook(points=pts), 0.5, samples=300, seed=1)
    perm = np.random.default_rng(3).permutation(60)
    shuffled = estimate_error_fraction(Codebook(points=pts[perm]), 0.5, samples=300, seed=1)
    perm_ok = shuffled.mean_error_fraction == base.mean_error_fraction

    ok = bytes_ok and perm_ok
    report(
        capsys,
        10,
        ok,
        f"repeated simulate run is byte-identical ex-timestamp ({bytes_ok}); "
        f"permuting 60 codewords leaves the mean error fraction exactly "
        f"unchanged at {base.mean_error_fraction:.6f} ({perm_ok})",
    )
