import math
import re

import numpy as np
import pytest

from epscap.comparison import (
    ComparisonRow,
    comparison_table,
    jagerman_capacity_lower,
    jagerman_capacity_lower_rate,
    jagerman_entropy_upper,
    shannon_capacity,
    shannon_rate_distortion,
)
from reference import capacity_crossover_dimension


def test_shannon_capacity_frozen():
    assert shannon_capacity(math.pi, 16.0) == pytest.approx(
        0.5 * math.log2(17.0), rel=1e-12
    )
    assert shannon_capacity(math.pi, 0.0) == 0.0
    assert shannon_capacity(2.0 * math.pi, 16.0) == pytest.approx(
        math.log2(17.0), rel=1e-12
    )
    with pytest.raises(ValueError):
        shannon_capacity(math.pi, -1.0)


def test_shannon_rate_distortion():
    assert shannon_rate_distortion(math.pi, 16.0) == pytest.approx(2.0, abs=1e-12)
    assert shannon_rate_distortion(math.pi, 0.5) == 0.0  # clamped
    with pytest.raises(ValueError):
        shannon_rate_distortion(math.pi, 0.0)


def test_jagerman_lattice_bounds_frozen():
    assert jagerman_capacity_lower(100.0, 64.0) == pytest.approx(
        59.06876906089287, rel=1e-10
    )
    assert jagerman_capacity_lower_rate(math.pi, 1e4, 64.0) == pytest.approx(
        0.07120860448642896, rel=1e-10
    )
    assert jagerman_entropy_upper(math.pi, 16.0) == pytest.approx(
        math.log2(9.0), rel=1e-12
    )


def test_jagerman_rate_vanishes_with_dimension():
    rates = [
        jagerman_capacity_lower_rate(math.pi, n0, 64.0)
        for n0 in (1e2, 1e3, 1e4, 1e5)
    ]
    assert all(b < a for a, b in zip(rates, rates[1:]))
    assert rates[-1] < 0.03


def test_capacity_crossover():
    assert capacity_crossover_dimension(64.0) == 3
    with pytest.raises(ValueError):
        capacity_crossover_dimension(4.0)
    # past the crossover the volume-ratio lower bound stays ahead
    for snr in (8.0, 64.0, 1e4):
        n_star = capacity_crossover_dimension(snr)
        ours = n_star * (math.log2(math.sqrt(snr)) - 1.0)
        assert ours > jagerman_capacity_lower(n_star, snr)
        if n_star > 1:
            ours_below = (n_star - 1) * (math.log2(math.sqrt(snr)) - 1.0)
            assert ours_below <= jagerman_capacity_lower(n_star - 1, snr)


def test_comparison_table_structure():
    rows = comparison_table(math.pi, 16.0)
    labels = [r.label for r in rows]
    assert labels == [
        "capacity (bits/s)",
        "source rate at fixed fidelity (bits/s)",
        "zero-error capacity (bits/s)",
    ]
    by_label = {r.label: r for r in rows}
    fidelity = by_label["source rate at fixed fidelity (bits/s)"]
    # both descriptions agree exactly on this quantity
    assert fidelity.stochastic_bits_per_s == pytest.approx(2.0, abs=1e-12)
    assert fidelity.deterministic_lower_bits_per_s == pytest.approx(2.0, abs=1e-12)
    assert fidelity.deterministic_upper_bits_per_s == pytest.approx(2.0, abs=1e-12)
    zero_error = by_label["zero-error capacity (bits/s)"]
    assert zero_error.stochastic_bits_per_s == 0.0
    assert zero_error.deterministic_lower_bits_per_s > 0.0
    for row in rows:
        assert row.deterministic_lower_bits_per_s <= row.deterministic_upper_bits_per_s + 1e-12
        assert row.note


def test_comparison_table_with_finite_window_row():
    rows = comparison_table(math.pi, 64.0, nominal_dim=100.0)
    assert len(rows) == 4
    lattice = rows[-1]
    assert "lattice" in lattice.label
    assert math.isnan(lattice.stochastic_bits_per_s)
    from epscap.manifest import normalize

    assert normalize(lattice.to_dict())["stochastic_bits_per_s"] is None
    assert lattice.deterministic_lower_bits_per_s == pytest.approx(
        jagerman_capacity_lower_rate(math.pi, 100.0, 64.0), rel=1e-12
    )


def test_comparison_capacity_row_brackets_shannon():
    # at high snr the deterministic window contains the stochastic value
    for snr in (16.0, 256.0, 4096.0):
        rows = {r.label: r for r in comparison_table(math.pi, snr)}
        cap = rows["capacity (bits/s)"]
        assert cap.deterministic_lower_bits_per_s <= cap.stochastic_bits_per_s
        assert cap.stochastic_bits_per_s <= cap.deterministic_upper_bits_per_s + 1e-12


def test_comparison_table_rejects_bad_snr():
    with pytest.raises(ValueError):
        comparison_table(math.pi, 0.0)
    with pytest.raises(ValueError):
        comparison_table(-math.pi, 16.0)


@pytest.mark.parametrize("nominal_dim", [0.5, 0.0, math.nan, math.inf])
def test_lattice_bounds_refuse_a_nominal_dimension_below_one(nominal_dim):
    message = re.escape(f"nominal_dim must be >= 1, got {nominal_dim}")
    with pytest.raises(ValueError, match=message):
        jagerman_capacity_lower(nominal_dim, 16.0)
    with pytest.raises(ValueError, match=message):
        jagerman_capacity_lower_rate(math.pi, nominal_dim, 16.0)


def test_comparison_row_refuses_a_lower_end_above_its_upper_end():
    with pytest.raises(ValueError, match="x: deterministic lower 2.0 exceeds upper 1.0"):
        ComparisonRow("x", 1.0, 2.0, 1.0)
    assert ComparisonRow("x", 1.0, 1.0 + 1e-13, 1.0).deterministic_upper_bits_per_s == 1.0
