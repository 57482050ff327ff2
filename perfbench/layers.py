"""Which package functions are traced, and the per-layer metrics built from them.

Layers are the package's modules. Each traced function is named by its
defining module; counts come from call arguments and return values only.
"""

from __future__ import annotations

import statistics

import numpy as np

from spans import self_times


def _spectrum_counts(args, spectrum):
    lambdas = np.asarray(spectrum.lambdas)
    return {
        "spectrum.builds": 1,
        "spectrum.eigenvalues": int(lambdas.size),
        "spectrum.clipped": int(np.count_nonzero(lambdas <= spectrum.clip_floor)),
    }


def _codebook_counts(args, codebook):
    return {"simulation.codewords_drawn": int(args["n_codewords"])}


def _ball_counts(args, points):
    return {"simulation.ball_points": 1 if args["size"] is None else int(args["size"])}


def _estimate_counts(args, result):
    cis = np.asarray(result.error_fraction_cis)
    evaluated = len(result.error_fractions)
    free = int(np.count_nonzero(np.all(cis == 0.0, axis=1))) if evaluated else 0
    return {
        "simulation.eval_codewords": evaluated,
        "simulation.neighbour_free": free,
        "simulation.decode_samples": int(args["samples"]) * (evaluated - free),
    }


def _experiment_counts(args, outcome):
    return {"simulation.attempts": int(outcome.attempts)}


def _pack_counts(args, count):
    return {
        "geometry.pack_candidates": int(args["attempts"]) * int(args["candidates"]),
        "geometry.pack_accepted": int(count),
    }


def _reports_counts(args, reports):
    return {"geometry.reports_calls": 1}


def _bytes_counts(args, data):
    return {"manifest.bytes_out": len(data)}


def _cli_counts(args, code):
    argv = list(args["argv"] or ())
    counts = {"cli.calls": 1}
    if argv[:1] == ["sweep"] and "--out" in argv:
        with open(argv[argv.index("--out") + 1], "rb") as fh:
            lines = fh.read().splitlines()
        counts["cli.sweep_rows"] = max(0, len(lines) - 2)  # manifest + header
    return counts


TARGETS = [
    ("epscap.spectrum", "build_spectrum", _spectrum_counts),
    ("epscap.spectrum", "build_kernel_matrix", None),
    ("epscap.spectrum", "compute_spectrum", None),
    ("epscap.spectrum", "degrees_of_freedom", None),
    ("epscap.spectrum", "volume_correction", None),
    ("epscap.simulation", "run_random_code_experiment", _experiment_counts),
    ("epscap.simulation", "estimate_error_fraction", _estimate_counts),
    ("epscap.simulation", "sample_uniform_ball", _ball_counts),
    ("epscap.simulation", "generate_codebook", _codebook_counts),
    ("epscap.geometry", "greedy_pack", _pack_counts),
    ("epscap.geometry", "finite_reports", _reports_counts),
    ("epscap.manifest", "json_bytes", _bytes_counts),
    ("epscap.manifest", "csv_bytes", _bytes_counts),
    ("epscap.cli", "main", _cli_counts),
]

# metric -> span names whose summed durations it reports
_DURATIONS = {
    "spectrum.build_s": ["epscap.spectrum.build_spectrum"],
    "spectrum.assembly_s": ["epscap.spectrum.build_kernel_matrix"],
    "spectrum.functionals_s": [
        "epscap.spectrum.degrees_of_freedom",
        "epscap.spectrum.volume_correction",
    ],
    "simulation.experiment_s": ["epscap.simulation.run_random_code_experiment"],
    "simulation.estimate_s": ["epscap.simulation.estimate_error_fraction"],
    "simulation.ball_sampling_s": ["epscap.simulation.sample_uniform_ball"],
    "simulation.codebook_s": ["epscap.simulation.generate_codebook"],
    "geometry.pack_s": ["epscap.geometry.greedy_pack"],
    "geometry.reports_s": ["epscap.geometry.finite_reports"],
    "manifest.serialize_s": ["epscap.manifest.json_bytes", "epscap.manifest.csv_bytes"],
}

# metric -> span name whose summed self time it reports
_SELF_TIMES = {
    "spectrum.eigensolve_s": "epscap.spectrum.compute_spectrum",
    "simulation.estimate_self_s": "epscap.simulation.estimate_error_fraction",
    "cli.self_s": "epscap.cli.main",
}

COUNTS = [
    "spectrum.builds",
    "spectrum.eigenvalues",
    "spectrum.clipped",
    "simulation.codewords_drawn",
    "simulation.ball_points",
    "simulation.eval_codewords",
    "simulation.neighbour_free",
    "simulation.decode_samples",
    "simulation.attempts",
    "geometry.pack_candidates",
    "geometry.pack_accepted",
    "geometry.reports_calls",
    "manifest.bytes_out",
    "cli.calls",
    "cli.sweep_rows",
]

# every per-layer metric in report order, with its unit
UNITS = {
    **{name: "s" for name in [*_DURATIONS, *_SELF_TIMES]},
    **{name: "count" for name in COUNTS},
    "manifest.bytes_out": "bytes",
    "geometry.pack_accept_ratio": "ratio",
    "trace.overhead_s": "s",
}


def pass_times(spans) -> dict[str, float]:
    """Per-layer seconds of one pass: summed durations and self times."""
    selfs = self_times(spans)
    out = {}
    for metric, names in _DURATIONS.items():
        out[metric] = sum(s.end - s.start for s in spans if s.name in names)
    for metric, name in _SELF_TIMES.items():
        out[metric] = sum(selfs[s.id] for s in spans if s.name == name)
    return out


def pass_counts(spans) -> dict[str, int]:
    """Per-layer counts of one pass, summed over its spans."""
    out = dict.fromkeys(COUNTS, 0)
    for s in spans:
        for key, value in s.counts.items():
            out[key] += value
    return out


def layer_metrics(traced_spans: dict, traced_walls, untraced_walls):
    """Per-layer metrics of a traced run.

    ``traced_spans`` maps each traced pass id to its spans. Times are
    medians over those passes. Counts come from the first traced pass;
    the returned list names every count another traced pass disagrees on.
    """
    per_pass = [pass_times(spans) for spans in traced_spans.values()]
    counts = [pass_counts(spans) for spans in traced_spans.values()]
    metrics = {m: statistics.median(p[m] for p in per_pass) for m in per_pass[0]}
    first = counts[0]
    differing = sorted({k for c in counts[1:] for k in COUNTS if c[k] != first[k]})
    metrics.update(first)
    candidates = first["geometry.pack_candidates"]
    metrics["geometry.pack_accept_ratio"] = (
        first["geometry.pack_accepted"] / candidates if candidates else 0.0
    )
    metrics["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(
        untraced_walls
    )
    return {m: metrics[m] for m in UNITS}, differing
