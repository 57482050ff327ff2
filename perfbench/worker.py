"""One workload in one fresh process: a warm-up pass, then timed passes.

Started by run.py with BLAS pinned to one thread through the environment
(numpy reads it when it loads). Imports the package from ``src`` of the
current directory and drives it through ``epscap.cli.main(argv)`` in
process. Writes its measurements to the JSON file named by ``--result``;
in a traced run also the spans, to ``--spans``.

A traced run alternates untraced and traced passes, so both medians see
the same machine drift; their difference is the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback

sys.path.insert(0, os.path.abspath("src"))

import epscap.cli  # noqa: E402  (called through the module, where tracing wraps it)

import environment  # noqa: E402
import layers  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, load_reference  # noqa: E402

# Passes always measured, however short --seconds is: a median needs a few.
MIN_PASSES = 3


def run_pass(ops, failures: list) -> tuple[float, float]:
    """Wall and CPU seconds spent inside the CLI calls of one pass.

    Checks run outside the timed calls. Each failed operation appends a
    message to ``failures``.
    """
    wall = cpu = 0.0
    for op in ops:
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            code = epscap.cli.main(op.argv)
        except Exception:  # a crash is a failed operation; keep measuring
            traceback.print_exc()
            code = None
        wall += time.perf_counter() - w0
        cpu += time.process_time() - c0
        if code != 0:
            failures.append(f"{op.label}: exit code {code}")
            continue
        try:
            op.check()
        except Exception as exc:  # whatever breaks a check fails the operation
            failures.append(f"{op.label}: {type(exc).__name__}: {exc}")
    return wall, cpu


def measure(ops, seconds: float, traced: bool):
    """Warm-up pass, then passes until ``seconds`` have gone by."""
    tracer = Tracer(layers.TARGETS) if traced else None
    failures: list[str] = []
    passes = []
    run_pass(ops, failures)  # warm-up: untimed, but checked
    start = time.perf_counter()
    pass_id = 0
    while (
        time.perf_counter() - start < seconds
        or len(passes) < MIN_PASSES * (1 + traced)
        or len(passes) % (1 + traced)
    ):
        pass_id += 1
        # a traced run measures pairs, and swaps which kind goes first
        pair, second = divmod(pass_id - 1, 2)
        trace_this = traced and bool(second) != bool(pair % 2)
        if trace_this:
            tracer.pass_id = pass_id
            tracer.install()
        try:
            wall, cpu = run_pass(ops, failures)
        finally:
            if tracer is not None:
                tracer.uninstall()
        passes.append({"id": pass_id, "traced": trace_this, "wall_s": wall, "cpu_s": cpu})
    attempted = len(ops) * (1 + len(passes))
    return passes, failures, attempted, tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)

    shutil.rmtree(args.workdir, ignore_errors=True)
    os.makedirs(args.workdir)
    workload = WORKLOADS[args.workload](os.path.abspath(args.workdir), args.seed, load_reference())
    ops = workload.ops()
    passes, failures, attempted, tracer = measure(ops, args.seconds, bool(args.trace))

    untraced = [p for p in passes if not p["traced"]]
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "pass_seed": workload.seed,
        "trace": args.trace,
        "environment": environment.describe(),
        "operations_per_pass": [op.label for op in ops],
        "passes": passes,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "pass_p50_s": statistics.median(p["wall_s"] for p in untraced),
        "pass_cpu_p50_s": statistics.median(p["cpu_s"] for p in untraced),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        traced_ids = [p["id"] for p in passes if p["traced"]]
        by_pass = {i: [s for s in tracer.spans if s.pass_id == i] for i in traced_ids}
        metrics, differing = layers.layer_metrics(
            by_pass,
            [p["wall_s"] for p in passes if p["traced"]],
            [p["wall_s"] for p in untraced],
        )
        result["layers"] = metrics
        result["traced_passes"] = len(traced_ids)
        result["counts_differing_between_passes"] = differing
        result["wrapped"] = tracer.wrapped
        with open(args.spans, "w", encoding="utf-8") as fh:
            json.dump(
                {"workload": args.workload, "seed": args.seed,
                 "spans": [s.to_dict() for s in tracer.spans]},
                fh,
            )
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
