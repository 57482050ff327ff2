"""Benchmark entry point: one workload, one seed, traced or not.

Run from the root of a checkout:

    python3 perfbench/run.py --workload codebook-large --seed 1 --seconds 30 --trace 0

It starts the workload in a fresh process with BLAS pinned to one thread.
An untraced run also times fresh interpreters that import ``epscap.cli``
and build its parser (``setup_s``), half before the workload process and
half after it. It prints the
environment block and every metric by name, unit and sample count, and
as its last line one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics`` (the end-to-end metrics of BENCHMARK.json when
``--trace 0``, its per-layer metrics when ``--trace 1``).

Everything it writes goes under ``.perfbench_work/``: the last run's
artifacts in ``<workload>/``, ``result-<workload>-seed<n>-trace<t>.json``
with every pass and the environment, and for a traced run
``spans-<workload>-seed<n>.json``.
A traced run compares its per-layer counts with the previous traced run
of the same workload, seed and sources, and fails if any count differs.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORK = ".perfbench_work"

# Fresh interpreters timed for setup_s, half before the workload process
# and half after it, so that one run's median spans its whole duration.
SETUP_RUNS = 6
SETUP_CODE = (
    "import sys; sys.path.insert(0, 'src'); "
    "from epscap.cli import main; sys.exit(main(['--help']))"
)
WORKER_TIMEOUT_S = 150
SETUP_TIMEOUT_S = 30


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 1


def _run(cmd, env, timeout, stdout) -> int | None:
    """Run a child to completion; on timeout kill it, wait, and return None.

    A timer does the killing: ``wait(timeout=...)`` polls in steps of up to
    50 ms, which would show in the setup times.
    """
    proc = subprocess.Popen(cmd, env=env, stdout=stdout)
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        code = proc.wait()
    finally:
        timer.cancel()
    return None if code == -signal.SIGKILL else code


def measure_setup(env, runs: int) -> tuple[list[float], int]:
    """Wall seconds of fresh interpreters importing the CLI; and how many failed."""
    times, failed = [], 0
    for _ in range(runs):
        start = time.perf_counter()
        code = _run([sys.executable, "-c", SETUP_CODE], env, SETUP_TIMEOUT_S, subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
        failed += code != 0
    return times, failed


def _load_json(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "epscap", "cli.py")):
        return _fail("no src/epscap/cli.py here; run from the root of an epscap checkout")
    spec = _load_json("BENCHMARK.json")
    if spec is None:
        return _fail("cannot read BENCHMARK.json")
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        return _fail(f"unknown workload {args.workload!r}")

    sys.path.insert(0, HERE)
    import environment
    import layers

    tag = f"{args.workload}-seed{args.seed}"
    result_path = os.path.join(WORK, f"result-{tag}-trace{args.trace}.json")
    spans_path = os.path.join(WORK, f"spans-{tag}.json")
    previous = _load_json(result_path) if args.trace else None
    os.makedirs(WORK, exist_ok=True)
    if os.path.exists(result_path):
        os.remove(result_path)

    env = environment.pinned_env()
    setup_before = measure_setup(env, SETUP_RUNS // 2) if not args.trace else ([], 0)
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--workdir", os.path.join(WORK, args.workload), "--result", result_path,
        "--spans", spans_path,
    ]
    # the worker's stdout goes to stderr so that our last line stays the result
    code = _run(cmd, env, WORKER_TIMEOUT_S, sys.stderr)
    result = _load_json(result_path)
    if code != 0 or result is None:
        return _fail(f"workload process ended with {code} and no result")

    attempted, failed = result["attempted"], result["failed"]
    problems = list(result["failures"])
    n_untraced = sum(not p["traced"] for p in result["passes"])
    if args.trace:
        metrics = result["layers"]
        units = layers.UNITS
        samples = dict.fromkeys(metrics, result["traced_passes"])
        problems += [f"count {k} differs between passes" for k in result["counts_differing_between_passes"]]
        if previous and previous.get("environment", {}).get("source_sha256") == result["environment"]["source_sha256"]:
            problems += [
                f"count {k} differs from the previous traced run: "
                f"{previous['layers'][k]} then {metrics[k]}"
                for k in layers.COUNTS
                if previous["layers"].get(k) != metrics[k]
            ]
        wanted = [m["name"] for m in spec["per_layer"]]
    else:
        setup_after = measure_setup(env, SETUP_RUNS - SETUP_RUNS // 2)
        setup_times = setup_before[0] + setup_after[0]
        setup_failed = setup_before[1] + setup_after[1]
        attempted += SETUP_RUNS
        failed += setup_failed
        if setup_failed:
            problems.append(f"{setup_failed} setup interpreter(s) failed")
        metrics = {
            "setup_s": statistics.median(setup_times),
            "pass_p50_s": result["pass_p50_s"],
            "pass_cpu_p50_s": result["pass_cpu_p50_s"],
            "peak_rss_mb": result["peak_rss_mb"],
        }
        units = {"setup_s": "s", "pass_p50_s": "s", "pass_cpu_p50_s": "s", "peak_rss_mb": "MB"}
        samples = {"setup_s": SETUP_RUNS, "pass_p50_s": n_untraced,
                   "pass_cpu_p50_s": n_untraced, "peak_rss_mb": 1}
        result["setup_s_runs"] = setup_times
        wanted = [m["name"] for m in spec["end_to_end"]]
    if sorted(wanted) != sorted(metrics):
        return _fail(f"BENCHMARK.json lists {sorted(wanted)}, the harness measures {sorted(metrics)}")

    result["metrics"] = {k: {"value": metrics[k], "unit": units[k], "samples": samples[k]} for k in metrics}
    result["problems"] = problems
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)

    for key, value in result["environment"].items():
        print(f"# {key}: {json.dumps(value)}")
    print(f"# passes: {n_untraced} untraced, {len(result['passes']) - n_untraced} traced, "
          f"after one warm-up; operations {attempted}, failed {failed}, "
          f"fail_frac {failed / attempted:.6g}")
    for problem in problems:
        print(f"# FAILED {problem}")
    for name in sorted(metrics):
        print(f"{name:32s} {metrics[name]:>16.9g} {units[name]:6s} n={samples[name]}")
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
