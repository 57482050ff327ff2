"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --seeds 1-10 [--workloads codebook-large,...] [--out FILE]

For every workload and metric it prints the median of the runs, their
quartiles (``statistics.quantiles(values, n=4)``) and the interquartile
range as a share of the median, next to the metric's bound in
BENCHMARK.json, and the wall time of a run. ``--out`` stores the same
summary, with every run's values and the environment block, under the key
``trace0`` or ``trace1`` of a JSON file, keeping the other key.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(part) for part in text.split(",")]


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "iqr_share": (q3 - q1) / median if median else None,
        "runs": values,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--workloads", default=None, help="comma-separated; default all")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    summary = {"run_seconds": spec["run_seconds"], "seeds": args.seeds, "workloads": {}}
    elapsed = []
    ok = True
    for name in names:
        runs = []
        for seed in args.seeds:
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", name, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)],
                capture_output=True, text=True, check=False,
            )
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            last = json.loads(lines[-1])
            ok &= last["correct"] and last["failed"] == 0
            runs.append(last)
            elapsed.append(time.perf_counter() - start)
            print(f"{name} seed {seed} ({elapsed[-1]:.1f} s): " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in last["metrics"].items()), flush=True)
        metrics = {}
        for metric in runs[0]["metrics"]:
            stats = summarize([r["metrics"][metric]["value"] for r in runs])
            stats["unit"] = runs[0]["metrics"][metric]["unit"]
            metrics[metric] = stats
            bound = bounds.get(metric)
            flag = ""
            share = stats["iqr_share"]
            if bound is not None and metric != "setup_s":
                flag = "over bound" if share > bound else (
                    "over bound/3" if share > bound / 3 else "ok")
            print(f"  {metric:28s} median {stats['median']:.6g} {stats['unit']:5s} "
                  f"iqr/median {'-' if share is None else f'{share:.4f}'} bound {bound} {flag}")
        summary["workloads"][name] = {
            "correct": all(r["correct"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "metrics": metrics,
        }
    summary["run_wall_s"] = {"mean": statistics.mean(elapsed), "max": max(elapsed)}
    print(f"wall time per run: mean {statistics.mean(elapsed):.1f} s, max {max(elapsed):.1f} s")
    if args.out:
        with open(f".perfbench_work/result-{names[0]}-seed{args.seeds[0]}-trace{args.trace}.json",
                  encoding="utf-8") as fh:
            summary["environment"] = json.load(fh)["environment"]
        # untraced and traced summaries share one file, one key each
        try:
            with open(args.out, encoding="utf-8") as fh:
                merged = json.load(fh)
        except FileNotFoundError:
            merged = {}
        merged[f"trace{args.trace}"] = summary
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(merged, fh, indent=1)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
