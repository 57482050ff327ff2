"""Write reference.json: the seed-independent outputs the workloads are checked against.

    python3 perfbench/make_reference.py

Run it from the root of a checkout whose outputs are trusted. The
reference holds the leading 2*N0 eigenvalues of each spectrum call, the
``bounds``, ``dof`` and ``oracle`` payloads without their manifests, the
``compare`` table, and the sweep's header and seed-independent bound
columns. A change that claims to leave outputs alone must not rewrite it.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import environment  # noqa: E402

os.environ.update(environment.pinned_env())  # before numpy loads BLAS
sys.path.insert(0, os.path.abspath("src"))

from epscap.cli import main  # noqa: E402

from workloads import (  # noqa: E402
    REFERENCE_PATH,
    SWEEP_BOUND_COLUMNS,
    WORKLOADS,
)


def _payload(path):
    with open(path, encoding="utf-8") as fh:
        record = json.load(fh)
    record.pop("manifest")
    return record


def build(workdir: str) -> dict:
    paths = {}
    for name, cls in WORKLOADS.items():
        workload = cls(workdir, 0, {})
        for op in workload.ops():
            if main(op.argv) != 0:
                raise SystemExit(f"{name} {op.label} failed; no reference written")
        paths[name] = workload.path

    spectrum = paths["spectrum-large"]
    sweep = paths["sweep-small"]
    reference = {}
    for key, file in (("spectrum_t200", "spectrum200.json"), ("spectrum_t50", "spectrum50.json")):
        record = _payload(spectrum(file))
        reference[key] = record["lambdas"][: round(2 * record["nominal_dimension"])]
    reference["bounds"] = _payload(spectrum("bounds.json"))
    reference["dof"] = _payload(spectrum("dof.json"))
    reference["oracle"] = _payload(sweep("oracle.json"))
    with open(sweep("compare.txt"), encoding="utf-8") as fh:
        reference["compare"] = fh.read()
    with open(sweep("sweep.csv"), encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    reference["sweep_header"] = lines[1].split(",")
    reference["sweep_bounds"] = [row.split(",")[:SWEEP_BOUND_COLUMNS] for row in lines[2:]]
    return reference


if __name__ == "__main__":
    workdir = os.path.abspath(os.path.join(".perfbench_work", "reference"))
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    reference = build(workdir)
    with open(REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {REFERENCE_PATH}")
