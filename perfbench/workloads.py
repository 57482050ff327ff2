"""The three benchmark workloads: fixed sequences of CLI calls and their checks.

A pass is one run of a workload's sequence. Every call is an operation;
it fails on a non-zero exit code or a failed output check. Outputs are
checked against ``reference.json`` where they do not depend on the seed,
and every artifact must repeat its first pass's bytes (timestamp aside),
since all passes of a run use the same seed.

Why these workloads:

- spectrum-large: dense spectrum work (N0 = 200, quadrature order 1600)
  with no Monte Carlo, so a faster eigensolver shows here. N0 = 400 takes
  35-45 s per build on a 2-core machine, too long to repeat. The
  ``--save-vectors`` call keeps the only consumer of eigenvectors timed.
  Nothing in it is random, so the seed does not apply.
- codebook-large: the criterion-7 simulate run, 2^18 codewords and 512
  evaluated ones; neighbour search and ball sampling dominate and no
  spectrum is built.
- sweep-small: many small problems (16 sweep rows with small codebooks
  and order-256 spectra, on two threads), then greedy packing in
  dimension 5 and the classical comparison. Per-call overhead and packing
  show here, large-scale scans do not.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
from dataclasses import dataclass
from typing import Callable

import numpy as np

OMEGA = "3.14159265"
REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

# Leading eigenvalues must match the reference to this absolute error; the
# artifact prints 12 significant digits.
EIGENVALUE_TOLERANCE = 1e-9
# The eigenvalues must sum to N0 within this share of N0.
TRACE_TOLERANCE = 1e-6

_TIMESTAMP = re.compile(rb'"timestamp": *"[^"]*"')


class CheckFailed(Exception):
    """An operation's output is wrong."""


def _require(condition, message):
    if not condition:
        raise CheckFailed(message)


def pass_seed(workload: str, seed: int) -> int:
    """The seed every pass of a run hands to the program, derived from --seed."""
    digest = hashlib.sha256(f"{workload}/{seed}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


def load_reference() -> dict:
    with open(REFERENCE_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


@dataclass(frozen=True)
class Op:
    """One CLI call and the check of what it wrote."""

    label: str
    argv: list
    check: Callable[[], None]


class Workload:
    name = ""

    def __init__(self, workdir: str, seed: int, reference: dict):
        self.workdir = workdir
        self.seed = pass_seed(self.name, seed)
        self.ref = reference
        self._first: dict = {}

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def ops(self) -> list[Op]:
        raise NotImplementedError

    # --- shared checks ---

    def same_as_first(self, key: str, data: bytes) -> None:
        """Artifact bytes, timestamp aside, must equal the first pass's."""
        data = _TIMESTAMP.sub(b'"timestamp": ""', data)
        first = self._first.setdefault(key, data)
        _require(data == first, f"{key} differs from the first pass's bytes")

    def read(self, name: str) -> bytes:
        with open(self.path(name), "rb") as fh:
            data = fh.read()
        self.same_as_first(name, data)
        return data

    def payload(self, name: str) -> dict:
        record = json.loads(self.read(name))
        record.pop("manifest")
        return record

    def check_equal(self, name: str, key: str) -> None:
        _require(self.payload(name) == self.ref[key], f"{name} differs from reference {key}")

    def check_spectrum(self, name: str, key: str, t_obs: float) -> list:
        record = self.payload(name)
        lambdas = record["lambdas"]
        n0 = float(OMEGA) * t_obs / math.pi
        _require(abs(record["nominal_dimension"] - n0) <= 1e-9 * n0, f"{name}: N0 is wrong")
        # 12-digit rounding prints the plateau's 1 - 1e-15 as 1
        _require(all(0.0 < v <= 1.0 for v in lambdas), f"{name}: eigenvalue outside (0, 1)")
        _require(
            all(a >= b for a, b in zip(lambdas, lambdas[1:])),
            f"{name}: eigenvalues increase",
        )
        _require(
            abs(math.fsum(lambdas) - n0) <= TRACE_TOLERANCE * n0,
            f"{name}: eigenvalues do not sum to N0",
        )
        leading = self.ref[key]
        _require(len(lambdas) >= len(leading), f"{name}: fewer than 2*N0 eigenvalues")
        worst = max(abs(a - b) for a, b in zip(lambdas, leading))
        _require(
            worst <= EIGENVALUE_TOLERANCE,
            f"{name}: leading eigenvalues off the reference by {worst:.3g}",
        )
        return lambdas


class SpectrumLarge(Workload):
    name = "spectrum-large"

    def ops(self):
        spec200 = self.path("spectrum200.json")
        return [
            Op("spectrum-t200",
               ["spectrum", "--omega", OMEGA, "--t-obs", "200", "--out", spec200],
               lambda: self.check_spectrum("spectrum200.json", "spectrum_t200", 200.0)),
            Op("bounds-t200",
               ["bounds", "--omega", OMEGA, "--t-obs", "200", "--energy", "1",
                "--eps", "0.125", "--delta", "0.1", "--use-spectrum", spec200,
                "--out", self.path("bounds.json")],
               lambda: self.check_equal("bounds.json", "bounds")),
            Op("dof-t100",
               ["dof", "--omega", OMEGA, "--t-obs", "100", "--energy", "1", "--mu", "0.1",
                "--out", self.path("dof.json")],
               lambda: self.check_equal("dof.json", "dof")),
            Op("spectrum-t50-vectors",
               ["spectrum", "--omega", OMEGA, "--t-obs", "50",
                "--save-vectors", self.path("vectors50.npz"),
                "--out", self.path("spectrum50.json")],
               self._check_vectors),
        ]

    def _check_vectors(self):
        printed = self.check_spectrum("spectrum50.json", "spectrum_t50", 50.0)
        # npz members carry zip timestamps, so compare the arrays, not the bytes
        with np.load(self.path("vectors50.npz")) as npz:
            arrays = {k: npz[k] for k in ("lambdas", "eigvecs", "nodes", "weights")}
        lambdas, eigvecs = arrays["lambdas"], arrays["eigvecs"]
        _require(np.all((lambdas > 0) & (lambdas < 1)), "vectors: eigenvalue outside (0, 1)")
        _require(len(lambdas) == len(printed), "vectors: eigenvalue count differs from JSON")
        _require(
            eigvecs.shape[0] == len(arrays["nodes"]) and eigvecs.shape[1] >= len(printed),
            f"vectors: eigvecs shape {eigvecs.shape}",
        )
        _require(bool(np.all(np.isfinite(eigvecs))), "vectors: non-finite eigenvector")
        first = self._first.setdefault("vectors50.npz", arrays)
        _require(
            all(np.array_equal(first[k], arrays[k]) for k in arrays),
            "vectors50.npz differs from the first pass's arrays",
        )


class CodebookLarge(Workload):
    name = "codebook-large"

    def ops(self):
        return [
            Op("simulate-criterion7",
               ["simulate", "--omega", OMEGA, "--t-obs", "12", "--energy", "1",
                "--eps", "0.25", "--delta", "0.1", "--dim", "12", "--samples", "10000",
                "--seed", str(self.seed), "--out", self.path("simulate.json")],
               self._check_simulate),
        ]

    def _check_simulate(self):
        record = self.payload("simulate.json")
        result = record["result"]
        _require(record["n_codewords"] == 2**18 and record["capped"], "simulate: not 2^18 codewords")
        _require(result["verdict"] is True, "simulate: verdict is not true")
        fractions = result["error_fractions"]
        _require(len(fractions) == result["n_evaluated"] == 512, "simulate: not 512 evaluated")
        _require(
            math.isclose(result["mean_error_fraction"], math.fsum(fractions) / len(fractions),
                         rel_tol=1e-9, abs_tol=1e-15),
            "simulate: mean error fraction is not the mean",
        )
        lo, hi = result["mean_error_ci"]
        _require(lo <= result["mean_error_fraction"] <= hi <= result["target_delta"],
                 "simulate: interval does not hold the mean below delta")


SWEEP_CONFIG = """\
omega = {omega}
t_obs = 8
t_obs = 12
t_obs = 16
t_obs = 20
energy = 1
eps = 0.35
eps = 0.25
delta = 0.1
delta = 0.2
seed = {seed}
use_spectrum = true
simulate = true
samples = 1000
max_codewords = 4096
max_eval_codewords = 256
"""

SWEEP_JOBS = "2"
SWEEP_BOUND_COLUMNS = 20  # the seed-independent bound columns lead each row


class SweepSmall(Workload):
    name = "sweep-small"

    def __init__(self, workdir, seed, reference):
        super().__init__(workdir, seed, reference)
        with open(self.path("sweep.cfg"), "w", encoding="utf-8") as fh:
            fh.write(SWEEP_CONFIG.format(omega=OMEGA, seed=self.seed))

    def ops(self):
        config = self.path("sweep.cfg")
        return [
            Op("sweep-16",
               ["sweep", "--config", config, "--out", self.path("sweep.csv"),
                "--jobs", SWEEP_JOBS],
               self._check_sweep),
            Op("oracle-pack-5d",
               ["oracle", "--mode", "pack", "--dim", "5", "--radius", "1", "--eps", "0.2",
                "--out", self.path("oracle.json")],
               lambda: self.check_equal("oracle.json", "oracle")),
            Op("compare-snr16",
               ["compare", "--omega", OMEGA, "--snr", "16", "--out", self.path("compare.txt")],
               lambda: _require(self.read("compare.txt").decode() == self.ref["compare"],
                                "compare.txt differs from reference")),
        ]

    def _check_sweep(self):
        lines = self.read("sweep.csv").decode().splitlines()
        _require(lines[0].startswith("# manifest: "), "sweep: no manifest line")
        header = lines[1].split(",")
        _require(header == self.ref["sweep_header"], "sweep: columns differ from reference")
        rows = [line.split(",") for line in lines[2:]]
        _require(len(rows) == 16, f"sweep: {len(rows)} rows, expected 16")
        _require(all(len(r) == len(header) for r in rows), "sweep: ragged rows")
        bounds = [r[:SWEEP_BOUND_COLUMNS] for r in rows]
        _require(bounds == self.ref["sweep_bounds"], "sweep: bound columns differ from reference")
        verdicts = [r[header.index("sim_verdict")] for r in rows]
        _require(all(v in ("true", "false") for v in verdicts), "sweep: missing verdict")


WORKLOADS = {w.name: w for w in (SpectrumLarge, CodebookLarge, SweepSmall)}
