"""Byte-for-byte regression of the formula-only CLI artifacts.

`tests/golden/` holds one file per case and `--emit` form, with the
manifest timestamp blanked. Each command runs with a relative `--out` in
a fresh working directory, so the manifest records the same parameters
wherever the tests run. Spectra and Monte Carlo runs are left out: their
last printed digits depend on the BLAS build. `dof` is kept because it
prints only a count of eigenvalues and closed forms.

Rewrite the files with `python tests/test_golden.py`, and only for a
change that is meant to alter these artifacts.
"""

import os
import re
import tempfile
from pathlib import Path

import pytest

from epscap.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
EMITS = ("json", "csv", "table")
OMEGA = "3.14159265"
BOUNDS = ["bounds", "--omega", OMEGA, "--t-obs", "20", "--energy", "1", "--eps", "0.125"]
ORACLE = ["oracle", "--dim", "1", "--radius", "1", "--eps", "0.3"]

CASES = {
    "bounds_delta": BOUNDS + ["--delta", "0.1"],
    "bounds_zero_delta": BOUNDS,
    "compare": ["compare", "--omega", OMEGA, "--snr", "16", "--n0", "20"],
    "oracle_pack": ORACLE + ["--mode", "pack"],
    "oracle_cover": ORACLE + ["--mode", "cover"],
    "dof": ["dof", "--omega", OMEGA, "--t-obs", "20", "--energy", "1", "--mu", "0.1"],
    # mu^2 above the energy: a count of 0 and no asymptotic prediction
    "dof_beyond_asymptotic": ["dof", "--omega", OMEGA, "--t-obs", "20", "--energy", "1", "--mu", "2"],
}
SWEEP_CONFIG = f"omega = {OMEGA}\nt_obs = 20\nenergy = 1\neps = 0.2\neps = 0.1\ndelta = 0.1\ndelta = 0.2\n"

_TIMESTAMP = re.compile(rb'"timestamp": "[^"]*"')


def artifacts():
    """(file name, argv, files to write first) for every golden artifact."""
    for name, argv in CASES.items():
        for emit in EMITS:
            out = f"{name}.{emit}"
            yield out, argv + ["--emit", emit, "--out", out], {}
    yield "sweep.csv", ["sweep", "--config", "sweep.cfg", "--out", "sweep.csv"], {
        "sweep.cfg": SWEEP_CONFIG
    }


def render(argv, files) -> bytes:
    """Run one command in the current directory; its output, timestamp blanked."""
    for path, text in files.items():
        Path(path).write_text(text)
    assert main(argv) == 0, argv
    return _TIMESTAMP.sub(b'"timestamp": ""', Path(argv[-1]).read_bytes())


@pytest.mark.parametrize(
    "out, argv, files", [pytest.param(*case, id=case[0]) for case in artifacts()]
)
def test_artifact_bytes_match_golden(tmp_path, monkeypatch, out, argv, files):
    monkeypatch.delenv("EPSCAP_OUTPUT_DIR", raising=False)
    monkeypatch.chdir(tmp_path)
    assert render(argv, files) == (GOLDEN / out).read_bytes()


if __name__ == "__main__":
    os.environ.pop("EPSCAP_OUTPUT_DIR", None)
    for out, argv, files in artifacts():
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)
            (GOLDEN / out).write_bytes(render(argv, files))
            os.chdir(GOLDEN)
