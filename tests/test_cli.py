import argparse
import inspect
import itertools
import json
import math
import os
import pathlib
import re
import stat
import subprocess
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from epscap import cli, simulation, spectrum
from epscap.cli import main
from epscap.errors import NumericalError
from epscap.manifest import round_float
from epscap.params import DENSE_BYTES

PI_ARG = "3.14159265"
ROOT = pathlib.Path(__file__).resolve().parents[1]


def run_json(tmp_path, name, argv):
    out = tmp_path / f"{name}.json"
    code = main(argv + ["--out", str(out)])
    assert code == 0, f"command failed: {argv}"
    return json.loads(out.read_text())


def run_csv(tmp_path, name, argv):
    out = tmp_path / f"{name}.csv"
    code = main(argv + ["--emit", "csv", "--out", str(out)])
    assert code == 0, f"command failed: {argv}"
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# manifest: ")
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return lines[0], header, rows


def test_missing_command_is_usage_error():
    assert main([]) == 2


def test_unknown_command_is_usage_error():
    assert main(["frobnicate"]) == 2


def test_dof_payload_shape(tmp_path):
    payload = run_json(
        tmp_path,
        "dof",
        ["dof", "--omega", PI_ARG, "--t-obs", "20", "--energy", "1", "--mu", "0.1"],
    )
    assert set(payload) == {"n_dof", "n0", "asymptotic", "manifest"}
    assert payload["n_dof"] == 23
    assert payload["n0"] == pytest.approx(20.0, abs=1e-6)
    assert payload["asymptotic"] == pytest.approx(21.605011188, abs=1e-6)
    assert payload["manifest"]["command"] == "dof"
    assert payload["manifest"]["version"]


@pytest.mark.parametrize(
    "t_obs, mu, n_dof",
    [("20", "2", 0), ("0.5", "0.1", 2)],  # mu^2 above the energy; n0 below 1
    ids=["mu-above-energy", "n0-below-1"],
)
def test_dof_counts_where_the_asymptotic_form_is_undefined(tmp_path, t_obs, mu, n_dof):
    # the count needs only the spectrum; the expansion that refuses these
    # inputs leaves its cell null instead of failing the command
    with pytest.raises(ValueError):
        spectrum.dof_asymptotic(float(t_obs), 1.0, float(mu))
    argv = ["dof", "--omega", PI_ARG, "--t-obs", t_obs, "--energy", "1", "--mu", mu]
    payload = run_json(tmp_path, "dof", argv)
    assert (payload["n_dof"], payload["asymptotic"]) == (n_dof, None)
    _, header, rows = run_csv(tmp_path, "dof", argv)
    assert header == ["n_dof", "n0", "asymptotic"]
    assert (rows[0][0], rows[0][2]) == (str(n_dof), "")
    table = tmp_path / "dof.table"
    assert main(argv + ["--emit", "table", "--out", str(table)]) == 0
    assert table.read_text().splitlines()[2].split() == [str(n_dof), t_obs, "n/a"]


def test_hz_flag_rescales_omega(tmp_path):
    rad = run_json(
        tmp_path,
        "rad",
        ["dof", "--omega", repr(math.pi), "--t-obs", "20", "--energy", "1", "--mu", "0.1"],
    )
    hz = run_json(
        tmp_path,
        "hz",
        ["dof", "--omega", "0.5", "--hz", "--t-obs", "20", "--energy", "1", "--mu", "0.1"],
    )
    assert hz["n_dof"] == rad["n_dof"]
    assert hz["n0"] == rad["n0"]
    assert hz["asymptotic"] == rad["asymptotic"]


def test_spectrum_payload_roundtrips(tmp_path):
    payload = run_json(
        tmp_path, "spec", ["spectrum", "--omega", PI_ARG, "--t-obs", "10"]
    )
    assert payload["quad_order"] == 256
    assert len(payload["lambdas"]) == 256
    assert payload["lambdas"][0] > 0.999
    assert payload["nominal_dimension"] == pytest.approx(10.0, abs=1e-6)


def test_a_short_prolate_solve_raises_and_exits_3(monkeypatch, capsys):
    # mutation: an asymptotic count of 1 solves 17 modes at N0 = 20, whose
    # last eigenvalue is near 1; the floor must not stand for the rest
    monkeypatch.setattr(spectrum, "dof_asymptotic", lambda n0, energy, mu: 1.0)
    with pytest.raises(NumericalError, match="last of the 17 prolate modes solved"):
        spectrum.build_spectrum(math.pi, 20.0)
    assert main(["spectrum", "--omega", PI_ARG, "--t-obs", "20"]) == 3
    assert "is not below the clip floor 1e-15" in capsys.readouterr().err


def test_spectrum_csv_lists_the_json_eigenvalues(tmp_path):
    argv = ["spectrum", "--omega", PI_ARG, "--t-obs", "20", "--order", "3000"]
    lambdas = run_json(tmp_path, "spec", argv)["lambdas"]
    _, header, rows = run_csv(tmp_path, "spec", argv)
    assert header == ["n", "lambda"]
    assert [(int(n), float(lam)) for n, lam in rows] == list(enumerate(lambdas, start=1))


@pytest.mark.parametrize("emit, table", [("json", None), ("table", ["given"])])
def test_emit_reads_no_row_for_json_or_a_given_table(tmp_path, emit, table):
    def unread_rows():
        raise AssertionError("a row was built")
        yield

    args = argparse.Namespace(command="spectrum", emit=emit, out=str(tmp_path / "out"))
    assert cli._emit(args, {"n": 1}, unread_rows(), table) == 0
    assert (tmp_path / "out").stat().st_size > 0


def test_spectrum_and_simulate_hand_their_rows_over_unbuilt(tmp_path, monkeypatch):
    lazy = []
    emit = cli._emit

    def spy(args, payload, rows, table=None):
        lazy.append(iter(rows) is rows)
        return emit(args, payload, rows, table)

    monkeypatch.setattr(cli, "_emit", spy)
    run_json(tmp_path, "spectrum", ["spectrum", "--omega", PI_ARG, "--t-obs", "20"])
    run_json(tmp_path, "simulate", [
        "simulate", "--omega", PI_ARG, "--t-obs", "4", "--energy", "1", "--eps", "0.15",
        "--dim", "3", "--messages", "64", "--samples", "100",
    ])
    assert lazy == [True, True]


def test_experiment_defaults_are_the_configs():
    signal = ["--omega", "1", "--energy", "1", "--eps", "0.1"]
    simulate = cli._PARSER.parse_args(["simulate", *signal, "--t-obs", "1"])
    sweep = cli._PARSER.parse_args(["exponent-sweep", *signal, "--rate", "1", "--t-list", "1,2"])
    config = simulation.ExperimentConfig
    assert (simulate.samples, simulate.seed, simulate.max_messages, simulate.retries,
            simulate.max_eval) == (config.samples, config.seed, config.max_codewords,
                                   config.retries, config.max_eval_codewords)
    assert sweep.max_messages == config.max_codewords
    defaults = inspect.signature(simulation.empirical_exponent_sweep).parameters
    assert defaults["max_codewords"].default == config.max_codewords


def test_bounds_json_reports(tmp_path):
    payload = run_json(
        tmp_path,
        "bounds",
        [
            "bounds", "--omega", PI_ARG, "--t-obs", "20", "--energy", "1",
            "--eps", "0.125", "--delta", "0.1",
        ],
    )
    reports = payload["reports"]
    assert set(reports) == {"capacity_2eps", "capacity_eps_delta", "entropy_eps"}
    assert reports["capacity_2eps"]["lower_bits"] == pytest.approx(40.0, abs=1e-6)
    assert reports["capacity_eps_delta"]["lower_bits"] == pytest.approx(
        56.678071905, abs=1e-6
    )
    for report in reports.values():
        if report["upper_bits"] is not None:
            assert report["lower_bits"] <= report["upper_bits"] + 1e-9


def test_bounds_with_spectrum_artifact(tmp_path):
    spec_file = tmp_path / "spec10.json"
    assert main(["spectrum", "--omega", PI_ARG, "--t-obs", "10", "--out", str(spec_file)]) == 0
    payload = run_json(
        tmp_path,
        "bounds_spec",
        [
            "bounds", "--omega", PI_ARG, "--t-obs", "10", "--energy", "1",
            "--eps", "0.25", "--delta", "0.1", "--use-spectrum", str(spec_file),
        ],
    )
    z = payload["reports"]["capacity_2eps"]["zeta_value"]
    assert z == pytest.approx(0.9776682348, abs=1e-8)
    # mismatched window is refused
    code = main(
        [
            "bounds", "--omega", PI_ARG, "--t-obs", "20", "--energy", "1",
            "--eps", "0.25", "--use-spectrum", str(spec_file),
        ]
    )
    assert code == 2


def test_simulate_refuses_spectrum_of_another_window(tmp_path, capsys):
    spec_file = tmp_path / "spec20.json"
    assert main(["spectrum", "--omega", PI_ARG, "--t-obs", "20", "--out", str(spec_file)]) == 0
    code = main(
        [
            "simulate", "--omega", PI_ARG, "--t-obs", "12", "--energy", "1",
            "--eps", "0.25", "--delta", "0.2", "--samples", "200",
            "--use-spectrum", str(spec_file),
        ]
    )
    assert code == 2
    assert "different omega/t_obs" in capsys.readouterr().err


def test_bounds_refuses_a_spectrum_whose_quad_order_is_not_its_eigenvalue_count(
    tmp_path, capsys
):
    spec = run_json(tmp_path, "spec20", ["spectrum", "--omega", PI_ARG, "--t-obs", "20"])
    assert len(spec["lambdas"]) == 256
    edited = tmp_path / "edited.json"
    edited.write_text(json.dumps(spec | {"quad_order": 5}))
    out = tmp_path / "bounds.json"
    code = main(
        [
            "bounds", "--omega", PI_ARG, "--t-obs", "20", "--energy", "1", "--eps", "0.25",
            "--delta", "0.1", "--use-spectrum", str(edited), "--out", str(out),
        ]
    )
    assert code == 2
    assert "quad_order 5 beside 256 eigenvalues" in capsys.readouterr().err
    assert not out.exists()


def test_main_parses_with_the_parser_built_at_import(monkeypatch, tmp_path):
    def refuse():
        raise AssertionError("main rebuilt its parser")

    monkeypatch.setattr(cli, "_build_parser", refuse)
    payload = run_json(
        tmp_path, "dof", ["dof", "--omega", PI_ARG, "--t-obs", "20", "--energy", "1", "--mu", "0.1"]
    )
    assert payload["manifest"]["command"] == "dof"
    assert main(["compare", "--omega", PI_ARG, "--snr", "16", "--out", str(tmp_path / "c.txt")]) == 0


@pytest.mark.parametrize("command, extra", [("bounds", []), ("simulate", ["--samples", "200"])])
def test_use_spectrum_names_a_file_that_is_not_json(tmp_path, capsys, command, extra):
    notes = tmp_path / "notes.txt"
    notes.write_text("eigenvalues to follow\n")
    code = main(
        [
            command, "--omega", PI_ARG, "--t-obs", "12", "--energy", "1",
            "--eps", "0.25", "--delta", "0.1", "--use-spectrum", str(notes), *extra,
        ]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "--use-spectrum" in err and str(notes) in err


def test_bounds_below_unit_snr_gives_zero_entropy_bits(tmp_path):
    # sqrt(snr) = 1/2: one eps-ball covers the whole body
    payload = run_json(
        tmp_path,
        "small_snr",
        [
            "bounds", "--omega", PI_ARG, "--t-obs", "40", "--energy", "1",
            "--eps", "2", "--delta", "0.3",
        ],
    )
    entropy = payload["reports"]["entropy_eps"]
    assert entropy["lower_bits"] == entropy["upper_bits"] == 0.0


def test_spectrum_bytes_independent_of_save_vectors(tmp_path, monkeypatch):
    # same relative --out in two directories, so the manifests match too
    argv = ["spectrum", "--omega", PI_ARG, "--t-obs", "10", "--out", "spectrum.json"]
    for name, extra in (("plain", []), ("vectors", ["--save-vectors", "vectors.npz"])):
        (tmp_path / name).mkdir()
        monkeypatch.setenv("EPSCAP_OUTPUT_DIR", str(tmp_path / name))
        assert main(argv + extra) == 0

    def comparable(name):
        text = (tmp_path / name / "spectrum.json").read_text()
        text = re.sub(r'"timestamp": "[^"]*"', '"timestamp": ""', text)
        # the manifest records the --save-vectors argument itself
        return re.sub(r'"save_vectors": (null|"[^"]*")', '"save_vectors": ""', text)

    assert comparable("plain") == comparable("vectors")
    printed = json.loads((tmp_path / "plain" / "spectrum.json").read_text())["lambdas"]
    with np.load(tmp_path / "vectors" / "vectors.npz") as arrays:
        assert [round_float(v) for v in arrays["lambdas"].tolist()] == printed
        assert arrays["eigvecs"].shape == (len(printed), len(printed))


def test_save_vectors_refuses_arrays_above_the_budget(tmp_path, monkeypatch, capsys):
    # T = 4000 asks for a 32,000 x 38,316 Vandermonde (9.8 GB) and a 32,000^2
    # value array (8.2 GB): refused from the sizes alone, before any solve
    def never(*args):
        raise AssertionError("allocated")

    monkeypatch.setattr(spectrum, "_prolate_values", never)
    monkeypatch.setattr(spectrum, "_prolate_coefficients", never)
    vectors = tmp_path / "vectors.npz"
    argv = ["spectrum", "--omega", PI_ARG, "--t-obs", "4000", "--save-vectors", str(vectors)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "32000 x 38316 Legendre Vandermonde" in err
    assert "32000 x 32000 value array, 18.0 GB together, above the 2 GB limit" in err
    assert not vectors.exists()


def test_save_vectors_admits_the_orders_in_use(monkeypatch):
    # the benchmark saves vectors at T = 50, order 400
    sizes = []
    real = spectrum._prolate_values
    monkeypatch.setattr(spectrum, "_prolate_values", lambda c, n, x: sizes.append(n) or real(c, n, x))
    assert spectrum.build_spectrum(math.pi, 50.0, vectors=True).eigvecs.shape == (400, 400)
    assert sizes == [400]


@pytest.mark.parametrize(
    "command, extra", [("spectrum", []), ("dof", ["--energy", "1", "--mu", "0.1"])]
)
def test_a_prolate_solve_above_the_budget_exits_2(tmp_path, monkeypatch, capsys, command, extra):
    # T = 40,000 would solve a 51,459^2 eigenvector matrix (21.2 GB) per parity
    def never(*args, **kwargs):
        raise AssertionError("allocated")

    monkeypatch.setattr(spectrum, "eigh_tridiagonal", never)
    out = tmp_path / "out.json"
    argv = [command, "--omega", PI_ARG, "--t-obs", "40000", *extra, "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "102918 Legendre coefficients, 21.2 GB of eigenvectors per parity" in err
    assert "above the 2 GB limit" in err
    assert not out.exists()


@pytest.fixture
def no_dense_draw(monkeypatch):
    """Generators whose standard_normal draw, the first of every point
    sample, raises instead of allocating an array above the budget."""
    real = np.random.default_rng

    class Guarded:
        def __init__(self, seed=None):
            self._rng = real(seed)

        def __getattr__(self, name):
            return getattr(self._rng, name)

        def standard_normal(self, size):
            if 8 * math.prod(size) > DENSE_BYTES:
                raise AssertionError("allocated")
            return self._rng.standard_normal(size)

    monkeypatch.setattr(np.random, "default_rng", Guarded)


@pytest.mark.parametrize(
    "size, max_eval, message",
    [
        # the whole code: 3 x 10^7 codewords of 12 doubles are 2.9 GB
        ("30000000", "30000000", "drawing 30000000 points in 12 dimensions needs 2.9 GB"),
        # 512 evaluated of 10^12, whose 2*eps-balls take a share 512 / 4^12
        # of the body: about 3.1 x 10^7 codewords lie near them, 2.9 GB
        ("1000000000000", "512", "drawing 305[0-9]{5} points in 12 dimensions needs 2.9 GB"),
    ],
)
def test_a_codebook_draw_above_the_budget_exits_2(
    tmp_path, no_dense_draw, capsys, size, max_eval, message
):
    out = tmp_path / "out.json"
    argv = [
        "simulate", "--omega", PI_ARG, "--t-obs", "12", "--energy", "1", "--eps", "0.125",
        "--dim", "12", "--messages", size, "--max-messages", size, "--max-eval", max_eval,
        "--out", str(out),
    ]
    tracemalloc.start()
    try:
        assert main(argv) == 2
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # nothing sized by the refused draw comes first: a neighbourhood's 8-byte
    # competitor index per candidate was 244 MB at 10^12 codewords
    assert peak < 16e6
    err = capsys.readouterr().err
    assert re.search(message + ", above the 2 GB limit", err), err
    assert not out.exists()


# Each array is tens of GB or more, so that one allocated before the check
# fails at once with a MemoryError; the S > 1 decode's draws (240 GB) would
# be refused by the sampler, with another message, were the product unchecked.
@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["oracle", "--mode", "pack", "--dim", "5", "--radius", "1", "--eps", "0.1",
             "--candidates", "10000000000"],
            "drawing 10000000000 points in 5 dimensions needs 400.0 GB",
        ),
        (
            ["oracle", "--mode", "pack", "--dim", "10000000000", "--radius", "1", "--eps", "0.1"],
            "the radii of a ball in 10000000000 dimensions need 80.0 GB",
        ),
        (
            ["simulate", "--omega", PI_ARG, "--t-obs", "4", "--energy", "1", "--eps", "0.15",
             "--dim", "10000000000", "--messages", "1024"],
            "the radii of a ball in 10000000000 dimensions need 80.0 GB",
        ),
        (
            ["spectrum", "--omega", PI_ARG, "--t-obs", "4", "--order", "10000000000"],
            "reporting 10000000000 eigenvalues needs 80.0 GB",
        ),
        (
            ["dof", "--omega", PI_ARG, "--t-obs", "4", "--energy", "1", "--mu", "0.1",
             "--order", "10000000000"],
            "reporting 10000000000 eigenvalues needs 80.0 GB",
        ),
        (
            # 1024 codewords in 3-d, 512 evaluated, some with caps past 1
            ["simulate", "--omega", PI_ARG, "--t-obs", "4", "--energy", "1", "--eps", "0.15",
             "--dim", "3", "--messages", "1024", "--max-eval", "512", "--samples", "10000000000"],
            "decoding 10000000000 draws against [0-9]+ competitors needs [0-9.]+ GB",
        ),
        (
            # the T = 3 row: 274 codewords in 3-d, some with caps past 1
            ["exponent-sweep", "--omega", PI_ARG, "--energy", "1", "--eps", "0.15",
             "--rate", "2.7", "--t-list", "3,4", "--samples", "10000000000"],
            "decoding 10000000000 draws against [0-9]+ competitors needs [0-9.]+ GB",
        ),
    ],
    ids=[
        "oracle-candidates", "oracle-dim", "simulate-dim", "spectrum-order", "dof-order",
        "simulate-samples", "exponent-sweep-samples",
    ],
)
def test_an_input_above_the_budget_exits_2_before_it_allocates(tmp_path, capsys, argv, message):
    out = tmp_path / "out.json"
    assert main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert re.search(message + ", above the 2 GB limit", err), err
    assert not out.exists()


@pytest.mark.parametrize(
    "index, value, message",
    [(-1, -1e-3, "must be finite and lie in"), (5, 0.5, "increase from lambda_6 to lambda_7")],
)
def test_bounds_refuses_invalid_spectrum_file(tmp_path, capsys, index, value, message):
    spec_file = tmp_path / "spec10.json"
    assert main(["spectrum", "--omega", PI_ARG, "--t-obs", "10", "--out", str(spec_file)]) == 0
    record = json.loads(spec_file.read_text())
    record["lambdas"][index] = value
    spec_file.write_text(json.dumps(record))
    code = main(
        [
            "bounds", "--omega", PI_ARG, "--t-obs", "10", "--energy", "1",
            "--eps", "0.25", "--delta", "0.1", "--use-spectrum", str(spec_file),
        ]
    )
    assert code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("value", [None, "x"])
def test_bounds_refuses_a_spectrum_file_whose_trace_error_is_not_a_number(
    tmp_path, capsys, value
):
    spec_file = tmp_path / "spec10.json"
    assert main(["spectrum", "--omega", PI_ARG, "--t-obs", "10", "--out", str(spec_file)]) == 0
    record = json.loads(spec_file.read_text())
    spec_file.write_text(json.dumps(record | {"trace_error": value}))
    out = tmp_path / "bounds.json"
    code = main(
        [
            "bounds", "--omega", PI_ARG, "--t-obs", "10", "--energy", "1", "--eps", "0.25",
            "--delta", "0.1", "--use-spectrum", str(spec_file), "--out", str(out),
        ]
    )
    assert code == 2
    assert "malformed spectrum record" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("field", ["omega", "t_obs"])
@pytest.mark.parametrize(
    "command, extra",
    [("bounds", ["--n-dim", "20"]), ("simulate", ["--dim", "8", "--samples", "200"])],
)
def test_spectrum_file_with_a_nan_window_is_refused(tmp_path, capsys, field, command, extra):
    # NaN passes every comparison with the requested window, so it must be
    # refused when the record is read
    spec_file = tmp_path / "spec20.json"
    assert main(["spectrum", "--omega", PI_ARG, "--t-obs", "20", "--out", str(spec_file)]) == 0
    record = json.loads(spec_file.read_text())
    record[field] = float("nan")
    spec_file.write_text(json.dumps(record))
    code = main(
        [
            command, "--omega", "6.28", "--t-obs", "3", "--energy", "1", "--eps", "0.25",
            "--delta", "0.1", "--use-spectrum", str(spec_file), *extra,
        ]
    )
    assert code == 2
    message = f"spectrum record {field} must be positive and finite, got nan"
    assert message in capsys.readouterr().err


def test_out_file_is_replaced_whole_or_not_at_all(tmp_path, monkeypatch):
    out = tmp_path / "bounds.json"
    out.write_bytes(b"the previous artifact\n")
    argv = [
        "bounds", "--omega", PI_ARG, "--t-obs", "20", "--energy", "1", "--eps", "0.125",
        "--out", str(out),
    ]

    def fail(src, dst):
        raise OSError("rename failed")

    monkeypatch.setattr("os.replace", fail)
    assert main(argv) == 2
    assert out.read_bytes() == b"the previous artifact\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bounds.json"]
    monkeypatch.undo()
    assert main(argv) == 0
    assert json.loads(out.read_text())["params"]["eps"] == 0.125
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bounds.json"]


def test_out_to_a_pipe_is_written_in_place(tmp_path):
    # a pipe or device cannot be replaced by a renamed file
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        argv = ["bounds", "--omega", PI_ARG, "--t-obs", "20", "--energy", "1", "--eps", "0.125"]
        assert main(argv + ["--out", str(fifo)]) == 0
        data = os.read(reader, 1 << 16)
    finally:
        os.close(reader)
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert json.loads(data)["params"]["eps"] == 0.125


def test_interrupted_save_vectors_leaves_the_old_file(tmp_path, monkeypatch):
    vectors = tmp_path / "vectors.npz"
    vectors.write_bytes(b"the previous arrays")

    def interrupted_savez(fh, **arrays):
        fh.write(b"PK\x03\x04 torn")
        raise KeyboardInterrupt

    monkeypatch.setattr("numpy.savez", interrupted_savez)
    with pytest.raises(KeyboardInterrupt):
        main(["spectrum", "--omega", PI_ARG, "--t-obs", "10", "--save-vectors", str(vectors)])
    assert vectors.read_bytes() == b"the previous arrays"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["vectors.npz"]


def test_oracle_pack_and_errors(tmp_path):
    payload = run_json(
        tmp_path,
        "oracle",
        ["oracle", "--mode", "pack", "--dim", "1", "--radius", "1", "--eps", "0.3"],
    )
    assert payload["count"] == 4
    assert payload["method"] == "exact-interval"
    payload = run_json(
        tmp_path,
        "oracle2",
        ["oracle", "--mode", "pack", "--dim", "2", "--radius", "1", "--eps", "0.35",
         "--seed", "3", "--candidates", "3000"],
    )
    assert payload["method"] == "greedy-random-sequential"
    assert payload["count"] >= (1.0 / 0.7) ** 2
    assert main(["oracle", "--mode", "cover", "--dim", "2", "--radius", "1", "--eps", "0.3"]) == 2
    assert main(["oracle", "--mode", "pack", "--dim", "9", "--radius", "1", "--eps", "0.3"]) == 2


def test_simulate_too_few_samples_is_config_error():
    code = main(
        [
            "simulate", "--omega", PI_ARG, "--t-obs", "4", "--energy", "1",
            "--eps", "0.25", "--delta", "0.2", "--samples", "10",
        ]
    )
    assert code == 2


SEED_2_63 = "9223372036854775808"
SEED_MESSAGE = f"seed must be an integer in [0, 9223372036854775807], got {SEED_2_63}"


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--omega", PI_ARG, "--t-obs", "12", "--energy", "1", "--eps", "0.25",
         "--delta", "0.1", "--dim", "12", "--samples", "10000", "--seed", SEED_2_63],
        ["exponent-sweep", "--omega", PI_ARG, "--energy", "1", "--eps", "0.25",
         "--rate", "0.5", "--t-list", "8,12", "--seed", SEED_2_63],
    ],
    ids=["simulate", "exponent-sweep"],
)
def test_a_seed_beyond_63_bits_is_refused_before_a_codebook(monkeypatch, capsys, argv):
    # codeword hashes key on the seed as a signed 64-bit word; 2^63 once
    # drew the 2^18-point codebook and then died with a struct.error
    def drawn(*args, **kwargs):
        raise AssertionError("a codebook was drawn")

    monkeypatch.setattr(simulation, "generate_codebook", drawn)
    assert main(argv) == 2
    assert SEED_MESSAGE in capsys.readouterr().err


def test_an_eps_whose_doubled_square_overflows_is_refused_without_a_traceback(monkeypatch):
    # (2*eps)^2 once overflowed in the neighbour search: an OverflowError
    # traceback and exit 1, after the codebook was drawn
    argv = [
        "simulate", "--omega", PI_ARG, "--t-obs", "4", "--energy", "1", "--eps", "1e200",
        "--messages", "10", "--samples", "100",
    ]
    proc = subprocess.run(
        [sys.executable, "-m", "epscap.cli", *argv], capture_output=True, text=True
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""
    assert proc.stderr == (
        "error: eps must be at most 6.703903964971298e+153 for a codebook run, "
        "so that (2*eps)^2 is finite, got 1e+200\n"
    )
    monkeypatch.setattr(simulation, "generate_codebook", None)
    assert main(argv) == 2  # refused before a codebook is drawn


def test_sweep_refuses_a_seed_beyond_63_bits_before_writing(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(simulation, "generate_codebook", None)
    big_seed = BASE_CFG.replace("seed = 2\n", f"seed = {SEED_2_63}\n")
    cfg = write_config(tmp_path, big_seed + "simulate = true\n")
    out = tmp_path / "seed.csv"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 2
    assert SEED_MESSAGE in capsys.readouterr().err
    assert not out.exists()
    # the largest seed is taken
    monkeypatch.undo()
    cfg = write_config(tmp_path, BASE_CFG + "simulate = true\nsamples = 100\nmax_codewords = 64\n")
    assert main(["sweep", "--config", cfg, "--out", str(out), "--seed", str(2**63 - 1)]) == 0


def test_simulate_rate_too_low_still_succeeds(tmp_path):
    payload = run_json(
        tmp_path,
        "lowrate",
        [
            "simulate", "--omega", PI_ARG, "--t-obs", "4", "--energy", "1",
            "--eps", "2.0", "--delta", "0.1", "--samples", "200",
        ],
    )
    assert payload["rate_too_low"] is True
    assert payload["result"] is None


def test_simulate_json_payload(tmp_path):
    argv = [
        "simulate", "--omega", PI_ARG, "--t-obs", "8", "--energy", "1",
        "--eps", "0.25", "--delta", "0.2", "--samples", "300", "--seed", "3",
    ]
    payload = run_json(tmp_path, "sim", argv)
    assert payload["n_codewords"] == 13107
    result = payload["result"]
    assert result["verdict"] is True
    assert result["mean_error_fraction"] <= 0.2
    assert payload["bound"]["quantity"] == "capacity_eps_delta"
    # one no-sampling bracket per evaluated codeword, and their mean
    brackets = np.array(result["error_fraction_brackets"])
    assert brackets.shape == (result["n_evaluated"], 2)
    assert np.all((0.0 <= brackets[:, 0]) & (brackets[:, 0] <= brackets[:, 1]) & (brackets[:, 1] <= 1.0))
    assert result["mean_error_bracket"] == pytest.approx(list(brackets.mean(axis=0)), rel=1e-9)
    # the manifest holds the parsed arguments and nothing of the machine
    parsed = vars(cli._build_parser().parse_args(argv + ["--out", "sim.json"]))
    assert set(payload["manifest"]["parameters"]) == set(parsed) - {"handler", "seed"}


def test_simulate_deterministic_bytes(tmp_path):
    argv = [
        "simulate", "--omega", PI_ARG, "--t-obs", "6", "--energy", "1",
        "--eps", "0.25", "--delta", "0.2", "--samples", "200", "--seed", "11",
    ]
    a = run_json(tmp_path, "det_a", argv)
    b = run_json(tmp_path, "det_b", argv)
    a["manifest"].pop("timestamp")
    b["manifest"].pop("timestamp")
    # the output paths differ by construction; everything else must not
    a["manifest"]["parameters"].pop("out")
    b["manifest"]["parameters"].pop("out")
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


@pytest.mark.parametrize("use_spectrum", [False, True])
def test_simulate_bound_is_the_bounds_report(tmp_path, use_spectrum):
    # simulate states N and zeta once, in its bound, as `bounds --n-dim N` does
    signal = ["--omega", PI_ARG, "--t-obs", "10", "--energy", "1", "--eps", "0.25",
              "--delta", "0.2"]
    if use_spectrum:
        spec_file = tmp_path / "spec10.json"
        assert main(["spectrum", "--omega", PI_ARG, "--t-obs", "10", "--out", str(spec_file)]) == 0
        signal += ["--use-spectrum", str(spec_file)]
    sim = run_json(tmp_path, "sim", ["simulate", *signal, "--samples", "200", "--seed", "1"])
    assert "n_dim" not in sim and "zeta_value" not in sim
    n_dim = sim["bound"]["n_dim"]
    bounds = run_json(tmp_path, "bounds", ["bounds", *signal, "--n-dim", str(n_dim)])
    assert sim["bound"] == bounds["reports"]["capacity_eps_delta"]
    assert (sim["bound"]["zeta_value"] is None) is not use_spectrum


def test_exponent_sweep_csv(tmp_path):
    manifest_line, header, rows = run_csv(
        tmp_path,
        "esweep",
        [
            "exponent-sweep", "--omega", PI_ARG, "--energy", "1", "--eps", "0.25",
            "--rate", "1", "--t-list", "6,8", "--samples", "300", "--seed", "2",
        ],
    )
    assert header[:4] == ["t_obs", "n_dim", "n_codewords", "capped"]
    assert "fitted_slope" in header
    assert len(rows) == 2
    assert rows[0][header.index("n_codewords")] == "64"


@pytest.fixture
def started_threads(monkeypatch):
    """Names of the threads started while a test runs."""
    started = []
    real = threading.Thread.start

    def start(self):
        started.append(self.name)
        return real(self)

    monkeypatch.setattr(threading.Thread, "start", start)
    return started


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--omega", PI_ARG, "--t-obs", "6", "--energy", "1", "--eps", "0.25",
         "--delta", "0.2", "--samples", "200", "--seed", "11"],
        ["exponent-sweep", "--omega", PI_ARG, "--energy", "1", "--eps", "0.25",
         "--rate", "1", "--t-list", "6,8", "--samples", "300", "--seed", "2"],
    ],
    ids=["simulate", "exponent-sweep"],
)
def test_codeword_threads_follow_the_usable_cpus_and_change_no_byte(
    tmp_path, monkeypatch, started_threads, argv
):
    # codewords are decoded on the calling thread whatever the usable CPU
    # count: no thread is started, and the bytes do not change
    out = tmp_path / "out.json"
    artifacts = []
    for cpus in (1, 3):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, n=cpus: set(range(n)),
                            raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda n=cpus: n)
        assert main(argv + ["--out", str(out)]) == 0
        assert started_threads == []
        artifacts.append(re.sub(rb'"timestamp": "[^"]*"', b'"timestamp": ""', out.read_bytes()))
    assert artifacts[0] == artifacts[1]
    # the manifest holds the parsed arguments, none of them the CPU count
    parsed = vars(cli._build_parser().parse_args(argv + ["--out", str(out)]))
    manifest = json.loads(artifacts[0])["manifest"]
    assert set(manifest["parameters"]) == set(parsed) - {"handler", "seed"}


def test_compare_table_contains_exact_entropy_rate(tmp_path, capsys):
    out = tmp_path / "cmp.txt"
    assert main(["compare", "--omega", PI_ARG, "--snr", "16", "--out", str(out)]) == 0
    text = out.read_text()
    assert "source rate at fixed fidelity" in text
    assert "2" in text.split("source rate at fixed fidelity")[1]


def test_compare_csv_has_lattice_row(tmp_path):
    _, header, rows = run_csv(
        tmp_path,
        "cmp",
        ["compare", "--omega", PI_ARG, "--snr", "64", "--n0", "100"],
    )
    assert len(rows) == 4
    lattice = rows[-1]
    assert lattice[header.index("stochastic_bits_per_s")] == ""


def test_output_dir_env(tmp_path, monkeypatch):
    monkeypatch.setenv("EPSCAP_OUTPUT_DIR", str(tmp_path))
    assert main(["dof", "--omega", PI_ARG, "--t-obs", "10", "--energy", "1",
                 "--mu", "0.1", "--out", "nested.json"]) == 0
    assert (tmp_path / "nested.json").exists()


def write_config(tmp_path, text):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(text)
    return str(cfg)


BASE_CFG = """\
omega = 3.14159265
t_obs = 10
energy = 1
eps = 0.2
eps = 0.1
eps = 0.05
delta = 0.1
seed = 2
"""


def test_sweep_grid_rows_and_monotone_lower_bounds(tmp_path):
    cfg = write_config(tmp_path, BASE_CFG)
    out = tmp_path / "grid.csv"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# manifest: ")
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    assert len(rows) == 3
    for column in (
        "capacity_2eps_lower_bits",
        "capacity_eps_delta_lower_bits",
        "entropy_eps_lower_bits",
    ):
        values = [float(r[header.index(column)]) for r in rows]
        assert values == sorted(values)  # descending eps tightens the bounds


def test_sweep_single_point_matches_bounds(tmp_path):
    cfg = write_config(
        tmp_path,
        "omega = 3.14159265\nt_obs = 20\nenergy = 1\neps = 0.125\ndelta = 0.1\n",
    )
    sweep_out = tmp_path / "one.csv"
    assert main(["sweep", "--config", cfg, "--out", str(sweep_out)]) == 0
    _, header, rows = run_csv(
        tmp_path,
        "bounds_row",
        [
            "bounds", "--omega", PI_ARG, "--t-obs", "20", "--energy", "1",
            "--eps", "0.125", "--delta", "0.1",
        ],
    )
    sweep_lines = sweep_out.read_text().splitlines()
    assert sweep_lines[1] == ",".join(header)
    assert [sweep_lines[2].split(",")] == rows


def test_sweep_malformed_config(tmp_path, capsys):
    cfg = write_config(tmp_path, "omega = 3.14\nwat\n")
    assert main(["sweep", "--config", cfg]) == 2
    cfg = write_config(tmp_path, "omega = 3.14\nbogus = 1\n")
    assert main(["sweep", "--config", cfg]) == 2
    cfg = write_config(tmp_path, "omega = 3.14\nseed = 1\nseed = 2\n")
    assert main(["sweep", "--config", cfg]) == 2


def test_sweep_deterministic_modulo_timestamp(tmp_path):
    cfg = write_config(tmp_path, BASE_CFG)
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(["sweep", "--config", cfg, "--out", str(a)]) == 0
    assert main(["sweep", "--config", cfg, "--out", str(b), "--jobs", "3"]) == 0

    def strip(path):
        lines = path.read_text().splitlines()
        manifest = json.loads(lines[0][len("# manifest: "):])
        manifest.pop("timestamp")
        manifest["parameters"].pop("out")
        return json.dumps(manifest, sort_keys=True), lines[1:]

    assert strip(a) == strip(b)


def test_sweep_resume_completes_partial_file(tmp_path):
    cfg = write_config(tmp_path, BASE_CFG)
    full = tmp_path / "full.csv"
    assert main(["sweep", "--config", cfg, "--out", str(full)]) == 0
    partial = tmp_path / "partial.csv"
    partial.write_text("\n".join(full.read_text().splitlines()[:3]) + "\n")
    assert main(["sweep", "--config", cfg, "--out", str(partial), "--resume"]) == 0
    assert (
        full.read_text().splitlines()[1:] == partial.read_text().splitlines()[1:]
    )
    # resuming under a changed grid is refused
    cfg2 = write_config(tmp_path, BASE_CFG + "eps = 0.025\n")
    assert main(["sweep", "--config", cfg2, "--out", str(partial), "--resume"]) == 2


def test_sweep_resume_after_a_cut_at_any_byte(tmp_path):
    cfg = write_config(tmp_path, BASE_CFG)
    full = tmp_path / "full.csv"
    assert main(["sweep", "--config", cfg, "--out", str(full)]) == 0
    data = full.read_bytes()
    header_end = data.index(b"\n", data.index(b"\n") + 1) + 1
    partial = tmp_path / "partial.csv"
    for cut in range(header_end, len(data)):
        partial.write_bytes(data[:cut])
        assert main(["sweep", "--config", cfg, "--out", str(partial), "--resume"]) == 0
        # the resumed file keeps its own manifest line, timestamp included
        assert partial.read_bytes() == data, f"cut at byte {cut}"


def test_zero_working_dimension_is_refused(tmp_path, capsys):
    bounds = ["bounds", "--omega", PI_ARG, "--t-obs", "20", "--energy", "1", "--eps", "0.125"]
    assert main(bounds + ["--n-dim", "0"]) == 2
    assert "n_dim must be a positive integer, got 0" in capsys.readouterr().err
    cfg = write_config(tmp_path, BASE_CFG + "n_dim = 0\n")
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "zero.csv")]) == 2
    assert "n_dim must be a positive integer, got 0" in capsys.readouterr().err


@pytest.mark.parametrize(
    "extra, message",
    [
        ("eps = -0.1\n", "eps must be positive and finite, got -0.1"),
        ("simulate = true\nsamples = 50\n", "samples must be an integer >= 100, got 50"),
        ("n_dim = 0\n", "n_dim must be a positive integer, got 0"),
        ("use_spectrum = true\nn_dim = 300\n", "n_dim 300 exceeds the 256 computed eigenvalues"),
        ("t_obs = ten\n", "config line 9: t_obs needs a number, got 'ten'"),
        ("simulate = maybe\n", "config line 9: bad value for simulate: 'maybe'"),
    ],
)
def test_sweep_refuses_bad_input_before_writing(tmp_path, capsys, extra, message):
    cfg = write_config(tmp_path, BASE_CFG + extra)
    out = tmp_path / "bad.csv"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "text, message",
    [
        (None, "configuration error: cannot read config: "),  # no file
        (BASE_CFG.replace("energy = 1\n", ""), "config must set energy"),
    ],
)
def test_sweep_refuses_a_config_it_cannot_read_or_that_lacks_a_key(
    tmp_path, capsys, text, message
):
    cfg = tmp_path / "sweep.cfg"
    if text is not None:
        cfg.write_text(text)
    out = tmp_path / "bad.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "partial, message",
    [
        ("omega,t_obs\n0.1,10\n", "is not a sweep artifact; refusing to resume"),
        ("# manifest: [1, 2]\nomega,t_obs\n", "found a JSON list, not an object"),
    ],
)
def test_sweep_resume_refuses_a_file_that_is_no_sweep_manifest(tmp_path, capsys, partial, message):
    cfg = write_config(tmp_path, BASE_CFG)
    out = tmp_path / "partial.csv"
    out.write_text(partial)
    assert main(["sweep", "--config", cfg, "--out", str(out), "--resume"]) == 2
    err = capsys.readouterr().err
    assert message in err and str(out) in err
    assert out.read_text() == partial


@pytest.mark.parametrize("jobs", ["0", "-4"])
def test_sweep_jobs_must_be_positive(tmp_path, capsys, jobs):
    cfg = write_config(tmp_path, BASE_CFG)
    out = tmp_path / "jobs.csv"
    assert main(["sweep", "--config", cfg, "--out", str(out), "--jobs", jobs]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert f"configuration error: --jobs must be a positive integer, got {jobs}" in err


def test_sweep_stops_at_a_failed_row(tmp_path, monkeypatch):
    axes = "".join(f"t_obs = {t}\n" for t in (10, 12, 14, 16))
    axes += "".join(f"eps = {e}\n" for e in (0.2, 0.1, 0.05, 0.025))
    cfg = write_config(
        tmp_path, f"omega = {PI_ARG}\nenergy = 1\n{axes}simulate = true\nn_codewords = 64\n"
    )
    computed = []

    def experiment(config, spectrum, memo):
        computed.append(config.params)
        if (config.params.t_obs, config.params.eps) == (10, 0.2):  # the first grid point
            raise ValueError("first row fails")
        time.sleep(0.1)

    monkeypatch.setattr("epscap.cli.run_random_code_experiment", experiment)
    out = tmp_path / "failed.csv"
    assert main(["sweep", "--config", cfg, "--out", str(out), "--jobs", "2"]) == 2
    # rows not yet started when the first one failed are never computed
    assert len(computed) < 16
    assert len(out.read_text().splitlines()) == 2  # manifest and header only


def test_sweep_config_that_is_not_utf8_is_refused(tmp_path, capsys):
    cfg = tmp_path / "latin1.cfg"
    cfg.write_bytes(b"omega = 3.14159265\n# \xe9t\xe9\n")
    assert main(["sweep", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "--config" in err and str(cfg) in err


def test_sweep_resume_refuses_a_manifest_line_that_is_not_json(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE_CFG)
    out = tmp_path / "partial.csv"
    out.write_text("# manifest: {not json\nomega,t_obs\n")
    assert main(["sweep", "--config", cfg, "--out", str(out), "--resume"]) == 2
    err = capsys.readouterr().err
    assert "--resume" in err and str(out) in err
    assert out.read_text() == "# manifest: {not json\nomega,t_obs\n"


def test_sweep_with_simulation_is_the_same_at_any_jobs(tmp_path):
    cfg = write_config(
        tmp_path,
        f"omega = {PI_ARG}\nt_obs = 6\nt_obs = 8\nenergy = 1\neps = 0.35\neps = 0.25\n"
        "delta = 0.2\nseed = 3\nuse_spectrum = true\nsimulate = true\nsamples = 200\n"
        "max_codewords = 512\nmax_eval_codewords = 64\n",
    )
    runs = []
    for jobs in ("1", "3"):
        out = tmp_path / f"jobs{jobs}.csv"
        assert main(["sweep", "--config", cfg, "--out", str(out), "--jobs", jobs]) == 0
        runs.append(out.read_text().splitlines()[1:])
    assert len(runs[0]) == 5  # the header and four rows
    assert runs[0] == runs[1]


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_sweep_rows_decode_their_codewords_on_one_thread(
    tmp_path, monkeypatch, started_threads, jobs
):
    # rows run on the --jobs pool; each row's batch of codewords is decoded
    # on the row's own thread (every draw reads the stream), and no thread
    # but the pool's is started
    cfg = write_config(
        tmp_path,
        f"omega = {PI_ARG}\nt_obs = 6\nt_obs = 8\nenergy = 1\neps = 0.35\neps = 0.25\n"
        "delta = 0.2\nseed = 3\nsimulate = true\nsamples = 200\n"
        "max_codewords = 512\nmax_eval_codewords = 64\n",
    )
    rows = []  # (the row's thread, the threads its stream was read on)
    stray = []  # streams read outside any row's estimate
    local = threading.local()
    real_estimate = simulation._random_code_estimate
    real_uniforms = simulation._uniforms

    def estimate(*args, **kwargs):
        local.decoded = set()
        try:
            return real_estimate(*args, **kwargs)
        finally:
            rows.append((threading.get_ident(), local.decoded))
            del local.decoded

    def uniforms(*args):
        decoded = getattr(local, "decoded", None)
        if decoded is None:
            stray.append(threading.get_ident())
        else:
            decoded.add(threading.get_ident())
        return real_uniforms(*args)

    monkeypatch.setattr(simulation, "_random_code_estimate", estimate)
    monkeypatch.setattr(simulation, "_uniforms", uniforms)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    out = tmp_path / "rows.csv"
    assert main(["sweep", "--config", cfg, "--out", str(out), "--jobs", jobs]) == 0
    assert len(rows) == 4  # every row's estimate ran
    assert stray == []
    assert all(decoded <= {row} for row, decoded in rows)
    assert any(decoded for _, decoded in rows)
    assert len(started_threads) <= int(jobs)


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_a_simulate_sweep_cut_inside_a_twin_pair_resumes_to_its_bytes(tmp_path, jobs):
    cfg = tmp_path / "grid.cfg"
    cfg.write_text(_sweep_text(DELTA_GRID, DELTA_GRID_FIXED))
    full = tmp_path / "full.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(full)]) == 0
    lines = full.read_text().splitlines(keepends=True)
    header = lines[1].rstrip("\n").split(",")
    rows = [dict(zip(header, line.rstrip("\n").split(","))) for line in lines[2:]]

    def experiment(row):
        return row["t_obs"], row["eps"], row["sim_n_codewords"]

    # the first delta = 0.1 row whose delta = 0.2 twin, next in grid order,
    # shares its estimate: the resumed run computes the twin's alone
    first = next(
        i for i, (a, b) in enumerate(zip(rows, rows[1:]))
        if (float(a["delta"]), float(b["delta"])) == (0.1, 0.2) and experiment(a) == experiment(b)
    )
    partial = tmp_path / "partial.csv"
    partial.write_text("".join(lines[: 2 + first + 1]))
    resume = ["--out", str(partial), "--resume", "--jobs", jobs]
    assert main(["sweep", "--config", str(cfg), *resume]) == 0
    assert partial.read_bytes() == full.read_bytes()


# a delta grid whose sizes are capped at 256 for three (t_obs, eps) points,
# so that each of their delta = 0.1 rows has a twin
DELTA_GRID = {
    "omega": [PI_ARG], "t_obs": ["6", "8"], "energy": ["1"], "eps": ["0.35", "0.25"],
    "delta": ["0.1", "0.2"],
}
DELTA_GRID_FIXED = (
    "seed = 3\nuse_spectrum = true\nsimulate = true\nsamples = 200\n"
    "max_codewords = 256\nmax_eval_codewords = 64\n"
)


def _sweep_text(axes: dict, fixed: str) -> str:
    return "".join(f"{key} = {v}\n" for key, values in axes.items() for v in values) + fixed


def _sweep_rows(tmp_path, name, text, jobs="1"):
    """The data lines of one sweep, and its header as a list."""
    cfg = tmp_path / f"{name}.cfg"
    cfg.write_text(text)
    out = tmp_path / f"{name}.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out), "--jobs", jobs]) == 0
    lines = out.read_text().splitlines(keepends=True)
    return lines[2:], lines[1].rstrip("\n").split(",")


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_sweep_draws_each_distinct_experiment_once(tmp_path, monkeypatch, jobs):
    drawn = []
    real = simulation.generate_codebook

    def generate(radii, n_codewords, seed):
        drawn.append((radii.tobytes(), n_codewords, tuple(seed)))
        return real(radii, n_codewords, seed)

    monkeypatch.setattr(simulation, "generate_codebook", generate)
    rows, header = _sweep_rows(tmp_path, "grid", _sweep_text(DELTA_GRID, DELTA_GRID_FIXED), jobs)
    cells = [dict(zip(header, row.rstrip("\n").split(","))) for row in rows]
    assert len(cells) == 8
    # rows of one (t_obs, eps) and size are one experiment: its attempts are
    # the most either row made
    attempts: dict = {}
    for c in cells:
        key = (c["t_obs"], c["eps"], c["sim_n_codewords"])
        attempts[key] = max(attempts.get(key, 0), int(c["sim_attempts"]))
    assert len(attempts) < len(cells)  # some rows have a twin
    assert len(drawn) == len(set(drawn)) == sum(attempts.values())


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_sweep_rows_are_their_one_row_sweeps(tmp_path, jobs):
    grid, _ = _sweep_rows(tmp_path, "grid", _sweep_text(DELTA_GRID, DELTA_GRID_FIXED), jobs)
    alone = []
    for i, values in enumerate(itertools.product(*DELTA_GRID.values())):
        point = {key: [value] for key, value in zip(DELTA_GRID, values)}
        alone += _sweep_rows(tmp_path, f"row{i}", _sweep_text(point, DELTA_GRID_FIXED))[0]
    assert grid == alone


def test_sweep_twins_whose_verdicts_differ_are_their_one_row_sweeps(tmp_path):
    # at a fixed size every delta is a twin; the smaller delta is half the
    # interval's upper end at attempt 0, so that row fails and retries
    def text(deltas):
        axes = DELTA_GRID | {"t_obs": ["8"], "eps": ["0.35"], "delta": deltas}
        return _sweep_text(axes, DELTA_GRID_FIXED + "n_codewords = 256\n")

    row, header = _sweep_rows(tmp_path, "first", text(["0.5"]))
    first = dict(zip(header, row[0].rstrip("\n").split(",")))
    assert first["sim_attempts"] == "1"
    deltas = [repr(float(first["sim_ci_high"]) / 2), "0.5"]
    grid, _ = _sweep_rows(tmp_path, "twins", text(deltas), "2")
    alone = [_sweep_rows(tmp_path, f"alone{i}", text([d]))[0][0] for i, d in enumerate(deltas)]
    assert grid == alone
    verdicts = [dict(zip(header, line.rstrip("\n").split(","))) for line in grid]
    assert int(verdicts[0]["sim_attempts"]) > 1 and verdicts[1]["sim_attempts"] == "1"


def test_sweep_stops_when_a_shared_estimate_raises(tmp_path, monkeypatch):
    # two twin rows on two threads: the first computes and raises, its twin
    # waits on it; main returns the error's exit code with no row written and
    # no pool thread left
    calls = []

    def estimate(*args, **kwargs):
        calls.append(1)
        time.sleep(0.2)
        raise FloatingPointError("estimate failed")

    monkeypatch.setattr(simulation, "estimate_error_fraction", estimate)
    axes = DELTA_GRID | {"t_obs": ["6"], "eps": ["0.35"]}
    cfg = tmp_path / "raises.cfg"
    cfg.write_text(_sweep_text(axes, DELTA_GRID_FIXED + "n_codewords = 64\n"))
    out = tmp_path / "raises.csv"
    before = set(threading.enumerate())
    codes = []
    runner = threading.Thread(target=lambda: codes.append(
        main(["sweep", "--config", str(cfg), "--out", str(out), "--jobs", "2"])
    ))
    runner.start()
    runner.join(60)
    assert not runner.is_alive()
    assert codes == [3]
    assert len(calls) == 1
    assert len(out.read_text().splitlines()) == 2  # manifest and header only
    assert set(threading.enumerate()) == before


def test_sweep_refuses_a_delta_zero_point_it_cannot_size(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        f"omega = {PI_ARG}\nt_obs = 6\nenergy = 1\neps = 0.25\ndelta = 0.1\ndelta = 0\n"
        "simulate = true\nsamples = 200\n",
    )
    out = tmp_path / "zero.csv"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == (
        "configuration error: sizing a codebook from the satisfying formula needs "
        "delta > 0; pass rate or n_codewords instead\n"
    )
    assert not out.exists()


def test_sweep_resume_requires_out(tmp_path):
    cfg = write_config(tmp_path, BASE_CFG)
    assert main(["sweep", "--config", cfg, "--resume"]) == 2


def test_sweep_with_simulation_columns(tmp_path):
    # eps = 0.9 floors the codebook size to zero at either delta
    cfg = write_config(
        tmp_path,
        "omega = 3.14159265\nt_obs = 6\nenergy = 1\neps = 0.25\neps = 0.9\n"
        "delta = 0.2\ndelta = 0.1\nsimulate = true\nsamples = 200\nseed = 4\n",
    )
    out = tmp_path / "sim.csv"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    header = lines[1].split(",")
    reference = json.loads((ROOT / "perfbench" / "reference.json").read_text(encoding="utf-8"))
    assert header == reference["sweep_header"]
    rows = [dict(zip(header, line.split(","))) for line in lines[2:]]
    assert len(rows) == 4
    assert rows[0]["sim_verdict"] == "true"
    for row in rows[2:]:
        assert (row["eps"], row["sim_n_codewords"]) == ("0.9", "0")
        assert [row[key] for key in header[-4:]] == ["", "", "", ""]


def test_sweep_resume_refuses_a_different_header(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE_CFG)
    out = tmp_path / "partial.csv"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    manifest, header, *rows = out.read_text().splitlines(keepends=True)
    out.write_text(manifest + header.replace("omega", "omega_rad_s") + rows[0])
    before = out.read_bytes()
    assert main(["sweep", "--config", cfg, "--out", str(out), "--resume"]) == 2
    assert "different column set" in capsys.readouterr().err
    assert out.read_bytes() == before


def test_numerical_error_exits_3(monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise NumericalError("eigensolve did not converge")

    monkeypatch.setattr(cli, "build_spectrum", fail)
    assert main(["spectrum", "--omega", PI_ARG, "--t-obs", "10"]) == 3
    captured = capsys.readouterr()
    assert captured.err == "numerical error: eigensolve did not converge\n"
    assert captured.out == ""


def test_sweep_simulate_needs_size_rule(tmp_path):
    cfg = write_config(
        tmp_path,
        "omega = 3.14159265\nt_obs = 6\nenergy = 1\neps = 0.25\nsimulate = true\n",
    )
    assert main(["sweep", "--config", cfg]) == 2


def test_console_entry_point_end_to_end(tmp_path):
    proc = subprocess.run(
        [
            sys.executable, "-m", "epscap.cli", "dof", "--omega", PI_ARG,
            "--t-obs", "10", "--energy", "1", "--mu", "0.1",
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["n_dof"] >= 10
    bad = subprocess.run(
        [sys.executable, "-m", "epscap.cli", "sweep", "--config", "/nonexistent.cfg"],
        capture_output=True,
        text=True,
    )
    assert bad.returncode == 2
    assert "error" in bad.stderr


@pytest.mark.parametrize("eps", ["0", "-0.5", "nan", "inf"])
def test_a_radius_that_is_not_a_positive_number_is_refused(tmp_path, capsys, eps):
    out = tmp_path / "bounds.json"
    argv = ["bounds", "--omega", PI_ARG, "--t-obs", "20", "--energy", "1", "--eps", eps]
    assert main(argv + ["--out", str(out)]) == 2
    assert f"argument --eps: expected a positive number, got {eps}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "t_list, message",
    [
        ("8,ten", "argument --t-list: bad t list '8,ten'"),
        (",", "argument --t-list: bad t list ','"),
        # the library's rule: a sweep needs at least two windows
        ("8", "error: t_values must be at least two strictly increasing windows"),
    ],
)
def test_exponent_sweep_refuses_a_window_list_it_cannot_sweep(tmp_path, capsys, t_list, message):
    out = tmp_path / "sweep.json"
    argv = ["exponent-sweep", "--omega", PI_ARG, "--energy", "1", "--eps", "0.25",
            "--rate", "0.5", "--t-list", t_list, "--out", str(out)]
    assert main(argv) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()
