import json
import math
import os
import re
import stat
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from epscap import cli, simulation
from epscap.cli import main
from epscap.manifest import round_float

PI_ARG = "3.14159265"


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
    payload = run_json(
        tmp_path,
        "sim",
        [
            "simulate", "--omega", PI_ARG, "--t-obs", "8", "--energy", "1",
            "--eps", "0.25", "--delta", "0.2", "--samples", "300", "--seed", "3",
        ],
    )
    assert payload["n_codewords"] == 13107
    assert payload["result"]["verdict"] is True
    assert payload["result"]["mean_error_fraction"] <= 0.2
    assert payload["bound"]["quantity"] == "capacity_eps_delta"


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
def decode_pools(monkeypatch):
    """Thread counts of the decode pools opened, with BLAS on one thread."""
    for name in simulation._BLAS_THREAD_VARIABLES:
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setattr(simulation, "_MIN_THREADED_SAMPLES", 100)  # small runs here
    opened = []

    class Pool(ThreadPoolExecutor):
        def __init__(self, max_workers, *args, **kwargs):
            opened.append(max_workers)
            super().__init__(max_workers, *args, **kwargs)

    monkeypatch.setattr(simulation, "ThreadPoolExecutor", Pool)
    return opened


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
    tmp_path, monkeypatch, decode_pools, argv
):
    out = tmp_path / "out.json"
    artifacts = []
    for cpus, pools in ((1, []), (3, [2])):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, n=cpus: set(range(n)),
                            raising=False)
        decode_pools.clear()
        assert main(argv + ["--out", str(out)]) == 0
        assert set(decode_pools) == set(pools)
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
    ],
)
def test_sweep_refuses_bad_input_before_writing(tmp_path, capsys, extra, message):
    cfg = write_config(tmp_path, BASE_CFG + extra)
    out = tmp_path / "bad.csv"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


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
    cfg = write_config(tmp_path, f"omega = {PI_ARG}\nenergy = 1\n{axes}")
    computed = []

    def row(params, fixed, spectra):
        computed.append(params)
        if (params.t_obs, params.eps) == (10, 0.2):  # the first grid point
            raise ValueError("first row fails")
        time.sleep(0.1)
        return []

    monkeypatch.setattr("epscap.cli._sweep_row", row)
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
def test_sweep_rows_decode_their_codewords_on_one_thread(tmp_path, monkeypatch, decode_pools, jobs):
    # rows run on the --jobs pool; codeword threads must not nest inside it
    cfg = write_config(
        tmp_path,
        f"omega = {PI_ARG}\nt_obs = 6\nt_obs = 8\nenergy = 1\neps = 0.35\neps = 0.25\n"
        "delta = 0.2\nseed = 3\nsimulate = true\nsamples = 200\n"
        "max_codewords = 512\nmax_eval_codewords = 64\n",
    )
    calls = []
    real = simulation.estimate_error_fraction

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(simulation, "estimate_error_fraction", spy)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    out = tmp_path / "rows.csv"
    assert main(["sweep", "--config", cfg, "--out", str(out), "--jobs", jobs]) == 0
    assert len(calls) == 4  # every row's estimate ran
    assert decode_pools == []


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
    cfg = write_config(
        tmp_path,
        "omega = 3.14159265\nt_obs = 6\nenergy = 1\neps = 0.25\n"
        "delta = 0.2\nsimulate = true\nsamples = 200\nseed = 4\n",
    )
    out = tmp_path / "sim.csv"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    header = lines[1].split(",")
    assert "sim_mean_error_fraction" in header
    row = lines[2].split(",")
    assert row[header.index("sim_verdict")] == "true"


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
