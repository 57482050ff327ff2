"""Command-line frontend: reproducible runs and machine-readable artifacts.

Eight subcommands wire the computational modules to a shell: spectrum,
dof, bounds, oracle, simulate, exponent-sweep, compare, and sweep. Every
artifact embeds a run manifest; identical manifests reproduce identical
bytes except the timestamp. Exit codes: 0 success, 2 configuration or
domain error, 3 numerical error.

Angular frequency is taken in rad/s; pass --hz to give it in cycles/s
instead (multiplied by 2*pi internally).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import itertools
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .comparison import comparison_table
from .errors import ConfigurationError, NumericalError
from .geometry import (
    Ellipsoid,
    greedy_pack,
    oracle_cover_interval,
    oracle_pack_interval,
    per_unit_time_report,
    working_dimension,
    zeta_or_one,
)
from .manifest import (
    MANIFEST_PREFIX,
    csv_bytes,
    csv_line,
    json_bytes,
    manifest_line,
    resolve_output_path,
    run_manifest,
)
from .params import SignalSpaceParams, require_int
from .simulation import (
    ExperimentConfig,
    SweepPoint,
    empirical_exponent_sweep,
    run_random_code_experiment,
)
from .spectrum import (
    build_spectrum,
    degrees_of_freedom,
    dof_asymptotic,
    require_index,
    spectrum_from_record,
    spectrum_record,
    volume_correction,
)

_BOUND_COLUMNS = [
    "omega",
    "t_obs",
    "energy",
    "eps",
    "delta",
    "nominal_dimension",
    "n_dim",
    "volume_correction",
    "capacity_2eps_lower_bits",
    "capacity_2eps_upper_bits",
    "capacity_eps_delta_lower_bits",
    "capacity_eps_delta_upper_bits",
    "entropy_eps_lower_bits",
    "entropy_eps_upper_bits",
    "entropy_bound_valid",
    "capacity_2eps_lower_bits_per_s",
    "capacity_2eps_upper_bits_per_s",
    "capacity_eps_delta_lower_bits_per_s",
    "capacity_eps_delta_upper_bits_per_s",
    "entropy_eps_bits_per_s",
]

_SIM_COLUMNS = [
    "sim_n_codewords",
    "sim_log2_target_size",
    "sim_capped",
    "sim_attempts",
    "sim_mean_error_fraction",
    "sim_ci_low",
    "sim_ci_high",
    "sim_verdict",
]


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed usage/help
        return int(exc.code) if exc.code else 0
    try:
        return args.handler(args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, FloatingPointError, np.linalg.LinAlgError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3


# --- shared plumbing ---


def _add_emit(parser, default="json"):
    parser.add_argument("--emit", choices=["json", "csv", "table"], default=default)
    parser.add_argument("--out", default=None, help="output file (default stdout)")


def _omega_value(args) -> float:
    return args.omega * (2.0 * math.pi) if args.hz else args.omega


def _signal_params(args, t_obs: float) -> SignalSpaceParams:
    return SignalSpaceParams(
        omega=_omega_value(args),
        t_obs=t_obs,
        energy=args.energy,
        eps=args.eps,
        delta=args.delta,
    )


def _emit(args, payload: dict, columns: list[str], rows: list[list], table=None) -> int:
    """Write one artifact: the payload as JSON, the rows as CSV, or table lines.

    The manifest records every parsed argument of the subcommand; the
    table defaults to the rows rendered under their column names.
    """
    parameters = {k: v for k, v in vars(args).items() if k not in ("handler", "seed")}
    manifest = run_manifest(args.command, parameters, seed=getattr(args, "seed", None))
    if args.emit == "json":
        data = json_bytes(payload | {"manifest": manifest})
    elif args.emit == "csv":
        data = csv_bytes(columns, rows, manifest)
    else:
        lines = _render_table(columns, rows) if table is None else table
        data = ("\n".join(lines) + "\n").encode()
    if args.out:
        _write_whole(resolve_output_path(args.out), lambda fh: fh.write(data))
    else:
        sys.stdout.buffer.write(data)
    return 0


def _write_whole(path: str, write) -> None:
    """Have write(fh) fill path whole or not at all.

    A regular file (or a new one) is written to a temporary file beside it,
    which then replaces it; on any error the temporary file is removed and
    an existing file keeps its bytes. A device or pipe is written in place.
    """
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "wb") as fh:
            write(fh)
        return
    tmp = os.path.join(os.path.dirname(path), f".{os.path.basename(path)}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def _fmt(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if math.isnan(value):
            return "n/a"
        return f"{value:.6g}"
    return str(value)


def _render_table(headers: list[str], rows: list[list]) -> list[str]:
    cells = [[_fmt(v) for v in row] for row in rows]
    widths = [
        max(len(headers[i]), max((len(r[i]) for r in cells), default=0))
        for i in range(len(headers))
    ]
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * w for w in widths),
    ]
    lines += ["  ".join(r[i].ljust(widths[i]) for i in range(len(headers))) for r in cells]
    return lines


def _load_spectrum(args):
    """The --use-spectrum artifact, or None without one."""
    if args.use_spectrum is None:
        return None
    with open(args.use_spectrum, "r", encoding="utf-8") as fh:
        try:
            record = json.load(fh)
        except ValueError as exc:  # not JSON, or not UTF-8 text
            raise ValueError(
                f"--use-spectrum {args.use_spectrum} is not a JSON spectrum artifact: {exc}"
            ) from exc
    return spectrum_from_record(record)


def _bound_row(params: SignalSpaceParams, reports: dict) -> list:
    """One row of bound columns; shared by `bounds` and `sweep`."""
    c2, cd, he = (
        reports["capacity_2eps"],
        reports["capacity_eps_delta"],
        reports["entropy_eps"],
    )
    return [
        *vars(params).values(),
        params.nominal_dimension,
        c2.n_dim,
        zeta_or_one(c2.zeta_value),
        c2.lower_bits,
        c2.upper_bits,
        cd.lower_bits,
        cd.upper_bits,
        he.lower_bits,
        he.upper_bits,
        he.valid,
        c2.lower_rate,
        c2.upper_rate,
        cd.lower_rate,
        cd.upper_rate,
        he.lower_rate,
    ]


# --- subcommand handlers ---


def _cmd_spectrum(args) -> int:
    omega = _omega_value(args)
    spectrum = build_spectrum(omega, args.t_obs, args.order, vectors=bool(args.save_vectors))
    if args.save_vectors:
        path = resolve_output_path(args.save_vectors)
        arrays = {
            "lambdas": spectrum.lambdas,
            "eigvecs": spectrum.eigvecs,
            "nodes": spectrum.nodes,
            "weights": spectrum.weights,
        }
        # the name np.savez gives a bare path
        path = path if path.endswith(".npz") else path + ".npz"
        _write_whole(path, lambda fh: np.savez(fh, **arrays))
    rows = [[i + 1, lam] for i, lam in enumerate(spectrum.lambdas)]
    table = _render_table(
        ["quantity", "value"],
        [
            ["nominal_dimension", spectrum.nominal_dimension],
            ["quad_order", spectrum.quad_order],
            ["trace_error", spectrum.trace_error],
            ["lambda_1", float(spectrum.lambdas[0])],
            ["volume_correction(N0)", volume_correction(spectrum, working_dimension(spectrum.nominal_dimension))],
        ],
    )
    return _emit(args, spectrum_record(spectrum), ["n", "lambda"], rows, table)


def _cmd_dof(args) -> int:
    omega = _omega_value(args)
    spectrum = build_spectrum(omega, args.t_obs, args.order)
    n_dof = degrees_of_freedom(spectrum, args.energy, args.mu)
    asymptotic = dof_asymptotic(spectrum.nominal_dimension, args.energy, args.mu)
    columns = ["n_dof", "n0", "asymptotic"]
    row = [n_dof, spectrum.nominal_dimension, asymptotic]
    return _emit(args, dict(zip(columns, row)), columns, [row])


def _cmd_bounds(args) -> int:
    params = _signal_params(args, args.t_obs)
    reports = per_unit_time_report(params, _load_spectrum(args), args.n_dim)
    payload = {
        "params": vars(params) | {"nominal_dimension": params.nominal_dimension},
        "reports": {k: v.to_dict() for k, v in reports.items()},
    }
    table_rows = [
        [k, v.lower_bits, v.upper_bits, v.lower_rate, v.upper_rate]
        for k, v in reports.items()
    ]
    table = _render_table(
        ["quantity", "lower_bits", "upper_bits", "lower_bits_per_s", "upper_bits_per_s"],
        table_rows,
    )
    return _emit(args, payload, _BOUND_COLUMNS, [_bound_row(params, reports)], table)


def _cmd_oracle(args) -> int:
    if args.dim == 1:
        if args.mode == "pack":
            count = oracle_pack_interval(args.radius, args.eps)
        else:
            count = oracle_cover_interval(args.radius, args.eps)
        method = "exact-interval"
    elif args.mode == "pack":
        count = greedy_pack(
            Ellipsoid.ball(args.dim, args.radius),
            args.eps,
            seed=args.seed,
            attempts=args.attempts,
            candidates=args.candidates,
        )
        method = "greedy-random-sequential"
    else:
        raise ConfigurationError(
            "exact covering counts are only available in dimension 1"
        )
    columns = ["mode", "dim", "radius", "eps", "count", "method"]
    row = [args.mode, args.dim, args.radius, args.eps, count, method]
    return _emit(args, dict(zip(columns, row)), columns, [row])


def _cmd_simulate(args) -> int:
    params = _signal_params(args, args.t_obs)
    spectrum = _load_spectrum(args)
    config = ExperimentConfig(
        params=params,
        dim_override=args.dim,
        rate=args.rate,
        n_codewords=args.messages,
        samples=args.samples,
        seed=args.seed,
        max_codewords=args.max_messages,
        retries=args.retries,
        max_eval_codewords=args.max_eval,
        mu=args.mu,
    )
    outcome = run_random_code_experiment(config, spectrum)
    payload = outcome.to_dict()

    if outcome.rate_too_low:
        table = [
            "rate too low: codebook size floored to zero "
            f"(log2 target size {outcome.log2_target_size:.6g}); nothing to simulate"
        ]
        return _emit(args, payload, ["notice"], [["rate too low"]], table)

    result = outcome.result
    columns = ["codeword_index", "error_fraction", "ci_low", "ci_high"]
    idx = (
        result.eval_indices
        if result.eval_indices is not None
        else np.arange(result.n_codewords)
    )
    rows = [
        [int(idx[k]), result.error_fractions[k], *result.error_fraction_cis[k]]
        for k in range(len(result.error_fractions))
    ]
    table = _render_table(
        ["quantity", "value"],
        [
            ["n_codewords", outcome.n_codewords],
            ["capped", outcome.capped],
            ["n_dim", outcome.bound.n_dim],
            ["volume_correction", zeta_or_one(outcome.bound.zeta_value)],
            ["attempts", outcome.attempts],
            ["mean_error_fraction", result.mean_error_fraction],
            ["ci_low", result.mean_error_ci[0]],
            ["ci_high", result.mean_error_ci[1]],
            ["target_delta", result.target_delta],
            ["verdict", result.verdict],
        ],
    )
    return _emit(args, payload, columns, rows, table)


def _cmd_exponent_sweep(args) -> int:
    params = _signal_params(args, args.t_list[0])
    sweep = empirical_exponent_sweep(
        params,
        rate=args.rate,
        t_values=args.t_list,
        seed=args.seed,
        samples=args.samples,
        use_spectrum=args.use_spectrum,
        max_codewords=args.max_messages,
        max_eval_codewords=args.max_eval,
    )
    columns = [f.name for f in dataclasses.fields(SweepPoint)]
    columns += ["fitted_slope", "predicted_decay"]
    rows = [
        [*vars(p).values(), sweep.fitted_slope, sweep.predicted_decay]
        for p in sweep.points
    ]
    return _emit(args, sweep.to_dict(), columns, rows)


def _cmd_compare(args) -> int:
    omega = _omega_value(args)
    rows_data = comparison_table(omega, args.snr, nominal_dim=args.n0)
    columns = [
        "label",
        "stochastic_bits_per_s",
        "deterministic_lower_bits_per_s",
        "deterministic_upper_bits_per_s",
        "note",
    ]
    rows = [list(vars(r).values()) for r in rows_data]
    return _emit(args, {"rows": [r.to_dict() for r in rows_data]}, columns, rows)


# --- sweep ---

_GRID_KEYS = ("omega", "t_obs", "energy", "eps", "delta")
_FIXED_KEYS = {
    "seed": int,
    "samples": int,
    "simulate": bool,
    "use_spectrum": bool,
    "n_dim": int,
    "order": int,
    "max_codewords": int,
    "max_eval_codewords": int,
    "retries": int,
    "rate": float,
    "n_codewords": int,
}
# fixed keys that ExperimentConfig takes under the same name
_EXPERIMENT_KEYS = set(_FIXED_KEYS) & {
    f.name for f in dataclasses.fields(ExperimentConfig)
}


def _parse_sweep_config(path: str) -> tuple[dict, dict]:
    """Flat key = value text; a repeated grid key defines an axis."""
    axes: dict[str, list[float]] = {}
    fixed: dict = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigurationError(f"cannot read config: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigurationError(f"--config {path} is not UTF-8 text: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(
                f"config line {lineno}: expected 'key = value', got {raw.strip()!r}"
            )
        key, _, value = (part.strip() for part in line.partition("="))
        if key in _GRID_KEYS:
            try:
                axes.setdefault(key, []).append(float(value))
            except ValueError as exc:
                raise ConfigurationError(
                    f"config line {lineno}: {key} needs a number, got {value!r}"
                ) from exc
        elif key in _FIXED_KEYS:
            if key in fixed:
                raise ConfigurationError(
                    f"config line {lineno}: {key} repeated, but only "
                    f"{', '.join(_GRID_KEYS)} can form grid axes"
                )
            caster = _FIXED_KEYS[key]
            try:
                if caster is bool:
                    if value.lower() not in ("true", "false"):
                        raise ValueError(value)
                    fixed[key] = value.lower() == "true"
                else:
                    fixed[key] = caster(value)
            except ValueError as exc:
                raise ConfigurationError(
                    f"config line {lineno}: bad value for {key}: {value!r}"
                ) from exc
        else:
            raise ConfigurationError(f"config line {lineno}: unknown key {key!r}")
    missing = [k for k in _GRID_KEYS if k not in axes and k != "delta"]
    if missing:
        raise ConfigurationError(
            f"config must set {', '.join(missing)} (one value, or several for a grid)"
        )
    axes.setdefault("delta", [0.0])
    return axes, fixed


def _experiment_config(params: SignalSpaceParams, fixed: dict) -> ExperimentConfig:
    return ExperimentConfig(
        params=params,
        dim_override=fixed.get("n_dim"),
        **{key: fixed[key] for key in _EXPERIMENT_KEYS if key in fixed},
    )


def _sweep_row(params: SignalSpaceParams, fixed: dict, spectra: dict) -> list:
    spectrum = spectra.get((params.omega, params.t_obs))
    row = _bound_row(params, per_unit_time_report(params, spectrum, fixed.get("n_dim")))
    if fixed.get("simulate"):
        outcome = run_random_code_experiment(_experiment_config(params, fixed), spectrum)
        row += [
            outcome.n_codewords,
            outcome.log2_target_size,
            outcome.capped,
            outcome.attempts,
        ]
        res = outcome.result
        if res is None:  # the codebook size floored to zero
            row += [None, None, None, None]
        else:
            row += [res.mean_error_fraction, *res.mean_error_ci, res.verdict]
    return row


def _cmd_sweep(args) -> int:
    require_int("--jobs", args.jobs)
    axes, fixed = _parse_sweep_config(args.config)
    if args.seed is not None:
        fixed["seed"] = args.seed
    if args.resume and not args.out:
        raise ConfigurationError("--resume needs --out")
    # every grid point and fixed setting is checked before a byte is written
    points = [
        SignalSpaceParams(**dict(zip(_GRID_KEYS, values)))
        for values in itertools.product(*(axes[key] for key in _GRID_KEYS))
    ]
    if "n_dim" in fixed:
        require_int("n_dim", fixed["n_dim"])
    if fixed.get("simulate"):
        for p in points:
            _experiment_config(p, fixed)
    manifest = run_manifest(
        "sweep",
        {"config": args.config, "axes": axes, "fixed": fixed, "out": args.out},
        seed=fixed.get("seed"),
    )

    spectra: dict = {}
    if fixed.get("use_spectrum"):
        for om, t in {(p.omega, p.t_obs) for p in points}:
            spectra[(om, t)] = build_spectrum(om, t, fixed.get("order"))
            if "n_dim" in fixed:
                require_index(spectra[(om, t)], fixed["n_dim"])

    columns = _BOUND_COLUMNS + (_SIM_COLUMNS if fixed.get("simulate") else [])
    first_line = manifest_line(manifest)
    header = csv_line(columns)

    skip = 0
    out = contextlib.nullcontext(sys.stdout)
    if args.out:
        path = resolve_output_path(args.out)
        if args.resume:
            skip = _resume_offset(path, first_line, header)
        out = open(path, "a" if args.resume else "w", encoding="utf-8")
    with out as fh, ThreadPoolExecutor(max_workers=args.jobs) as pool:
        # a resumed file keeps the manifest and header it already has
        if fh is sys.stdout or fh.tell() == 0:
            print(first_line, file=fh, flush=True)
            print(header, end="", file=fh, flush=True)
        # rows come back in grid order; an error or interrupt closes the map
        # iterator, which cancels the rows not yet started, and the pool
        # waits for the rows in flight, which are not written
        row_of = functools.partial(_sweep_row, fixed=fixed, spectra=spectra)
        for row in pool.map(row_of, points[skip:]):
            print(csv_line(row), end="", file=fh, flush=True)
    return 0


def _resume_offset(path: str, first_line: str, header: str) -> int:
    """Rows already complete in a partial sweep file (manifest must match).

    A run cut off mid-write leaves a final line without its newline; that
    partial line is cut from the file, and a file without a complete
    header line is emptied, so the resumed run writes whole lines only.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except FileNotFoundError:
        return 0
    if not data:
        return 0
    if not data.startswith(MANIFEST_PREFIX.encode()):
        raise ConfigurationError(f"{path} is not a sweep artifact; refusing to resume")
    complete = data[: data.rfind(b"\n") + 1]
    try:
        lines = complete.decode("utf-8").splitlines(keepends=True)
        old = json.loads(lines[0][len(MANIFEST_PREFIX) :]) if lines else {}
        if not isinstance(old, dict):
            raise ValueError(f"found a JSON {type(old).__name__}, not an object")
    except ValueError as exc:  # not UTF-8, or the manifest is not a JSON object
        raise ConfigurationError(
            f"--resume {path} does not start with a JSON manifest line: {exc}"
        ) from exc
    if lines:
        new = json.loads(first_line[len(MANIFEST_PREFIX) :])
        for record in (old, new):
            record.pop("timestamp", None)
            # same grid under a renamed file is still the same sweep
            record.get("parameters", {}).pop("out", None)
        if old != new:
            raise ConfigurationError(
                f"{path} was produced by a different sweep configuration; "
                "refusing to resume"
            )
    if len(lines) >= 2 and lines[1] != header:
        raise ConfigurationError(f"{path} has a different column set; refusing to resume")
    keep = len(complete) if len(lines) >= 2 else 0
    if keep < len(data):
        with open(path, "r+b") as fh:
            fh.truncate(keep)
    return max(0, len(lines) - 2)


# --- parser ---


def _positive_float(text: str) -> float:
    value = float(text)
    if not (value > 0 and math.isfinite(value)):
        raise argparse.ArgumentTypeError(f"expected a positive number, got {text}")
    return value


def _t_list(text: str) -> list[float]:
    try:
        values = [float(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad t list {text!r}") from exc
    if len(values) < 2:
        raise argparse.ArgumentTypeError("need at least two comma-separated windows")
    return values


# the options that define the signal space, in the order --help lists them
_SIGNAL_OPTIONS = {
    "omega": dict(type=_positive_float, required=True,
                  help="one-sided angular bandwidth, rad/s (or cycles/s with --hz)"),
    "hz": dict(action="store_true",
               help="interpret --omega in cycles/s (multiplied by 2*pi)"),
    "t-obs": dict(type=_positive_float, required=True,
                  help="observation window length, s"),
    "energy": dict(type=_positive_float, required=True),
    "eps": dict(type=_positive_float, required=True,
                help="noise / resolution radius"),
    "delta": dict(type=float, default=0.0,
                  help="allowed error-region fraction in [0, 1)"),
}


def _add_signal_args(parser, names):
    for name in names:
        parser.add_argument(f"--{name}", **_SIGNAL_OPTIONS[name])


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="epscap",
        description=(
            "Deterministic capacity and entropy bounds for energy-constrained "
            "bandlimited signals: eigenvalue spectra, degrees of freedom, "
            "packing/covering bounds, and Monte Carlo codebook experiments."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="compute the sinc-kernel eigenvalue spectrum")
    _add_signal_args(p, ("omega", "hz", "t-obs"))
    p.add_argument("--order", type=int, default=None, help="quadrature order")
    p.add_argument("--save-vectors", default=None,
                   help="also save eigenvectors/nodes/weights to this .npz file")
    _add_emit(p)
    p.set_defaults(handler=_cmd_spectrum)

    p = sub.add_parser("dof", help="degrees of freedom at an accuracy level")
    _add_signal_args(p, ("omega", "hz", "t-obs", "energy"))
    p.add_argument("--mu", type=_positive_float, required=True)
    p.add_argument("--order", type=int, default=None)
    _add_emit(p)
    p.set_defaults(handler=_cmd_dof)

    p = sub.add_parser("bounds", help="capacity and entropy bounds at one parameter point")
    _add_signal_args(p, _SIGNAL_OPTIONS)
    p.add_argument("--n-dim", type=int, default=None,
                   help="working dimension for the finite-N bounds (default round(N0))")
    p.add_argument("--use-spectrum", default=None,
                   help="JSON spectrum artifact for the measured volume correction")
    _add_emit(p)
    p.set_defaults(handler=_cmd_bounds)

    p = sub.add_parser("oracle", help="exact or greedy packing/covering counts")
    p.add_argument("--mode", choices=("pack", "cover"), required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--radius", type=_positive_float, required=True,
                   help="ball radius (sqrt of the energy budget)")
    p.add_argument("--eps", type=_positive_float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--attempts", type=int, default=4)
    p.add_argument("--candidates", type=int, default=20000)
    _add_emit(p)
    p.set_defaults(handler=_cmd_oracle)

    p = sub.add_parser("simulate", help="random codebook error-fraction experiment")
    _add_signal_args(p, _SIGNAL_OPTIONS)
    p.add_argument("--rate", type=float, default=None, help="bits/s; sizes the codebook as 2^(T*rate)")
    p.add_argument("--messages", type=int, default=None, help="explicit codebook size")
    p.add_argument("--dim", type=int, default=None, help="override the working dimension")
    p.add_argument("--mu", type=_positive_float, default=None,
                   help="accuracy level for spectrum-driven dimension choice")
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-messages", type=int, default=2**18)
    p.add_argument("--retries", type=int, default=3)
    p.add_argument("--max-eval", type=int, default=512,
                   help="codewords evaluated per run (hash-selected subset)")
    p.add_argument("--use-spectrum", default=None)
    _add_emit(p)
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("exponent-sweep", help="error-fraction decay across window lengths")
    _add_signal_args(p, ("omega", "hz", "energy", "eps", "delta"))
    p.add_argument("--rate", type=float, required=True)
    p.add_argument("--t-list", type=_t_list, required=True,
                   help="comma-separated strictly increasing windows, e.g. 8,12,16,20")
    p.add_argument("--samples", type=int, default=2000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--use-spectrum", action="store_true",
                   help="use measured spectra (slower) instead of the ball idealization")
    p.add_argument("--max-messages", type=int, default=2**18)
    p.add_argument("--max-eval", type=int, default=256)
    _add_emit(p)
    p.set_defaults(handler=_cmd_exponent_sweep)

    p = sub.add_parser("compare", help="stochastic vs deterministic rate table")
    _add_signal_args(p, ("omega", "hz"))
    p.add_argument("--snr", type=_positive_float, required=True,
                   help="paired ratio: per-coordinate power (stochastic) = E/eps^2 (deterministic)")
    p.add_argument("--n0", type=_positive_float, default=None,
                   help="nominal dimension for the finite-window classical row")
    _add_emit(p, default="table")
    p.set_defaults(handler=_cmd_compare)

    p = sub.add_parser("sweep", help="grid sweep from a flat key=value config file")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--resume", action="store_true",
                   help="continue an interrupted sweep (requires --out)")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.set_defaults(handler=_cmd_sweep, emit="csv")

    return parser


if __name__ == "__main__":
    sys.exit(main())
