"""Command-line frontend: reproducible runs and machine-readable artifacts.

Eight subcommands wire the computational modules to a shell: spectrum,
dof, bounds, oracle, simulate, exponent-sweep, compare, and sweep. Every
artifact embeds a RunManifest; identical manifests reproduce identical
bytes except the timestamp. Exit codes: 0 success, 2 configuration or
domain error, 3 numerical error.

Angular frequency is taken in rad/s; pass --hz to give it in cycles/s
instead (multiplied by 2*pi internally).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .comparison import comparison_table
from .errors import ConfigurationError, NumericalError
from .geometry import (
    Ellipsoid,
    finite_reports,
    greedy_pack,
    oracle_cover_interval,
    oracle_pack_interval,
)
from .manifest import (
    RunManifest,
    csv_bytes,
    json_bytes,
    normalize,
    resolve_output_path,
    round_float,
)
from .params import DofQuery, SignalSpaceParams
from .simulation import (
    ExperimentConfig,
    empirical_exponent_sweep,
    run_random_code_experiment,
)
from .spectrum import (
    build_spectrum,
    degrees_of_freedom,
    dof_asymptotic,
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


def _add_emit(parser, default="json", choices=("json", "csv", "table")):
    parser.add_argument("--emit", choices=list(choices), default=default)
    parser.add_argument("--out", default=None, help="output file (default stdout)")


def _omega_value(args) -> float:
    return args.omega * (2.0 * math.pi) if getattr(args, "hz", False) else args.omega


def _manifest(args, command: str) -> RunManifest:
    skip = {"handler", "seed"}
    parameters = {k: v for k, v in vars(args).items() if k not in skip}
    return RunManifest.create(command, parameters, seed=getattr(args, "seed", None))


def _write_bytes(args, data: bytes) -> None:
    if args.out:
        path = resolve_output_path(args.out)
        with open(path, "wb") as fh:
            fh.write(data)
    else:
        sys.stdout.buffer.write(data)


def _emit_payload(args, manifest, payload: dict, csv_table=None, table_lines=None) -> int:
    payload = dict(payload)
    payload["manifest"] = manifest.to_dict()
    if args.emit == "json":
        _write_bytes(args, json_bytes(payload))
    elif args.emit == "csv":
        if csv_table is None:
            raise ConfigurationError("this command has no CSV rendering")
        columns, rows = csv_table
        _write_bytes(args, csv_bytes(columns, rows, manifest))
    else:
        if table_lines is None:
            raise ConfigurationError("this command has no table rendering")
        _write_bytes(args, ("\n".join(table_lines) + "\n").encode())
    return 0


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


def _load_spectrum_file(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        record = json.load(fh)
    return spectrum_from_record(record)


def _bound_reports(params: SignalSpaceParams, spectrum, n_dim_override=None):
    """Working dimension, volume correction (None without a spectrum) and reports."""
    source = params if spectrum is None else spectrum
    n_dim = n_dim_override or max(1, round(source.nominal_dimension))
    z = None if spectrum is None else volume_correction(spectrum, n_dim)
    return n_dim, z, finite_reports(params, n_dim=n_dim, zeta_value=z)


def _bound_row(params: SignalSpaceParams, n_dim: int, z, reports: dict) -> list:
    """One row of bound columns; shared by `bounds` and `sweep`."""
    c2, cd, he = (
        reports["capacity_2eps"],
        reports["capacity_eps_delta"],
        reports["entropy_eps"],
    )
    entropy_valid = not any("outside the covering bound regime" in n for n in he.notes)
    return [
        params.omega,
        params.t_obs,
        params.energy,
        params.eps,
        params.delta,
        params.nominal_dimension,
        n_dim,
        1.0 if z is None else z,
        c2.lower_bits,
        c2.upper_bits,
        cd.lower_bits,
        cd.upper_bits,
        he.lower_bits,
        he.upper_bits,
        entropy_valid,
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
        np.savez(
            path,
            lambdas=spectrum.lambdas,
            eigvecs=spectrum.eigvecs,
            nodes=spectrum.nodes,
            weights=spectrum.weights,
        )
    manifest = _manifest(args, "spectrum")
    payload = spectrum_record(spectrum)
    columns = ["n", "lambda"]
    rows = [[i + 1, lam] for i, lam in enumerate(spectrum.lambdas)]
    table = _render_table(
        ["quantity", "value"],
        [
            ["nominal_dimension", spectrum.nominal_dimension],
            ["quad_order", spectrum.quad_order],
            ["trace_error", spectrum.trace_error],
            ["lambda_1", float(spectrum.lambdas[0])],
            ["volume_correction(N0)", volume_correction(spectrum, max(1, round(spectrum.nominal_dimension)))],
        ],
    )
    return _emit_payload(args, manifest, payload, (columns, rows), table)


def _cmd_dof(args) -> int:
    omega = _omega_value(args)
    spectrum = build_spectrum(omega, args.t_obs, args.order)
    query = DofQuery(energy=args.energy, mu=args.mu)
    n_dof = degrees_of_freedom(spectrum, query)
    asymptotic = dof_asymptotic(spectrum.nominal_dimension, args.energy, args.mu)
    manifest = _manifest(args, "dof")
    payload = {
        "n_dof": n_dof,
        "n0": spectrum.nominal_dimension,
        "asymptotic": asymptotic,
    }
    columns = ["n_dof", "n0", "asymptotic"]
    rows = [[n_dof, spectrum.nominal_dimension, asymptotic]]
    table = _render_table(columns, rows)
    return _emit_payload(args, manifest, payload, (columns, rows), table)


def _cmd_bounds(args) -> int:
    omega = _omega_value(args)
    params = SignalSpaceParams(
        omega=omega,
        t_obs=args.t_obs,
        energy=args.energy,
        eps=args.eps,
        delta=args.delta,
    )
    spectrum = _load_spectrum_file(args.use_spectrum) if args.use_spectrum else None
    if spectrum is not None and (
        abs(spectrum.omega - omega) > 1e-9 or abs(spectrum.t_obs - args.t_obs) > 1e-9
    ):
        raise ConfigurationError(
            "spectrum file was computed for different omega/t_obs than requested"
        )
    n_dim, z, reports = _bound_reports(params, spectrum, args.n_dim)
    row = _bound_row(params, n_dim, z, reports)
    manifest = _manifest(args, "bounds")
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
    return _emit_payload(args, manifest, payload, (_BOUND_COLUMNS, [row]), table)


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
    manifest = _manifest(args, "oracle")
    payload = {
        "count": count,
        "method": method,
        "mode": args.mode,
        "dim": args.dim,
        "radius": args.radius,
        "eps": args.eps,
    }
    columns = ["mode", "dim", "radius", "eps", "count", "method"]
    rows = [[args.mode, args.dim, args.radius, args.eps, count, method]]
    return _emit_payload(args, manifest, payload, (columns, rows), _render_table(columns, rows))


def _cmd_simulate(args) -> int:
    omega = _omega_value(args)
    params = SignalSpaceParams(
        omega=omega,
        t_obs=args.t_obs,
        energy=args.energy,
        eps=args.eps,
        delta=args.delta,
    )
    spectrum = _load_spectrum_file(args.use_spectrum) if args.use_spectrum else None
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
    manifest = _manifest(args, "simulate")
    payload = outcome.to_dict()

    if outcome.rate_too_low:
        table = [
            "rate too low: codebook size floored to zero "
            f"(log2 target size {outcome.log2_target_size:.6g}); nothing to simulate"
        ]
        return _emit_payload(
            args, manifest, payload, (["notice"], [["rate too low"]]), table
        )

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
            ["n_dim", outcome.n_dim],
            ["volume_correction", outcome.zeta_value],
            ["attempts", outcome.attempts],
            ["mean_error_fraction", result.mean_error_fraction],
            ["ci_low", result.mean_error_ci[0]],
            ["ci_high", result.mean_error_ci[1]],
            ["target_delta", result.target_delta],
            ["verdict", result.verdict],
        ],
    )
    return _emit_payload(args, manifest, payload, (columns, rows), table)


def _cmd_exponent_sweep(args) -> int:
    omega = _omega_value(args)
    params = SignalSpaceParams(
        omega=omega,
        t_obs=args.t_list[0],
        energy=args.energy,
        eps=args.eps,
        delta=args.delta,
    )
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
    manifest = _manifest(args, "exponent-sweep")
    payload = sweep.to_dict()
    columns = [
        "t_obs",
        "n_dim",
        "n_codewords",
        "capped",
        "mean_error_fraction",
        "ci_low",
        "ci_high",
        "fitted_slope",
        "predicted_decay",
    ]
    rows = [
        [
            p.t_obs,
            p.n_dim,
            p.n_codewords,
            p.capped,
            p.mean_error_fraction,
            p.ci_low,
            p.ci_high,
            sweep.fitted_slope,
            sweep.predicted_decay,
        ]
        for p in sweep.points
    ]
    return _emit_payload(args, manifest, payload, (columns, rows), _render_table(columns, rows))


def _cmd_compare(args) -> int:
    omega = _omega_value(args)
    rows_data = comparison_table(omega, args.snr, nominal_dim=args.n0)
    manifest = _manifest(args, "compare")
    payload = {"rows": [r.to_dict() for r in rows_data]}
    columns = [
        "label",
        "stochastic_bits_per_s",
        "deterministic_lower_bits_per_s",
        "deterministic_upper_bits_per_s",
        "note",
    ]
    rows = [
        [r.label, r.stochastic_value, r.deterministic_lower, r.deterministic_upper, r.note]
        for r in rows_data
    ]
    return _emit_payload(args, manifest, payload, (columns, rows), _render_table(columns, rows))


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


def _parse_sweep_config(path: str) -> tuple[dict, dict]:
    """Flat key = value text; a repeated grid key defines an axis."""
    axes: dict[str, list[float]] = {}
    fixed: dict = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigurationError(f"cannot read config: {exc}") from exc
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


def _sweep_grid(axes: dict) -> list[dict]:
    points = [{}]
    for key in _GRID_KEYS:
        points = [dict(p, **{key: v}) for p in points for v in axes[key]]
    return points


def _sweep_row(point: dict, fixed: dict, spectra: dict) -> list:
    params = SignalSpaceParams(
        omega=point["omega"],
        t_obs=point["t_obs"],
        energy=point["energy"],
        eps=point["eps"],
        delta=point["delta"],
    )
    spectrum = spectra.get((point["omega"], point["t_obs"]))
    row = _bound_row(params, *_bound_reports(params, spectrum, fixed.get("n_dim")))
    if fixed.get("simulate"):
        config = ExperimentConfig(
            params=params,
            dim_override=fixed.get("n_dim"),
            rate=fixed.get("rate"),
            n_codewords=fixed.get("n_codewords"),
            samples=fixed.get("samples", 1000),
            seed=fixed.get("seed", 0),
            max_codewords=fixed.get("max_codewords", 2**18),
            retries=fixed.get("retries", 3),
            max_eval_codewords=fixed.get("max_eval_codewords", 512),
        )
        outcome = run_random_code_experiment(config, spectrum)
        if outcome.rate_too_low:
            row += [0, outcome.log2_target_size, False, 0, None, None, None, None]
        else:
            res = outcome.result
            row += [
                outcome.n_codewords,
                outcome.log2_target_size,
                outcome.capped,
                outcome.attempts,
                res.mean_error_fraction,
                res.mean_error_ci[0],
                res.mean_error_ci[1],
                res.verdict,
            ]
    return row


def _format_csv_row(row: list) -> str:
    from .manifest import _format_cell

    return ",".join(_format_cell(v) for v in row)


def _cmd_sweep(args) -> int:
    axes, fixed = _parse_sweep_config(args.config)
    if args.seed is not None:
        fixed["seed"] = args.seed
    if fixed.get("simulate") and not (
        fixed.get("rate") is not None
        or fixed.get("n_codewords") is not None
        or min(axes["delta"]) > 0
    ):
        raise ConfigurationError(
            "simulate = true needs delta > 0 at every grid point, or a "
            "fixed rate / n_codewords to size the codebooks"
        )
    points = _sweep_grid(axes)
    manifest = RunManifest.create(
        "sweep",
        {"config": args.config, "axes": axes, "fixed": fixed, "out": args.out},
        seed=fixed.get("seed"),
    )

    spectra: dict = {}
    if fixed.get("use_spectrum"):
        for om, t in {(p["omega"], p["t_obs"]) for p in points}:
            spectra[(om, t)] = build_spectrum(om, t, fixed.get("order"))

    columns = list(_BOUND_COLUMNS)
    if fixed.get("simulate"):
        columns += _SIM_COLUMNS

    manifest_line = "# manifest: " + json.dumps(
        normalize(manifest.to_dict()), sort_keys=True, allow_nan=False
    )
    header_line = ",".join(columns)

    skip = 0
    out_fh = None
    try:
        if args.out:
            path = resolve_output_path(args.out)
            if args.resume:
                skip = _resume_offset(path, manifest_line, header_line)
                out_fh = open(path, "a", encoding="utf-8")
            else:
                out_fh = open(path, "w", encoding="utf-8")
        else:
            if args.resume:
                raise ConfigurationError("--resume needs --out")
            out_fh = sys.stdout

        if skip == 0:
            print(manifest_line, file=out_fh, flush=True)
            print(header_line, file=out_fh, flush=True)

        todo = points[skip:]
        if args.jobs > 1 and todo:
            with ThreadPoolExecutor(max_workers=args.jobs) as pool:
                futures = [pool.submit(_sweep_row, p, fixed, spectra) for p in todo]
                for fut in futures:  # grid order regardless of completion order
                    print(_format_csv_row(fut.result()), file=out_fh, flush=True)
        else:
            for p in todo:
                print(_format_csv_row(_sweep_row(p, fixed, spectra)), file=out_fh, flush=True)
    finally:
        if out_fh is not None and out_fh is not sys.stdout:
            out_fh.close()
    return 0


def _resume_offset(path: str, manifest_line: str, header_line: str) -> int:
    """Rows already present in a partial sweep file (manifest must match)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [ln.rstrip("\n") for ln in fh]
    except FileNotFoundError:
        return 0
    if not lines:
        return 0
    if not lines[0].startswith("# manifest: "):
        raise ConfigurationError(f"{path} is not a sweep artifact; refusing to resume")
    old = json.loads(lines[0][len("# manifest: ") :])
    new = json.loads(manifest_line[len("# manifest: ") :])
    for record in (old, new):
        record.pop("timestamp", None)
        # same grid under a renamed file is still the same sweep
        record.get("parameters", {}).pop("out", None)
    if old != new:
        raise ConfigurationError(
            f"{path} was produced by a different sweep configuration; "
            "refusing to resume"
        )
    if len(lines) >= 2 and lines[1] != header_line:
        raise ConfigurationError(f"{path} has a different column set; refusing to resume")
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


def _add_signal_args(parser, with_delta=True):
    parser.add_argument("--omega", type=_positive_float, required=True,
                        help="one-sided angular bandwidth, rad/s (or cycles/s with --hz)")
    parser.add_argument("--hz", action="store_true",
                        help="interpret --omega in cycles/s (multiplied by 2*pi)")
    parser.add_argument("--t-obs", type=_positive_float, required=True,
                        help="observation window length, s")
    parser.add_argument("--energy", type=_positive_float, required=True)
    if with_delta:
        parser.add_argument("--eps", type=_positive_float, required=True,
                            help="noise / resolution radius")
        parser.add_argument("--delta", type=float, default=0.0,
                            help="allowed error-region fraction in [0, 1)")


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
    p.add_argument("--omega", type=_positive_float, required=True)
    p.add_argument("--hz", action="store_true")
    p.add_argument("--t-obs", type=_positive_float, required=True)
    p.add_argument("--order", type=int, default=None, help="quadrature order")
    p.add_argument("--save-vectors", default=None,
                   help="also save eigenvectors/nodes/weights to this .npz file")
    _add_emit(p)
    p.set_defaults(handler=_cmd_spectrum)

    p = sub.add_parser("dof", help="degrees of freedom at an accuracy level")
    p.add_argument("--omega", type=_positive_float, required=True)
    p.add_argument("--hz", action="store_true")
    p.add_argument("--t-obs", type=_positive_float, required=True)
    p.add_argument("--energy", type=_positive_float, required=True)
    p.add_argument("--mu", type=_positive_float, required=True)
    p.add_argument("--order", type=int, default=None)
    _add_emit(p)
    p.set_defaults(handler=_cmd_dof)

    p = sub.add_parser("bounds", help="capacity and entropy bounds at one parameter point")
    _add_signal_args(p)
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
    _add_signal_args(p)
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
    p.add_argument("--omega", type=_positive_float, required=True)
    p.add_argument("--hz", action="store_true")
    p.add_argument("--energy", type=_positive_float, required=True)
    p.add_argument("--eps", type=_positive_float, required=True)
    p.add_argument("--delta", type=float, default=0.0)
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
    p.add_argument("--omega", type=_positive_float, required=True)
    p.add_argument("--hz", action="store_true")
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
