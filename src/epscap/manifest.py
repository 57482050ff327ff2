"""Run manifests and deterministic artifact serialization.

Every CLI artifact embeds a manifest of what produced it: command,
full parameter set, seed, and package version. Two runs with the same
manifest produce byte-identical artifacts except for the timestamp
field, which records wall-clock time and is excluded from determinism
guarantees.

Numbers are emitted with 12 significant digits; keys are sorted; NaN and
infinities become nulls (validity flags travel separately), keeping the
JSON strict and the bytes stable.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from dataclasses import asdict, dataclass
from datetime import datetime, timezone

import numpy as np

from . import __version__

SIGNIFICANT_DIGITS = 12
OUTPUT_DIR_ENV = "EPSCAP_OUTPUT_DIR"
# CSV artifacts open with this prefix and the manifest's JSON
MANIFEST_PREFIX = "# manifest: "


@dataclass(frozen=True)
class RunManifest:
    command: str
    parameters: dict
    seed: int | None
    version: str
    timestamp: str

    @classmethod
    def create(cls, command: str, parameters: dict, seed: int | None = None) -> "RunManifest":
        return cls(
            command=command,
            parameters=dict(parameters),
            seed=seed,
            version=__version__,
            timestamp=datetime.now(timezone.utc).isoformat(timespec="seconds"),
        )

    def to_dict(self) -> dict:
        return asdict(self)


def round_float(value: float) -> float | None:
    """Round to 12 significant digits; non-finite values become None."""
    if not math.isfinite(value):
        return None
    return float(f"{value:.{SIGNIFICANT_DIGITS}g}")


def normalize(obj):
    """Recursively convert to JSON-safe values with rounded floats."""
    if isinstance(obj, dict):
        return {str(k): normalize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [normalize(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [normalize(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return round_float(float(obj))
    return obj


def json_bytes(payload: dict) -> bytes:
    """Canonical JSON rendering: sorted keys, rounded floats, trailing newline."""
    return (
        json.dumps(normalize(payload), indent=2, sort_keys=True, allow_nan=False)
        + "\n"
    ).encode()


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        rounded = round_float(float(value))
        return "" if rounded is None else f"{rounded:.{SIGNIFICANT_DIGITS}g}"
    return str(value)


def manifest_line(manifest: RunManifest) -> str:
    """The leading comment line of a CSV artifact, without its newline."""
    manifest_json = json.dumps(
        normalize(manifest.to_dict()), sort_keys=True, allow_nan=False
    )
    return f"{MANIFEST_PREFIX}{manifest_json}"


def csv_line(row: list) -> str:
    """One CSV record, cells formatted as in every artifact, newline included."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([_format_cell(v) for v in row])
    return buf.getvalue()


def csv_bytes(columns: list[str], rows: list[list], manifest: RunManifest) -> bytes:
    """CSV rendering with the manifest embedded as a leading comment line."""
    lines = [manifest_line(manifest) + "\n", csv_line(columns)]
    lines += [csv_line(row) for row in rows]
    return "".join(lines).encode()


def resolve_output_path(path: str) -> str:
    """Relative paths land in $EPSCAP_OUTPUT_DIR when it is set."""
    if os.path.isabs(path):
        return path
    base = os.environ.get(OUTPUT_DIR_ENV, "")
    return os.path.join(base, path) if base else path
