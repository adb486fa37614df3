"""Deterministic file output: CSV tables, JSON payloads, run manifests.

Identical inputs must produce byte-identical files, so everything here
formats numbers via ``repr`` (shortest round-trip) and sorts JSON keys; no
wall-clock timestamps are written (timing goes to stderr, not into outputs).
CSV files carry '#'-prefixed metadata lines before the header row.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path


def format_cell(value) -> str:
    if isinstance(value, (float, complex)):
        return repr(value)
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    return str(value)


def write_csv(path: Path, columns, rows, metadata=()) -> Path:
    lines = [f"# {line}" for line in metadata]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(format_cell(cell) for cell in row))
    path = Path(path)
    path.write_text("\n".join(lines) + "\n")
    return path


def write_json(path: Path, payload) -> Path:
    path = Path(path)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def write_table(directory: Path, stem: str, fmt: str, columns, rows,
                metadata=()) -> Path:
    """Emit a data table as CSV or as a JSON list of row objects."""
    if fmt == "csv":
        return write_csv(Path(directory) / f"{stem}.csv", columns, rows, metadata)
    if fmt == "json":
        payload = {
            "metadata": list(metadata),
            "rows": [dict(zip(columns, row)) for row in rows],
        }
        return write_json(Path(directory) / f"{stem}.json", payload)
    raise ValueError(f"unknown table format {fmt!r}")


def config_hash(config: dict) -> str:
    """Content hash of the canonicalized parameter set."""
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def build_manifest(subcommand: str, config: dict, outputs, versions: dict,
                   caveats=(), summary=None) -> dict:
    manifest = {
        "subcommand": subcommand,
        "config": config,
        "config_hash": config_hash(config),
        "outputs": [str(name) for name in outputs],
        "versions": versions,
        "caveats": list(caveats),
    }
    if summary is not None:
        manifest["summary"] = summary
    return manifest


def gnuplot_stub(path: Path, data_file: str, title: str, using: str, style: str) -> Path:
    """Minimal gnuplot script for quick looks at an emitted CSV."""
    text = "\n".join(
        [
            "set datafile separator ','",
            "set datafile commentschars '#'",
            f"set title '{title}'",
            f"plot '{data_file}' using {using} with {style} notitle",
            "pause -1",
        ]
    )
    path = Path(path)
    path.write_text(text + "\n")
    return path
