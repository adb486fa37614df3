"""Write the files and exit code of a fixed set of CLI runs, and compare two sets.

    PYTHONPATH=src python tests/cli_snapshot.py OUT_DIR
    python tests/cli_snapshot.py --compare A B

The first form runs ``triwell.cli.main`` in-process for every subcommand at
its defaults and for the variants below, and writes each run's files to
``OUT_DIR/<name>/`` next to a file ``exit_code``; OUT_DIR must not exist
yet. Point ``PYTHONPATH`` at two checkouts in turn to get one directory per
checkout. Stderr, which holds wall-clock timings, is not kept.

``--compare A B`` walks both directories and reports each file that differs:
either only float digits moved, with the largest |difference| per column
(a CSV header name, or a JSON key path with ``[]`` for list entries), or the
file differs beyond float digits (a changed text, integer, count or layout,
or a file on one side only). It exits 0 when no file differs beyond float
digits and 1 otherwise. The name does not match ``test_*.py``, so pytest
does not collect it.
"""

import contextlib
import csv
import io
import json
import re
import sys
import traceback
from pathlib import Path

HOMODYNE_TELEPORT = ["--backend", "homodyne", "--cutoff", "40", "--aux-kind", "coherent",
                     "--aux-parameter", "2", "--p-d", "0.7"]
SMALL_SWEEP = ["--points", "4", "--param-max", "0.5"]

RUNS = {
    **{f"{sub}-defaults": [sub] for sub in ("channel", "teleport", "parity-sweep",
                                             "efficiency-sweep", "homodyne", "lattice-map")},
    "teleport-weights": ["teleport", "--a-weight", "0.6", "--b-weight", "0.8"],
    "teleport-weights-huge": ["teleport", "--a-weight", "1e200"],
    "teleport-weights-tiny": ["teleport", "--a-weight", "1e-7", "--b-weight", "1e-7"],
    "teleport-kappa-subnormal": ["teleport", "--kappa", "1e-320", "--e0", "1e-320"],
    "teleport-kappa-0": ["teleport", "--kappa", "0"],
    "teleport-homodyne-omega-subnormal": ["teleport", "--backend", "homodyne", "--omega", "1e-320"],
    "teleport-beta-negative": ["teleport", "--beta", "-2j"],
    "teleport-weight-exponent": ["teleport", "--b-weight", "-1e-7"],
    "teleport-homodyne": ["teleport", *HOMODYNE_TELEPORT],
    "teleport-homodyne-reference-3": ["teleport", *HOMODYNE_TELEPORT,
                                      "--reference-magnitude", "3"],
    "teleport-homodyne-gamma": ["teleport", *HOMODYNE_TELEPORT, "--gamma", "1.5"],
    "teleport-homodyne-cutoff-30": ["teleport", *HOMODYNE_TELEPORT[:2], "--cutoff", "30",
                                    *HOMODYNE_TELEPORT[4:]],
    "teleport-homodyne-real-beta": ["teleport", *HOMODYNE_TELEPORT, "--beta", "2"],
    "teleport-homodyne-reference-4": ["teleport", *HOMODYNE_TELEPORT,
                                      "--reference-magnitude", "4"],
    "teleport-homodyne-negative-zero": ["teleport", *HOMODYNE_TELEPORT, "--gamma", "-2-0j",
                                        "--alpha", "-2-0j"],
    "teleport-homodyne-gamma-0": ["teleport", *HOMODYNE_TELEPORT, "--gamma", "0"],
    "teleport-homodyne-gamma-0-reference-2": ["teleport", *HOMODYNE_TELEPORT, "--gamma", "0",
                                              "--reference-magnitude", "2"],
    "teleport-homodyne-gamma-0.5": ["teleport", *HOMODYNE_TELEPORT, "--gamma", "0.5"],
    "teleport-real-beta": ["teleport", "--beta", "2"],
    "teleport-pd0": ["teleport", "--p-d", "0"],
    "teleport-seed-1": ["teleport", "--seed", "-1", "--trials", "200"],
    "teleport-trials0": ["teleport", "--trials", "0"],
    "teleport-json": ["teleport", "--format", "json"],
    "teleport-homodyne-json": ["teleport", *HOMODYNE_TELEPORT, "--format", "json"],
    "teleport-gnuplot": ["teleport", "--gnuplot", "1"],
    **{f"parity-sweep-{family}": ["parity-sweep", "--family", family, *SMALL_SWEEP]
       for family in ("number", "coherent", "squeezed_vacuum", "all")},
    "parity-sweep-jobs2": ["parity-sweep", "--family", "all", *SMALL_SWEEP, "--jobs", "2"],
    "parity-sweep-json": ["parity-sweep", "--family", "all", *SMALL_SWEEP, "--format", "json"],
    "parity-sweep-gnuplot": ["parity-sweep", "--family", "all", *SMALL_SWEEP, "--gnuplot", "1"],
    "parity-sweep-leaky": ["parity-sweep", "--beta", "9", "--cutoff", "20"],
    "parity-sweep-kappa-0": ["parity-sweep", "--kappa", "0"],
    "parity-sweep-kappa-negative": ["parity-sweep", "--kappa", "-1"],
    "channel-pair": ["channel", "--alpha", "1.5", "--beta", "1j"],
    "channel-kappa-subnormal": ["channel", "--kappa", "1e-320", "--e0", "1e-320"],
    "channel-json": ["channel", "--format", "json"],
    "channel-gnuplot": ["channel", "--gnuplot", "1"],
    "efficiency-sweep-jobs2": ["efficiency-sweep", "--jobs", "2"],
    "efficiency-sweep-gnuplot": ["efficiency-sweep", "--gnuplot", "1"],
    "homodyne-gnuplot": ["homodyne", "--steps", "5", "--gnuplot", "1"],
    "homodyne-omega-subnormal": ["homodyne", "--omega", "1e-320"],
    "homodyne-omega-subnormal-t-max": ["homodyne", "--omega", "1e-320", "--t-max", "1"],
    "lattice-map-json": ["lattice-map", "--format", "json"],
    "lattice-map-jobs2": ["lattice-map", "--theta-points", "7", "--zprime-points", "11",
                          "--jobs", "2"],
    "lattice-map-gnuplot": ["lattice-map", "--theta-points", "7", "--zprime-points", "11",
                            "--gnuplot", "1"],
    "lattice-map-1x1": ["lattice-map", "--theta-points", "1", "--zprime-points", "1",
                        "--gnuplot", "1"],
}


def snapshot(out_dir: Path) -> None:
    from triwell.cli import main  # here, so --compare runs without a checkout on the path

    out_dir.mkdir(parents=True)  # a new directory, so no stale file survives
    for name, args in RUNS.items():
        run_dir = out_dir / name
        with contextlib.redirect_stderr(io.StringIO()):
            try:
                code = main([*args, "--out", str(run_dir)])
            except SystemExit as exc:  # argparse rejected the arguments
                code = exc.code
            except Exception as exc:  # a fault: report it, go on with the next run
                code = f"traceback {type(exc).__name__}"
                print(traceback.format_exc())
        run_dir.mkdir(parents=True, exist_ok=True)
        (run_dir / "exit_code").write_text(f"{code}\n")
        print(f"{name}: {code}")


INTEGER = re.compile(r"[+-]?\d+")


def _json_cells(value, column=""):
    """(column, text, float or None) per leaf of a JSON value."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _json_cells(item, f"{column}.{key}" if column else key)
    elif isinstance(value, list):
        for item in value:
            yield from _json_cells(item, f"{column}[]")
    else:
        yield column, json.dumps(value), value if isinstance(value, float) else None


def _csv_cells(text):
    """(column, text, float or None) per cell; '#' lines and the header are text."""
    lines = text.splitlines()
    comments = [line for line in lines if line.startswith("#")]
    rows = list(csv.reader(line for line in lines if not line.startswith("#")))
    yield from ((None, line, None) for line in comments)
    if rows:
        header = rows[0]
        yield None, ",".join(header), None
        for row in rows[1:]:
            yield None, str(len(row)), None
            for column, cell in zip(header, row):
                yield column, cell, None if INTEGER.fullmatch(cell) else _float(cell)


def _float(text):
    try:
        return float(text)
    except ValueError:
        return None


def _cells(path: Path) -> list:
    text = path.read_text()
    if path.suffix == ".json":
        return list(_json_cells(json.loads(text)))
    if path.suffix == ".csv":
        return list(_csv_cells(text))
    return [(None, text, None)]


def compare_file(a: Path, b: Path):
    """None when the files are equal, a {column: max |difference|} dict when
    only float digits differ, and a reason string otherwise."""
    if a.read_bytes() == b.read_bytes():
        return None
    cells_a, cells_b = _cells(a), _cells(b)
    if len(cells_a) != len(cells_b):
        return "differs beyond float digits: another number of entries"
    moved = {}
    for (column, text_a, x), (other, text_b, y) in zip(cells_a, cells_b):
        if column != other:
            return f"differs beyond float digits: column {column} against {other}"
        if text_a == text_b:
            continue
        if x is None or y is None:
            return f"differs beyond float digits: {column or 'text'} {text_a!r} -> {text_b!r}"
        moved[column] = max(moved.get(column, 0.0), abs(x - y))
    return moved or "differs beyond float digits: same entries, other bytes"


def compare(a: Path, b: Path) -> tuple:
    """Report lines for every differing file of two snapshot directories,
    and whether any of them differs beyond float digits."""
    names = sorted({p.relative_to(root) for root in (a, b) for p in root.rglob("*")
                    if p.is_file()})
    lines, beyond, same = [], False, 0
    for name in names:
        if not (a / name).is_file() or not (b / name).is_file():
            only = a if (a / name).is_file() else b
            lines.append(f"{name}: differs beyond float digits: only in {only}")
            beyond = True
            continue
        result = compare_file(a / name, b / name)
        if result is None:
            same += 1
        elif isinstance(result, str):
            lines.append(f"{name}: {result}")
            beyond = True
        else:
            moved = ", ".join(f"{column} {delta:.2g}" for column, delta in sorted(result.items()))
            lines.append(f"{name}: float digits only; max |diff| {moved}")
    lines.append(f"{same} of {len(names)} files identical, {len(names) - same} differ")
    return lines, beyond


if __name__ == "__main__":
    if len(sys.argv) == 4 and sys.argv[1] == "--compare":
        report, beyond_floats = compare(Path(sys.argv[2]), Path(sys.argv[3]))
        print("\n".join(report))
        raise SystemExit(int(beyond_floats))
    if len(sys.argv) != 2:
        raise SystemExit(__doc__)
    snapshot(Path(sys.argv[1]))
