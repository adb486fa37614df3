"""Write the files and exit code of a fixed set of CLI runs, for ``diff -r``.

    PYTHONPATH=src python tests/cli_snapshot.py OUT_DIR

Runs ``triwell.cli.main`` in-process for every subcommand at its defaults
and for the variants below, and writes each run's files to
``OUT_DIR/<name>/`` next to a file ``exit_code``; OUT_DIR must not exist
yet. Point ``PYTHONPATH`` at two checkouts in turn and ``diff -r`` the two
directories to see which outputs a change moves. Stderr, which holds wall-clock timings, is not kept. The name
does not match ``test_*.py``, so pytest does not collect it.
"""

import contextlib
import io
import sys
import traceback
from pathlib import Path

from triwell.cli import main

HOMODYNE_TELEPORT = ["--backend", "homodyne", "--cutoff", "40", "--aux-kind", "coherent",
                     "--aux-parameter", "2", "--p-d", "0.7"]
SMALL_SWEEP = ["--points", "4", "--param-max", "0.5"]

RUNS = {
    **{f"{sub}-defaults": [sub] for sub in ("channel", "teleport", "parity-sweep",
                                             "efficiency-sweep", "homodyne", "lattice-map")},
    "teleport-weights": ["teleport", "--a-weight", "0.6", "--b-weight", "0.8"],
    "teleport-homodyne": ["teleport", *HOMODYNE_TELEPORT],
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
    "channel-pair": ["channel", "--alpha", "1.5", "--beta", "1j"],
    "channel-json": ["channel", "--format", "json"],
    "channel-gnuplot": ["channel", "--gnuplot", "1"],
    "efficiency-sweep-jobs2": ["efficiency-sweep", "--jobs", "2"],
    "efficiency-sweep-gnuplot": ["efficiency-sweep", "--gnuplot", "1"],
    "homodyne-gnuplot": ["homodyne", "--steps", "5", "--gnuplot", "1"],
    "lattice-map-json": ["lattice-map", "--format", "json"],
    "lattice-map-jobs2": ["lattice-map", "--theta-points", "7", "--zprime-points", "11",
                          "--jobs", "2"],
    "lattice-map-gnuplot": ["lattice-map", "--theta-points", "7", "--zprime-points", "11",
                            "--gnuplot", "1"],
    "lattice-map-1x1": ["lattice-map", "--theta-points", "1", "--zprime-points", "1",
                        "--gnuplot", "1"],
}


def snapshot(out_dir: Path) -> None:
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


if __name__ == "__main__":
    if len(sys.argv) != 2:
        raise SystemExit(__doc__)
    snapshot(Path(sys.argv[1]))
