"""Checks of triwell's outputs against ``reference``.

Statistical results (success rate, branch balance, corrected share and
fidelity per branch, Monte-Carlo p_even) are checked by a z-score against the
closed form, so they hold for any correct random stream. Exact results
(channel state, efficiency rows, the quarter-period homodyne row, lattice
bands) are checked by tight absolute tolerances. Every check returns a list
of failure messages; an empty list means the output is correct.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

import reference

Z_LIMIT = 5.0
EXACT_TOL = 1e-9
# The Monte-Carlo p_even samples the truncated auxiliary, whose even mass
# differs from the closed form by at most the preparation's leakage bound.
TRUNCATION_FLOOR = 1e-8


def z_check(label: str, observed: float, expected: float, stderr: float) -> list[str]:
    if abs(observed - expected) <= Z_LIMIT * stderr:
        return []
    return [f"{label}: observed {observed!r}, expected {expected!r} "
            f"(stderr {stderr:.3g}, limit {Z_LIMIT} sigma)"]


def close_check(label: str, observed, expected, tol: float = EXACT_TOL) -> list[str]:
    worst = float(np.max(np.abs(np.asarray(observed) - np.asarray(expected))))
    if worst <= tol:
        return []
    return [f"{label}: max deviation {worst:.3g} exceeds {tol:.1g}"]


# ---------------------------------------------------------------------------
# teleportation statistics


def new_stats() -> dict:
    return {"trials": 0, "branch": [0] * 4, "corrected": [0] * 4,
            "fid_sum": [0.0] * 4, "fid_sq": [0.0] * 4}


def add_trial(stats: dict, branch: int, corrected: bool, fidelity: float) -> None:
    stats["trials"] += 1
    stats["branch"][branch] += 1
    if corrected:
        stats["corrected"][branch] += 1
        stats["fid_sum"][branch] += fidelity
        stats["fid_sq"][branch] += fidelity * fidelity


def check_teleport(stats: dict, a: complex, b: complex, beta: complex, p_even: float,
                   p_d: float, overlap: float) -> list[str]:
    """Success rate, branch balance and per-branch corrected share and fidelity.

    ``overlap`` is the branch overlap the closed forms neglect; it enters
    every standard error as a floor.
    """
    n = stats["trials"]
    if n == 0:
        return ["no teleportation trials to check"]
    fails = []
    expected = reference.success_rate(p_even, p_d)
    fails += z_check("success rate", sum(stats["corrected"]) / n, expected,
                     math.sqrt(expected * (1 - expected) / n + overlap**2))
    corrected_share = (1.0, p_d, p_even, p_d * p_even)
    for k in range(4):
        n_k = stats["branch"][k]
        fails += z_check(f"branch {k} share", n_k / n, 0.25,
                         math.sqrt(3 / 16 / n + overlap**2))
        if n_k == 0:
            continue
        c = corrected_share[k]
        m = stats["corrected"][k]
        fails += z_check(f"branch {k} corrected share", m / n_k, c,
                         math.sqrt(c * (1 - c) / n_k + overlap**2))
        if m == 0:
            continue
        mean = stats["fid_sum"][k] / m
        var = max(stats["fid_sq"][k] / m - mean * mean, 0.0)
        fails += z_check(f"branch {k} corrected fidelity", mean,
                         reference.corrected_fidelity(k, a, b, beta),
                         math.sqrt(var / m + overlap**2))
    return fails


# ---------------------------------------------------------------------------
# CLI figure outputs


def read_table(path: Path) -> list[dict]:
    """Rows of a triwell CSV ('#' metadata lines, then a header row)."""
    with open(path, newline="") as handle:
        lines = [line for line in handle if not line.startswith("#")]
    return list(csv.DictReader(lines))


def check_manifest(out_dir: Path, subcommand: str) -> list[str]:
    path = Path(out_dir) / "manifest.json"
    if not path.is_file():
        return [f"{subcommand}: no manifest.json"]
    manifest = json.loads(path.read_text())
    fails = []
    if manifest.get("subcommand") != subcommand:
        fails.append(f"{subcommand}: manifest names {manifest.get('subcommand')!r}")
    missing = [name for name in manifest.get("outputs", [])
               if not (Path(out_dir) / name).is_file()]
    if missing or not manifest.get("outputs"):
        fails.append(f"{subcommand}: manifest outputs missing on disk: {missing}")
    return fails


def check_channel(out_dir: Path, alpha=2.0, beta=2.0, n_max=26) -> list[str]:
    payload = json.loads((Path(out_dir) / "channel_state.json").read_text())
    amps = np.array([complex(re, im) for re, im in payload["amplitudes"]])
    if payload["n_max"] != n_max or payload["modes"] != 2 or amps.size != (n_max + 1) ** 2:
        return [f"channel: unexpected layout modes={payload['modes']} n_max={payload['n_max']}"]
    expected = reference.channel_state(alpha, beta, n_max)
    fidelity = abs(np.vdot(expected, amps)) ** 2 / np.vdot(amps, amps).real
    fails = close_check("channel fidelity with the closed form", fidelity, 1.0)
    weights = np.linalg.svd(expected.reshape(n_max + 1, n_max + 1), compute_uv=False) ** 2
    weights = weights[weights > 1e-16]
    entropy = float(-(weights * np.log2(weights)).sum())
    reported = json.loads((Path(out_dir) / "entanglement.json").read_text())["entropy_bits"]
    return fails + close_check("channel entanglement entropy", reported, entropy)


def teleport_stats_from_csv(path: Path) -> dict:
    stats = new_stats()
    for row in read_table(path):
        add_trial(stats, int(row["branch"]), row["corrected"] == "1", float(row["fidelity"]))
    return stats


def check_cli_teleport(out_dir: Path, trials=1000) -> list[str]:
    """The teleport subcommand at its defaults: A = B = 1, gamma = alpha = 2,
    beta = 2i, p_d = 1, number-state auxiliary n = 0 (p_even = 1)."""
    stats = teleport_stats_from_csv(Path(out_dir) / "trials.csv")
    fails = [] if stats["trials"] == trials else [f"teleport: {stats['trials']} trials"]
    return fails + check_teleport(stats, 1.0, 1.0, 2j, reference.p_even("number", 0), 1.0,
                                  reference.branch_overlap(2.0, 2.0, 2j))


def check_parity(out_dir: Path, families, param_min=0.0, param_max=5.0,
                 points=11) -> list[str]:
    rows = read_table(Path(out_dir) / "parity.csv")
    grid = np.linspace(param_min, param_max, points)
    expected_keys = [(family, float(p)) for family in families for p in grid]
    keys = [(row["family"], float(row["parameter"])) for row in rows]
    if keys != expected_keys:
        return [f"parity-sweep: rows {keys} differ from the grid {expected_keys}"]
    fails = []
    for row in rows:
        label = f"parity-sweep {row['family']} {row['parameter']}"
        p = reference.p_even(row["family"], float(row["parameter"]))
        trials = int(row["mc_trials"])
        fails += close_check(f"{label} p_even_analytic", float(row["p_even_analytic"]), p)
        fails += z_check(f"{label} p_even_mc", float(row["p_even_mc"]), p,
                         math.sqrt(p * (1 - p) / trials + TRUNCATION_FLOOR**2))
    return fails


def check_efficiency(out_dir: Path) -> list[str]:
    """Default grid: r in linspace(0, 2, 11) x p_d in linspace(0, 1, 11); the
    squeezed-vacuum auxiliary has p_even = 1 at every r."""
    rows = read_table(Path(out_dir) / "efficiency.csv")
    grid = [(float(r), float(p)) for r in np.linspace(0, 2, 11) for p in np.linspace(0, 1, 11)]
    got = np.array([[float(row[k]) for k in ("r", "p_d", "p_even", "p_total")] for row in rows])
    if got.shape != (len(grid), 4):
        return [f"efficiency-sweep: {len(rows)} rows, expected {len(grid)}"]
    expected = np.array([[r, p, 1.0, reference.success_rate(1.0, p)] for r, p in grid])
    return close_check("efficiency-sweep rows", got, expected)


def check_homodyne(out_dir: Path, gamma=1.0, beta=2j, omega=1.0, n_max=24) -> list[str]:
    """The row at the quarter tunnelling period t = pi/(2 omega)."""
    rows = read_table(Path(out_dir) / "sx_timeseries.csv")
    quarter = math.pi / (2 * omega)
    hits = [row for row in rows if abs(float(row["t"]) - quarter) < 1e-12]
    if len(hits) != 1:
        return [f"homodyne: {len(hits)} rows at t = pi/(2 omega)"]
    expected = reference.quarter_period_half_diff(gamma, beta, n_max)
    return close_check("homodyne quarter-period raw_half_diff",
                       float(hits[0]["raw_half_diff"]), expected, 1e-8)


def check_lattice(out_dir: Path) -> list[str]:
    """Default map: u1 = 1, k_L = 1, B_perp = 0.1, B_par = 0, gyro = 1,
    theta in linspace(pi/2, 5 pi/2, 101), z' in linspace(0, 4 pi, 101)."""
    rows = read_table(Path(out_dir) / "lattice_map.csv")
    thetas = np.linspace(math.pi / 2, 5 * math.pi / 2, 101)
    z_primes = np.linspace(0.0, 4 * math.pi, 101)
    got = np.array([[float(row[k]) for k in ("theta", "z_prime", "band_lower", "band_upper",
                                             "gap")] for row in rows])
    if got.shape != (thetas.size * z_primes.size, 5):
        return [f"lattice-map: {len(rows)} rows"]
    lower, upper = reference.lattice_bands(1.0, 0.1, 0.0, 1.0, thetas, z_primes)
    fails = close_check("lattice-map grid", got[:, :2],
                        np.stack(np.meshgrid(thetas, z_primes, indexing="ij"), -1).reshape(-1, 2))
    fails += close_check("lattice-map lower band", got[:, 2], lower.ravel())
    fails += close_check("lattice-map upper band", got[:, 3], upper.ravel())
    return fails + close_check("lattice-map gap", got[:, 4], got[:, 3] - got[:, 2])
