"""Tests of the benchmark harness: python3 -m pytest perfbench -q

Each check passes on triwell's real output and fails when one value of that
output is made wrong; a smoke run prints every metric BENCHMARK.json names.
"""

from __future__ import annotations

import csv
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def triwell_cli(tmp_path: Path, *argv: str) -> Path:
    out = tmp_path / argv[0]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run([sys.executable, "-m", "triwell.cli", *argv, "--out", str(out)],
                   env=env, check=True, capture_output=True)
    return out


def rewrite_rows(path: Path, edit) -> None:
    """Apply ``edit(rows)`` to a triwell CSV, keeping its metadata lines."""
    lines = path.read_text().splitlines(keepends=True)
    meta = [line for line in lines if line.startswith("#")]
    rows = list(csv.reader(line for line in lines if not line.startswith("#")))
    edit(rows)
    with open(path, "w", newline="") as handle:
        handle.writelines(meta)
        csv.writer(handle, lineterminator="\n").writerows(rows)


def exact_stats(n: int, a, b, beta, p_even: float, p_d: float) -> dict:
    """Outcome counts exactly at their expectation."""
    stats = checks.new_stats()
    stats["trials"] = n
    for k, share in enumerate((1.0, p_d, p_even, p_d * p_even)):
        stats["branch"][k] = n // 4
        m = round(n // 4 * share)
        f = reference.corrected_fidelity(k, a, b, beta)
        stats["corrected"][k] = m
        stats["fid_sum"][k] = m * f
        stats["fid_sq"][k] = m * f * f
    return stats


def teleport_fails(stats: dict) -> list[str]:
    return checks.check_teleport(stats, 0.6, 0.8, 2j, reference.p_even("coherent", 2.0),
                                 0.7, reference.branch_overlap(2.0, 2.0, 2j))


def test_teleport_check_rejects_each_wrong_statistic():
    p_even = reference.p_even("coherent", 2.0)
    good = exact_stats(400_000, 0.6, 0.8, 2j, p_even, 0.7)
    assert teleport_fails(good) == []

    wrong_success = json.loads(json.dumps(good))
    wrong_success["corrected"][1] -= 2_000  # p_d read as 0.68
    assert any("success rate" in f for f in teleport_fails(wrong_success))

    unbalanced = json.loads(json.dumps(good))
    unbalanced["branch"][0] += 3_000
    unbalanced["branch"][3] -= 3_000
    assert any("branch 0 share" in f for f in teleport_fails(unbalanced))

    wrong_fidelity = json.loads(json.dumps(good))
    m = wrong_fidelity["corrected"][1]
    wrong_fidelity["fid_sum"][1] = m * 0.085  # the undisplaced ceiling, not the contracted one
    wrong_fidelity["fid_sq"][1] = m * 0.085**2
    assert any("branch 1 corrected fidelity" in f for f in teleport_fails(wrong_fidelity))


def test_reference_closed_forms():
    c = reference.coherent_coefficients(2.0, 60)
    assert math.isclose(abs(c[3]) ** 2, math.exp(-4) * 4**3 / 6, rel_tol=1e-12)
    assert math.isclose(reference.success_rate(1.0, 1.0), 1.0)
    assert reference.corrected_fidelity(1, 1.0, 1.0, 2j) == 0.0
    assert math.isclose(reference.quarter_period_half_diff(1.0, 2j, 30), 2.0, rel_tol=1e-12)
    lower, upper = reference.lattice_bands(1.0, 0.0, 0.0, 1.0, [math.pi / 2], [math.pi / 2])
    assert math.isclose(lower[0, 0], -2.0) and math.isclose(upper[0, 0], -2 / 3)


def test_channel_check(tmp_path):
    out = triwell_cli(tmp_path, "channel")
    assert checks.check_channel(out) == []
    path = out / "channel_state.json"
    payload = json.loads(path.read_text())
    payload["amplitudes"][28] = [-x for x in payload["amplitudes"][28]]  # negate <1,1|psi>
    path.write_text(json.dumps(payload))
    assert checks.check_channel(out)


def test_cli_teleport_check(tmp_path):
    out = triwell_cli(tmp_path, "teleport", "--trials", "400", "--seed", "3")
    assert checks.check_cli_teleport(out, trials=400) == []

    def uncorrect(rows):
        rows[1][2] = "0"
    rewrite_rows(out / "trials.csv", uncorrect)
    assert any("success rate" in f for f in checks.check_cli_teleport(out, trials=400))


def test_parity_check(tmp_path):
    out = triwell_cli(tmp_path, "parity-sweep", "--family", "coherent", "--seed", "4")
    assert checks.check_parity(out, ["coherent"]) == []

    def shift(rows):
        rows[3][3] = repr(float(rows[3][3]) + 0.03)  # ~8 standard errors
    rewrite_rows(out / "parity.csv", shift)
    assert checks.check_parity(out, ["coherent"])


def test_efficiency_check(tmp_path):
    out = triwell_cli(tmp_path, "efficiency-sweep")
    assert checks.check_efficiency(out) == []

    def shift(rows):
        rows[5][3] = repr(float(rows[5][3]) + 1e-6)
    rewrite_rows(out / "efficiency.csv", shift)
    assert checks.check_efficiency(out)


def test_homodyne_check(tmp_path):
    out = triwell_cli(tmp_path, "homodyne")
    assert checks.check_homodyne(out) == []

    def shift(rows):
        rows[21][5] = repr(float(rows[21][5]) * (1 + 1e-6))  # the t = pi/2 row
    rewrite_rows(out / "sx_timeseries.csv", shift)
    assert checks.check_homodyne(out)


def test_lattice_check(tmp_path):
    out = triwell_cli(tmp_path, "lattice-map")
    assert checks.check_lattice(out) == []

    def shift(rows):
        rows[500][2] = repr(float(rows[500][2]) + 1e-6)
    rewrite_rows(out / "lattice_map.csv", shift)
    assert checks.check_lattice(out)


def test_manifest_check(tmp_path):
    out = triwell_cli(tmp_path, "efficiency-sweep")
    assert checks.check_manifest(out, "efficiency-sweep") == []
    (out / "efficiency.csv").unlink()
    assert checks.check_manifest(out, "efficiency-sweep")


def smoke(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=300, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload,trace", [("teleport-ideal", 0), ("cli-figures", 0),
                                            ("teleport-homodyne", 1)])
def test_smoke_run_prints_every_metric(workload, trace):
    result = smoke(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    kind = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in BENCHMARK[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    expected_failed = result["attempted"] // 8 if workload == "cli-figures" else 0
    assert result["failed"] == expected_failed


def test_refuses_without_triwell_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "teleport-ideal", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
