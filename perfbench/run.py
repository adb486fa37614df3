#!/usr/bin/env python3
"""triwell benchmark: teleport throughput per backend and figure-set wall time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

NAME is teleport-ideal, teleport-homodyne or cli-figures (see README.md).
``--trace 0`` measures the end-to-end metrics, ``--trace 1`` the per-layer
ones; ``all`` runs every workload both ways. The last line printed is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
triwell is run from ``src/`` of the checkout this file sits in; every child
process writes under ``.perfbench_out/`` there.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

# One BLAS thread in this process and every child: on a 2-vCPU shared host a
# second thread made the same teleport call vary by 30 % from one run to the
# next, following the other vCPU's load; with one thread it repeats within a
# few per cent. Set before numpy loads.
os.environ.update({name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                          "MKL_NUM_THREADS")})

import checks  # noqa: E402
import tracing  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORKER = str(HERE / "worker.py")

TRIALS_PER_CALL = 10_000
SMOKE_TRIALS = 1_000
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 150
TELEPORT = {"teleport-ideal": ("ideal", 26), "teleport-homodyne": ("homodyne", 40)}
WORKLOADS = (*TELEPORT, "cli-figures")

# The figure set: one fresh process per invocation, each subcommand at its
# defaults. parity-sweep covers the two families whose default grid runs
# today; "{seed}" is replaced by a seed made from the workload seed.
FIGURES = (
    ("channel", ["channel"]),
    ("teleport", ["teleport", "--seed", "{seed}"]),
    ("parity-sweep", ["parity-sweep", "--family", "number", "--jobs", "2", "--seed", "{seed}"]),
    ("parity-sweep", ["parity-sweep", "--family", "coherent", "--jobs", "2", "--seed", "{seed}"]),
    ("efficiency-sweep", ["efficiency-sweep", "--jobs", "2"]),
    ("homodyne", ["homodyne"]),
    ("lattice-map", ["lattice-map"]),
)
# Attempted once per round with every default and expected to exit 4: the
# default grid reaches squeezing r = 5, whose truncation leakage at the default
# cutoff 40 (1.98e-6 from r = 1) exceeds AUX_MAX_LEAKAGE = 1e-8. Its time
# enters no end-to-end metric; a fix moves only the failure count.
DEFAULTS_OP = ("parity-sweep-defaults", ["parity-sweep"])
SUBCOMMANDS = ("channel", "teleport", "parity-sweep", "efficiency-sweep", "homodyne",
               "lattice-map")

# Per-layer metrics read from the spans: (metric, unit, span name, statistic).
# "calls" is per round (one run_protocol call, or one figure set); "total" and
# "self" are per call, the latter without the time of child spans.
SPAN_METRICS = (
    ("rng.substream.calls", "count", "rng.substream", "calls"),
    ("rng.substream.us_per_call", "us", "rng.substream", "total"),
    ("fock.fidelity.calls", "count", "fock.fidelity", "calls"),
    ("fock.fidelity.us_per_call", "us", "fock.fidelity", "total"),
    ("fock.displace.calls", "count", "fock.displace", "calls"),
    ("fock.displace.us_per_call", "us", "fock.displace", "total"),
    ("channel.generate_channel.ms", "ms", "channel.generate_channel", "total"),
    ("dynamics.josephson_collision_columns.ms", "ms", "dynamics.josephson_collision_columns",
     "total"),
    ("dynamics.evolve_josephson.calls", "count", "dynamics.evolve_josephson", "calls"),
    ("dynamics.evolve_josephson.us_per_call", "us", "dynamics.evolve_josephson", "total"),
    ("protocol.build_protocol_state.ms", "ms", "protocol.build_protocol_state", "total"),
    ("protocol.bell_sample.calls", "count", "protocol.bell_sample", "calls"),
    ("protocol.bell_sample.us_per_call", "us", "protocol.bell_sample", "self"),
    ("protocol.correct_and_score.us_per_call", "us", "protocol.correct_and_score", "self"),
    ("protocol.run_protocol.self_s", "s", "protocol.run_protocol", "self"),
    ("homodyne.discriminator_init.ms", "ms", "homodyne.discriminator_init", "total"),
    ("homodyne.prepare.calls", "count", "homodyne.prepare", "calls"),
    ("homodyne.prepare.us_per_call", "us", "homodyne.prepare", "total"),
    ("homodyne.draw.calls", "count", "homodyne.draw", "calls"),
    ("homodyne.draw.us_per_call", "us", "homodyne.draw", "total"),
    ("corrections.parity_operation.calls", "count", "corrections.parity_operation", "calls"),
    ("corrections.parity_operation.us_per_call", "us", "corrections.parity_operation", "total"),
    ("corrections.parity_collision.calls", "count", "corrections.parity_collision", "calls"),
    ("corrections.virtual_displacement.calls", "count", "corrections.virtual_displacement",
     "calls"),
    ("corrections.virtual_displacement.us_per_call", "us", "corrections.virtual_displacement",
     "total"),
    ("corrections.p_even_monte_carlo.ms", "ms", "corrections.p_even_monte_carlo", "total"),
    ("lattice.density_map.ms", "ms", "lattice.density_map", "total"),
    ("serialize.write_table.ms", "ms", "serialize.write_table", "total"),
)
SCALE = {"count": 1, "us": 1e6, "ms": 1e3, "s": 1}
LAYERS = ("rng", "fock", "channel", "dynamics", "protocol", "homodyne", "corrections",
          "lattice", "serialize", "cli")


class HarnessError(Exception):
    """The benchmark cannot run here; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


def run_child(cmd: list, ready_line: bool = False) -> dict:
    """Run a child in its own session; kill the whole group on timeout.

    Returns the exit code, output, wall seconds, the child's peak RSS (its
    own or its largest waited-for descendant's) and, with ``ready_line``, the
    seconds until the child printed its first line.
    """
    OUT.mkdir(parents=True, exist_ok=True)
    paths = [OUT / f"child-{os.getpid()}.{kind}" for kind in ("out", "err")]
    with open(paths[0], "w+") as out, open(paths[1], "w+") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stderr=err, text=True,
                                stdout=subprocess.PIPE if ready_line else out,
                                start_new_session=True)
        timer = threading.Timer(CHILD_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
        timer.start()
        ready = None
        try:
            if ready_line:
                proc.stdout.readline()
                ready = time.perf_counter() - start
                out.write(proc.stdout.read())
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        # wait4 reaped the child (for its rusage); tell Popen, so it never waits again.
        proc.returncode = os.waitstatus_to_exitcode(status)
        if ready_line:
            proc.stdout.close()
        out.seek(0)
        err.seek(0)
        result = {"code": proc.returncode, "out": out.read(), "err": err.read(), "wall": wall,
                  "ready": ready, "maxrss_kb": usage.ru_maxrss}
    for path in paths:
        path.unlink()
    return result


def environment(trace: bool) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next((line.split(":", 1)[1].strip() for line in info
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    threads = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "blas_threads": {name: os.environ.get(name) for name in threads},
        "trace": trace,
    }


def setup_seconds(workload: str, seed: int, samples: int) -> float:
    """Median seconds for a fresh process to become ready."""
    if workload in TELEPORT:
        backend, n_max = TELEPORT[workload]
        cmd = [sys.executable, WORKER, "teleport", "--backend", backend, "--n-max",
               str(n_max), "--trials", "1", "--seed", str(seed)]
    else:
        cmd = [sys.executable, "-c", "import triwell.cli; print('ready')"]
    times = []
    for _ in range(samples):
        child = run_child(cmd, ready_line=True)
        if child["code"] != 0:
            raise HarnessError(f"set-up of {workload} failed:\n{child['err'][-2000:]}")
        times.append(child["ready"])
    return statistics.median(times)


# ---------------------------------------------------------------------------
# teleport workloads


def run_teleport(workload: str, seed: int, seconds: float, trials: int,
                 trace_dir: Path | None) -> dict:
    backend, n_max = TELEPORT[workload]
    cmd = [sys.executable, WORKER, "teleport", "--backend", backend, "--n-max", str(n_max),
           "--trials", str(trials), "--seed", str(seed), "--seconds", str(seconds)]
    if trace_dir is not None:
        cmd += ["--trace-dir", str(trace_dir)]
    child = run_child(cmd)
    if child["code"] != 0:
        raise HarnessError(f"{workload} worker exited {child['code']}:\n{child['err'][-2000:]}")
    report = json.loads(child["out"].strip().splitlines()[-1])
    report["fails"] = checks.check_teleport(
        report["stats"], 0.6, 0.8, 2j, checks.reference.p_even("coherent", 2.0), 0.7,
        checks.reference.branch_overlap(2.0, 2.0, 2j))
    report["maxrss_kb"] = child["maxrss_kb"]
    return report


# ---------------------------------------------------------------------------
# cli-figures workload


def check_figure(name: str, argv: list, out_dir: Path) -> list[str]:
    fails = checks.check_manifest(out_dir, argv[0])
    if fails:
        return fails
    if argv[0] == "parity-sweep":
        families = ([argv[argv.index("--family") + 1]] if "--family" in argv
                    else ["number", "coherent", "squeezed_vacuum"])
        return checks.check_parity(out_dir, families)
    return {
        "channel": checks.check_channel,
        "teleport": checks.check_cli_teleport,
        "efficiency-sweep": checks.check_efficiency,
        "homodyne": checks.check_homodyne,
        "lattice-map": checks.check_lattice,
    }[name](out_dir)


def run_figure_round(round_dir: Path, seed: int, span_dir: Path | None) -> dict:
    """One figure set plus the defaults parity-sweep; checks every success."""
    shutil.rmtree(round_dir, ignore_errors=True)
    ops = []
    for index, (name, argv) in enumerate(FIGURES + (DEFAULTS_OP,)):
        argv = [arg.replace("{seed}", str(seed)) for arg in argv]
        out_dir = round_dir / f"{index}-{name}"
        if span_dir is None:
            cmd = [sys.executable, "-m", "triwell.cli"]
        else:
            cmd = [sys.executable, WORKER, "cli", str(span_dir)]
        child = run_child(cmd + argv + ["--out", str(out_dir)])
        fails = check_figure(name, argv, out_dir) if child["code"] == 0 else []
        ops.append({"name": name, "argv": argv, "code": child["code"], "wall": child["wall"],
                    "maxrss_kb": child["maxrss_kb"], "fails": fails,
                    "stderr": child["err"].strip().splitlines()[-1:]})
    written = sum(f.stat().st_size for f in round_dir.rglob("*") if f.is_file())
    figures_wall = sum(op["wall"] for op in ops if op["name"] != DEFAULTS_OP[0])
    return {"ops": ops, "seconds": figures_wall, "traced": span_dir is not None,
            "bytes_written": written}


def run_figures(run_dir: Path, seed: int, seconds: float, span_dir: Path | None) -> list:
    """Whole rounds until ``seconds`` have passed; with ``span_dir`` every
    second round is traced, and there are at least two rounds."""
    seeds = random.Random(seed)
    rounds = []
    deadline = time.perf_counter() + seconds
    while not rounds or time.perf_counter() < deadline or (span_dir and len(rounds) < 2):
        traced = span_dir is not None and len(rounds) % 2 == 1
        rounds.append(run_figure_round(run_dir / "round", seeds.getrandbits(31),
                                       span_dir if traced else None))
    return rounds


# ---------------------------------------------------------------------------
# metrics


def per_layer(agg: dict, n_rounds: int, probe: dict, traced_wall: float,
              overhead_pct: float, figures: list) -> tuple[dict, list]:
    """Per-layer metrics from the workload's traced rounds.

    Counts always come from the workload, zero included. A time per call of a
    function the workload never calls, and the self time of a layer it never
    enters, come from the probe instead. Returns (metrics, names probed).
    """
    metrics, probed = {}, []
    for metric, unit, name, stat in SPAN_METRICS:
        calls, total, own = agg.get(name, (0, 0.0, 0.0))
        if stat == "calls":
            metrics[metric] = (calls / n_rounds, unit)
            continue
        if not calls:
            probed.append(metric)
            calls, total, own = probe.get(name, (0, 0.0, 0.0))
        value = (total if stat == "total" else own) / calls if calls else 0.0
        metrics[metric] = (value * SCALE[unit], unit)
    prepares = agg.get("homodyne.prepare", (0,))[0]
    draws = agg.get("homodyne.draw", (0,))[0]
    metrics["homodyne.prepare_reuse_ratio"] = (1 - prepares / draws if draws else 0.0, "ratio")
    for layer in LAYERS:
        own = sum(v[2] for k, v in agg.items() if tracing.layer_of(k) == layer) / n_rounds
        if not own:
            probed.append(f"{layer}.self_s")
            own = sum(v[2] for k, v in probe.items() if tracing.layer_of(k) == layer)
        metrics[f"{layer}.self_s"] = (own, "s")
    traced = [r for r in figures if r["traced"]]
    for sub in SUBCOMMANDS:
        walls = [sum(op["wall"] for op in r["ops"] if op["name"] == sub) for r in traced]
        metrics[f"cli.{sub}.wall_s"] = (statistics.median(walls), "s")
    defaults = [op["code"] for op in traced[-1]["ops"] if op["name"] == DEFAULTS_OP[0]]
    metrics["cli.parity-sweep-defaults.exit_code"] = (defaults[0], "code")
    metrics["serialize.bytes_written"] = (
        statistics.median(r["bytes_written"] for r in traced), "bytes")
    metrics["trace.overhead_pct"] = (overhead_pct, "%")
    metrics["trace.wall_s"] = (traced_wall / n_rounds, "s")
    metrics["trace.accounted_pct"] = (100 * sum(v[2] for v in agg.values()) / traced_wall, "%")
    return metrics, probed


def overhead(rounds: list) -> tuple[float, float, int]:
    """(overhead %, traced wall seconds, traced rounds) from alternating rounds."""
    plain = [r["seconds"] for r in rounds if not r["traced"]]
    traced = [r["seconds"] for r in rounds if r["traced"]]
    pct = 100 * (statistics.median(traced) / statistics.median(plain) - 1)
    return pct, sum(traced), len(traced)


# ---------------------------------------------------------------------------
# one workload


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 smoke: bool) -> dict:
    run_dir = OUT / f"{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    trials = SMOKE_TRIALS if smoke else TRIALS_PER_CALL
    env = environment(trace)
    print("env " + json.dumps(env), flush=True)
    span_dir = run_dir / "spans" if trace else None
    fails: list[str] = []
    log: dict = {"env": env}

    if workload in TELEPORT:
        report = run_teleport(workload, seed, seconds, trials, span_dir)
        calls = report["calls"]
        fails += report["fails"]
        attempted, failed = len(calls), sum(c["error"] is not None for c in calls)
        rounds = calls
        log["calls"] = calls
        for call in calls:
            if call["error"]:
                print(f"op run_protocol seed={call['seed']} failed: {call['error']}")
    else:
        rounds = run_figures(run_dir, seed, seconds, span_dir)
        ops = [op for r in rounds for op in r["ops"]]
        attempted, failed = len(ops), sum(op["code"] != 0 for op in ops)
        log["rounds"] = rounds
        for i, r in enumerate(rounds):
            codes = " ".join(f"{op['name']}={op['code']}" for op in r["ops"])
            print(f"round {i} traced={int(r['traced'])} exit codes: {codes}")
        for op in ops:
            fails += op["fails"]
            if op["code"] != 0:
                print(f"op {' '.join(op['argv'])} exited {op['code']}: {op['stderr']}")

    if not trace:
        ok = [r["seconds"] for r in rounds if not r.get("error")]
        setup = setup_seconds(workload, seed, 1 if smoke else SETUP_SAMPLES)
        if workload in TELEPORT:
            peak_kb = report["maxrss_kb"]
        else:
            peak_kb = max(op["maxrss_kb"] for op in ops)
        # Mean, not median: the host switches between speed regimes for tens
        # of seconds, and the total time moves with the share of each regime
        # where the median jumps between them (run-to-run spread 7-21 % against
        # 10-30 % for the median on the same runs).
        metrics = {"setup_s": (setup, "s"),
                   "round_s": (statistics.mean(ok) if ok else float("nan"), "s"),
                   "peak_rss_mb": (peak_kb / 1024, "MB")}
    else:
        # Spans of the other workloads, one small traced round each, stand in
        # for layers this workload never calls.
        probe_dir = run_dir / "probe"
        figures = rounds if workload == "cli-figures" else []
        for other in WORKLOADS:
            if other == workload:
                continue
            if other in TELEPORT:
                fails += run_teleport(other, seed, 0, SMOKE_TRIALS, probe_dir)["fails"]
            else:
                probe_round = run_figure_round(probe_dir / "round", seed, probe_dir)
                figures = [probe_round]
                fails += [f for op in probe_round["ops"] for f in op["fails"]]
        pct, traced_wall, n_traced = overhead(rounds)
        metrics, probed = per_layer(tracing.aggregate(span_dir), n_traced,
                                    tracing.aggregate(probe_dir), traced_wall, pct, figures)
        print("probed " + " ".join(probed))

    for line in fails:
        print(f"CHECK FAILED: {line}")
    result = {"correct": not fails, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    print(f"{workload}: attempted {attempted} failed {failed} correct {not fails}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:48s} {value:.6g} {unit}")
    log.update(result)
    (run_dir / "result.json").write_text(json.dumps(log, indent=1, default=str) + "\n")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help=f"{SMOKE_TRIALS} trials per call and one set-up sample")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "triwell" / "cli.py").is_file():
        print(f"perfbench: no triwell sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.workload != "all":
            result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                                  args.smoke)
        else:
            result = {f"{w}/trace{t}": run_workload(w, args.seed, args.seconds, bool(t),
                                                    args.smoke)
                      for w in WORKLOADS for t in (0, 1)}
    except HarnessError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
