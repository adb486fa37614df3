"""Child processes of the benchmark; each one is a fresh interpreter.

    worker.py teleport --backend B --n-max N --trials T --seed S [--seconds X]
                       [--trace-dir DIR]
        Imports triwell and makes one 1-trial ``run_protocol`` call (set-up),
        prints ``ready``, then, if --seconds is given, makes T-trial calls until
        X seconds have passed and prints one JSON line: per-call times and
        outcome counts. With --trace-dir, calls alternate between
        untraced and traced, and the spans go to DIR.
    worker.py cli DIR <triwell cli arguments>
        Runs ``triwell.cli.main`` with spans recorded into DIR.

The harness makes the call seeds from its workload seed; triwell only sees
the resulting configs.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import random
import sys
import time
from pathlib import Path

# Target 0.6|2> + 0.8|-2>, channel alpha = 2, beta = 2i, coherent auxiliary of
# mean 2, p_d = 0.7: all four branches, both corrections and both of their
# failure paths occur.
TELEPORT = {"a": 0.6, "b": 0.8, "gamma": 2.0, "alpha": 2.0, "beta": 2j,
            "aux_kind": "coherent", "aux_parameter": 2.0, "p_d": 0.7}


def call_seeds(seed: int):
    """Seeds of successive run_protocol calls, made from the workload seed."""
    rng = random.Random(seed)
    while True:
        yield rng.getrandbits(63)


def teleport_config(backend: str, n_max: int, trials: int, seed: int):
    from triwell import (AuxiliaryPrep, CoherentSpec, CrossSpeciesParams, FockCutoff,
                         JosephsonParams, KerrParams, ProtocolConfig, SuperpositionSpec)

    return ProtocolConfig(
        target=SuperpositionSpec(TELEPORT["a"], TELEPORT["b"], TELEPORT["gamma"]),
        alpha=CoherentSpec(TELEPORT["alpha"]),
        beta=CoherentSpec(TELEPORT["beta"]),
        kerr=KerrParams(1.0, 1.0),
        josephson=JosephsonParams(1000.0),
        cross_species=CrossSpeciesParams(0.5),
        cutoff=FockCutoff(n_max),
        measurement_backend=backend,
        p_d=TELEPORT["p_d"],
        trials=trials,
        seed=seed,
        aux=AuxiliaryPrep(TELEPORT["aux_kind"], TELEPORT["aux_parameter"]),
    )


def teleport(args) -> int:
    from triwell.protocol import run_protocol

    seeds = call_seeds(args.seed)
    run_protocol(teleport_config(args.backend, args.n_max, 1, next(seeds)))
    print("ready", flush=True)
    if args.seconds is None:
        return 0
    import checks  # harness modules load after set-up, so set-up times triwell alone
    from tracing import Tracer

    config = teleport_config(args.backend, args.n_max, args.trials, 0)
    tracer = Tracer(args.trace_dir) if args.trace_dir else None
    traced_call = tracer.wrap("protocol.run_protocol", run_protocol) if tracer else None
    calls, stats = [], checks.new_stats()
    deadline = time.perf_counter() + args.seconds
    # Whole calls only; a traced run needs at least one call of each kind.
    while not calls or time.perf_counter() < deadline or (tracer and len(calls) < 2):
        traced = tracer is not None and len(calls) % 2 == 1
        if traced:
            tracer.install()
        call = dataclasses.replace(config, seed=next(seeds))
        error = None
        start = time.perf_counter()
        try:
            result = (traced_call if traced else run_protocol)(call)
        except Exception as exc:  # counted as a failed operation, never retried
            error = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        if traced:
            tracer.uninstall()
        calls.append({"seconds": elapsed, "traced": traced, "seed": call.seed,
                      "error": error})
        if error is None:
            for rec in result.records:
                checks.add_trial(stats, rec.outcome.branch, rec.corrected, rec.fidelity)
    if tracer:
        tracer.dump()
    print(json.dumps({"calls": calls, "stats": stats}))
    return 0


def traced_cli(span_dir: str, argv: list) -> int:
    import triwell.cli
    from tracing import Tracer

    tracer = Tracer(Path(span_dir))
    tracer.install()
    try:
        return tracer.wrap("cli.main", triwell.cli.main)(argv)
    finally:
        tracer.uninstall()
        tracer.dump()


def main() -> int:
    if len(sys.argv) > 2 and sys.argv[1] == "cli":
        return traced_cli(sys.argv[2], sys.argv[3:])
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("teleport",))
    parser.add_argument("--backend", required=True)
    parser.add_argument("--n-max", type=int, required=True)
    parser.add_argument("--trials", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace-dir")
    return teleport(parser.parse_args())


if __name__ == "__main__":
    raise SystemExit(main())
