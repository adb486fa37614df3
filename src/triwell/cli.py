"""Command line front end.

Subcommands: channel, teleport, parity-sweep, efficiency-sweep, homodyne,
lattice-map. Every parameter can come from an INI-style config file
(section per subcommand, ``--config FILE``) or a command line flag; flags
win. Outputs land in ``--out`` as CSV/JSON plus a run manifest; reruns with
the same config and seed are byte-identical. Every subcommand runs in one
process; ``--jobs N`` is accepted by every subcommand and only validated
(N >= 1), so it never changes what a run does or writes.

Exit codes: 0 ok, 2 config error, 3 physics precondition violated,
4 numeric failure.
"""

from __future__ import annotations

import argparse
import cmath
import configparser
import contextlib
import dataclasses
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .channel import channel_entanglement, channel_family_index, channel_family_overlaps, generate_channel
from .corrections import (
    AUX_KINDS,
    AuxiliaryPrep,
    p_even_analytic,
    p_even_monte_carlo,
    total_efficiency,
)
from .dynamics import CrossSpeciesParams, JosephsonParams, KerrParams
from .errors import ConfigError, NumericError, PreconditionError, TriwellError, ValidityDomainExceeded
from .fock import CoherentSpec, FockCutoff, SuperpositionSpec, prepare_cat_superposition, state_to_dict
from .homodyne import initial_schwinger, perturbative_sx, simulate_sx
from .lattice import LatticeParams, density_map
from .protocol import ProtocolConfig, run_protocol, trial_values
from .rng import substream
from .serialize import build_manifest, gnuplot_stub, write_json, write_table

PARITY_CAVEAT = (
    "the collision is diagonal in the auxiliary number basis, so p_even is the "
    "auxiliary's initial even-count mass: number states give 0 or 1, squeezed "
    "vacuum gives exactly 1; smooth sub-unity curves for those families are not "
    "reproducible under this model"
)


def _parse_complex(text: str) -> complex:
    return complex(text.replace(" ", ""))


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


@dataclass(frozen=True)
class Option:
    name: str
    parse: object
    default: object
    help: str
    choices: tuple = ()


COMMON = (
    Option("out", str, "triwell-out", "output directory"),
    Option("format", str, "csv", "table format", ("csv", "json")),
    Option("seed", int, 0, "run seed"),
    Option("jobs", int, 1, "validated (>= 1) but unused: every subcommand runs in one process"),
    Option("gnuplot", _parse_bool, False,
           "also write gnuplot script stubs (csv format; not channel or teleport)"),
)

SCHEMAS = {
    "channel": (
        Option("alpha", _parse_complex, 2.0 + 0j, "mode-2 coherent amplitude"),
        Option("beta", _parse_complex, 2.0 + 0j, "mode-3 coherent amplitude"),
        Option("kappa", float, 1.0, "self-collision rate"),
        Option("e0", float, 1.0, "well frequency E0/hbar"),
        Option("cutoff", int, 26, "per-mode occupation cutoff"),
    ),
    "teleport": (
        Option("a-weight", _parse_complex, 1.0 + 0j, "target weight A"),
        Option("b-weight", _parse_complex, 1.0 + 0j, "target weight B"),
        Option("gamma", _parse_complex, 2.0 + 0j, "target amplitude"),
        Option("alpha", _parse_complex, 2.0 + 0j, "channel mode-2 amplitude"),
        Option("beta", _parse_complex, 2.0j, "channel mode-3 amplitude"),
        Option("kappa", float, 1.0, "self-collision rate"),
        Option("e0", float, 1.0, "well frequency E0/hbar"),
        Option("omega", float, 1000.0, "tunnelling frequency (homodyne backend)"),
        Option("lam", float, None, "two-species collision rate (default kappa/2)"),
        Option("cutoff", int, 26, "per-mode occupation cutoff"),
        Option("backend", str, "ideal", "measurement backend", ("ideal", "homodyne")),
        Option("p-d", float, 1.0, "displacement success probability"),
        Option("trials", int, 1000, "number of trials"),
        Option("aux-kind", str, "number", "auxiliary preparation", AUX_KINDS),
        Option("aux-parameter", float, 0.0, "auxiliary parameter (n, mean, or r)"),
        Option("reference-magnitude", float, None, "homodyne reference amplitude"),
    ),
    "parity-sweep": (
        Option("family", str, "all", "auxiliary family", AUX_KINDS + ("all",)),
        Option("param-min", float, 0.0, "grid start"),
        Option("param-max", float, 5.0, "grid end"),
        Option("points", int, 11, "grid points"),
        Option("trials", int, 20000, "Monte-Carlo trials per point"),
        Option("kappa", float, 1.0, "self-collision rate"),
        Option("beta", _parse_complex, 2.0j, "central-mode amplitude for sampling"),
        Option("cutoff", int, 40, "per-mode occupation cutoff"),
    ),
    "efficiency-sweep": (
        Option("r-min", float, 0.0, "squeezing grid start"),
        Option("r-max", float, 2.0, "squeezing grid end"),
        Option("r-points", int, 11, "squeezing grid points"),
        Option("pd-min", float, 0.0, "displacement-success grid start"),
        Option("pd-max", float, 1.0, "displacement-success grid end"),
        Option("pd-points", int, 11, "displacement-success grid points"),
    ),
    "homodyne": (
        Option("gamma", _parse_complex, 1.0 + 0j, "signal coherent amplitude"),
        Option("beta", _parse_complex, 2.0j, "reference amplitude |b| e^{i theta}"),
        Option("omega", float, 1.0, "tunnelling frequency"),
        Option("kappa", float, 0.0, "self-collision rate"),
        Option("e0", float, 0.0, "well frequency E0/hbar"),
        Option("t-max", float, None, "time-series end (default pi/omega)"),
        Option("steps", int, 41, "time-series samples"),
        Option("cutoff", int, 24, "per-mode occupation cutoff"),
    ),
    "lattice-map": (
        Option("u1", float, 1.0, "single-beam light shift"),
        Option("k-l", float, 1.0, "lattice wavenumber"),
        Option("theta-min", float, math.pi / 2, "angle grid start"),
        Option("theta-max", float, 5 * math.pi / 2, "angle grid end"),
        Option("theta-points", int, 101, "angle grid points"),
        Option("zprime-min", float, 0.0, "z' = 2 k_L z grid start"),
        Option("zprime-max", float, 4 * math.pi, "z' grid end"),
        Option("zprime-points", int, 101, "z' grid points"),
        Option("b-perp", float, 0.1, "transverse field"),
        Option("b-parallel", float, 0.0, "longitudinal field"),
        Option("gyro", float, 1.0, "gyromagnetic ratio"),
    ),
}


# --gnuplot: subcommand -> (table stem, title, using, style) of its .gp stub
PLOTS = {
    "parity-sweep": ("parity", "P_even vs parameter", "2:3", "lines"),
    "efficiency-sweep": ("efficiency", "P vs p_D", "2:4", "lines"),
    "homodyne": ("sx_timeseries", "S_x(t)", "1:2", "lines"),
    "lattice-map": ("lattice_map", "lower band", "1:2:3", "image"),
}


def _dest(name: str) -> str:
    return name.replace("-", "_")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="triwell",
        description="three-well condensate teleportation laboratory",
    )
    parser.add_argument("--version", action="version", version=f"triwell {__version__}")
    subparsers = parser.add_subparsers(dest="subcommand", required=True)
    for name, schema in SCHEMAS.items():
        sub = subparsers.add_parser(name, help=f"run the {name} experiment")
        sub.add_argument("--config", type=str, default=None,
                         help="INI config file with a [%s] section" % name)
        for opt in schema + COMMON:
            kwargs = {"type": str, "default": None, "help": opt.help}
            if opt.choices:
                kwargs["choices"] = opt.choices
            sub.add_argument("--" + opt.name, dest=_dest(opt.name), **kwargs)
    return parser


def _option_named(flag: str, subcommand: str):
    """The subcommand's option that ``flag`` names, in full or by a unique
    prefix as argparse resolves it; None for anything else."""
    options = {"--" + opt.name: opt for opt in SCHEMAS[subcommand] + COMMON}
    names = ["--config", "--help", *options]
    if flag in names:
        return options.get(flag)
    matches = [name for name in names if flag.startswith("--") and name.startswith(flag)]
    return options.get(matches[0]) if len(matches) == 1 else None


def _attach_signed_values(argv: list) -> list:
    """Join ``--opt VALUE`` into ``--opt=VALUE`` for a numeric option of the
    subcommand whose value starts with '-' and parses as a number; ``--opt``
    may be a unique prefix of the option's name. argparse takes such a value
    for a flag unless it is a plain decimal, so ``--b-weight -1e-7`` and
    ``--beta -2j`` would lose it; a flag stays a flag, and an ambiguous
    prefix is left for argparse to refuse."""
    subcommand = next((token for token in argv if not token.startswith("-")), None)
    if subcommand not in SCHEMAS:
        return argv
    joined = []
    for token in argv:
        option = _option_named(joined[-1], subcommand) if joined else None
        numeric = option is not None and option.parse in (int, float, _parse_complex)
        if numeric and token.startswith("-"):
            try:
                _parse_complex(token)
            except ValueError:
                pass
            else:
                joined[-1] += "=" + token
                continue
        joined.append(token)
    return joined


def _load_config_section(path: str, section: str) -> dict:
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ConfigError(f"config file {path!r} not found or unreadable")
    if not parser.has_section(section):
        raise ConfigError(f"config file {path!r} has no [{section}] section")
    return {key.replace("_", "-"): value for key, value in parser.items(section)}


def resolve_options(subcommand: str, args: argparse.Namespace) -> dict:
    """Merge defaults, config file, and flags (flags win); validate keys."""
    schema = {opt.name: opt for opt in SCHEMAS[subcommand] + COMMON}
    values = {name: opt.default for name, opt in schema.items()}
    if args.config:
        section = _load_config_section(args.config, subcommand)
        unknown = sorted(set(section) - set(schema))
        if unknown:
            raise ConfigError(f"unknown config keys {unknown} in [{subcommand}]")
        for key, raw in section.items():
            values[key] = _parse_with(schema[key], raw)
    for name, opt in schema.items():
        raw = getattr(args, _dest(name))
        if raw is not None:
            values[name] = _parse_with(opt, raw)
    if values["jobs"] < 1:
        raise ConfigError(f"'jobs' must be >= 1, got {values['jobs']}")
    if values["gnuplot"] and subcommand not in PLOTS:
        raise ConfigError(f"'gnuplot' writes stubs only for {', '.join(PLOTS)}")
    if values["gnuplot"] and values["format"] != "csv":
        raise ConfigError("'gnuplot' stubs plot the CSV tables; it needs format csv")
    return values


def _parse_with(opt: Option, raw: str):
    try:
        value = opt.parse(raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad value for {opt.name!r}: {raw!r} ({exc})") from exc
    if isinstance(value, (float, complex)) and not cmath.isfinite(value):
        raise ConfigError(f"{opt.name!r} must be finite, got {raw!r}")
    if opt.choices and value not in opt.choices:
        raise ConfigError(f"{opt.name!r} must be one of {opt.choices}, got {value!r}")
    return value


_EXECUTION_KEYS = ("out", "jobs")  # where/how to run; not part of the result


def _config_echo(values: dict) -> dict:
    echo = {}
    for key, value in sorted(values.items()):
        if key in _EXECUTION_KEYS:
            continue
        if isinstance(value, complex):
            echo[key] = [value.real, value.imag]
        else:
            echo[key] = value
    return echo


def _versions() -> dict:
    return {"triwell": __version__, "numpy": np.__version__}


@contextlib.contextmanager
def _building():
    """Scope where a handler builds its parameter objects and grids: a plain
    ValueError there is a config error; later library errors keep their own."""
    try:
        yield
    except TriwellError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _grid(start: float, stop: float, points: int) -> np.ndarray:
    if points < 1:
        raise ValueError(f"a grid needs at least 1 point, got {points}")
    return np.linspace(start, stop, points)


def _emit_manifest(outdir: Path, subcommand: str, values: dict, files: list,
                   caveats=(), summary=None) -> Path:
    manifest = build_manifest(
        subcommand, _config_echo(values), [Path(f).name for f in files],
        _versions(), caveats, summary,
    )
    return write_json(outdir / "manifest.json", manifest)


# ---------------------------------------------------------------------------
# subcommands


def cmd_channel(values: dict, outdir: Path) -> tuple:
    with _building():
        cutoff = FockCutoff(values["cutoff"])
        kp = KerrParams(values["e0"], values["kappa"])
        alpha = CoherentSpec(values["alpha"])
        beta = CoherentSpec(values["beta"])
    j = channel_family_index(kp)
    state = generate_channel(alpha, beta, kp, cutoff)
    gram = channel_family_overlaps(alpha, beta, kp, cutoff)
    files = [write_json(outdir / "channel_state.json", state_to_dict(state))]
    rows = [(*divmod(cell, 4), z.real, z.imag, abs(z))
            for cell, z in enumerate(gram.ravel().tolist())]
    files.append(write_table(
        outdir, "gram", values["format"],
        ("j_row", "j_col", "re", "im", "magnitude"), rows,
        (f"channel family Gram matrix, alpha={values['alpha']}, beta={values['beta']}",),
    ))
    files.append(write_json(outdir / "entanglement.json", {
        "family_index": j,
        "entropy_bits": channel_entanglement(state),
        "leakage": state.leakage,
    }))
    return files, None


def cmd_teleport(values: dict, outdir: Path) -> tuple:
    kappa = values["kappa"]
    lam = values["lam"] if values["lam"] is not None else kappa / 2
    with _building():
        config = ProtocolConfig(
            target=SuperpositionSpec(values["a-weight"], values["b-weight"], values["gamma"]),
            alpha=CoherentSpec(values["alpha"]),
            beta=CoherentSpec(values["beta"]),
            kerr=KerrParams(values["e0"], kappa),
            josephson=JosephsonParams(values["omega"]),
            cross_species=CrossSpeciesParams(lam),
            cutoff=FockCutoff(values["cutoff"]),
            measurement_backend=values["backend"],
            p_d=values["p-d"],
            trials=values["trials"],
            seed=values["seed"],
            aux=AuxiliaryPrep(values["aux-kind"], values["aux-parameter"]),
            reference_magnitude=values["reference-magnitude"],
        )
    result = run_protocol(config)
    names = ("branch", "corrected", "fidelity", "aux_m", "p_d_success")
    rows = list(zip(range(config.trials), *(trial_values(result.columns, name) for name in names)))
    files = [write_table(
        outdir, "trials", values["format"],
        ("trial", "branch", "corrected", "fidelity", "aux_m", "p_d_draw"), rows,
        (f"teleportation trials, backend={values['backend']}",),
    )]
    return files, result.summary


def cmd_parity_sweep(values: dict, outdir: Path) -> tuple:
    families = AUX_KINDS if values["family"] == "all" else (values["family"],)
    kappa = values["kappa"]
    with _building():
        if values["trials"] < 1:
            raise ValueError("trials must be >= 1")
        grid = _grid(values["param-min"], values["param-max"], values["points"])
        auxes = [AuxiliaryPrep(family, float(p)) for family in families for p in grid]
        lam, kp = CrossSpeciesParams(kappa / 2), KerrParams(1.5 * kappa, kappa)
        cutoff = FockCutoff(values["cutoff"])
    # the count distribution reads only the central state's basis size
    central = prepare_cat_superposition(SuperpositionSpec(1.0, 1.0, values["beta"]), cutoff)
    rows = []
    for index, aux in enumerate(auxes):
        mc = p_even_monte_carlo(aux, central, lam, kp, cutoff, values["trials"],
                                substream(values["seed"], index))
        rows.append((aux.kind, aux.parameter, p_even_analytic(aux), mc.p_even,
                     mc.trials, mc.stderr))
    files = [write_table(
        outdir, "parity", values["format"],
        ("family", "parameter", "p_even_analytic", "p_even_mc", "mc_trials",
         "mc_stderr"), rows,
        ("even-count probability by auxiliary family",),
    )]
    return files, None


def cmd_efficiency_sweep(values: dict, outdir: Path) -> tuple:
    with _building():
        r_grid = _grid(values["r-min"], values["r-max"], values["r-points"])
        pd_grid = _grid(values["pd-min"], values["pd-max"], values["pd-points"])
    # squeezed vacuum: p_even = 1 for every r
    points = [total_efficiency(1.0, float(p_d)) for p_d in pd_grid]
    rows = [(float(r), point.p_d, point.p_even, point.p_total)
            for r in r_grid for point in points]
    files = [write_table(
        outdir, "efficiency", values["format"],
        ("r", "p_d", "p_even", "p_total"), rows,
        ("total protocol efficiency, squeezed-vacuum auxiliary",),
    )]
    return files, None


def cmd_homodyne(values: dict, outdir: Path) -> tuple:
    with _building():
        cutoff = FockCutoff(values["cutoff"])
        jp = JosephsonParams(values["omega"])
        if jp.omega <= 0:
            raise ValidityDomainExceeded("atom-counting readout needs omega > 0")
        kp = KerrParams(values["e0"], values["kappa"])
        beta = CoherentSpec(values["beta"])
        t_max = values["t-max"] if values["t-max"] is not None else math.pi / values["omega"]
        if not t_max >= 0:
            raise ValueError(f"t-max must be >= 0, got {t_max}")
        t_grid = _grid(0.0, t_max, values["steps"])
    signal = prepare_cat_superposition(SuperpositionSpec(1.0, 0.0, values["gamma"]), cutoff)
    records = simulate_sx(signal, beta, jp, kp, t_grid)
    eps = values["kappa"] / values["omega"]
    total = records[0].normalization
    init = dataclasses.replace(initial_schwinger(signal, beta), epsilon=eps)
    rows = []
    for rec in records:
        pert = perturbative_sx(init, total, values["omega"], rec.t)
        rows.append((rec.t, rec.sx.real, rec.sx.imag, pert.real, pert.imag,
                     rec.raw_half_diff))
    files = [write_table(
        outdir, "sx_timeseries", values["format"],
        ("t", "sx_full_re", "sx_full_im", "sx_pert_re", "sx_pert_im",
         "raw_half_diff"), rows,
        (f"pseudo-spin S_x, epsilon={eps!r}",),
    )]
    return files, None


def cmd_lattice_map(values: dict, outdir: Path) -> tuple:
    with _building():
        thetas = _grid(values["theta-min"], values["theta-max"], values["theta-points"])
        z_primes = _grid(values["zprime-min"], values["zprime-max"], values["zprime-points"])
        # density_map takes its angles from the grid, not from params.theta_l
        params = LatticeParams(values["u1"], values["theta-min"], values["k-l"],
                               values["b-parallel"], values["b-perp"], values["gyro"])
    grid = density_map(params, thetas, z_primes)
    # theta-major rows, as Python floats so every cell formats by repr
    columns = (*np.meshgrid(thetas, z_primes, indexing="ij"), grid.band_lower,
               grid.band_upper, grid.band_upper - grid.band_lower)
    rows = list(zip(*(column.ravel().tolist() for column in columns)))
    files = [write_table(
        outdir, "lattice_map", values["format"],
        ("theta", "z_prime", "band_lower", "band_upper", "gap"), rows,
        (f"adiabatic band energies, b_perp={values['b-perp']!r}",),
    )]
    return files, None


HANDLERS = {
    "channel": cmd_channel,
    "teleport": cmd_teleport,
    "parity-sweep": cmd_parity_sweep,
    "efficiency-sweep": cmd_efficiency_sweep,
    "homodyne": cmd_homodyne,
    "lattice-map": cmd_lattice_map,
}

CAVEATS = {
    "parity-sweep": (PARITY_CAVEAT,),
    "efficiency-sweep": (PARITY_CAVEAT,),
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_attach_signed_values(sys.argv[1:] if argv is None else argv))
    started = time.perf_counter()
    try:
        values = resolve_options(args.subcommand, args)
        outdir = Path(values["out"])
        outdir.mkdir(parents=True, exist_ok=True)
        produced, summary = HANDLERS[args.subcommand](values, outdir)
        if values["gnuplot"]:
            stem, *plot = PLOTS[args.subcommand]
            produced.append(gnuplot_stub(outdir / f"{stem}.gp", f"{stem}.csv", *plot))
        manifest = _emit_manifest(outdir, args.subcommand, values, produced,
                                  CAVEATS.get(args.subcommand, ()), summary)
        produced.append(manifest)
    except ConfigError as exc:
        print(f"triwell: config error: {exc}", file=sys.stderr)
        return 2
    except PreconditionError as exc:
        print(f"triwell: precondition violated: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"triwell: numeric failure: {exc}", file=sys.stderr)
        return 4
    elapsed = time.perf_counter() - started
    print(f"triwell {args.subcommand}: wrote {len(produced)} file(s) to "
          f"{outdir} in {elapsed:.3f}s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
