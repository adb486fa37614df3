import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from triwell import LatticeParams, density_map
from triwell.cli import COMMON, SCHEMAS, _parse_complex, main


def run(args):
    return main([str(a) for a in args])


def read_files(directory: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def csv_rows(path: Path):
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


class TestChannelCommand:
    def test_outputs_and_gram_diagonal(self, tmp_path):
        out = tmp_path / "chan"
        assert run(["channel", "--alpha", "2", "--beta", "2", "--kappa", "1",
                    "--e0", "1", "--cutoff", "26", "--out", out]) == 0
        names = {p.name for p in out.iterdir()}
        assert names == {"channel_state.json", "gram.csv", "entanglement.json",
                         "manifest.json"}
        for row in csv_rows(out / "gram.csv"):
            if row["j_row"] == row["j_col"]:
                assert abs(float(row["magnitude"]) - 1.0) < 1e-8
        payload = json.loads((out / "entanglement.json").read_text())
        assert 0.99 <= payload["entropy_bits"] <= 1.0

    def test_rerun_byte_identical(self, tmp_path):
        args = ["channel", "--alpha", "1.5", "--beta", "1.5", "--cutoff", "24",
                "--kappa", "1", "--e0", "2"]
        first, second = tmp_path / "a", tmp_path / "b"
        assert run(args + ["--out", first]) == 0
        assert run(args + ["--out", second]) == 0
        assert read_files(first) == read_files(second)

    def test_no_family_index_is_exit_3(self, tmp_path):
        assert run(["channel", "--e0", "1.5", "--kappa", "1",
                    "--out", tmp_path / "x"]) == 3

    def test_cutoff_too_small_is_exit_4(self, tmp_path):
        assert run(["channel", "--alpha", "2", "--beta", "2", "--cutoff", "8",
                    "--out", tmp_path / "x"]) == 4

    def test_bad_value_is_exit_2(self, tmp_path):
        assert run(["channel", "--alpha", "fish", "--out", tmp_path / "x"]) == 2


class TestConfigFile:
    def test_section_and_flag_override(self, tmp_path):
        config = tmp_path / "run.ini"
        config.write_text("[channel]\nalpha = 1.0\nbeta = 1.0\ncutoff = 20\n")
        out = tmp_path / "o"
        assert run(["channel", "--config", config, "--alpha", "1.5",
                    "--cutoff", "24", "--out", out]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["alpha"] == [1.5, 0.0]  # flag beat the file
        assert manifest["config"]["beta"] == [1.0, 0.0]
        assert manifest["config"]["cutoff"] == 24

    def test_unknown_key_rejected(self, tmp_path):
        config = tmp_path / "run.ini"
        config.write_text("[channel]\nwiggle = 3\n")
        assert run(["channel", "--config", config, "--out", tmp_path / "o"]) == 2

    def test_missing_file_rejected(self, tmp_path):
        assert run(["channel", "--config", tmp_path / "nope.ini",
                    "--out", tmp_path / "o"]) == 2

    def test_manifest_carries_hash_and_versions(self, tmp_path):
        out = tmp_path / "o"
        assert run(["channel", "--cutoff", "26", "--out", out]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest) >= {"config", "config_hash", "outputs", "versions"}
        assert manifest["versions"]["triwell"]


class TestTeleportCommand:
    def test_trial_table(self, tmp_path):
        out = tmp_path / "tp"
        assert run(["teleport", "--trials", "50", "--seed", "5", "--out", out,
                    "--p-d", "0.5"]) == 0
        rows = csv_rows(out / "trials.csv")
        assert len(rows) == 50
        branches = {int(r["branch"]) for r in rows}
        assert branches <= {0, 1, 2, 3}
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["summary"]["trials"] == 50

    def test_seeded_rerun_identical(self, tmp_path):
        args = ["teleport", "--trials", "40", "--seed", "9",
                "--aux-kind", "coherent", "--aux-parameter", "2"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(args + ["--out", a]) == 0
        assert run(args + ["--out", b]) == 0
        assert read_files(a) == read_files(b)


class TestSweeps:
    def test_parity_sweep_analytic_columns(self, tmp_path):
        out = tmp_path / "par"
        assert run(["parity-sweep", "--family", "squeezed_vacuum",
                    "--param-min", "0", "--param-max", "1", "--points", "3",
                    "--trials", "2000", "--cutoff", "60", "--out", out]) == 0
        rows = csv_rows(out / "parity.csv")
        assert all(float(r["p_even_analytic"]) == 1.0 for r in rows)
        assert all(float(r["p_even_mc"]) == 1.0 for r in rows)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["caveats"]

    def test_parity_sweep_parallel_equals_serial(self, tmp_path):
        args = ["parity-sweep", "--family", "coherent", "--param-min", "0",
                "--param-max", "4", "--points", "5", "--trials", "4000",
                "--cutoff", "34", "--seed", "3"]
        serial, parallel = tmp_path / "s", tmp_path / "p"
        assert run(args + ["--out", serial, "--jobs", "1"]) == 0
        assert run(args + ["--out", parallel, "--jobs", "2"]) == 0
        assert read_files(serial) == read_files(parallel)

    def test_parity_sweep_never_starts_a_pool(self, tmp_path, monkeypatch):
        args = ["parity-sweep", "--family", "coherent", "--points", "5",
                "--trials", "2000", "--cutoff", "34"]
        serial = tmp_path / "s"
        assert run(args + ["--out", serial, "--jobs", "1"]) == 0

        def refuse(*args, **kwargs):
            raise AssertionError("parity-sweep started a process pool")

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", refuse)
        jobs = tmp_path / "j"
        assert run(args + ["--out", jobs, "--jobs", "2"]) == 0
        assert read_files(serial) == read_files(jobs)

    def test_parity_sweep_leaky_central_state_is_exit_4(self, tmp_path, capsys):
        out = tmp_path / "x"
        assert run(["parity-sweep", "--beta", "9", "--cutoff", "20", "--out", out]) == 4
        assert "numeric failure" in capsys.readouterr().err
        assert not (out / "parity.csv").exists()

    @pytest.mark.parametrize("subcommand", ["parity-sweep", "efficiency-sweep"])
    def test_jobs_below_one_is_exit_2_before_any_work(self, tmp_path, subcommand):
        out = tmp_path / "never"
        assert run([subcommand, "--jobs", "0", "--out", out]) == 2
        assert not out.exists()

    def test_efficiency_sweep_identity_row(self, tmp_path):
        out = tmp_path / "eff"
        assert run(["efficiency-sweep", "--r-points", "3", "--pd-points", "3",
                    "--out", out]) == 0
        for row in csv_rows(out / "efficiency.csv"):
            p_even, p_d = float(row["p_even"]), float(row["p_d"])
            expected = (1 + p_even + p_d + p_even * p_d) / 4
            assert abs(float(row["p_total"]) - expected) < 1e-12
            if p_d == 1.0:
                assert float(row["p_total"]) == pytest.approx(
                    (2 + 2 * p_even) / 4, abs=1e-12)

    def test_lattice_map_gap_column(self, tmp_path):
        base = ["lattice-map", "--theta-points", "11", "--zprime-points", "41"]
        with_field = tmp_path / "b1"
        without_field = tmp_path / "b0"
        assert run(base + ["--b-perp", "0.2", "--out", with_field]) == 0
        assert run(base + ["--b-perp", "0", "--out", without_field]) == 0
        gaps_with = [float(r["gap"]) for r in csv_rows(with_field / "lattice_map.csv")]
        gaps_without = [float(r["gap"]) for r in
                        csv_rows(without_field / "lattice_map.csv")]
        assert min(gaps_with) > 0
        assert min(gaps_without) < 1e-12

    def test_lattice_map_rows_are_theta_major(self, tmp_path):
        out = tmp_path / "lm"
        assert run(["lattice-map", "--theta-points", "7", "--zprime-points", "11",
                    "--out", out]) == 0
        thetas = np.linspace(math.pi / 2, 5 * math.pi / 2, 7)
        z_primes = np.linspace(0.0, 4 * math.pi, 11)
        grid = density_map(LatticeParams(1.0, math.pi / 2, 1.0, 0.0, 0.1, 1.0),
                           thetas, z_primes)
        rows = csv_rows(out / "lattice_map.csv")
        assert len(rows) == 7 * 11
        for index, row in enumerate(rows):
            i, j = divmod(index, 11)
            assert float(row["theta"]) == thetas[i]
            assert float(row["z_prime"]) == z_primes[j]
            assert float(row["band_lower"]) == grid.band_lower[i, j]
            assert float(row["band_upper"]) == grid.band_upper[i, j]
            assert float(row["gap"]) == grid.band_upper[i, j] - grid.band_lower[i, j]

    def test_lattice_map_parallel_equals_serial(self, tmp_path):
        args = ["lattice-map", "--theta-points", "7", "--zprime-points", "11"]
        serial, parallel = tmp_path / "s", tmp_path / "p"
        assert run(args + ["--out", serial]) == 0
        assert run(args + ["--out", parallel, "--jobs", "2"]) == 0
        assert read_files(serial) == read_files(parallel)


class TestHomodyneCommand:
    def test_time_series(self, tmp_path):
        out = tmp_path / "hom"
        assert run(["homodyne", "--gamma", "1", "--beta", "2j", "--omega", "1",
                    "--steps", "9", "--cutoff", "30", "--out", out]) == 0
        rows = csv_rows(out / "sx_timeseries.csv")
        assert len(rows) == 9
        assert float(rows[0]["t"]) == 0.0
        # kappa = 0: full and first-order trajectories coincide
        for row in rows:
            assert abs(float(row["sx_full_re"]) - float(row["sx_pert_re"])) < 1e-8

    def test_gnuplot_stub(self, tmp_path):
        out = tmp_path / "hom"
        assert run(["homodyne", "--steps", "5", "--cutoff", "30",
                    "--gnuplot", "true", "--out", out]) == 0
        assert (out / "sx_timeseries.gp").exists()


class TestParsing:
    def test_missing_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as info:
            main([])
        assert info.value.code == 2

    def test_unknown_choice_rejected(self, tmp_path):
        with pytest.raises(SystemExit) as info:
            main(["teleport", "--backend", "tomography", "--out", str(tmp_path)])
        assert info.value.code == 2


class TestExitCodes:
    @pytest.mark.parametrize("args", [
        ["teleport", "--cutoff", "0"],
        ["teleport", "--trials", "0"],
        ["parity-sweep", "--points", "-1"],
        ["homodyne", "--steps", "0"],
        ["parity-sweep", "--trials", "0"],
        ["teleport", "--backend", "homodyne", "--cutoff", "40", "--reference-magnitude", "0"],
        ["teleport", "--backend", "homodyne", "--cutoff", "40", "--reference-magnitude", "-3"],
        ["homodyne", "--t-max", "-1"],
        ["channel", "--e0", "nan"],
        ["channel", "--alpha", "nan"],
        ["teleport", "--beta", "nanj"],
        ["parity-sweep", "--points", "2", "--param-max", "nan"],
        ["teleport", "--gamma", "inf"],
        ["teleport", "--a-weight", "nan"],
        ["lattice-map", "--u1", "nan"],
    ])
    def test_bad_parameters_are_exit_2(self, tmp_path, args):
        assert run(args + ["--out", tmp_path / "x"]) == 2

    @pytest.mark.parametrize("args", [
        ["teleport", "--gamma", "1e100"],
        ["teleport", "--gamma", "1e200"],
        ["channel", "--alpha", "1e30"],
    ])
    def test_amplitude_past_float_range_is_exit_4(self, tmp_path, args, capsys):
        assert run(args + ["--out", tmp_path / "x"]) == 4
        assert "numeric failure" in capsys.readouterr().err

    @pytest.mark.parametrize("subcommand", ["parity-sweep", "efficiency-sweep", "homodyne",
                                            "lattice-map", "channel", "teleport"])
    def test_gnuplot_without_csv_is_exit_2_before_any_work(self, tmp_path, subcommand):
        # the stubs plot the CSV table, which a JSON run does not write
        out = tmp_path / "x"
        assert run([subcommand, "--gnuplot", "1", "--format", "json", "--out", out]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("subcommand", ["channel", "teleport"])
    def test_gnuplot_without_a_stub_is_exit_2_before_any_work(self, tmp_path, subcommand):
        # these subcommands plot nothing, so the flag would be silently ignored
        out = tmp_path / "x"
        assert run([subcommand, "--gnuplot", "1", "--out", out]) == 2
        assert not out.exists()
        assert run([subcommand, "--gnuplot", "0", "--out", out]) == 0

    def test_weights_act_as_a_ray(self, tmp_path):
        # A = B = 1e-7 is the state of the defaults, and |A| = 1e200 squares
        # past float range; only the manifest's echo of the inputs differs
        assert run(["teleport", "--a-weight", "1e200", "--out", tmp_path / "big"]) == 0
        assert run(["teleport", "--out", tmp_path / "ones"]) == 0
        assert run(["teleport", "--a-weight", "1e-7", "--b-weight", "1e-7",
                    "--out", tmp_path / "small"]) == 0
        ones, small = (read_files(tmp_path / name) for name in ("ones", "small"))
        assert small["trials.csv"] == ones["trials.csv"]
        assert (json.loads(small["manifest.json"])["summary"]
                == json.loads(ones["manifest.json"])["summary"])

    @pytest.mark.parametrize("weights", [["1", "-1"], ["1e-7", "-1e-7"], ["1e200", "-1e200"]])
    def test_cancelling_weights_are_exit_3(self, tmp_path, weights, capsys):
        assert run(["teleport", "--a-weight", weights[0], f"--b-weight={weights[1]}",
                    "--gamma", "0", "--out", tmp_path / "x"]) == 3
        assert "weights cancel" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [("--b-weight", "-1e-7"), ("--beta", "-2j"),
                                             ("--b-w", "-1e-7"), ("--be", "-2j")])
    def test_signed_value_parses_as_with_equals(self, tmp_path, flag, value):
        # argparse takes '-1e-7' or '-2j' for a flag unless it is attached,
        # also after a unique prefix of the option's name
        assert run(["teleport", flag, value, "--trials", "50", "--out", tmp_path / "spaced"]) == 0
        assert run(["teleport", f"{flag}={value}", "--trials", "50",
                    "--out", tmp_path / "attached"]) == 0
        assert read_files(tmp_path / "spaced") == read_files(tmp_path / "attached")

    def test_ambiguous_prefix_before_a_signed_value_is_exit_2(self, tmp_path, capsys):
        # --b names --b-weight, --beta and --backend: argparse refuses it
        with pytest.raises(SystemExit) as info:
            run(["teleport", "--b", "-1e-7", "--out", tmp_path / "x"])
        assert info.value.code == 2
        assert "ambiguous option: --b" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_missing_value_before_a_flag_is_exit_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as info:
            run(["teleport", "--beta", "--seed", "3", "--out", tmp_path / "x"])
        assert info.value.code == 2
        assert "--beta: expected one argument" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("subcommand", ["channel", "teleport"])
    def test_subnormal_kappa_is_exit_3(self, tmp_path, subcommand, capsys):
        # pi / (2 kappa) overflows: refused before any phase is computed
        assert run([subcommand, "--kappa", "1e-320", "--e0", "1e-320",
                    "--out", tmp_path / "x"]) == 3
        assert "no finite quarter period" in capsys.readouterr().err

    @pytest.mark.parametrize("args, message", [
        (["teleport", "--backend", "homodyne"], "no finite quarter period pi / (2 omega)"),
        (["homodyne"], "no finite default t-max pi / omega"),
    ])
    def test_subnormal_omega_is_exit_3(self, tmp_path, args, message, capsys):
        # pi / (2 omega) and pi / omega overflow: refused, naming omega, before
        # any readout row or time grid is formed
        assert run([*args, "--omega", "1e-320", "--out", tmp_path / "x"]) == 3
        assert f"omega = 1e-320 has {message}" in capsys.readouterr().err
        assert not list((tmp_path / "x").iterdir())

    def test_subnormal_omega_with_a_finite_t_max_runs(self, tmp_path):
        assert run(["homodyne", "--omega", "1e-320", "--t-max", "1", "--out", tmp_path / "x"]) == 0

    @pytest.mark.parametrize("subcommand, message", [
        ("teleport", "teleportation needs kappa > 0"),
        ("parity-sweep", "parity collision needs kappa > 0"),
    ])
    def test_zero_kappa_is_exit_3_naming_kappa(self, tmp_path, subcommand, message, capsys):
        # lambda = kappa / 2 is derived only after kappa is checked
        assert run([subcommand, "--kappa", "0", "--out", tmp_path / "x"]) == 3
        assert message in capsys.readouterr().err
        assert not list((tmp_path / "x").iterdir())

    def test_negative_kappa_sweep_is_exit_2_naming_kappa(self, tmp_path, capsys):
        assert run(["parity-sweep", "--kappa", "-1", "--out", tmp_path / "x"]) == 2
        assert "kappa must be >= 0" in capsys.readouterr().err
        assert not list((tmp_path / "x").iterdir())

    def test_precondition_keeps_exit_3(self, tmp_path):
        assert run(["teleport", "--p-d", "1.5", "--out", tmp_path / "x"]) == 3

    @pytest.mark.parametrize("args", [
        ["teleport", "--backend", "homodyne", "--omega", "0"],
        ["homodyne", "--omega", "0"],
        ["homodyne", "--omega", "0", "--t-max", "1"],
    ])
    def test_zero_omega_is_exit_3_before_any_work(self, tmp_path, args, capsys):
        assert run(args + ["--out", tmp_path / "x"]) == 3
        assert "atom-counting readout needs omega > 0" in capsys.readouterr().err
        assert not list((tmp_path / "x").iterdir())

    @pytest.mark.parametrize("flag", ["--gamma", "--alpha"])
    def test_zero_amplitude_homodyne_teleport_is_exit_3(self, tmp_path, flag, capsys):
        # the reference magnitude defaults to |0| = 0: no sample value, no output
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run(["teleport", "--backend", "homodyne", flag, "0",
                        "--out", tmp_path / "x"]) == 3
        assert "reference magnitude 0" in capsys.readouterr().err
        assert not list((tmp_path / "x").iterdir())

    @pytest.mark.parametrize("args", [["--gamma", "0", "--reference-magnitude", "2"],
                                      ["--gamma", "0.5"]])
    def test_indistinguishable_homodyne_stage_is_exit_3(self, tmp_path, args, capsys):
        # refused as on the ideal backend: no branch histogram of a vacuum's phase
        assert run(["teleport", "--backend", "homodyne", *args, "--trials", "50",
                    "--out", tmp_path / "x"]) == 3
        assert "branches not distinguishable" in capsys.readouterr().err
        assert not list((tmp_path / "x").iterdir())

    def test_empty_homodyne_pair_is_exit_3(self, tmp_path, capsys):
        # vacuum signal and reference: S_x = (n_c - n_b) / 2N has N = 0
        assert run(["homodyne", "--gamma", "0", "--beta", "0", "--out", tmp_path / "x"]) == 3
        assert "empty pair" in capsys.readouterr().err

    def test_library_value_error_is_not_a_config_error(self, tmp_path, monkeypatch):
        def broken(config):
            raise ValueError("internal failure")

        monkeypatch.setattr("triwell.cli.run_protocol", broken)
        with pytest.raises(ValueError, match="internal failure"):
            run(["teleport", "--trials", "5", "--out", tmp_path / "x"])


# small grids, so every run of the sweep below is quick
SMALL = {
    "channel": [],
    "teleport": ["--trials", "20"],
    "parity-sweep": ["--points", "2", "--trials", "20", "--param-max", "0.5"],
    "efficiency-sweep": ["--r-points", "2", "--pd-points", "2"],
    "homodyne": ["--steps", "3"],
    "lattice-map": ["--theta-points", "3", "--zprime-points", "3"],
}
SWEEP = [(subcommand, [f"--{opt.name}={value}"])
         for subcommand, schema in SCHEMAS.items() for opt in schema + COMMON
         if opt.parse in (int, float, _parse_complex) for value in ("0", "-1")]
SWEEP.append(("homodyne", ["--gamma", "0", "--beta", "0"]))


@pytest.mark.parametrize("subcommand, args", SWEEP, ids=[" ".join([sub, *args]) for sub, args in SWEEP])
def test_zero_and_negative_values_exit_with_a_code(tmp_path, subcommand, args):
    # every numeric option at 0 and -1 ends in a documented exit code, never a traceback
    assert run([subcommand, *SMALL[subcommand], *args, "--out", tmp_path / "x"]) in (0, 2, 3, 4)


class TestFormats:
    def test_json_tables(self, tmp_path):
        out = tmp_path / "eff"
        assert run(["efficiency-sweep", "--r-points", "2", "--pd-points", "2",
                    "--format", "json", "--out", out]) == 0
        payload = json.loads((out / "efficiency.json").read_text())
        assert len(payload["rows"]) == 4
        assert {"r", "p_d", "p_even", "p_total"} <= set(payload["rows"][0])
