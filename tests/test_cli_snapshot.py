"""The --compare mode of tests/cli_snapshot.py on two tiny snapshot directories."""

import json

from cli_snapshot import compare

CSV_HEAD = "# trials\ntrial,branch,fidelity\n"


def write(root, files):
    for name, text in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)


def snapshot_pair(tmp_path, changed):
    base = {
        "run/exit_code": "0\n",
        "run/trials.csv": CSV_HEAD + "0,2,0.9999999718850757\n1,0,0.5\n",
        "run/manifest.json": json.dumps({"summary": {"mean_fidelity": 0.75, "trials": 2},
                                         "rows": [{"fidelity": 0.25}, {"fidelity": 0.5}]}),
    }
    write(tmp_path / "a", base)
    write(tmp_path / "b", {**base, **changed})
    return compare(tmp_path / "a", tmp_path / "b")


def test_identical_directories(tmp_path):
    lines, beyond = snapshot_pair(tmp_path, {})
    assert lines == ["3 of 3 files identical, 0 differ"]
    assert not beyond


def test_float_digits_report_the_largest_move_per_column(tmp_path):
    lines, beyond = snapshot_pair(tmp_path, {
        "run/trials.csv": CSV_HEAD + "0,2,0.9999999718850759\n1,0,0.5000000000000004\n",
        "run/manifest.json": json.dumps({"summary": {"mean_fidelity": 0.7500000000000002,
                                                     "trials": 2},
                                         "rows": [{"fidelity": 0.25}, {"fidelity": 0.5 + 1e-15}]}),
    })
    assert not beyond
    assert lines == [
        "run/manifest.json: float digits only; max |diff| rows[].fidelity 1e-15, "
        "summary.mean_fidelity 2.2e-16",
        "run/trials.csv: float digits only; max |diff| fidelity 4.4e-16",
        "1 of 3 files identical, 2 differ",
    ]


def test_changes_beyond_float_digits(tmp_path):
    lines, beyond = snapshot_pair(tmp_path, {
        "run/exit_code": "4\n",
        "run/trials.csv": CSV_HEAD + "0,3,0.9999999718850757\n1,0,0.5\n",  # an integer
        "run/manifest.json": json.dumps({"summary": {"mean_fidelity": 0.75, "trials": 3},
                                         "rows": [{"fidelity": 0.25}, {"fidelity": 0.5}]}),
        "run/extra.csv": CSV_HEAD,
    })
    assert beyond
    assert lines == [
        "run/exit_code: differs beyond float digits: text '0\\n' -> '4\\n'",
        f"run/extra.csv: differs beyond float digits: only in {tmp_path / 'b'}",
        "run/manifest.json: differs beyond float digits: summary.trials '2' -> '3'",
        "run/trials.csv: differs beyond float digits: branch '2' -> '3'",
        "0 of 4 files identical, 4 differ",
    ]


def test_a_changed_row_count_is_beyond_float_digits(tmp_path):
    lines, beyond = snapshot_pair(tmp_path, {"run/trials.csv": CSV_HEAD + "0,2,0.5\n"})
    assert beyond
    assert lines[0] == "run/trials.csv: differs beyond float digits: another number of entries"
