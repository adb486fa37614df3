"""Import guard: no triwell code path loads any ``scipy`` module.

scipy is a test-only dependency. Importing ``scipy.linalg`` costs ~0.3 s and
~20 MB in every fresh process, and even the top-level ``scipy`` import costs
~15 ms. The pytest process has scipy loaded by other tests, so the check
runs in a fresh interpreter: import the CLI, draw displaced branches,
evaluate the linearization diagnostic (``oracles``, on the package's
quadrature eigensystem), factor a three-mode state into a Bell measurement
and draw from it, run one CLI subcommand, then inspect ``sys.modules``.
"""

import os
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"

SCRIPT = """
import sys

import triwell.cli
from triwell import (CoherentSpec, CrossSpeciesParams, FockCutoff, JosephsonParams,
                     KerrParams, ProtocolConfig, SuperpositionSpec, build_protocol_state,
                     run_protocol, substream)
from triwell.protocol import BellMeasurement
from oracles import displacement_linearization_error

config = ProtocolConfig(
    target=SuperpositionSpec(1.0, 1.0, 2.0), alpha=CoherentSpec(2.0),
    beta=CoherentSpec(2j), kerr=KerrParams(1.0, 1.0),
    josephson=JosephsonParams(1000.0), cross_species=CrossSpeciesParams(0.5),
    cutoff=FockCutoff(26), p_d=1.0, trials=200, seed=0,
)
records = run_protocol(config).records
assert any("displacement" in rec.corrections_applied for rec in records)
displacement_linearization_error(0.3, FockCutoff(26))
BellMeasurement(build_protocol_state(config), config).draw(substream(0).random((1, 4)))
assert triwell.cli.main(["teleport", "--trials", "50", "--out", sys.argv[1]]) == 0
loaded = sorted(name for name in sys.modules if name == "scipy" or name.startswith("scipy."))
assert not loaded, loaded
"""


def test_no_code_path_loads_scipy(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), str(TESTS), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", SCRIPT, str(tmp_path / "out")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
