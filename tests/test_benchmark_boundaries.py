"""The benchmark's runs use triwell names and results that must keep existing.

``perfbench/tracing.py`` wraps each entry of ``EXTRA_BOUNDARIES`` by module,
class and attribute name; a missing one breaks every traced run. The teleport
worker reads each run's ``records`` into ``checks.add_trial``. The harness
files are loaded read-only from the checkout, without importing the harness
package.
"""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from triwell import run_protocol

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SRC = PERFBENCH.parent / "src"


def load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def extra_boundaries():
    return load("tracing").EXTRA_BOUNDARIES


@pytest.mark.parametrize("module_name, cls, attr, span", extra_boundaries())
def test_boundary_resolves(module_name, cls, attr, span):
    owner = importlib.import_module(module_name)
    if cls is not None:
        owner = getattr(owner, cls)
    assert callable(getattr(owner, attr)), span


def test_cli_import_loads_every_boundary_module():
    # ``Tracer.install`` reads each EXTRA_BOUNDARIES module from sys.modules
    # right after the traced process imports triwell.cli, so the CLI must
    # import them all up front; a module loaded later fails every traced run
    modules = sorted({module_name for module_name, *_ in extra_boundaries()})
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    script = "import sys, triwell.cli; print(' '.join(sorted(sys.modules)))"
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    loaded = set(done.stdout.split())
    assert [name for name in modules if name not in loaded] == []


def test_worker_reads_records_into_the_teleport_checks(monkeypatch):
    reference = load("reference")
    monkeypatch.setitem(sys.modules, "reference", reference)  # checks.py imports it by name
    checks, worker = load("checks"), load("worker")
    result = run_protocol(worker.teleport_config("ideal", 26, 50, 7))
    stats = checks.new_stats()
    for rec in result.records:
        checks.add_trial(stats, rec.outcome.branch, rec.corrected, rec.fidelity)
    assert stats["trials"] == 50
    assert stats["branch"] == result.summary["branch_histogram"]
    assert checks.check_teleport(
        stats, 0.6, 0.8, 2j, reference.p_even("coherent", 2.0), 0.7,
        reference.branch_overlap(2.0, 2.0, 2j)) == []
