"""The benchmark's traced runs patch triwell names that must keep existing.

``perfbench/tracing.py`` wraps each entry of ``EXTRA_BOUNDARIES`` by module,
class and attribute name; a missing one breaks every traced run. The file is
loaded read-only from the checkout, without importing the harness package.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def extra_boundaries():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.EXTRA_BOUNDARIES


@pytest.mark.parametrize("module_name, cls, attr, span", extra_boundaries())
def test_boundary_resolves(module_name, cls, attr, span):
    owner = importlib.import_module(module_name)
    if cls is not None:
        owner = getattr(owner, cls)
    assert callable(getattr(owner, attr)), span
