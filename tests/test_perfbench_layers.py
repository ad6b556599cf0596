"""Every name the benchmark's tracer wraps must exist in rislab.

``perfbench/tracing.py`` lists the traced functions in ``LAYERS``; a layer
whose function was renamed or deleted would otherwise only fail the
benchmark's own smoke test.
"""

import importlib
import runpy
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
LAYERS = runpy.run_path(str(TRACING))["LAYERS"]


@pytest.mark.parametrize("module,attribute,span", LAYERS, ids=[layer[1] for layer in LAYERS])
def test_layer_resolves(module, attribute, span):
    owner = importlib.import_module(f"rislab.{module}")
    for part in attribute.split("."):
        owner = getattr(owner, part)
    assert callable(owner), span
