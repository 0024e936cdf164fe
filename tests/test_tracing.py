"""The traced-run harness wraps sepmult functions by name; every name it
lists must exist, or ``--trace 1`` runs fail on lookup."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _traced():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


@pytest.mark.parametrize("module_name, func_name, mode", _traced())
def test_traced_function_exists(module_name, func_name, mode):
    module = importlib.import_module("sepmult." + module_name)
    assert callable(getattr(module, func_name, None))
    assert mode in ("span", "count")
