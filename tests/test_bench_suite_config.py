"""The benchmark's suite workload writes its own config (``Suite.setup`` in
perfbench/workloads.py) and expects a fixed set of cells.  This test runs
that config through the suite, so that a config key the suite no longer
takes, or a renamed cell, fails here rather than in a benchmark run."""

import importlib.util
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from sepmult import verify
from sepmult.verify import config_from_json, run_suite

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def suite_workload():
    saved_modules = set(sys.modules)
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec = importlib.util.spec_from_file_location(
            "perfbench_workloads", PERFBENCH / "workloads.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(PERFBENCH))
        if "checks" not in saved_modules:
            sys.modules.pop("checks", None)
    return module.Suite


def test_benchmark_suite_config_runs_and_passes_the_expected_cells(suite_workload):
    # the config as Suite.setup writes it, for seed 1
    config = config_from_json({"groups": list(suite_workload.GROUPS),
                               "matrix_dims": list(suite_workload.DIMS), "seed": 1})
    report = run_suite(config)
    assert [cell["name"] for cell in report["cells"]] == suite_workload(1).expected
    assert [cell["name"] for cell in report["cells"] if not cell["passed"]] == []


def test_benchmark_suite_checks_its_samples_in_stacks(suite_workload, monkeypatch):
    # a count of LAPACK calls, not a timing: the norm cells check each
    # size's samples with one decomposition of each kind, so a return to
    # one call per matrix and exponent (911 calls in all, 640 of them in
    # linalg/invariants) fails here on any machine
    calls = Counter()
    running = [None]
    for name in ("svd", "eigh"):
        def counted(*args, _lapack=getattr(np.linalg, name), **kwargs):
            calls[running[0]] += 1
            return _lapack(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    run_cell = verify._run_cell

    def named_run_cell(results, cell_name, *args):
        running[0] = cell_name
        return run_cell(results, cell_name, *args)

    monkeypatch.setattr(verify, "_run_cell", named_run_cell)
    config = config_from_json({"groups": list(suite_workload.GROUPS),
                               "matrix_dims": list(suite_workload.DIMS), "seed": 36})
    assert verify.report_passed(run_suite(config))
    assert calls["linalg/invariants"] <= 120
    assert sum(calls.values()) <= 300
