"""The traced benchmark run counts the pairs each witness search examined by
parsing the verdict's witness label (``_pairs_hook`` in perfbench/run.py),
and records the largest basis-image stack of the maps built
(``_map_hook``).  These tests feed the hooks real verdicts and maps, so a
change of the labels or of the map representation that the hooks do not
follow fails here rather than in a traced run."""

import importlib.util
import os
import sys
from pathlib import Path

import numpy as np
import pytest

from sepmult.classify import (
    fourier_multiplier_map,
    schur_multiplier_map,
    separating_test,
    transpose_map,
)
from sepmult.groups import builtin_group

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

#: the BLAS thread variables run.py sets when it is imported
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
ENV_BEFORE = {var: os.environ.get(var) for var in BLAS_VARS}


@pytest.fixture(scope="module")
def run_module():
    saved_env = {var: os.environ.get(var) for var in BLAS_VARS}
    saved_modules = set(sys.modules)
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(PERFBENCH))
        for name in ("spans", "workloads", "checks"):
            if name not in saved_modules:
                sys.modules.pop(name, None)
        for var, value in saved_env.items():
            if value is None:
                os.environ.pop(var, None)
            else:
                os.environ[var] = value
    return module


def _counts(run_module, tmap, trials):
    recorder = run_module.new_recorder()
    verdict = separating_test(tmap, trials=trials, seed=0)
    run_module._pairs_hook(recorder, (tmap,), verdict)
    return (recorder.values[("setup", "classify.pairs_examined")],
            recorder.values[("setup", "classify.trial_lookups")])


def _dihedral4(**values):
    g = builtin_group("dihedral(4)")   # involutions r2, sr0, sr1, sr2, sr3
    phi = np.ones(g.order, dtype=np.complex128)
    for name, value in values.items():
        phi[g.names.index(name)] = value
    return fourier_multiplier_map(g, phi)


def test_group_probe_witness(run_module):
    # the fourth involution probe, lambda(e) +- lambda(sr2), is the witness
    assert _counts(run_module, _dihedral4(sr2=1j), 5) == (4, 0)


def test_matrix_probe_witness(run_module):
    m = np.ones((4, 4), dtype=np.complex128)
    m[1, 3] = 1j   # the fifth index pair (1, 3) of M_4 is the witness
    assert _counts(run_module, schur_multiplier_map(m), 5) == (5, 0)


def test_trial_witness(run_module):
    # a sign flip on one involution passes every probe; trial 0 refutes it
    assert _counts(run_module, _dihedral4(sr2=-1.0), 5) == (5 + 1, 1)


def test_separating_verdict_counts_every_pair(run_module):
    assert _counts(run_module, _dihedral4(), 7) == (5 + 7, 7)
    assert _counts(run_module, schur_multiplier_map(np.ones((3, 3))), 7) == (3 + 7, 7)


@pytest.mark.parametrize("build", [
    lambda: _dihedral4(sr2=1j),
    lambda: schur_multiplier_map(np.arange(16.0).reshape(4, 4)),
    lambda: transpose_map(4),
], ids=["fourier", "schur", "transpose"])
def test_map_hook_records_the_basis_image_bytes(run_module, build):
    tmap = build()
    recorder = run_module.new_recorder()
    run_module._map_hook(recorder, (), tmap)
    assert recorder.maxima["classify.map_bytes_max"] == tmap.images.nbytes > 0


def test_environment_restored(run_module):
    assert {var: os.environ.get(var) for var in BLAS_VARS} == ENV_BEFORE
