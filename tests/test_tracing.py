"""The traced-run harness wraps sepmult functions by name; every name it
lists must exist, or ``--trace 1`` runs fail on lookup.  Its map hook reads
``images`` on each map it sees, so that must work on every map builder's
result."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from sepmult.classify import (
    fourier_multiplier_map,
    schur_multiplier_map,
    transpose_map,
    yeadon_extract,
)
from sepmult.groups import builtin_group

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


def _triple():
    return yeadon_extract(schur_multiplier_map(np.outer([1.0, 1j, -1.0], [1j, 1.0, 1.0])))


MAP_BUILDERS = {
    "fourier": lambda: fourier_multiplier_map(builtin_group("dihedral(3)"), np.arange(6.0)),
    "schur": lambda: schur_multiplier_map(np.arange(9.0).reshape(3, 3)),
    "transpose": lambda: transpose_map(3),
    "jmap": lambda: _triple().jmap,
    "reconstruct_map": lambda: _triple().reconstruct_map(),
    "transpose jmap": lambda: yeadon_extract(transpose_map(3)).jmap,
    "transpose reconstruct_map": lambda: yeadon_extract(transpose_map(3)).reconstruct_map(),
}


@pytest.mark.parametrize("builder", sorted(MAP_BUILDERS))
def test_images_work_on_every_map_builder(builder):
    tmap = MAP_BUILDERS[builder]()
    images = tmap.images
    n = tmap.matrix_dim
    assert images.shape == (tmap.algebra_dim, n, n) and images.dtype == np.complex128
    for k, element in enumerate(tmap.basis()):
        np.testing.assert_array_equal(images[k], tmap.apply(element))
