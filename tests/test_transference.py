"""Fourier-Schur transference: a Fourier multiplier is the Schur multiplier
with the symbol [phi(u t^-1)], restricted to the group algebra."""

import numpy as np
import pytest

from sepmult.classify import fourier_multiplier_map, schur_multiplier_map
from sepmult.groups import builtin_group
from sepmult.vna import regular_representation

TRANSFERENCE_GROUPS = ("cyclic(3)", "symmetric(3)", "quaternion8", "dihedral(4)",
                       "symmetric(4)")


def _random_symbol(rng, n):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


@pytest.mark.parametrize("label", TRANSFERENCE_GROUPS)
def test_fourier_images_are_scaled_translations(label):
    g = builtin_group(label)
    phi = _random_symbol(np.random.default_rng(len(label)), g.order)
    images = fourier_multiplier_map(g, phi).images
    assert images.shape == (g.order, g.order, g.order)
    for s in range(g.order):
        np.testing.assert_array_equal(images[s], phi[s] * regular_representation(g, s))


@pytest.mark.parametrize("label", TRANSFERENCE_GROUPS)
def test_fourier_apply_is_the_coefficient_action(label):
    g = builtin_group(label)
    rng = np.random.default_rng(7)
    phi = _random_symbol(rng, g.order)
    t = fourier_multiplier_map(g, phi)
    for _ in range(4):
        f = _random_symbol(rng, g.order)
        expected = (phi * f)[g.rebuild_grid]
        out = t.apply(f[g.rebuild_grid])
        assert np.linalg.norm(out - expected) <= 1e-15 * np.linalg.norm(expected)


@pytest.mark.parametrize("n", [1, 2, 5])
def test_schur_images_are_scaled_units(n):
    m = _random_symbol(np.random.default_rng(n), n * n).reshape(n, n)
    t = schur_multiplier_map(m)
    units = t.basis()
    for k in range(n * n):
        np.testing.assert_array_equal(t.images[k], m.reshape(-1)[k] * units[k])
