"""Group algebra elements as coefficient arrays: matrices, products, traces,
p-norms, Fourier multipliers, disjointness and seeded draws."""

import numpy as np
import pytest

from sepmult.classify import fourier_multiplier_map
from sepmult.groups import builtin_group, enumerate_characters
from sepmult.linalg import DimMismatch, frobenius, schatten_norm
from sepmult.vna import (
    ExhaustedRetries,
    coefficients,
    convolve,
    derive_seed,
    disjointness_defect,
    is_disjoint,
    random_disjoint_pair,
    random_projection_pair,
    regular_representation,
    symbol_from_json,
    symbol_to_json,
)

DISJOINT_TOL = 1e-10

E11 = np.array([[1.0, 0.0], [0.0, 0.0]])
E12 = np.array([[0.0, 1.0], [0.0, 0.0]])
E22 = np.array([[0.0, 0.0], [0.0, 1.0]])


def _random_coeffs(g, rng):
    return rng.standard_normal(g.order) + 1j * rng.standard_normal(g.order)


def _basis(g, s):
    """The coefficients of lambda(s)."""
    coeffs = np.zeros(g.order, dtype=np.complex128)
    coeffs[s] = 1.0
    return coeffs


def _adjoint(g, x):
    """The coefficients of the adjoint: x*(s) = conj(x(s^-1))."""
    return np.conj(x[..., g.inv])


def _norm(g, x, p):
    """The noncommutative p-norm with the normalized trace weight 1/|G|."""
    return schatten_norm(x[g.rebuild_grid], p, 1.0 / g.order)


# ---------------------------------------------------------------------------
# regular representation


def test_lambda_identity_is_eye():
    g = builtin_group("symmetric(3)")
    np.testing.assert_allclose(regular_representation(g, g.identity), np.eye(6))


def test_lambda_swap_on_two_elements():
    g = builtin_group("cyclic(2)")
    np.testing.assert_allclose(regular_representation(g, 1),
                               np.array([[0.0, 1.0], [1.0, 0.0]]))


def test_lambda_offdiagonal_for_nonidentity():
    g = builtin_group("dihedral(3)")
    for s in range(1, g.order):
        mat = regular_representation(g, s)
        assert np.all(np.diag(mat) == 0)
        np.testing.assert_allclose(mat.sum(axis=0), np.ones(g.order))


def test_lambda_is_a_representation():
    g = builtin_group("quaternion8")
    for s in (0, 2, 5):
        for t in (1, 4, 7):
            left = regular_representation(g, s) @ regular_representation(g, t)
            np.testing.assert_allclose(
                left, regular_representation(g, g.multiply(s, t)))
    for s in range(g.order):
        np.testing.assert_allclose(
            regular_representation(g, s).conj().T,
            regular_representation(g, g.inverse(s)))


def test_element_matrix_matches_sum_of_translations():
    g = builtin_group("dihedral(3)")
    rng = np.random.default_rng(5)
    x = _random_coeffs(g, rng)
    direct = sum(x[s] * regular_representation(g, s) for s in range(g.order))
    np.testing.assert_allclose(x[g.rebuild_grid], direct, atol=1e-12)


# ---------------------------------------------------------------------------
# products, adjoints and coefficients


def test_convolution_matches_matrix_product():
    g = builtin_group("symmetric(3)")
    rng = np.random.default_rng(6)
    x = _random_coeffs(g, rng)
    y = _random_coeffs(g, rng)
    np.testing.assert_allclose(convolve(g, x, y)[g.rebuild_grid],
                               x[g.rebuild_grid] @ y[g.rebuild_grid], atol=1e-12)


def test_adjoint_matches_conjugate_transpose():
    g = builtin_group("quaternion8")
    x = _random_coeffs(g, np.random.default_rng(7))
    np.testing.assert_allclose(_adjoint(g, x)[g.rebuild_grid],
                               x[g.rebuild_grid].conj().T, atol=1e-12)
    y = _random_coeffs(g, np.random.default_rng(8))
    np.testing.assert_allclose(_adjoint(g, convolve(g, x, y)),
                               convolve(g, _adjoint(g, y), _adjoint(g, x)), atol=1e-12)


def test_unit_is_the_convolution_identity():
    g = builtin_group("cyclic(4)")
    x = _random_coeffs(g, np.random.default_rng(9))
    unit = _basis(g, g.identity)
    np.testing.assert_allclose(convolve(g, unit, x), x, atol=1e-12)
    np.testing.assert_allclose(convolve(g, x, unit), x, atol=1e-12)


def test_coefficients_round_trip():
    g = builtin_group("dihedral(4)")
    x = _random_coeffs(g, np.random.default_rng(10))
    np.testing.assert_allclose(coefficients(g, x[g.rebuild_grid]), x, atol=1e-12)


def test_coefficients_project_outsiders():
    g = builtin_group("cyclic(2)")
    np.testing.assert_allclose(coefficients(g, E11), [0.5, 0.0])


# ---------------------------------------------------------------------------
# trace and norms


def test_trace_reads_identity_coefficient():
    g = builtin_group("symmetric(3)")

    def trace(x):
        return np.trace(x[g.rebuild_grid]) / g.order

    assert trace(_basis(g, g.identity)) == 1.0
    for s in range(1, g.order):
        assert trace(_basis(g, s)) == 0.0
    x = _random_coeffs(g, np.random.default_rng(11))
    assert trace(x) == pytest.approx(x[g.identity], rel=1e-12)


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
def test_translations_have_unit_norm(p):
    g = builtin_group("dihedral(3)")
    assert _norm(g, _basis(g, g.identity), p) == pytest.approx(1.0)
    for s in (1, 3, 5):
        assert _norm(g, _basis(g, s), p) == pytest.approx(1.0)


def test_two_norm_frozen_sum_of_translations():
    g = builtin_group("cyclic(2)")
    assert _norm(g, np.array([1.0, 1.0]), 2.0) == pytest.approx(np.sqrt(2.0))


def test_plancherel_isometry():
    g = builtin_group("quaternion8")
    for seed in range(6):
        x = _random_coeffs(g, np.random.default_rng(seed))
        assert _norm(g, x, 2.0) == pytest.approx(float(np.linalg.norm(x)), rel=1e-11)


# ---------------------------------------------------------------------------
# Fourier multipliers


def _fourier(g, phi):
    """The Fourier multiplier with symbol phi as a map of coefficients; each
    image must lie in the algebra."""
    t = fourier_multiplier_map(g, phi)

    def apply(x):
        image = t.apply(x[g.rebuild_grid])
        out = coefficients(g, image)
        assert frobenius(out[g.rebuild_grid] - image) <= 1e-8 * max(frobenius(image), 1e-300)
        return out

    return apply


def test_identity_symbol_acts_trivially():
    g = builtin_group("dihedral(3)")
    t = _fourier(g, np.ones(g.order))
    x = _random_coeffs(g, np.random.default_rng(12))
    np.testing.assert_allclose(t(x), x)


def test_multiplier_scales_translations():
    g = builtin_group("cyclic(4)")
    phi = np.array([1.0, 2.0, 3.0, 4.0])
    t = _fourier(g, phi)
    for s in range(4):
        np.testing.assert_allclose(t(_basis(g, s)), phi[s] * _basis(g, s))


def test_multipliers_commute_and_compose():
    g = builtin_group("symmetric(3)")
    rng = np.random.default_rng(13)
    phi = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    psi = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    x = _random_coeffs(g, rng)
    a = _fourier(g, phi)(_fourier(g, psi)(x))
    b = _fourier(g, psi)(_fourier(g, phi)(x))
    c = _fourier(g, phi * psi)(x)
    np.testing.assert_allclose(a, b)
    np.testing.assert_allclose(a, c)


def test_multiplier_two_norm_is_sup_of_symbol():
    g = builtin_group("dihedral(4)")
    rng = np.random.default_rng(14)
    phi = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    t = _fourier(g, phi)
    peak = float(np.max(np.abs(phi)))
    for seed in range(5):
        x = _random_coeffs(g, np.random.default_rng(seed))
        assert _norm(g, t(x), 2.0) <= peak * _norm(g, x, 2.0) * (1 + 1e-12)
    witness = _basis(g, int(np.argmax(np.abs(phi))))
    assert _norm(g, t(witness), 2.0) == pytest.approx(peak, rel=1e-12)


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, 4.0])
def test_character_multiplier_is_isometric(p):
    g = builtin_group("quaternion8")
    for psi in enumerate_characters(g)[1:3]:
        t = _fourier(g, psi.values)
        for seed in range(3):
            x = _random_coeffs(g, np.random.default_rng(seed))
            assert _norm(g, t(x), p) == pytest.approx(_norm(g, x, p), rel=1e-9)


def test_multiplier_group_mismatch():
    # an element of a group of another order is refused by shape
    t = fourier_multiplier_map(builtin_group("cyclic(3)"), np.ones(3))
    with pytest.raises(ValueError):
        t.apply(np.eye(4))


def test_multiplier_symbol_validation():
    g = builtin_group("cyclic(3)")
    with pytest.raises(ValueError):
        fourier_multiplier_map(g, np.ones(2))
    with pytest.raises(ValueError):
        fourier_multiplier_map(g, np.array([np.nan, 0.0, 0.0]))


# ---------------------------------------------------------------------------
# disjointness


def test_disjointness_on_matrix_units():
    assert is_disjoint(E11, E22)
    assert not is_disjoint(E11, E12)
    assert disjointness_defect(E11, np.zeros((2, 2))) == 0.0


def test_disjointness_shape_check():
    with pytest.raises(DimMismatch):
        disjointness_defect(np.eye(2), np.eye(3))


def test_disjointness_defect_is_scale_free():
    rng = np.random.default_rng(15)
    a = rng.standard_normal((3, 3))
    b = rng.standard_normal((3, 3))
    assert disjointness_defect(5 * a, 0.1 * b) == pytest.approx(
        disjointness_defect(a, b), rel=1e-12)


@pytest.mark.parametrize("scale", [1e-170, 1e170])
def test_disjointness_defect_at_extreme_scales(scale):
    ones = np.ones((2, 2))
    assert disjointness_defect(scale * E11, scale * ones) == pytest.approx(
        1.0 / np.sqrt(2.0), rel=1e-12)
    assert disjointness_defect(scale * E11, ones / scale) == pytest.approx(
        1.0 / np.sqrt(2.0), rel=1e-12)
    assert not is_disjoint(scale * E11, scale * ones)
    assert is_disjoint(scale * E11, scale * E22)


def test_projection_pair_two_elements_closed_form():
    g = builtin_group("cyclic(2)")
    for seed in (0, 1, 7):
        p, q = random_projection_pair(g, seed)
        got = {tuple(np.round(p, 9)), tuple(np.round(q, 9))}
        assert got == {(0.5 + 0j, 0.5 + 0j), (0.5 + 0j, -0.5 + 0j)}


def test_projection_pair_properties():
    g = builtin_group("symmetric(3)")
    grid = g.rebuild_grid
    unit = _basis(g, g.identity)
    for seed in range(40):
        p, q = random_projection_pair(g, seed)
        assert frobenius(convolve(g, p, p)[grid] - p[grid]) < 1e-8
        assert frobenius(_adjoint(g, p)[grid] - p[grid]) < 1e-8
        assert frobenius(convolve(g, p, q)[grid]) < 1e-8
        np.testing.assert_allclose(p + q, unit, atol=1e-10)


def test_projection_pair_trivial_group():
    g = builtin_group("cyclic(1)")
    p, q = random_projection_pair(g, 3)
    assert {complex(p[0]), complex(q[0])} == {0j, 1 + 0j}


def test_projection_pair_deterministic_in_seed():
    g = builtin_group("dihedral(3)")
    p1, _ = random_projection_pair(g, 42)
    p2, _ = random_projection_pair(g, 42)
    np.testing.assert_allclose(p1, p2)


@pytest.mark.parametrize("name", ["symmetric(3)", "cyclic(6)"])
def test_disjoint_pairs_are_disjoint(name):
    g = builtin_group(name)
    for seed in range(100):
        a, b = random_disjoint_pair(g, seed)
        assert is_disjoint(a, b, DISJOINT_TOL)
        for leg in (a, b):
            assert np.linalg.norm(leg) > 0
            # the legs are matrices of algebra elements
            np.testing.assert_allclose(coefficients(g, leg)[g.rebuild_grid], leg,
                                       atol=1e-12)


def test_disjoint_pair_trivial_group_raises():
    with pytest.raises(ExhaustedRetries):
        random_disjoint_pair(builtin_group("cyclic(1)"), 0)


def test_derive_seed_is_deterministic_and_spreads():
    assert derive_seed(1, 2) == derive_seed(1, 2)
    assert derive_seed(1, 2) != derive_seed(2, 1)
    children = {derive_seed(0, k) for k in range(64)}
    assert len(children) == 64


# ---------------------------------------------------------------------------
# serialization


def test_symbol_json_round_trip():
    phi = np.array([1.0 + 2j, -0.5, 0.25j])
    back = symbol_from_json(symbol_to_json(phi))
    np.testing.assert_allclose(back, phi)


def test_symbol_json_expected_length():
    with pytest.raises(ValueError):
        symbol_from_json([[1.0, 0.0]], expected_len=2)


@pytest.mark.parametrize("bad", ["x", [[1.0]], [[1.0, 2.0, 3.0]], {"a": 1}])
def test_symbol_json_rejects_malformed(bad):
    with pytest.raises(ValueError):
        symbol_from_json(bad)
