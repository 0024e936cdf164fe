"""Entrywise multipliers: factorization certificates, Herz-Schur transfer."""

import numpy as np
import pytest

from sepmult.classify import schur_multiplier_map, transpose_map
from sepmult.groups import builtin_group, enumerate_characters
from sepmult.linalg import schatten_norm
from sepmult.schur import (
    RankOneCertificate,
    herz_schur_symbol,
    rank_one_unimodular_factor,
    recover_character,
)
from sepmult.verify import _moved_units
from sepmult.vna import is_disjoint


RECON_TOL = 1e-10


def _unit(n, i, j):
    x = np.zeros((n, n), dtype=np.complex128)
    x[i, j] = 1.0
    return x


def _random_unimodular(rng, n):
    return np.exp(2j * np.pi * rng.random(n))


def _schur(m, x):
    return schur_multiplier_map(m).apply(x)


# ---------------------------------------------------------------------------
# entrywise action


def test_apply_all_ones_is_identity():
    x = np.arange(9.0).reshape(3, 3) + 1j
    np.testing.assert_allclose(_schur(np.ones((3, 3)), x), x)


def test_apply_is_entrywise():
    m = np.array([[1.0, 2.0], [3.0, 4.0]])
    x = np.array([[5.0, 6.0], [7.0, 8.0]])
    np.testing.assert_allclose(_schur(m, x),
                               [[5.0, 12.0], [21.0, 32.0]])


def test_apply_shape_check():
    with pytest.raises(ValueError):
        _schur(np.ones((2, 2)), np.ones((3, 3)))


def test_two_norm_of_multiplier_is_entry_sup():
    rng = np.random.default_rng(0)
    m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    peak = float(np.max(np.abs(m)))
    for seed in range(4):
        x = np.random.default_rng(seed).standard_normal((3, 3))
        assert schatten_norm(_schur(m, x), 2.0, 1.0) <= \
            peak * schatten_norm(x, 2.0, 1.0) * (1 + 1e-12)
    i, j = np.unravel_index(np.argmax(np.abs(m)), m.shape)
    hit = _unit(3, i, j)
    assert schatten_norm(_schur(m, hit), 2.0, 1.0) == pytest.approx(peak)


# ---------------------------------------------------------------------------
# rank-one unimodular factorization


def test_factor_frozen_two_by_two():
    m = np.array([[2j, 2.0], [-2j, -2.0]])
    cert = rank_one_unimodular_factor(m)
    assert cert is not None
    assert cert.c == pytest.approx(2j)
    np.testing.assert_allclose(cert.alpha, [1.0, -1.0], atol=1e-12)
    np.testing.assert_allclose(cert.beta, [1.0, -1j], atol=1e-12)
    np.testing.assert_allclose(cert.reconstruct(), m, atol=1e-12)


def test_factor_rejects_hadamard():
    assert rank_one_unimodular_factor(
        np.array([[1.0, 1.0], [1.0, -1.0]])) is None


def test_factor_rejects_modulus_spread():
    assert rank_one_unimodular_factor(
        np.array([[1.0, 2.0], [1.0, 1.0]])) is None


def test_factor_zero_symbol():
    cert = rank_one_unimodular_factor(np.zeros((3, 3)))
    assert cert.c == 0
    np.testing.assert_allclose(cert.alpha, np.ones(3))
    np.testing.assert_allclose(cert.beta, np.ones(3))


def test_factor_round_trip_reconstruction():
    rng = np.random.default_rng(1)
    for n in (2, 4, 7):
        alpha = _random_unimodular(rng, n)
        beta = _random_unimodular(rng, n)
        c = complex(rng.standard_normal() + 1j * rng.standard_normal())
        m = c * np.outer(alpha, beta)
        cert = rank_one_unimodular_factor(m)
        assert cert is not None
        # the gauge may differ, so compare reconstructions, not components
        np.testing.assert_allclose(cert.reconstruct(), m, atol=RECON_TOL)
        np.testing.assert_allclose(np.abs(cert.alpha), np.ones(n), atol=1e-12)
        np.testing.assert_allclose(np.abs(cert.beta), np.ones(n), atol=1e-12)
        assert abs(cert.c) == pytest.approx(abs(c))


def test_factor_gauge_normalization():
    rng = np.random.default_rng(2)
    m = 3.0 * np.outer(_random_unimodular(rng, 3), _random_unimodular(rng, 3))
    cert = rank_one_unimodular_factor(m)
    assert cert.alpha[0] == 1.0
    assert cert.c == pytest.approx(complex(m[0, 0]))


def test_factor_tolerance_window():
    rng = np.random.default_rng(3)
    m = np.outer(_random_unimodular(rng, 3), _random_unimodular(rng, 3))
    bumped = m + 1e-6
    assert rank_one_unimodular_factor(bumped, tol=1e-9) is None
    cert = rank_one_unimodular_factor(bumped, tol=1e-4)
    assert cert is not None
    np.testing.assert_allclose(cert.reconstruct(), bumped, atol=1e-4)


# ---------------------------------------------------------------------------
# Herz-Schur symbols


def test_herz_schur_identity_indicator():
    g = builtin_group("symmetric(3)")
    phi = np.zeros(6)
    phi[g.identity] = 1.0
    np.testing.assert_allclose(herz_schur_symbol(g, phi), np.eye(6))


def test_herz_schur_circulant_on_cyclic3():
    g = builtin_group("cyclic(3)")
    m = herz_schur_symbol(g, [10.0, 20.0, 30.0])
    np.testing.assert_allclose(m, [[10.0, 20.0, 30.0],
                                   [30.0, 10.0, 20.0],
                                   [20.0, 30.0, 10.0]])


def test_herz_schur_of_character_factors():
    g = builtin_group("quaternion8")
    psi = enumerate_characters(g)[2]
    m = herz_schur_symbol(g, psi.values)
    np.testing.assert_allclose(m, np.outer(np.conj(psi.values), psi.values),
                               atol=1e-12)
    assert rank_one_unimodular_factor(m) is not None


def test_herz_schur_length_check():
    with pytest.raises(ValueError):
        herz_schur_symbol(builtin_group("cyclic(3)"), [1.0, 2.0])


# ---------------------------------------------------------------------------
# character recovery


def test_recover_scaled_sign_on_symmetric3():
    g = builtin_group("symmetric(3)")
    sign = next(psi for psi in enumerate_characters(g)
                if abs(psi.values.sum()) < 1e-9)
    m = herz_schur_symbol(g, 3.0 * sign.values)
    cert = rank_one_unimodular_factor(m)
    got = recover_character(g, cert)
    assert got is not None
    c_prime, psi = got
    assert c_prime == pytest.approx(3.0)
    np.testing.assert_allclose(psi.values, sign.values, atol=1e-12)


def test_recover_complex_scale_round_trip():
    g = builtin_group("cyclic(4)")
    target = enumerate_characters(g)[1]
    for c in (1.0, 2j, -0.5 + 0.5j):
        m = herz_schur_symbol(g, c * target.values)
        cert = rank_one_unimodular_factor(m)
        c_prime, psi = recover_character(g, cert)
        assert c_prime == pytest.approx(c)
        np.testing.assert_allclose(psi.values, target.values, atol=1e-12)
        np.testing.assert_allclose(c_prime * herz_schur_symbol(g, psi.values),
                                   m, atol=1e-12)


def test_recover_rejects_noncharacter_beta():
    g = builtin_group("cyclic(3)")
    cert = RankOneCertificate(1.0, np.ones(3), np.array([1.0, 1.0, -1.0]))
    assert recover_character(g, cert) is None


def test_recover_rejects_covariance_break():
    # beta is a genuine character but alpha does not match it, so the
    # certificate cannot come from a one-variable symbol
    g = builtin_group("cyclic(3)")
    psi = enumerate_characters(g)[1]
    cert = RankOneCertificate(1.0, np.ones(3), psi.values.copy())
    assert recover_character(g, cert) is None


@pytest.mark.parametrize("c", [1.0, 1e-12, 1e-170, 1e170])
def test_recover_covariance_is_relative_to_c(c):
    g = builtin_group("cyclic(3)")
    psi = enumerate_characters(g)[1]
    genuine = rank_one_unimodular_factor(herz_schur_symbol(g, c * psi.values))
    c_prime, got = recover_character(g, genuine)
    assert c_prime == pytest.approx(c, rel=1e-12)
    assert np.array_equal(got.values, psi.values)
    # beta is the character, but alpha = 1 is not covariant with it
    tampered = RankOneCertificate(c, np.ones(3), psi.values.copy())
    assert recover_character(g, tampered) is None


def test_recover_rejects_zero_reference():
    g = builtin_group("cyclic(2)")
    cert = RankOneCertificate(1.0, np.ones(2), np.array([0.0, 1.0]))
    assert recover_character(g, cert) is None


def test_recover_checks_vector_length():
    g = builtin_group("cyclic(3)")
    cert = RankOneCertificate(1.0, np.ones(2), np.ones(2))
    with pytest.raises(ValueError):
        recover_character(g, cert)


def test_recover_trivial_group():
    g = builtin_group("cyclic(1)")
    cert = rank_one_unimodular_factor(herz_schur_symbol(g, [5.0]))
    c_prime, psi = recover_character(g, cert)
    assert c_prime == pytest.approx(5.0)
    np.testing.assert_allclose(psi.values, [1.0])


# ---------------------------------------------------------------------------
# structural consequences of the factorization


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
def test_unimodular_factored_multiplier_is_isometric(p, n=4):
    rng = np.random.default_rng(4)
    m = np.outer(_random_unimodular(rng, n), _random_unimodular(rng, n))
    for seed in range(3):
        x = np.random.default_rng(seed).standard_normal((n, n))
        assert schatten_norm(_schur(m, x), p, 1.0) == pytest.approx(
            schatten_norm(x, p, 1.0), rel=1e-10)


def test_factored_multiplier_preserves_disjointness():
    rng = np.random.default_rng(5)
    n = 4
    m = 2j * np.outer(_random_unimodular(rng, n), _random_unimodular(rng, n))
    u = np.array([1.0, 1j, 0.0, 0.0]) / np.sqrt(2)
    v = np.array([0.0, 0.0, 1.0, -1.0]) / np.sqrt(2)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    y = np.array([x[1].conjugate(), -x[0].conjugate(), 0.0, 0.0])
    a = np.outer(u, x.conj())
    b = np.outer(v, y.conj())
    assert is_disjoint(a, b, 1e-12)
    assert is_disjoint(_schur(m, a), _schur(m, b), 1e-10)


# ---------------------------------------------------------------------------
# the transpose obstruction: a map on M_n is a Schur multiplier iff it sends
# every matrix unit e_ij to a multiple of e_ij


@pytest.mark.parametrize("n", [2, 3, 5])
def test_transpose_is_not_entrywise(n):
    moved = _moved_units(transpose_map(n).images)
    i, j = np.divmod(moved, n)
    np.testing.assert_array_equal(moved, [k for k in range(n * n) if k % (n + 1)])
    assert (i != j).all()


def test_transpose_fits_in_dimension_one():
    assert _moved_units(transpose_map(1).images).size == 0


@pytest.mark.parametrize("n", [2, 3, 5])
def test_schur_map_images_move_no_unit(n):
    rng = np.random.default_rng(n)
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    assert _moved_units(schur_multiplier_map(m).images).size == 0


def test_unit_creating_entry_is_moved():
    # e_00 -> e_00 + e_01 creates an entry where e_00 vanishes
    images = transpose_map(2).basis()
    images[0] = _unit(2, 0, 0) + _unit(2, 0, 1)
    assert _moved_units(images).tolist() == [0]
