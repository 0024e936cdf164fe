"""Dense linear algebra: frozen cases, numpy cross-oracles, and properties.

The production code runs numpy.linalg's eigh/svd behind its own contracts
(ascending eigenvalues, descending singular values, unitary factors, zero
matrix results, package exception types); the frozen cases and properties
check those contracts, and the numpy cross-oracles check the numbers.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sepmult.linalg import (
    DEFAULT_TOL,
    InvalidExponent,
    NoConvergence,
    NotHermitian,
    frobenius,
    hermitian_eig,
    matrix_from_json,
    matrix_to_json,
    polar_decompose,
    random_unitary,
    schatten_norm,
    singular_value_norm,
    singular_values,
    svd,
)

ATOL = 1e-10


def _random_complex(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def _complexes(rng_seed, n):
    return _random_complex(np.random.default_rng(rng_seed), n)


# ---------------------------------------------------------------------------
# hermitian_eig


def test_eig_diagonal_matrix():
    vals, vecs = hermitian_eig(np.diag([2.0, -1.0]))
    np.testing.assert_allclose(vals, [-1.0, 2.0], atol=ATOL)
    # eigenvectors permute the identity
    np.testing.assert_allclose(np.abs(vecs), [[0, 1], [1, 0]], atol=ATOL)


def test_eig_swap_matrix():
    vals, _ = hermitian_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
    np.testing.assert_allclose(vals, [-1.0, 1.0], atol=ATOL)


def test_eig_constructed_spectrum_round_trip():
    rng = np.random.default_rng(11)
    v = random_unitary(3, rng)
    h = v @ np.diag([1.0, 2.0, 3.0]) @ v.conj().T
    vals, vecs = hermitian_eig(h)
    np.testing.assert_allclose(vals, [1.0, 2.0, 3.0], atol=1e-10)
    recon = vecs @ np.diag(vals) @ vecs.conj().T
    np.testing.assert_allclose(recon, h, atol=1e-10)


def test_eig_matches_numpy_oracle():
    rng = np.random.default_rng(12)
    for n in (1, 2, 5, 9, 17):
        a = _random_complex(rng, n)
        h = a + a.conj().T
        vals, vecs = hermitian_eig(h)
        np.testing.assert_allclose(vals, np.linalg.eigvalsh(h),
                                   atol=1e-10 * max(1.0, frobenius(h)))
        assert frobenius(vecs.conj().T @ vecs - np.eye(n)) < 1e-10 * n


def test_eig_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_eig_zero_matrix():
    vals, vecs = hermitian_eig(np.zeros((3, 3)))
    np.testing.assert_allclose(vals, np.zeros(3))
    np.testing.assert_allclose(vecs, np.eye(3))


@pytest.mark.parametrize("scale", [1e-200, 1e200])
def test_eig_of_rescaled_matrix_rescales_eigenvalues(scale):
    # Frobenius norms of these matrices underflow or overflow; neither the
    # zero test nor the Hermitian gate may depend on them
    rng = np.random.default_rng(15)
    a = _random_complex(rng, 4)
    h = a + a.conj().T
    want = np.linalg.eigvalsh(h)
    vals, vecs = hermitian_eig(scale * h)
    np.testing.assert_allclose(vals / scale, want, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(h @ vecs, vecs * (vals / scale), atol=1e-10)
    assert frobenius(vecs.conj().T @ vecs - np.eye(4)) < 1e-12


def test_eig_returns_a_plain_pair():
    pair = hermitian_eig(np.diag([2.0, 1.0]))
    assert type(pair) is tuple and len(pair) == 2
    np.testing.assert_allclose(pair[0], [1.0, 2.0], atol=ATOL)


@pytest.mark.parametrize("scale", [1e-200, 1.0, 1e200])
def test_eig_gate_is_default_tol(scale):
    # ||H - H*||_F / ||H||_F is about d: half DEFAULT_TOL passes, twice is refused
    def skewed(d):
        return scale * np.array([[1.0, d], [0.0, 1.0]])

    vals, _ = hermitian_eig(skewed(0.5 * DEFAULT_TOL))
    np.testing.assert_allclose(vals / scale, [1.0, 1.0], atol=DEFAULT_TOL)
    with pytest.raises(NotHermitian):
        hermitian_eig(skewed(2.0 * DEFAULT_TOL))


@pytest.mark.parametrize("scale", [1e-200, 1e-100, 1.0, 1e100, 1e200])
def test_eig_rejects_non_hermitian_at_every_scale(scale):
    with pytest.raises(NotHermitian):
        hermitian_eig(scale * np.array([[1.0, 2.0], [0.0, 1.0]]))


# ---------------------------------------------------------------------------
# svd and singular values


def test_svd_identity():
    u, sigma, v = svd(np.eye(3))
    np.testing.assert_allclose(sigma, np.ones(3))
    np.testing.assert_allclose(u @ np.diag(sigma) @ v.conj().T, np.eye(3),
                               atol=ATOL)


def test_svd_rank_one_frozen():
    a = np.array([[0.0, 2.0], [0.0, 0.0]])
    u, sigma, v = svd(a)
    np.testing.assert_allclose(sigma, [2.0, 0.0], atol=ATOL)
    np.testing.assert_allclose(u @ np.diag(sigma) @ v.conj().T, a, atol=ATOL)
    assert frobenius(u.conj().T @ u - np.eye(2)) < ATOL
    assert frobenius(v.conj().T @ v - np.eye(2)) < ATOL


def test_svd_cross_oracle_and_unitarity():
    rng = np.random.default_rng(13)
    for n in (1, 2, 3, 6, 11):
        a = _random_complex(rng, n)
        u, sigma, v = svd(a)
        scale = max(frobenius(a), 1.0)
        np.testing.assert_allclose(sigma, np.linalg.svd(a, compute_uv=False),
                                   atol=1e-10 * scale)
        assert frobenius(u @ np.diag(sigma) @ v.conj().T - a) < 1e-10 * scale
        assert frobenius(u.conj().T @ u - np.eye(n)) < 1e-10 * n
        assert frobenius(v.conj().T @ v - np.eye(n)) < 1e-10 * n
        assert np.all(np.diff(sigma) <= 1e-12 * scale)


def test_svd_clustered_small_singular_values():
    # degenerate tiny singular values are where naive column extraction of U
    # loses orthogonality; this construction has a double value at 1e-7
    rng = np.random.default_rng(14)
    u0 = random_unitary(4, rng)
    v0 = random_unitary(4, rng)
    a = u0 @ np.diag([1.0, 1e-7, 1e-7, 0.0]) @ v0.conj().T
    u, sigma, v = svd(a)
    assert frobenius(u.conj().T @ u - np.eye(4)) < 1e-10
    assert frobenius(u @ np.diag(sigma) @ v.conj().T - a) < 1e-10


def test_singular_values_agree_with_svd():
    a = _complexes(15, 7)
    np.testing.assert_allclose(singular_values(a), svd(a)[1], atol=1e-10)


def test_svd_zero_matrix():
    u, sigma, v = svd(np.zeros((3, 3)))
    np.testing.assert_allclose(u, np.eye(3))
    np.testing.assert_allclose(sigma, np.zeros(3))
    np.testing.assert_allclose(v, np.eye(3))


def test_lapack_failure_raises_no_convergence(monkeypatch):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    monkeypatch.setattr(np.linalg, "svd", fail)
    a = np.diag([1.0, 2.0])
    for call in (hermitian_eig, singular_values, svd):
        with pytest.raises(NoConvergence):
            call(a)


def _stack_with_zero(rng_seed, n, count):
    rng = np.random.default_rng(rng_seed)
    stack = np.stack([_random_complex(rng, n) for _ in range(count)])
    stack[1] = 0.0
    return stack


def test_decompositions_of_a_stack_are_those_of_its_matrices():
    a = _stack_with_zero(16, 4, 3)
    h = a + a.conj().swapaxes(-1, -2)
    vals, vecs = hermitian_eig(h)
    u, sigma, v = svd(a)
    w, b = polar_decompose(a)
    np.testing.assert_allclose(singular_values(a), sigma, atol=1e-12)
    for k in range(3):
        for got, want in zip((vals[k], vecs[k]), hermitian_eig(h[k])):
            np.testing.assert_array_equal(got, want)
        for got, want in zip((u[k], sigma[k], v[k]), svd(a[k])):
            np.testing.assert_array_equal(got, want)
        for got, want in zip((w[k], b[k]), polar_decompose(a[k])):
            np.testing.assert_allclose(got, want, atol=1e-14)
    # the zero matrix keeps its fixed answers inside a stack
    np.testing.assert_array_equal(vals[1], np.zeros(4))
    np.testing.assert_array_equal(vecs[1], np.eye(4))
    np.testing.assert_array_equal(u[1], np.eye(4))
    np.testing.assert_array_equal(v[1], np.eye(4))


def test_stack_with_one_non_hermitian_matrix_is_rejected():
    h = np.stack([np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]]), np.zeros((2, 2))])
    with pytest.raises(NotHermitian):
        hermitian_eig(h)
    with pytest.raises(ValueError):
        hermitian_eig(np.zeros((2, 3)))


@pytest.mark.parametrize("p", [1.0, 2.5, math.inf])
def test_schatten_norm_of_a_stack(p):
    a = _stack_with_zero(17, 5, 4)
    got = schatten_norm(a, p, 0.2)
    assert got.shape == (4,)
    for k in range(4):
        assert got[k] == pytest.approx(schatten_norm(a[k], p, 0.2), rel=1e-14, abs=0.0)
    assert got[1] == 0.0
    assert isinstance(schatten_norm(a[0], p, 0.2), float)


# ---------------------------------------------------------------------------
# schatten norms


def test_schatten_frozen_34():
    assert schatten_norm(np.diag([3.0, 4.0]), 2.0, 1.0) == pytest.approx(5.0)


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, math.inf])
@pytest.mark.parametrize("n", [1, 4])
def test_schatten_normalized_identity(p, n):
    assert schatten_norm(np.eye(n), p, 1.0 / n) == pytest.approx(1.0)


def test_schatten_matches_direct_formula():
    a = _complexes(16, 5)
    sigma = np.linalg.svd(a, compute_uv=False)
    for p in (1.0, 1.5, 2.0, 4.0):
        for w in (1.0, 0.2):
            want = (w * np.sum(sigma ** p)) ** (1.0 / p)
            assert schatten_norm(a, p, w) == pytest.approx(want, rel=1e-11)
    assert schatten_norm(a, math.inf, 0.2) == pytest.approx(sigma[0], rel=1e-11)


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, math.inf])
@pytest.mark.parametrize("k", [-700, 700])
def test_schatten_norm_neither_underflows_nor_overflows(p, k):
    # (2^k)^p leaves the float range, the norm of 2^k I does not
    want = 2.0 ** k * (1.0 if math.isinf(p) else 2.0 ** (1.0 / p))
    assert schatten_norm(2.0 ** k * np.eye(2), p) == pytest.approx(want, rel=1e-15)
    stack = np.stack([2.0 ** k * np.eye(2), np.eye(2), np.zeros((2, 2))])
    np.testing.assert_allclose(schatten_norm(stack, p), [want, want / 2.0 ** k, 0.0],
                               rtol=1e-15, atol=0.0)


def test_schatten_rejects_bad_exponent_and_weight():
    a = np.eye(2)
    with pytest.raises(InvalidExponent):
        schatten_norm(a, 0.5, 1.0)
    with pytest.raises(InvalidExponent):
        schatten_norm(a, float("nan"), 1.0)
    with pytest.raises(ValueError):
        schatten_norm(a, 2.0, 0.0)


BAD_NORM_ARGUMENTS = (
    (0.5, 1.0, InvalidExponent),
    (float("nan"), 1.0, InvalidExponent),
    ("2", 1.0, InvalidExponent),
    (2.0, 0.0, ValueError),
    (2.0, -1.0, ValueError),
    (math.inf, float("nan"), ValueError),
)


@pytest.mark.parametrize("p, weight, error", BAD_NORM_ARGUMENTS)
def test_schatten_refuses_bad_exponent_and_weight_before_any_svd(p, weight, error,
                                                                 monkeypatch):
    def no_svd(*args, **kwargs):
        raise AssertionError("an SVD ran")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    with pytest.raises(error):
        schatten_norm(np.eye(2), p, weight)
    with pytest.raises(error):
        singular_value_norm(np.ones(2), p, weight)


@pytest.mark.parametrize("p", [1.0, 2.5, 3.0, math.inf])
def test_singular_value_norm_is_schatten_norm_bit_for_bit(p):
    a = _stack_with_zero(18, 5, 4)
    assert np.array_equal(singular_value_norm(singular_values(a), p, 0.2),
                          schatten_norm(a, p, 0.2))
    one = singular_value_norm(singular_values(a[0]), p, 0.2)
    assert isinstance(one, float) and one == schatten_norm(a[0], p, 0.2)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 6), st.integers(0, 2 ** 32 - 1))
def test_schatten_two_norm_squared_is_trace(n, seed):
    a = _random_complex(np.random.default_rng(seed), n)
    two = schatten_norm(a, 2.0, 1.0)
    trace = float(np.real(np.trace(a.conj().T @ a)))
    assert two * two == pytest.approx(trace, rel=1e-9, abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 6), st.sampled_from([1.0, 1.5, 2.0, 3.0]),
       st.integers(0, 2 ** 32 - 1))
def test_holder_inequality(n, p, seed):
    rng = np.random.default_rng(seed)
    x = _random_complex(rng, n)
    y = _random_complex(rng, n)
    w = 1.0 / n
    q = math.inf if p == 1.0 else p / (p - 1.0)
    lhs = abs(w * np.trace(x @ y))
    rhs = schatten_norm(x, p, w) * schatten_norm(y, q, w)
    assert lhs <= rhs * (1.0 + 1e-9)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 6), st.sampled_from([1.0, 1.5, 2.0, 3.0]),
       st.integers(0, 2 ** 32 - 1))
def test_schatten_unitary_invariance(n, p, seed):
    rng = np.random.default_rng(seed)
    a = _random_complex(rng, n)
    u = random_unitary(n, rng)
    v = random_unitary(n, rng)
    base = schatten_norm(a, p, 1.0 / n)
    assert schatten_norm(u @ a @ v, p, 1.0 / n) == pytest.approx(
        base, rel=1e-9, abs=1e-12)


# ---------------------------------------------------------------------------
# polar decomposition


def test_polar_positive_definite_is_identity_isometry():
    rng = np.random.default_rng(17)
    a = _random_complex(rng, 3)
    pos = a @ a.conj().T + 3.0 * np.eye(3)
    w, b = polar_decompose(pos)
    np.testing.assert_allclose(w, np.eye(3), atol=1e-9)
    np.testing.assert_allclose(b, pos, atol=1e-9)


def test_polar_rank_one_frozen():
    w, b = polar_decompose(np.array([[0.0, 2.0], [0.0, 0.0]]))
    np.testing.assert_allclose(b, np.diag([0.0, 2.0]), atol=ATOL)
    np.testing.assert_allclose(w, np.array([[0.0, 1.0], [0.0, 0.0]]), atol=ATOL)


def test_polar_round_trip_invertible():
    rng = np.random.default_rng(18)
    for n in (2, 5, 8):
        a = _random_complex(rng, n) + 3.0 * np.eye(n)
        w, b = polar_decompose(a)
        assert frobenius(a - w @ b) < 1e-10 * frobenius(a)
        assert frobenius(w.conj().T @ w - np.eye(n)) < 1e-9
        vals = np.linalg.eigvalsh(0.5 * (b + b.conj().T))
        assert vals[0] > -1e-9 * max(vals[-1], 1.0)


def test_polar_redecompose_idempotent():
    rng = np.random.default_rng(19)
    a = _random_complex(rng, 4)
    w, b = polar_decompose(a)
    w2, b2 = polar_decompose(w @ b)
    np.testing.assert_allclose(b2, b, atol=1e-9 * max(1.0, frobenius(b)))
    # compare the isometries on the support of B only; the kernel is gauge
    vals, vecs = np.linalg.eigh(b)
    vk = vecs[:, vals > 1e-9 * vals[-1]]
    supp = vk @ vk.conj().T
    np.testing.assert_allclose(w2 @ supp, w @ supp, atol=1e-8)


# w* w is the support projection of B: the projection onto its range, with
# singular values at or below DEFAULT_TOL * sigma_max counted as zero


def _support_projection(b):
    w, _ = polar_decompose(b)
    return w.conj().T @ w


def test_support_projection_frozen_cases():
    np.testing.assert_allclose(_support_projection(np.diag([0.0, 2.0])),
                               np.diag([0.0, 1.0]), atol=ATOL)
    np.testing.assert_allclose(_support_projection(np.zeros((2, 2))),
                               np.zeros((2, 2)), atol=ATOL)


def test_support_projection_thresholds_tiny_eigenvalues():
    rng = np.random.default_rng(20)
    v = random_unitary(3, rng)
    b = v @ np.diag([0.0, 1e-15, 3.0]) @ v.conj().T
    proj = _support_projection(b)
    assert np.real(np.trace(proj)) == pytest.approx(1.0, abs=1e-9)
    assert frobenius(proj @ proj - proj) < 1e-9
    assert frobenius(proj - proj.conj().T) < 1e-9


@pytest.mark.parametrize("scale", [1e-200, 1.0, 1e200])
def test_polar_cutoff_is_default_tol(scale):
    # singular values at or below DEFAULT_TOL * sigma_max drop out of w
    a = scale * np.diag([1.0, 2.0 * DEFAULT_TOL, 0.5 * DEFAULT_TOL, 0.0])
    w, b = polar_decompose(a)
    np.testing.assert_allclose(w, np.diag([1.0, 1.0, 0.0, 0.0]), atol=ATOL)
    np.testing.assert_allclose(b / scale, a / scale, rtol=0.0, atol=ATOL)


def test_random_unitary_is_unitary():
    rng = np.random.default_rng(22)
    for n in (1, 3, 9):
        u = random_unitary(n, rng)
        assert frobenius(u.conj().T @ u - np.eye(n)) < 1e-9 * n


# ---------------------------------------------------------------------------
# serialization


def test_matrix_json_round_trip():
    a = _complexes(23, 4)
    back = matrix_from_json(matrix_to_json(a))
    np.testing.assert_allclose(back, a, atol=0)


@pytest.mark.parametrize("bad", [
    None,
    {"dim": 2, "re": [[1, 0]], "im": [[0, 0], [0, 0]]},
    {"dim": 2, "re": "x", "im": "y"},
    {"re": [[1]], "im": [[0]]},
])
def test_matrix_json_rejects_malformed(bad):
    with pytest.raises(ValueError):
        matrix_from_json(bad)
