"""Separating/isometric classification and Yeadon triple extraction."""

import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sepmult import classify, groups
from sepmult.classify import (
    INCONCLUSIVE,
    NOT_SEPARATING,
    SEPARATING,
    InvalidTrials,
    LinearMap,
    NotSeparating,
    Verdict,
    classify_fourier,
    classify_schur,
    deterministic_probes,
    fourier_multiplier_map,
    isometry_test,
    positive_definite_test,
    random_disjoint_pair_matrix,
    schur_multiplier_map,
    separating_test,
    transpose_map,
    verdict_to_json,
    yeadon_extract,
)
from sepmult.groups import builtin_group, enumerate_characters, trivial_character
from sepmult.linalg import (
    DEFAULT_TOL,
    InvalidExponent,
    frobenius,
    hermitian_eig,
    polar_decompose,
    psd_pseudo_inverse,
    schatten_norm,
    support_projection,
)
from sepmult.schur import RankOneCertificate
from sepmult.vna import (
    ExhaustedRetries,
    derive_seed,
    is_disjoint,
    regular_representation,
)

from dense_maps import DenseMap

# a refusal names the first residual in this order that reads the largest
# value up to round-off
RESIDUAL_ORDER = (
    "initial_projection",
    "jordan_unit",
    "reconstruction",
    "weight_commutation",
    "jordan_square",
    "jordan_adjoint",
)
RESIDUAL_KEYS = set(RESIDUAL_ORDER)

PROBE_VIOLATION = 1.0 / np.sqrt(2.0)


def _sign_character(g):
    return next(psi for psi in enumerate_characters(g)
                if abs(psi.values.sum()) < 1e-9)


def _unimodular(rng, n):
    return np.exp(2j * np.pi * rng.random(n))


# ---------------------------------------------------------------------------
# linear maps


def test_fourier_map_applies_symbol():
    g = builtin_group("cyclic(3)")
    t = fourier_multiplier_map(g, [1.0, 2.0, 3.0])
    lam = list(t.basis())
    for s in range(3):
        np.testing.assert_allclose(t.apply(lam[s]), [1.0, 2.0, 3.0][s] * lam[s])
    assert t.trace_weight == pytest.approx(1.0 / 3.0)


def test_schur_map_applies_entrywise():
    m = np.array([[1.0, 2j], [3.0, 4.0]])
    t = schur_multiplier_map(m)
    x = np.array([[1.0, 1.0], [1.0, 1.0]])
    np.testing.assert_allclose(t.apply(x), m)
    assert t.trace_weight == 1.0
    assert t.algebra_dim == 4


def test_basis_is_the_canonical_stack():
    g = builtin_group("dihedral(3)")
    lam = fourier_multiplier_map(g, np.ones(6)).basis()
    assert lam.shape == (6, 6, 6)
    for s in range(6):
        np.testing.assert_array_equal(lam[s], regular_representation(g, s))
    units = schur_multiplier_map(np.ones((2, 2))).basis()
    assert units.shape == (4, 2, 2)
    np.testing.assert_array_equal(units.reshape(4, 4), np.eye(4))


def test_transpose_map_transposes():
    t = transpose_map(3)
    x = np.arange(9.0).reshape(3, 3) + 1j
    np.testing.assert_allclose(t.apply(x), x.T)


def test_maps_apply_to_stacks():
    rng = np.random.default_rng(13)
    g = builtin_group("dihedral(3)")
    coeffs = rng.standard_normal((2, 3, 6)) + 1j * rng.standard_normal((2, 3, 6))
    group_stack = coeffs[..., g.rebuild_grid]
    matrix_stack = rng.standard_normal((2, 3, 3, 3)) + 1j * rng.standard_normal((2, 3, 3, 3))
    cases = ((fourier_multiplier_map(g, rng.standard_normal(6)), group_stack),
             (schur_multiplier_map(rng.standard_normal((3, 3))), matrix_stack),
             (transpose_map(3), matrix_stack))
    for t, xs in cases:
        out = t.apply(xs)
        assert out.shape == xs.shape
        for idx in np.ndindex(2, 3):
            np.testing.assert_allclose(out[idx], t.apply(xs[idx]), atol=1e-14)


def test_transpose_map_is_separating():
    verdict = separating_test(transpose_map(3), trials=40, seed=0)
    assert verdict.status == SEPARATING


@pytest.mark.parametrize("m, message", [
    (np.ones(2), "square matrix"),
    (np.ones((2, 3)), "square matrix"),
    ([[1.0, np.nan], [1.0, 1.0]], "finite"),
    (np.zeros((0, 0)), "matrix dimension must be at least 1, got 0"),
], ids=["one-dimensional", "not-square", "nan", "empty"])
def test_matrix_map_refuses_an_m_that_is_no_symbol(m, message):
    with pytest.raises(ValueError, match=message):
        LinearMap(m)
    with pytest.raises(ValueError, match=message):
        LinearMap(m, transposed=True)


def test_algebra_is_read_off_the_group():
    g = builtin_group("symmetric(3)")
    maps = {"group": [LinearMap(np.arange(6.0), g), fourier_multiplier_map(g, np.ones(6)),
                      LinearMap(np.ones(6), g, transposed=True)],
            "matrix": [LinearMap(np.ones((6, 6))), schur_multiplier_map(np.ones((2, 2))),
                       transpose_map(3)]}
    for algebra, built in maps.items():
        for t in built:
            assert t.algebra == algebra
            assert (t.group is g) == (algebra == "group")
            with pytest.raises(AttributeError):
                t.algebra = "matrix" if algebra == "group" else "group"


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("name", ["cyclic(1)", "cyclic(8)", "dihedral(4)",
                                  "quaternion8", "symmetric(4)"])
def test_fourier_map_symbol_is_phi_on_the_rebuild_grid(name):
    g = builtin_group(name)
    rng = np.random.default_rng(7)
    phi = rng.standard_normal(g.order) + 1j * rng.standard_normal(g.order)
    for t in (LinearMap(phi, g), fourier_multiplier_map(g, phi)):
        assert _same_bits(t.symbol, phi[g.rebuild_grid])
        assert t.matrix_dim == t.algebra_dim == g.order


@pytest.mark.parametrize("name", ["cyclic(8)", "dihedral(4)", "quaternion8", "symmetric(4)"])
def test_fourier_triple_maps_equal_their_n_by_n_symbols(name):
    # J and w B J are built from the identity column of their n x n symbols
    # K and diag(w B) K; that column rebuilds each symbol bit for bit
    g = builtin_group(name)
    for psi in enumerate_characters(g):
        for c in (1.0, 1.5j, 0.3 - 2.0j):
            t = fourier_multiplier_map(g, c * psi.values)
            w, b, k, _ = classify._symbol_triple(t)
            triple = yeadon_extract(t)
            rebuilt = triple.reconstruct_map()
            assert triple.jmap.algebra == rebuilt.algebra == "group"
            assert triple.jmap.group is rebuilt.group is g
            assert _same_bits(triple.jmap.symbol, k)
            assert _same_bits(rebuilt.symbol, (w @ b).diagonal()[:, None] * k)


def test_linear_map_keeps_its_own_symbol():
    m = np.ones((2, 2))
    t = LinearMap(m, transposed=True)
    m[0, 1] = 5.0
    np.testing.assert_array_equal(t.symbol, np.ones((2, 2)))
    assert t.transposed and not schur_multiplier_map(m).transposed


def test_apply_checks_the_operand_shape():
    t = transpose_map(2)
    with pytest.raises(ValueError):
        t.apply(np.eye(3))


# ---------------------------------------------------------------------------
# disjoint pair supply and probes


def test_matrix_pair_is_disjoint_and_seeded():
    for n in (2, 3, 5):
        a, b = random_disjoint_pair_matrix(n, 7)
        assert is_disjoint(a, b, 1e-10)
        assert frobenius(a) > 0 and frobenius(b) > 0
        a2, b2 = random_disjoint_pair_matrix(n, 7)
        np.testing.assert_allclose(a, a2)
        np.testing.assert_allclose(b, b2)


def test_matrix_pair_dimension_one_raises():
    with pytest.raises(ExhaustedRetries):
        random_disjoint_pair_matrix(1, 0)


def test_probes_are_disjoint_pairs():
    g = builtin_group("symmetric(3)")
    t = fourier_multiplier_map(g, np.ones(6))
    probes = deterministic_probes(t)
    assert len(probes) == len(g.involutions())
    for a, b, label in probes:
        assert label.startswith("probe:involution:")
        assert is_disjoint(a, b, 1e-12)
    s = schur_multiplier_map(np.ones((3, 3)))
    probes = deterministic_probes(s)
    assert len(probes) == 3
    for a, b, label in probes:
        assert label.startswith("probe:hadamard:")
        assert is_disjoint(a, b, 1e-12)


# ---------------------------------------------------------------------------
# separating_test


def test_identity_schur_map_separates():
    verdict = separating_test(schur_multiplier_map(np.ones((3, 3))),
                              trials=40, seed=1)
    assert verdict.status == SEPARATING
    assert verdict.witness is None


def test_indicator_symbol_caught_by_involution_probe():
    g = builtin_group("cyclic(2)")
    verdict = separating_test(fourier_multiplier_map(g, [1.0, 0.0]), trials=10)
    assert verdict.status == NOT_SEPARATING
    w = verdict.witness
    assert w.label == "probe:involution:1"
    assert w.violation == pytest.approx(PROBE_VIOLATION, rel=1e-9)
    assert w.seed is None
    assert is_disjoint(w.a, w.b, 1e-12)
    assert not is_disjoint(w.image_a, w.image_b, 1e-6)


def test_hadamard_symbol_caught_by_hadamard_probe():
    verdict = separating_test(
        schur_multiplier_map(np.array([[1.0, 1.0], [1.0, -1.0]])), trials=10)
    assert verdict.status == NOT_SEPARATING
    assert verdict.witness.label == "probe:hadamard:0,1"
    assert verdict.witness.violation == pytest.approx(PROBE_VIOLATION, rel=1e-9)


def test_one_dimensional_algebra_is_vacuously_separating():
    verdict = separating_test(schur_multiplier_map([[2.0]]))
    assert verdict.status == SEPARATING
    assert verdict.trials == 0
    assert verdict.note is not None


@pytest.mark.parametrize("classify_one", [
    lambda: classify_fourier(builtin_group("cyclic(1)"), [2.0]),
    lambda: classify_schur([[2.0]]),
], ids=["fourier", "schur"])
def test_one_dimensional_classification_is_certified_without_note(classify_one):
    # the certified verdict does not carry the search's "vacuous" note
    verdict = classify_one()
    assert verdict.status == SEPARATING
    assert verdict.trials == 0
    assert verdict.certificate is not None
    assert verdict.note is None


def test_separating_test_is_deterministic():
    g = builtin_group("cyclic(3)")
    t = fourier_multiplier_map(g, np.ones(3))
    v1 = separating_test(t, trials=20, seed=5)
    v2 = separating_test(t, trials=20, seed=5)
    assert (v1.status, v1.trials, v1.seed) == (v2.status, v2.trials, v2.seed)


def test_random_trial_witness_carries_its_seed():
    # not a scalar multiple of a character, and cyclic(3) has no involution
    # probes, so only a random trial can catch it
    g = builtin_group("cyclic(3)")
    omega = np.exp(2j * np.pi / 3)
    verdict = separating_test(fourier_multiplier_map(g, [1.0, 1.0, omega]),
                              trials=100, seed=0)
    assert verdict.status == NOT_SEPARATING
    assert verdict.witness.label.startswith("trial:")
    assert verdict.witness.seed is not None


def test_trial_and_exponent_validation():
    t = schur_multiplier_map(np.ones((2, 2)))
    with pytest.raises(InvalidTrials):
        separating_test(t, trials=0)
    with pytest.raises(InvalidTrials):
        separating_test(t, trials=-3)
    with pytest.raises(InvalidTrials):
        separating_test(t, trials=2.5)
    with pytest.raises(InvalidExponent):
        separating_test(t, p=0.5)
    with pytest.raises(InvalidExponent):
        separating_test(t, p=float("nan"))
    with pytest.raises(InvalidExponent):
        isometry_test(t, p=0.0)


# ---------------------------------------------------------------------------
# isometry_test


def test_character_multiplier_isometric_at_p3():
    g = builtin_group("quaternion8")
    psi = enumerate_characters(g)[1]
    ok, dev = isometry_test(fourier_multiplier_map(g, psi.values), p=3.0,
                            trials=20, seed=2)
    assert ok
    assert dev < 1e-9


def test_doubled_character_deviates_by_one():
    g = builtin_group("symmetric(3)")
    psi = _sign_character(g)
    ok, dev = isometry_test(fourier_multiplier_map(g, 2.0 * psi.values),
                            p=1.0, trials=10, seed=3)
    assert not ok
    assert dev == pytest.approx(1.0, rel=1e-9)


def test_unimodular_schur_isometric_at_fractional_p():
    rng = np.random.default_rng(4)
    m = np.outer(_unimodular(rng, 3), _unimodular(rng, 3))
    ok, dev = isometry_test(schur_multiplier_map(m), p=1.5, trials=15, seed=4)
    assert ok
    assert dev < 1e-9


def _per_sample_deviation(t, p, trials, seed):
    """The largest |‖T x‖_p / ‖x‖_p - 1| over samples drawn one at a time,
    normed by numpy's singular values."""
    rng = np.random.default_rng(derive_seed(seed, 0x150))
    n = t.matrix_dim

    def norm(x):
        sigma = np.linalg.svd(x, compute_uv=False)
        if np.isinf(p):
            return sigma[0]
        return (t.trace_weight * np.sum(sigma ** p)) ** (1.0 / p)

    worst = 0.0
    for _ in range(trials):
        if t.algebra == "group":
            coeffs = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            x = coeffs[t.group.rebuild_grid]
        else:
            x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        worst = max(worst, abs(norm(t.apply(x)) / norm(x) - 1.0))
    return worst


@pytest.mark.parametrize("p", [1.0, 2.0, 3.5, float("inf")])
def test_isometry_sample_matches_per_sample_loop(p):
    rng = np.random.default_rng(48)
    g = builtin_group("symmetric(3)")
    maps = [
        fourier_multiplier_map(g, rng.standard_normal(6) + 1j * rng.standard_normal(6)),
        fourier_multiplier_map(g, _sign_character(g).values),
        schur_multiplier_map(rng.standard_normal((5, 5))),
        schur_multiplier_map(np.outer(_unimodular(rng, 5), _unimodular(rng, 5))),
    ]
    for t in maps:
        want = _per_sample_deviation(t, p, 17, 9)
        ok, got = isometry_test(t, p=p, trials=17, seed=9)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-14)
        assert ok == (got <= 1e-9)


def _uncached_isometry(t, p, trials, seed, tol=DEFAULT_TOL):
    """isometry_test without the cache: draw the samples, norm both stacks."""
    x = t.random_elements(np.random.default_rng(derive_seed(seed, 0x150)), trials)
    norm_in = schatten_norm(x, p, t.trace_weight)
    norm_out = schatten_norm(t.apply(x), p, t.trace_weight)
    drawn = norm_in != 0.0
    worst = float(np.max(np.abs(norm_out[drawn] / norm_in[drawn] - 1.0), initial=0.0))
    return worst <= tol, worst


def _isometry_maps():
    rng = np.random.default_rng(49)
    g = builtin_group("symmetric(3)")
    return {
        "fourier": fourier_multiplier_map(
            g, rng.standard_normal(6) + 1j * rng.standard_normal(6)),
        "character": fourier_multiplier_map(g, _sign_character(g).values),
        "schur": schur_multiplier_map(rng.standard_normal((5, 5))),
        "unimodular schur": schur_multiplier_map(
            np.outer(_unimodular(rng, 5), _unimodular(rng, 5))),
        "transpose": transpose_map(4),
    }


@pytest.fixture
def fresh_cache(monkeypatch):
    cache = classify.PairCache(classify.PAIR_CACHE.cap_bytes)
    monkeypatch.setattr(classify, "PAIR_CACHE", cache)
    return cache


@pytest.mark.parametrize("p", [1.0, 3.0, math.inf])
def test_isometry_sample_is_bit_identical_cold_and_warm(p, monkeypatch):
    for name, t in _isometry_maps().items():
        cache = classify.PairCache(classify.PAIR_CACHE.cap_bytes)
        monkeypatch.setattr(classify, "PAIR_CACHE", cache)
        cold = isometry_test(t, p=p, trials=9, seed=5)
        warm = isometry_test(t, p=p, trials=9, seed=5)
        assert (cache.misses, cache.hits) == (1, 1), name
        assert cold == warm == _uncached_isometry(t, p, 9, 5), name


def test_isometry_samples_are_keyed_by_algebra_seed_and_trials(fresh_cache):
    rng = np.random.default_rng(50)
    g = builtin_group("cyclic(5)")
    t = fourier_multiplier_map(g, rng.standard_normal(5) + 1j * rng.standard_normal(5))
    calls = [(0, 6), (0, 6), (1, 6), (0, 7), (1, 6)]
    got = [isometry_test(t, p=3.0, trials=trials, seed=seed) for seed, trials in calls]
    assert (fresh_cache.misses, fresh_cache.hits) == (3, 2)
    assert len(fresh_cache) == 3
    assert got == [_uncached_isometry(t, 3.0, trials, seed) for seed, trials in calls]
    assert got[0] != got[2]
    # another map on an equal group shares the sample; the 5 x 5 matrices do not
    psi = enumerate_characters(builtin_group("cyclic(5)"))[2].values
    isometry_test(fourier_multiplier_map(builtin_group("cyclic(5)"), psi), trials=6)
    assert (fresh_cache.misses, fresh_cache.hits) == (3, 3)
    isometry_test(schur_multiplier_map(np.ones((5, 5))), trials=6)
    assert (fresh_cache.misses, fresh_cache.hits) == (4, 3)


def test_cached_isometry_sample_is_read_only_and_unchanged_by_apply(fresh_cache):
    def never():
        raise AssertionError("sample not cached")

    for name, t in _isometry_maps().items():
        isometry_test(t, trials=4, seed=2)
        x, sigma = fresh_cache.get(("isometry", classify._algebra_key(t), 2, 4), never)
        before = x.copy(), sigma.copy()
        assert not x.flags.writeable and not sigma.flags.writeable, name
        with pytest.raises(ValueError):
            x[0, 0, 0] = 1.0
        t.apply(x)
        t.apply(x[0])
        isometry_test(t, p=3.0, trials=4, seed=2)
        assert np.array_equal(x, before[0]) and np.array_equal(sigma, before[1]), name


@pytest.mark.parametrize("kwargs, error", [
    ({"p": 0.5}, InvalidExponent),
    ({"p": "2"}, InvalidExponent),
    ({"trials": 0}, InvalidTrials),
    ({"trials": 2.5}, InvalidTrials),
    ({"tol": 0.0}, ValueError),
    ({"tol": 1.0}, ValueError),
], ids=repr)
def test_refused_isometry_arguments_store_no_sample(kwargs, error, fresh_cache):
    with pytest.raises(error):
        isometry_test(schur_multiplier_map(np.ones((3, 3))), **kwargs)
    assert len(fresh_cache) == 0
    assert (fresh_cache.misses, fresh_cache.hits) == (0, 0)


# ---------------------------------------------------------------------------
# Yeadon triples


def test_triple_of_factored_schur_multiplier():
    rng = np.random.default_rng(6)
    m = 3.0 * np.outer(_unimodular(rng, 3), _unimodular(rng, 3))
    t = schur_multiplier_map(m)
    triple = yeadon_extract(t)
    np.testing.assert_allclose(triple.b, 3.0 * np.eye(3), atol=1e-9)
    assert max(triple.residuals.values()) <= 1e-9
    assert set(triple.residuals) == RESIDUAL_KEYS
    rebuilt = triple.reconstruct_map()
    np.testing.assert_allclose(rebuilt.images, t.images, atol=1e-8)


def test_triple_of_transpose_is_transpose_jordan():
    for n in (2, 3):
        t = transpose_map(n)
        triple = yeadon_extract(t)
        np.testing.assert_allclose(triple.w, np.eye(n), atol=1e-9)
        np.testing.assert_allclose(triple.b, np.eye(n), atol=1e-9)
        x = np.random.default_rng(n).standard_normal((n, n)) + 1j
        np.testing.assert_allclose(triple.jmap.apply(x), x.T, atol=1e-9)


def test_triple_of_scaled_character_fourier():
    g = builtin_group("dihedral(3)")
    psi = _sign_character(g)
    t = fourier_multiplier_map(g, 1.5j * psi.values)
    triple = yeadon_extract(t)
    np.testing.assert_allclose(triple.b, 1.5 * np.eye(6), atol=1e-9)
    np.testing.assert_allclose(triple.w, 1j * np.eye(6), atol=1e-9)
    rebuilt = triple.reconstruct_map()
    np.testing.assert_allclose(rebuilt.images, t.images, atol=1e-8)


def test_extracted_jordan_map_satisfies_polarized_identities():
    rng = np.random.default_rng(8)
    m = np.outer(_unimodular(rng, 4), _unimodular(rng, 4))
    for t in (schur_multiplier_map(m), transpose_map(3)):
        jmap = yeadon_extract(t).jmap
        n = t.matrix_dim
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        ja, jb = jmap.apply(a), jmap.apply(b)
        anti = jmap.apply(a @ b + b @ a)
        np.testing.assert_allclose(anti, ja @ jb + jb @ ja, atol=1e-8)
        np.testing.assert_allclose(jmap.apply(a @ a @ a), ja @ ja @ ja,
                                   atol=1e-8)


def test_indicator_symbol_fails_extraction():
    g = builtin_group("cyclic(2)")
    t = fourier_multiplier_map(g, [1.0, 0.0])
    with pytest.raises(NotSeparating) as info:
        yeadon_extract(t)
    residuals = info.value.residuals
    assert set(residuals) == RESIDUAL_KEYS
    assert max(residuals.values()) > 1e-6


def test_unfactorable_schur_symbol_fails_extraction():
    rng = np.random.default_rng(9)
    m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    with pytest.raises(NotSeparating):
        yeadon_extract(schur_multiplier_map(m))


def test_extraction_is_stable_under_reextraction():
    rng = np.random.default_rng(10)
    m = 2.0 * np.outer(_unimodular(rng, 3), _unimodular(rng, 3))
    t = schur_multiplier_map(m)
    first = yeadon_extract(t)
    second = yeadon_extract(first.reconstruct_map())
    np.testing.assert_allclose(second.b, first.b, atol=1e-8)
    np.testing.assert_allclose(second.jmap.images, first.jmap.images, atol=1e-8)


def _reference_basis(t):
    n = t.matrix_dim
    if t.algebra == "group":
        for s in range(n):
            yield regular_representation(t.group, s)
    else:
        for i in range(n):
            for j in range(n):
                e = np.zeros((n, n), dtype=np.complex128)
                e[i, j] = 1.0
                yield e


def _reference_yeadon(t):
    """Per-element Yeadon extraction: one ``apply`` of T or of the dense J
    per basis element and per sample, one cluster cut at a time."""
    cutoff = classify._PINV_CUTOFF
    unit = np.eye(t.matrix_dim, dtype=np.complex128)
    w, b = polar_decompose(t.apply(unit), cutoff)
    bpw = psd_pseudo_inverse(b, cutoff) @ w.conj().T
    basis = list(_reference_basis(t))
    t_images = [t.apply(a) for a in basis]
    jmap = DenseMap([bpw @ img for img in t_images], t.algebra, t.group)

    scale_t = max(frobenius(img) for img in t_images) or 1.0
    residuals = {}
    supp = support_projection(b, cutoff)
    supp_scale = max(1.0, frobenius(supp))
    residuals["initial_projection"] = frobenius(w.conj().T @ w - supp) / supp_scale
    residuals["jordan_unit"] = frobenius(jmap.apply(unit) - supp) / supp_scale
    residuals["reconstruction"] = max(
        frobenius(img - w @ b @ jmap.apply(a)) / scale_t
        for a, img in zip(basis, t_images))

    vals, vecs = hermitian_eig(b)
    scale = float(np.max(np.abs(vals)))
    projections = []
    if scale > 0.0:
        cuts = [0]
        for k in range(1, vals.size):
            if vals[k] - vals[k - 1] > classify._CLUSTER_GAP * scale:
                cuts.append(k)
        cuts.append(vals.size)
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            vk = vecs[:, lo:hi]
            projections.append(vk @ vk.conj().T)
    worst_comm = 0.0
    for proj in projections:
        for img in jmap.images:
            worst_comm = max(worst_comm, frobenius(proj @ img - img @ proj)
                             / max(1.0, frobenius(img)))
    residuals["weight_commutation"] = worst_comm

    rng = np.random.default_rng(derive_seed(classify._EXTRACT_SEED))
    samples = [a / frobenius(a) for a in basis]
    for x in t.random_elements(rng, 8):
        samples.append(x / max(frobenius(x), 1e-300))
    worst_square = worst_star = 0.0
    for a in samples:
        ja = jmap.apply(a)
        worst_square = max(worst_square, frobenius(jmap.apply(a @ a) - ja @ ja))
        worst_star = max(worst_star, frobenius(jmap.apply(a.conj().T) - ja.conj().T))
    residuals["jordan_square"] = worst_square
    residuals["jordan_adjoint"] = worst_star

    worst = max(residuals.values())
    if worst > 1e-9:
        failing = next(key for key in RESIDUAL_ORDER
                       if worst - residuals[key] <= 1e-10 * worst)
        raise NotSeparating(failing, residuals, failing)
    return classify.YeadonTriple(w, b, jmap, residuals)


def _extraction_outcome(extract, t):
    try:
        return extract(t)
    except NotSeparating as exc:
        return exc


def _fourier_extraction_cases():
    rng = np.random.default_rng(31)
    for name in ("cyclic(1)", "cyclic(3)", "symmetric(3)", "quaternion8", "dihedral(4)"):
        g = builtin_group(name)
        for psi in enumerate_characters(g):
            for c in (1.0, 1.5j):
                yield fourier_multiplier_map(g, c * psi.values)
        yield fourier_multiplier_map(g, rng.standard_normal(g.order)
                                     + 1j * rng.standard_normal(g.order))


def _rank_one_extraction_cases():
    rng = np.random.default_rng(32)
    for n in range(1, 9):
        yield schur_multiplier_map(np.outer(_unimodular(rng, n), _unimodular(rng, n)))


def _nonfactorable_extraction_cases():
    rng = np.random.default_rng(33)
    for n in range(2, 9):
        m = np.outer(_unimodular(rng, n), _unimodular(rng, n)) + 2.0 * np.eye(n)
        yield schur_multiplier_map(m)


def _transpose_extraction_cases():
    rng = np.random.default_rng(42)
    for n in range(2, 6):
        yield transpose_map(n)
    for n in range(1, 7):
        # x -> S * x^T: rank-one unimodular, distinct moduli (B one cluster
        # per entry), non-factorable with T(1) invertible, and one zero
        # entry of T(1)
        alpha, beta = _unimodular(rng, n), _unimodular(rng, n)
        yield LinearMap(np.outer(alpha, beta), transposed=True)
        yield LinearMap(np.outer(alpha * np.arange(1.0, n + 1.0), beta), transposed=True)
        yield LinearMap(np.outer(alpha, beta) + 2.0 * np.eye(n), transposed=True)
        m = np.outer(_unimodular(rng, n), _unimodular(rng, n))
        m[-1, -1] = 0.0
        yield LinearMap(m, transposed=True)


def _larger_fourier_extraction_cases():
    rng = np.random.default_rng(37)
    for name in ("symmetric(4)", "cyclic(16)"):
        g = builtin_group(name)
        for psi in enumerate_characters(g):
            for c in (1.0, 1.5j):
                yield fourier_multiplier_map(g, c * psi.values)
        yield fourier_multiplier_map(g, rng.standard_normal(g.order)
                                     + 1j * rng.standard_normal(g.order))
    # phi(e) = 0: T(1) = 0, so w = B = 0 and nothing is reconstructed
    yield fourier_multiplier_map(builtin_group("cyclic(3)"), [0.0, 1.0, 1.0])


def _diagonal_schur_extraction_cases():
    rng = np.random.default_rng(38)
    for n in range(2, 7):
        # distinct diagonal moduli: B has one spectral cluster per entry
        yield schur_multiplier_map(np.diag(np.arange(1.0, n + 1.0)))
        alpha = _unimodular(rng, n) * np.arange(1.0, n + 1.0)
        yield schur_multiplier_map(np.outer(alpha, _unimodular(rng, n)))
    for diagonal in (0.0, 1e-12):
        # an entry of T(1) on or below the 1e-9 support cutoff: J drops its
        # row, so the reconstruction residual reads 1.  On a unimodular
        # symbol K_j1 has modulus 1 and links B's clusters 0 and 1, so
        # weight_commutation and jordan_adjoint (|K_j1 - 0|) read 1 too, and
        # the refusal names reconstruction, the first of the tie; with that
        # row scaled up and its column down no other residual comes near
        # reconstruction
        m = np.outer(_unimodular(rng, 4), _unimodular(rng, 4))
        m[1, 1] *= diagonal
        yield schur_multiplier_map(m)
        m = np.outer(_unimodular(rng, 4), _unimodular(rng, 4))
        m[1] *= 10.0
        m[:, 1] *= 0.1
        m[1, 1] *= diagonal
        yield schur_multiplier_map(m)
    for n in (1, 3):
        yield schur_multiplier_map(np.zeros((n, n)))


@pytest.mark.parametrize("cases, refusals", [
    (_fourier_extraction_cases, 4),       # the random symbols but cyclic(1)'s
    (_rank_one_extraction_cases, 0),
    (_nonfactorable_extraction_cases, 7),
    (_transpose_extraction_cases, 15),    # n > 1 and not rank-one unimodular
    (_larger_fourier_extraction_cases, 3),    # the random symbols and [0, 1, 1]
    (_diagonal_schur_extraction_cases, 14),   # all but the zero symbols
])
def test_stacked_extraction_matches_per_element_reference(cases, refusals):
    refused = 0
    for t in cases():
        want = _extraction_outcome(_reference_yeadon, t)
        got = _extraction_outcome(yeadon_extract, t)
        assert type(got) is type(want)
        assert set(got.residuals) == set(want.residuals) == RESIDUAL_KEYS
        for key, value in want.residuals.items():
            assert got.residuals[key] == pytest.approx(value, rel=0, abs=1e-13), key
        if isinstance(want, NotSeparating):
            refused += 1
            assert got.failing == want.failing
            assert str(want) in str(got)
        else:
            np.testing.assert_allclose(got.jmap.images, want.jmap.images, rtol=0, atol=1e-13)
            np.testing.assert_allclose(got.w, want.w, rtol=0, atol=1e-13)
            np.testing.assert_allclose(got.b, want.b, rtol=0, atol=1e-13)
    assert refused == refusals


@pytest.mark.parametrize(
    "scale", [1e-200, 1e200, 2.0 ** 600, 2.0 ** -600, 1e160, 1e-160], ids=repr)
def test_extraction_accepts_rescaled_rank_one_schur_map(scale):
    # B, its support and the residuals are decided at the scale of T, so no
    # norm underflows or overflows
    rng = np.random.default_rng(34)
    m = scale * np.outer(_unimodular(rng, 3), _unimodular(rng, 3))
    triple = yeadon_extract(schur_multiplier_map(m))
    assert max(triple.residuals.values()) <= 1e-9
    assert all(np.isfinite(list(triple.residuals.values())))
    np.testing.assert_allclose(triple.b / scale, np.eye(3), atol=1e-12)


def test_yeadon_triple_holds_no_dense_stack():
    # w, B and the symbol maps J and w B J, n x n each: no (n^2, n, n)
    # stack of basis images, which would be 16 MB at n = 32
    rng = np.random.default_rng(36)
    t = schur_multiplier_map(np.outer(_unimodular(rng, 32), _unimodular(rng, 32)))
    tracemalloc.start()
    try:
        triple = yeadon_extract(t)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert retained < 2 ** 20
    x = t.random_elements(rng, 3)
    np.testing.assert_allclose(triple.reconstruct_map().apply(x), t.apply(x), atol=1e-9)


@pytest.mark.parametrize("kind", ["rank-one", "distinct-moduli", "non-factorable",
                                  "transpose"])
def test_multiplier_extraction_reads_the_symbol_not_the_basis(kind):
    # a 48 x 48 Schur map or the transpose: T of the whole basis would be
    # one 85 MB stack.  Read off the symbol, the triple costs a few n x n
    # arrays and the eight n x n random samples.  Distinct moduli give B =
    # |T(1)| one spectral cluster per eigenvalue
    n = 48
    rng = np.random.default_rng(39)
    alpha = _unimodular(rng, n)
    if kind == "distinct-moduli":
        alpha *= np.arange(1.0, n + 1.0)
    m = np.outer(alpha, _unimodular(rng, n))
    if kind == "non-factorable":
        m += 2.0 * np.eye(n)
    if kind == "transpose":
        t, m = transpose_map(n), np.ones((n, n))
    else:
        t = schur_multiplier_map(m)
    tracemalloc.start()
    try:
        outcome = _extraction_outcome(yeadon_extract, t)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20
    accepted = kind in ("rank-one", "transpose")
    assert isinstance(outcome, NotSeparating) != accepted
    if accepted:
        rebuilt = outcome.reconstruct_map()
        assert outcome.jmap.transposed == rebuilt.transposed == (kind == "transpose")
        np.testing.assert_allclose(rebuilt.symbol, m, rtol=0, atol=1e-13)


def test_overflowing_jordan_symbol_is_refused():
    # S_01 / S_00 = 1e600 overflows: no finite J rebuilds T
    # and no numpy warning escapes on the way
    m = np.array([[1e-300, 1e300], [1e300, 1e-300]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NotSeparating) as info:
            yeadon_extract(schur_multiplier_map(m))
    assert info.value.failing == "reconstruction"
    assert info.value.residuals["reconstruction"] == math.inf


def _rescaling_cases():
    """(group or None, symbol, refused) for Schur and Fourier symbols; the
    rescaled rank-one Schur symbols are accepted by
    ``test_extraction_accepts_rescaled_rank_one_schur_map``."""
    rng = np.random.default_rng(40)
    for n in (3, 6):
        yield None, np.outer(_unimodular(rng, n), _unimodular(rng, n)) + 2.0 * np.eye(n), True
        yield None, rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)), True
    for name in ("symmetric(3)", "cyclic(5)"):
        g = builtin_group(name)
        yield g, rng.standard_normal(g.order) + 1j * rng.standard_normal(g.order), True
        yield g, 1.5j * enumerate_characters(g)[-1].values, False
    yield builtin_group("cyclic(3)"), np.array([0.0, 1.0, 1.0]), True


def _rescaled_map(g, symbol, scale):
    if g is None:
        return schur_multiplier_map(scale * symbol)
    return fourier_multiplier_map(g, scale * symbol)


@pytest.mark.parametrize("scale", [2.0 ** 600, 2.0 ** -600, 1e160, 1e-160], ids=repr)
def test_extraction_verdict_does_not_change_when_the_symbol_is_rescaled(scale):
    # at 1e+-160 every square of an entry under- or overflows.  A refusal
    # names the same failing residual, and every residual moves by
    # round-off only, relative to the table's largest
    for g, symbol, refused in _rescaling_cases():
        want = _extraction_outcome(yeadon_extract, _rescaled_map(g, symbol, 1.0))
        got = _extraction_outcome(yeadon_extract, _rescaled_map(g, symbol, scale))
        assert isinstance(want, NotSeparating) == isinstance(got, NotSeparating) == refused
        if refused:
            assert got.failing == want.failing
            worst = max(want.residuals.values())
            for key, value in want.residuals.items():
                assert got.residuals[key] == pytest.approx(value, rel=0, abs=1e-12 * worst), key


# ---------------------------------------------------------------------------
# positive definiteness


def test_characters_are_positive_definite():
    g = builtin_group("quaternion8")
    for psi in enumerate_characters(g):
        ok, min_eig = positive_definite_test(g, psi.values)
        assert ok
        assert min_eig > -1e-10


def test_hermiticity_gate_rejects_despite_psd_hermitian_part():
    # phi(s^-1) != conj(phi(s)), so the symbol matrix is not Hermitian even
    # though its Hermitian part here is the identity
    g = builtin_group("cyclic(3)")
    ok, min_eig = positive_definite_test(g, [1.0, 1.0, -1.0])
    assert not ok
    assert min_eig == pytest.approx(1.0, abs=1e-9)


def test_negative_spectrum_detected():
    g = builtin_group("cyclic(3)")
    ok, min_eig = positive_definite_test(g, [1.0, -1.0, -1.0])
    assert not ok
    assert min_eig == pytest.approx(-1.0, abs=1e-9)


@pytest.mark.parametrize("scale", [1e-200, 1e-12, 1.0, 1e200])
def test_positive_definiteness_is_scale_invariant(scale):
    # (0, 1, 1) has Herz-Schur eigenvalues 2, -1, -1; no absolute floor may
    # pass it when small, and no overflowing norm may fail a large character
    g = builtin_group("cyclic(3)")
    ok, min_eig = positive_definite_test(g, scale * np.array([0.0, 1.0, 1.0]))
    assert not ok
    assert min_eig == pytest.approx(-scale, rel=1e-9)
    ok, _ = positive_definite_test(g, scale * enumerate_characters(g)[1].values)
    assert ok


def test_zero_symbol_is_positive():
    g = builtin_group("cyclic(2)")
    ok, min_eig = positive_definite_test(g, [0.0, 0.0])
    assert ok
    assert min_eig == 0.0


# ---------------------------------------------------------------------------
# classify_fourier


def test_classify_scaled_sign_is_separating_isometry():
    g = builtin_group("symmetric(3)")
    psi = _sign_character(g)
    verdict = classify_fourier(g, 1j * psi.values, p=3.0, trials=30, seed=0)
    assert verdict.status == SEPARATING
    cert = verdict.certificate
    assert cert["kind"] == "scalar-character"
    assert cert["c"] == pytest.approx(1j)
    np.testing.assert_allclose(cert["character"], psi.values, atol=1e-12)
    assert verdict.max_deviation is not None
    assert verdict.max_deviation < 1e-9


def test_classify_nonunimodular_scale_skips_isometry_sampling():
    g = builtin_group("cyclic(3)")
    psi = enumerate_characters(g)[1]
    verdict = classify_fourier(g, 2.0 * psi.values, trials=20, seed=0)
    assert verdict.status == SEPARATING
    assert verdict.max_deviation is None


def test_classify_rejects_near_character():
    g = builtin_group("cyclic(4)")
    verdict = classify_fourier(g, [1.0, 1.0, 1.0, -1.0], trials=200, seed=0)
    assert verdict.status == NOT_SEPARATING
    assert verdict.certificate is None
    assert verdict.witness is not None
    assert is_disjoint(verdict.witness.a, verdict.witness.b, 1e-9)


def test_classify_zero_symbol_separates_with_zero_scale():
    g = builtin_group("cyclic(3)")
    verdict = classify_fourier(g, np.zeros(3), trials=10, seed=0)
    assert verdict.status == SEPARATING
    assert verdict.certificate["c"] == 0
    assert verdict.max_deviation is None


def test_classify_consistency_with_positivity():
    # unimodular, unital, but not a character: not separating, not positive
    g = builtin_group("cyclic(3)")
    phi = np.exp(1j * np.array([0.0, 0.3, 1.1]))
    verdict = classify_fourier(g, phi, trials=150, seed=1)
    assert verdict.status == NOT_SEPARATING
    ok, _ = positive_definite_test(g, phi)
    assert not ok


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 4.0])
def test_classify_verdict_uniform_in_p(p):
    g = builtin_group("cyclic(4)")
    sep = classify_fourier(g, enumerate_characters(g)[1].values, p=p,
                           trials=25, seed=0)
    assert sep.status == SEPARATING
    broken = classify_fourier(g, [1.0, 1.0, 1.0, -1.0], p=p, trials=100, seed=0)
    assert broken.status == NOT_SEPARATING


# ---------------------------------------------------------------------------
# classify_fourier on groups above order 64


def _large_group_character(name):
    """A group of order > 64 and a character of it, built directly."""
    g = builtin_group(name)
    s = np.arange(g.order)
    if name.startswith("dihedral"):
        return g, np.where(s < g.order // 2, 1.0, -1.0)   # rotations come first
    if name == "cyclic(5)xcyclic(13)":
        i, j = np.divmod(s, 13)
        return g, np.exp(2j * np.pi * (2 * i / 5 + 3 * j / 13))
    return g, np.exp(2j * np.pi * 5 * s / g.order)


@pytest.mark.parametrize("name", ["cyclic(128)", "dihedral(64)", "cyclic(5)xcyclic(13)"])
def test_classify_fourier_above_order_64(name):
    g, chi = _large_group_character(name)
    verdict = classify_fourier(g, (1.5 - 0.5j) * chi, trials=2, seed=0)
    assert verdict.status == SEPARATING
    assert verdict.certificate["c"] == 1.5 - 0.5j
    np.testing.assert_allclose(verdict.certificate["character"], chi, atol=1e-12)
    rng = np.random.default_rng(derive_seed(g.order))
    phi = rng.standard_normal(g.order) + 1j * rng.standard_normal(g.order)
    verdict = classify_fourier(g, phi, trials=2, seed=0)
    assert verdict.status == NOT_SEPARATING
    assert verdict.certificate is None


def test_classify_fourier_never_enumerates(monkeypatch):
    def refuse(g):
        raise AssertionError("classify_fourier must not enumerate characters")

    monkeypatch.setattr(groups, "enumerate_characters", refuse)
    g = builtin_group("dihedral(4)")
    sign = np.where(np.arange(8) < 4, 1.0, -1.0)
    verdict = classify_fourier(g, 2j * sign, trials=2, seed=0)
    assert verdict.status == SEPARATING
    np.testing.assert_allclose(verdict.certificate["character"], sign, atol=1e-15)
    verdict = classify_fourier(g, sign + 0.5, trials=2, seed=0)
    assert verdict.status == NOT_SEPARATING


# ---------------------------------------------------------------------------
# classify_schur


def test_classify_schur_factored_symbol():
    rng = np.random.default_rng(11)
    m = 2j * np.outer(_unimodular(rng, 3), _unimodular(rng, 3))
    verdict = classify_schur(m, trials=25, seed=0)
    assert verdict.status == SEPARATING
    cert = verdict.certificate
    assert cert["kind"] == "rank-one-unimodular"
    recon = cert["c"] * np.outer(cert["alpha"], cert["beta"])
    np.testing.assert_allclose(recon, m, atol=1e-10)
    assert verdict.max_deviation is None  # |c| = 2


def test_classify_schur_unimodular_scale_samples_isometry():
    rng = np.random.default_rng(12)
    m = np.outer(_unimodular(rng, 2), _unimodular(rng, 2))
    verdict = classify_schur(m, p=1.5, trials=20, seed=0)
    assert verdict.status == SEPARATING
    assert verdict.max_deviation is not None
    assert verdict.max_deviation < 1e-9


def test_classify_schur_hadamard_witness():
    verdict = classify_schur(np.array([[1.0, 1.0], [1.0, -1.0]]),
                             trials=20, seed=0)
    assert verdict.status == NOT_SEPARATING
    assert verdict.certificate is None
    assert verdict.witness.label == "probe:hadamard:0,1"


def test_classify_schur_zero_symbol():
    verdict = classify_schur(np.zeros((2, 2)), trials=10, seed=0)
    assert verdict.status == SEPARATING
    assert verdict.certificate["c"] == 0


@pytest.mark.parametrize("build", [
    lambda: transpose_map(0),
    lambda: transpose_map(-1),
    lambda: schur_multiplier_map(np.zeros((0, 0))),
    lambda: classify_schur(np.zeros((0, 0))),
], ids=["transpose-0", "transpose-negative", "schur-map-0", "classify-schur-0"])
def test_matrix_dimension_below_one_is_refused(build):
    with pytest.raises(ValueError, match="matrix dimension must be at least 1, got"):
        build()


@pytest.mark.parametrize("n", [2.5, 3.0, "3", True, False], ids=repr)
def test_matrix_dimension_that_is_no_integer_is_refused(n):
    # 2.5 would build a map of algebra_dim 6.25, True the 1 x 1 transpose
    with pytest.raises(ValueError, match="matrix dimension must be an integer, got"):
        transpose_map(n)


def test_numpy_integer_matrix_dimension_is_accepted():
    assert transpose_map(np.int64(3)).matrix_dim == 3


# ---------------------------------------------------------------------------
# verdict serialization


def test_verdict_json_certificate_path():
    g = builtin_group("cyclic(4)")
    verdict = classify_fourier(g, enumerate_characters(g)[1].values,
                               trials=15, seed=0)
    blob = verdict_to_json(verdict)
    encoded = json.dumps(blob)  # must be JSON-serializable as-is
    back = json.loads(encoded)
    assert back["status"] == SEPARATING
    assert back["seeds"]["master"] == 0
    assert back["certificate"]["kind"] == "scalar-character"
    assert back["certificate"]["c"] == [1.0, 0.0]
    assert len(back["certificate"]["character"]) == 4


def test_verdict_json_witness_path():
    verdict = classify_schur(np.array([[1.0, 1.0], [1.0, -1.0]]),
                             trials=10, seed=3)
    back = json.loads(json.dumps(verdict_to_json(verdict)))
    assert back["status"] == NOT_SEPARATING
    w = back["witness"]
    assert w["label"] == "probe:hadamard:0,1"
    assert w["violation"] == pytest.approx(PROBE_VIOLATION)
    assert w["a"]["dim"] == 2
    assert set(w["a"]) == {"dim", "re", "im"}


def test_verdict_json_inconclusive_note():
    blob = verdict_to_json(Verdict(INCONCLUSIVE, p=2.0, trials=5, seed=1,
                                   note="no certificate and no witness found"))
    assert blob["status"] == INCONCLUSIVE
    assert blob["note"] == "no certificate and no witness found"
    assert blob["max_deviation"] is None


# ---------------------------------------------------------------------------
# scale invariance and contradicting evidence


SCALE_GROUPS = ("cyclic(2)", "cyclic(3)", "cyclic(5)", "symmetric(3)",
                "quaternion8")
SYMBOL_KINDS = ("certified", "perturbed", "random")


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(SCALE_GROUPS), st.sampled_from(SYMBOL_KINDS),
       st.integers(0, 2 ** 32 - 1), st.integers(-160, 160))
def test_fourier_status_is_scale_invariant(label, kind, draw, k):
    g = builtin_group(label)
    rng = np.random.default_rng(draw)
    chars = enumerate_characters(g)
    phi = complex(rng.standard_normal(), rng.standard_normal()) \
        * chars[int(rng.integers(len(chars)))].values
    if kind == "perturbed":
        phi = phi * (1.0 + 1e-13 * rng.standard_normal(g.order))
    elif kind == "random":
        phi = rng.standard_normal(g.order) + 1j * rng.standard_normal(g.order)

    def run(symbol):
        return classify_fourier(g, symbol, trials=20, seed=0)

    assert run(10.0 ** k * phi).status == run(phi).status


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 6), st.sampled_from(SYMBOL_KINDS),
       st.integers(0, 2 ** 32 - 1), st.integers(-160, 160))
def test_schur_status_is_scale_invariant(n, kind, draw, k):
    rng = np.random.default_rng(draw)
    m = complex(rng.standard_normal(), rng.standard_normal()) \
        * np.outer(_unimodular(rng, n), _unimodular(rng, n))
    if kind == "perturbed":
        m = m * (1.0 + 1e-13 * rng.standard_normal((n, n)))
    elif kind == "random":
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))

    def run(symbol):
        return classify_schur(symbol, trials=20, seed=0)

    assert run(10.0 ** k * m).status == run(m).status


def _scale_cases():
    g = builtin_group("symmetric(3)")
    rng = np.random.default_rng(1)
    m = rng.standard_normal((3, 3))
    phi = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    chi = 0.7 * _sign_character(g).values
    return {"schur": lambda s: classify_schur(s * m, trials=40, seed=1),
            "fourier": lambda s: classify_fourier(g, s * phi, trials=40, seed=0),
            "character": lambda s: classify_fourier(g, s * chi, trials=40, seed=0)}


@pytest.mark.parametrize("case", ["schur", "fourier", "character"])
@pytest.mark.parametrize("scale", [2.0 ** 600, 2.0 ** -600, 1e160, 1e-160],
                         ids=["2^600", "2^-600", "1e160", "1e-160"])
def test_witness_search_is_scale_free(case, scale):
    run = _scale_cases()[case]
    base = run(1.0)
    scaled = run(scale)
    assert scaled.status == base.status
    assert (scaled.certificate is None) == (base.certificate is None)
    if base.witness is None:
        assert scaled.witness is None
        return
    assert scaled.witness.label == base.witness.label
    if np.log2(scale) % 1.0 == 0.0:
        # dividing by a power of two is exact: the same bits at every scale
        assert scaled.witness.violation == base.witness.violation
        np.testing.assert_array_equal(scaled.witness.image_a, scale * base.witness.image_a)
    else:
        assert scaled.witness.violation == pytest.approx(base.witness.violation, rel=1e-12)


def test_large_perturbed_character_still_certified():
    g = builtin_group("cyclic(5)")
    psi = enumerate_characters(g)[1].values
    perturbed = psi * (1.0 + 1e-13 * np.random.default_rng(5).standard_normal(5))
    for scale in (1.0, 1e6):
        verdict = classify_fourier(g, scale * perturbed, p=3.0, seed=0)
        assert verdict.status == SEPARATING
        assert verdict.certificate["c"] == pytest.approx(scale * perturbed[0])


def test_tiny_symbol_refuted_without_certificate():
    g = builtin_group("cyclic(5)")
    verdict = classify_fourier(g, 1e-10 * np.arange(1, 6), seed=0)
    assert verdict.status == NOT_SEPARATING
    assert verdict.certificate is None
    assert verdict.witness is not None


def test_contradicted_certificate_is_inconclusive(monkeypatch):
    # a fit that lets the indicator symbol through must not turn the
    # witness search's refutation into a certified refutation
    g = builtin_group("cyclic(2)")
    monkeypatch.setattr(classify, "fit_scalar_character",
                        lambda g, phi, tol: (1.0, trivial_character(g)))
    verdict = classify_fourier(g, [1.0, 0.0], trials=10, seed=0)
    assert verdict.status == INCONCLUSIVE
    assert verdict.certificate["kind"] == "scalar-character"
    assert verdict.witness.label == "probe:involution:1"
    assert "contradicts" in verdict.note
    blob = verdict_to_json(verdict)
    assert {"certificate", "witness"} <= set(blob)


def test_contradicted_schur_certificate_is_inconclusive(monkeypatch):
    ones = np.ones(2)
    monkeypatch.setattr(classify, "rank_one_unimodular_factor",
                        lambda m, tol: RankOneCertificate(1.0, ones, ones))
    verdict = classify_schur(np.array([[1.0, 1.0], [1.0, -1.0]]), trials=10)
    assert verdict.status == INCONCLUSIVE
    assert verdict.certificate["kind"] == "rank-one-unimodular"
    assert verdict.witness.label == "probe:hadamard:0,1"


# ---------------------------------------------------------------------------
# certified verdicts without the witness search

ACCEPTANCE_GROUPS = (
    "cyclic(1)", "cyclic(2)", "cyclic(3)", "cyclic(4)", "cyclic(5)",
    "cyclic(6)", "cyclic(7)", "cyclic(8)", "cyclic(2)xcyclic(2)",
    "symmetric(3)", "symmetric(4)", "dihedral(4)", "quaternion8",
)


def _assert_search_allows(monkeypatch, tmap, classify_call):
    """The certified verdict skipped the search, and the search on the same
    map finds no witness and yields the same certificate and deviation."""
    fast = classify_call()
    assert fast.status == SEPARATING
    assert fast.trials == 0
    search = separating_test(tmap)
    assert search.status == SEPARATING
    assert search.witness is None
    with monkeypatch.context() as patch:
        patch.setattr(classify, "_search_cannot_refute", lambda *args: False)
        full = classify_call()
    assert full.status == SEPARATING
    assert fast.certificate.keys() == full.certificate.keys()
    for key, value in full.certificate.items():
        assert np.array_equal(fast.certificate[key], value), key
    assert fast.max_deviation == full.max_deviation
    return fast


@pytest.mark.parametrize("name", ACCEPTANCE_GROUPS)
def test_certified_character_skips_the_search_as_the_search_allows(name, monkeypatch):
    g = builtin_group(name)
    for chi in enumerate_characters(g):
        for c in (1.0, -0.5 + 2j, 1e-170, 1e170):
            phi = c * chi.values
            fast = _assert_search_allows(
                monkeypatch, fourier_multiplier_map(g, phi),
                lambda: classify_fourier(g, phi, seed=0))
            assert fast.certificate["c"] == c
            assert (fast.max_deviation is not None) == (c == 1.0)


@pytest.mark.parametrize("n", [2, 3, 8, 24])
def test_certified_schur_symbol_skips_the_search_as_the_search_allows(n, monkeypatch):
    rng = np.random.default_rng(100 + n)
    for c in (1.0, -0.5 + 2j):
        m = c * np.outer(_unimodular(rng, n), _unimodular(rng, n))
        fast = _assert_search_allows(
            monkeypatch, schur_multiplier_map(m), lambda: classify_schur(m, seed=0))
        assert (fast.max_deviation is not None) == (c == 1.0)


@pytest.mark.parametrize("scale", [1.0, 1e6])
def test_perturbed_character_skips_the_search_as_the_search_allows(scale, monkeypatch):
    g = builtin_group("cyclic(5)")
    psi = enumerate_characters(g)[1].values
    phi = scale * psi * (1.0 + 1e-13 * np.random.default_rng(5).standard_normal(5))
    _assert_search_allows(monkeypatch, fourier_multiplier_map(g, phi),
                          lambda: classify_fourier(g, phi, p=3.0, seed=0))


@pytest.mark.parametrize("family", ["fourier", "schur"])
def test_zero_symbol_skips_the_search_as_the_search_allows(family, monkeypatch):
    g = builtin_group("dihedral(4)")
    if family == "fourier":
        tmap = fourier_multiplier_map(g, np.zeros(8))
        call = lambda: classify_fourier(g, np.zeros(8), seed=0)   # noqa: E731
    else:
        tmap = schur_multiplier_map(np.zeros((3, 3)))
        call = lambda: classify_schur(np.zeros((3, 3)), seed=0)   # noqa: E731
    lookups = (classify.PAIR_CACHE.hits, classify.PAIR_CACHE.misses)
    assert verdict_to_json(call())["trials"] == 0
    assert (classify.PAIR_CACHE.hits, classify.PAIR_CACHE.misses) == lookups
    fast = _assert_search_allows(monkeypatch, tmap, call)
    assert fast.certificate["c"] == 0
    assert fast.max_deviation is None


def test_zero_scale_certificate_of_a_nonzero_symbol_runs_the_search(monkeypatch):
    # only T = 0 makes every image defect 0; a certificate with c = 0 for
    # any other symbol proves nothing
    ones = np.ones(2)
    monkeypatch.setattr(classify, "rank_one_unimodular_factor",
                        lambda m, tol: RankOneCertificate(0.0, ones, ones))
    verdict = classify_schur(np.array([[1.0, 1.0], [1.0, -1.0]]), trials=10)
    assert verdict.status == INCONCLUSIVE
    assert verdict.witness.label == "probe:hadamard:0,1"


def _bound(rho, n, tol=DEFAULT_TOL):
    """The image defect bound of the certificate check on n x n symbols."""
    delta = min(tol, 1e-10) + 64 * n * np.finfo(float).eps
    return (delta + 2 * rho + rho * rho) / (1 - rho) ** 2


def test_certificate_between_the_bound_and_tol_runs_the_search():
    # rho = 6e-10: within tol, so the fits certify, but 2 rho alone is
    # above the bound's share of tol
    g = builtin_group("cyclic(5)")
    psi = enumerate_characters(g)[2].values
    phi = psi * np.array([1.0] + [1.0 + 6e-10] * 4)
    rho = float(np.max(np.abs(phi - psi)))
    assert rho <= DEFAULT_TOL < _bound(rho, 5)
    fourier = classify_fourier(g, phi, trials=37, seed=0)
    assert fourier.status == SEPARATING
    assert fourier.certificate is not None
    assert fourier.trials == 37

    rng = np.random.default_rng(7)
    m = np.outer(_unimodular(rng, 4), _unimodular(rng, 4))
    m[1:, 1:] *= 1.0 + 6e-10
    schur = classify_schur(m, trials=37, seed=0)
    assert schur.status == SEPARATING
    cert = schur.certificate
    rho = float(np.max(np.abs(m / cert["c"] - np.outer(cert["alpha"], cert["beta"]))))
    assert rho <= DEFAULT_TOL < _bound(rho, 4)
    assert schur.trials == 37


def test_exact_but_not_unimodular_factors_still_run_the_search(monkeypatch):
    # m = alpha beta^T exactly, so rho = 0, but |alpha_2| = 2: the map is
    # not separating and only the unimodularity term sends it to the search
    alpha, ones = np.array([1.0, 2.0]), np.ones(2)
    monkeypatch.setattr(classify, "rank_one_unimodular_factor",
                        lambda m, tol: RankOneCertificate(1.0, alpha, ones))
    verdict = classify_schur(np.outer(alpha, ones), trials=10)
    assert verdict.status == INCONCLUSIVE
    assert verdict.trials == 10
    assert verdict.witness is not None


@pytest.mark.parametrize("kwargs, error", [
    ({"trials": 0}, InvalidTrials),
    ({"p": 0.5}, InvalidExponent),
    ({"tol": float("nan")}, ValueError),
], ids=["trials-0", "p-0.5", "tol-nan"])
def test_certified_symbol_still_validates_its_arguments(kwargs, error):
    g = builtin_group("cyclic(4)")
    with pytest.raises(error):
        classify_fourier(g, 2j * enumerate_characters(g)[1].values, **kwargs)
    with pytest.raises(error):
        classify_schur(np.ones((3, 3)), **kwargs)
