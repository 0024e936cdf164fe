"""Separating/isometric classification and Yeadon triple extraction."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sepmult import classify
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
from sepmult.linalg import InvalidExponent, frobenius
from sepmult.schur import RankOneCertificate
from sepmult.vna import ExhaustedRetries, GroupAlgebraElement, derive_seed, is_disjoint

RESIDUAL_KEYS = {
    "initial_projection",
    "jordan_unit",
    "reconstruction",
    "weight_commutation",
    "jordan_square",
    "jordan_adjoint",
}

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


def test_transpose_map_transposes():
    t = transpose_map(3)
    x = np.arange(9.0).reshape(3, 3) + 1j
    np.testing.assert_allclose(t.apply(x), x.T)


def test_maps_apply_to_stacks():
    rng = np.random.default_rng(13)
    g = builtin_group("dihedral(3)")
    coeffs = rng.standard_normal((2, 3, 6)) + 1j * rng.standard_normal((2, 3, 6))
    group_stack = np.stack([[GroupAlgebraElement(g, c).matrix for c in row]
                            for row in coeffs])
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


def test_linear_map_validation():
    g = builtin_group("cyclic(2)")
    good = np.zeros((2, 2, 2))
    with pytest.raises(ValueError):
        LinearMap(np.zeros((3, 2, 2)), "group", g)
    with pytest.raises(ValueError):
        LinearMap(good, "matrix")          # needs 4 basis images
    with pytest.raises(ValueError):
        LinearMap(good, "group")           # group missing
    with pytest.raises(ValueError):
        LinearMap(good, "weird", g)
    with pytest.raises(ValueError):
        LinearMap(np.full((2, 2, 2), np.nan), "group", g)
    with pytest.raises(ValueError):
        LinearMap(good, "matrix", g)


def test_decompose_shape_check():
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
            x = GroupAlgebraElement(t.group, coeffs).matrix
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
       st.integers(0, 2 ** 32 - 1), st.integers(-12, 12))
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
       st.integers(0, 2 ** 32 - 1), st.integers(-12, 12))
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
