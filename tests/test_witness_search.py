"""The chunked witness search against a per-pair reference, its pair cache
and its memory use."""

import tracemalloc

import numpy as np
import pytest

from sepmult import classify
from sepmult.classify import (
    NOT_SEPARATING,
    SEPARATING,
    PairCache,
    PAIR_CACHE,
    LinearMap,
    _chunks,
    classify_schur,
    deterministic_probes,
    fourier_multiplier_map,
    random_disjoint_pair_matrix,
    schur_multiplier_map,
    separating_test,
    verdict_to_json,
)
from sepmult.groups import builtin_group, enumerate_characters
from sepmult.linalg import DEFAULT_TOL
from sepmult.vna import (
    derive_seed,
    disjointness_defect,
    disjointness_defects,
    random_disjoint_pair,
    regular_representation,
)

from dense_maps import DenseMap

TRIALS = 200
SEED = 3


# ---------------------------------------------------------------------------
# per-pair reference: one pair at a time, dense maps from explicit images


def _dense_fourier(g, phi):
    images = np.stack([phi[s] * regular_representation(g, s)
                       for s in range(g.order)])
    return DenseMap(images, "group", g)


def _dense_schur(m, transposed=False):
    """x -> m * x, or x -> m * x^T, from the image of each e_ij."""
    n = m.shape[0]
    images = np.zeros((n * n, n, n), dtype=np.complex128)
    for i in range(n):
        for j in range(n):
            if transposed:
                images[i * n + j, j, i] = m[j, i]
            else:
                images[i * n + j, i, j] = m[i, j]
    return DenseMap(images, "matrix")


def _reference_pairs(t, dense, trials, seed):
    """(label, pair seed, input defect, image defect) of every pair, in
    search order: the probes, then the seeded trials."""
    def scored(a, b):
        return (disjointness_defect(a, b),
                disjointness_defect(dense.apply(a), dense.apply(b)))

    for a, b, label in deterministic_probes(t):
        yield (label, None) + scored(a, b)
    for i in range(trials):
        pair_seed = derive_seed(seed, i)
        if t.algebra == "group":
            a, b = random_disjoint_pair(t.group, pair_seed)
        else:
            a, b = random_disjoint_pair_matrix(t.matrix_dim, pair_seed)
        yield ("trial:%d" % i, pair_seed) + scored(a, b)


def _reference_search(t, dense, trials, seed, tol=DEFAULT_TOL):
    """(label, pair seed, violation) of the first witness, or None."""
    for label, pair_seed, defect, violation in _reference_pairs(t, dense, trials, seed):
        if defect <= tol and violation > tol:
            return label, pair_seed, violation
    return None


def _assert_matches_reference(t, dense, tol=DEFAULT_TOL):
    np.testing.assert_array_equal(t.images, dense.images)
    expected = _reference_search(t, dense, TRIALS, SEED, tol)
    verdict = separating_test(t, trials=TRIALS, seed=SEED, tol=tol)
    if expected is None:
        assert verdict.status == SEPARATING
        assert verdict.witness is None
        return
    label, pair_seed, violation = expected
    assert verdict.status == NOT_SEPARATING
    assert verdict.witness.label == label
    assert verdict.witness.seed == pair_seed
    assert verdict.witness.violation == pytest.approx(violation, rel=1e-12)
    np.testing.assert_allclose(verdict.witness.image_a,
                               dense.apply(verdict.witness.a), atol=1e-14)


def _fourier_cases():
    rng = np.random.default_rng(41)
    cases = []
    # refuted by an involution probe: random symbols, and a symbol that
    # passes every involution probe but the last (a later chunk)
    for label in ("cyclic(2)", "cyclic(8)", "dihedral(4)", "symmetric(4)"):
        g = builtin_group(label)
        cases.append((label + "/random",
                      g, rng.standard_normal(g.order) + 1j * rng.standard_normal(g.order)))
    g = builtin_group("symmetric(4)")
    phi = np.ones(g.order, dtype=np.complex128)
    phi[g.involutions()[-1]] = 0.5
    cases.append(("symmetric(4)/last-involution", g, phi))
    # odd orders have no involution probes: the witness is a trial
    for label in ("cyclic(5)", "cyclic(3)xcyclic(5)"):
        g = builtin_group(label)
        for k in range(2):
            cases.append(("%s/random%d" % (label, k), g,
                          np.exp(2j * np.pi * rng.random(g.order))))
    # scaled characters: no witness, all trials run
    for label in ("cyclic(5)", "quaternion8", "symmetric(3)"):
        g = builtin_group(label)
        psi = enumerate_characters(g)[-1].values
        cases.append((label + "/character", g, (0.5 - 2j) * psi))
    return cases


@pytest.mark.parametrize("case", _fourier_cases(), ids=lambda case: case[0])
def test_fourier_search_matches_per_pair_reference(case):
    _, g, phi = case
    _assert_matches_reference(fourier_multiplier_map(g, phi),
                              _dense_fourier(g, np.asarray(phi, dtype=np.complex128)))


def _schur_cases():
    """(label, symbol, transposed) of each map."""
    rng = np.random.default_rng(43)
    cases = []
    for n in (2, 3, 8, 24):
        cases.append(("%d/random" % n,
                      rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)), False))
        late = np.ones((n, n), dtype=np.complex128)
        late[n - 1, n - 2] = 2.0      # only the last Hadamard probe sees it
        cases.append(("%d/last-probe" % n, late, False))
        rank_one = np.outer(np.exp(2j * np.pi * rng.random(n)),
                            np.exp(2j * np.pi * rng.random(n)))
        cases.append(("%d/rank-one" % n, 1.5 * rank_one, False))
    # x -> m * x^T for Gaussian m
    for n in (3, 5):
        cases.append(("%d/random-transposed" % n,
                      rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)), True))
    # every 2x2 principal corner is rank-one unimodular, so no probe sees
    # it, but the whole matrix is not: the witness is a trial
    w = np.exp(0.7j)
    cases.append(("3/corners", np.array([[1, 1, 1], [1, 1, w], [1, np.conj(w), 1]]), False))
    # the block symbol: ones but m[0, n-1] = m[n-1, 0] = -1; every 2x2
    # principal corner is rank-one unimodular, so the whole probe sweep runs
    block = np.ones((6, 6), dtype=np.complex128)
    block[0, 5] = block[5, 0] = -1.0
    cases.append(("6/block", block, False))
    return cases


@pytest.mark.parametrize("case", _schur_cases(), ids=lambda case: case[0])
def test_schur_search_matches_per_pair_reference(case):
    _, m, transposed = case
    m = np.asarray(m, dtype=np.complex128)
    _assert_matches_reference(LinearMap(m, "matrix", transposed=transposed),
                              _dense_schur(m, transposed))


@pytest.mark.parametrize("kind", ["fourier", "schur"])
def test_late_trial_witness_matches_reference(kind):
    # a tolerance above every violation of the first 40 trials pushes the
    # first witness into a later chunk; it lies a relative 1e-9 above the
    # largest, so that round-off between the batched and the per-pair
    # evaluation of that pair cannot decide the comparison
    if kind == "fourier":
        g = builtin_group("cyclic(5)")
        phi = np.exp(2j * np.pi * np.random.default_rng(46).random(5))
        t, dense = fourier_multiplier_map(g, phi), _dense_fourier(g, phi)
    else:
        w = np.exp(0.7j)
        m = np.array([[1, 1, 1], [1, 1, w], [1, np.conj(w), 1]])
        t, dense = schur_multiplier_map(m), _dense_schur(m)
    scored = [(label, violation) for label, _, _, violation
              in _reference_pairs(t, dense, TRIALS, SEED) if label.startswith("trial:")]
    tol = max(violation for _, violation in scored[:40]) * (1.0 + 1e-9)
    assert any(violation > tol for _, violation in scored[40:])
    _assert_matches_reference(t, dense, tol)
    verdict = separating_test(t, trials=TRIALS, seed=SEED, tol=tol)
    assert int(verdict.witness.label.split(":")[1]) >= 40


@pytest.mark.parametrize("algebra", ["cyclic(2)", "cyclic(8)", "cyclic(2)xcyclic(2)",
                                     "dihedral(4)", "quaternion8", "symmetric(3)",
                                     "symmetric(4)", 2, 3, 8, 24])
def test_probe_pairs_are_disjoint_to_round_off(algebra):
    # the search takes every probe's disjointness defect as 0; the defect
    # computed on the probe legs is round-off only
    if isinstance(algebra, str):
        g = builtin_group(algebra)
        t = fourier_multiplier_map(g, np.ones(g.order))
    else:
        t = schur_multiplier_map(np.ones((algebra, algebra)))
    count = classify._probe_count(t)
    assert count > 0
    assert disjointness_defects(classify._probe_stack(t, 0, count)).max() <= 1e-30


@pytest.mark.parametrize("total", [0, 1, 2, 32, 33, 34, 65, 200])
def test_chunks_cover_range_in_order(total):
    bounds = list(_chunks(total))
    covered = [i for start, stop in bounds for i in range(start, stop)]
    assert covered == list(range(total))
    sizes = [stop - start for start, stop in bounds]
    assert sizes[:1] == [1][:total]
    assert all(size == 32 for size in sizes[1:-1])
    assert all(0 < size <= 32 for size in sizes[1:])


# ---------------------------------------------------------------------------
# pair cache


def _entry(nbytes):
    return (np.zeros(nbytes, dtype=np.uint8),)


def test_pair_cache_evicts_least_recently_used():
    cache = PairCache(300)
    cache.get("a", lambda: _entry(100))
    cache.get("b", lambda: _entry(100))
    cache.get("a", lambda: _entry(100))        # a is now the most recent
    cache.get("c", lambda: _entry(150))        # evicts b
    assert (cache.hits, cache.misses) == (1, 3)
    assert cache.nbytes == 250 and len(cache) == 2
    cache.get("a", lambda: _entry(100))
    assert cache.hits == 2
    cache.get("b", lambda: _entry(100))        # rebuilt, evicts c
    assert cache.misses == 4 and cache.nbytes == 200
    big = cache.get("d", lambda: _entry(400))  # over the cap: not kept
    assert big[0].nbytes == 400 and cache.nbytes == 200 and len(cache) == 2


def test_cached_pairs_are_read_only():
    cache = PairCache(1000)
    (arr,) = cache.get("a", lambda: _entry(10))
    with pytest.raises(ValueError):
        arr[0] = 1


def test_pair_cache_stays_within_cap_across_seeds():
    rng = np.random.default_rng(44)
    m = np.outer(np.exp(2j * np.pi * rng.random(32)),
                 np.exp(2j * np.pi * rng.random(32)))
    # the search itself: a certified classify_schur on this symbol runs none
    t = schur_multiplier_map(m)
    for seed in range(11):
        misses = PAIR_CACHE.misses
        assert separating_test(t, seed=seed).status == SEPARATING
        assert PAIR_CACHE.misses > misses
        assert PAIR_CACHE.nbytes <= PAIR_CACHE.cap_bytes
    # the most recent seed's chunks are still there
    misses = PAIR_CACHE.misses
    separating_test(t, seed=10)
    assert PAIR_CACHE.misses == misses


def test_certified_large_schur_symbol_draws_no_pairs(monkeypatch):
    # the probes and trials of a 48x48 search exceed the cache's cap, so a
    # search would miss on every call; a certified verdict looks none up and
    # draws its isometry sample once
    rng = np.random.default_rng(46)
    m = np.outer(np.exp(2j * np.pi * rng.random(48)),
                 np.exp(2j * np.pi * rng.random(48)))
    cache = PairCache(PAIR_CACHE.cap_bytes)
    keys = []
    get = cache.get

    def recording_get(key, build):
        keys.append(key)
        return get(key, build)

    monkeypatch.setattr(cache, "get", recording_get)
    monkeypatch.setattr(classify, "PAIR_CACHE", cache)
    verdicts = [verdict_to_json(classify_schur(m, seed=0)) for _ in range(3)]
    assert not [key for key in keys if key[0] in ("probe", "trial")]
    assert keys == [("isometry", 48, 0, 12)] * 3
    assert (cache.misses, cache.hits) == (1, 2)
    assert verdicts[0]["status"] == SEPARATING
    assert verdicts[1] == verdicts[0] and verdicts[2] == verdicts[0]


# ---------------------------------------------------------------------------
# memory


def test_large_schur_refutation_stays_small():
    rng = np.random.default_rng(45)
    m = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
    tracemalloc.start()
    try:
        verdict = classify_schur(m, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert verdict.status == NOT_SEPARATING
    assert peak < 32 * 2 ** 20
