"""The witness search against a per-pair reference, its closed-form probe
violations, its pair cache and its memory use."""

import itertools
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from sepmult import classify
from sepmult.classify import (
    NOT_SEPARATING,
    SEPARATING,
    PairCache,
    PAIR_CACHE,
    LinearMap,
    classify_schur,
    deterministic_probes,
    fourier_multiplier_map,
    random_disjoint_pair_matrix,
    schur_multiplier_map,
    separating_test,
    transpose_map,
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
    # passes every involution probe but the last
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
    _assert_matches_reference(LinearMap(m, transposed=transposed),
                              _dense_schur(m, transposed))


def _late_trial_case(kind):
    """(map, dense map, tol) with no probe witness and the first trial
    witness past trial 39: tol lies a relative 1e-9 above every violation
    of the first 40 trials, so that round-off between the search's and the
    reference's evaluation of a pair cannot decide the comparison."""
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
    return t, dense, tol


@pytest.mark.parametrize("kind", ["fourier", "schur"])
def test_late_trial_witness_matches_reference(kind):
    t, dense, tol = _late_trial_case(kind)
    _assert_matches_reference(t, dense, tol)
    verdict = separating_test(t, trials=TRIALS, seed=SEED, tol=tol)
    assert int(verdict.witness.label.split(":")[1]) >= 40


_PROBE_GROUPS = ("cyclic(2)", "cyclic(8)", "cyclic(2)xcyclic(2)", "dihedral(4)",
                 "quaternion8", "symmetric(3)", "symmetric(4)")


@pytest.mark.parametrize("algebra", _PROBE_GROUPS + (2, 3, 8, 24))
def test_probe_pairs_are_disjoint_to_round_off(algebra):
    # the search takes every probe's disjointness defect as 0; the defect
    # computed on the probe legs is round-off only
    if isinstance(algebra, str):
        g = builtin_group(algebra)
        t = fourier_multiplier_map(g, np.ones(g.order))
    else:
        t = schur_multiplier_map(np.ones((algebra, algebra)))
    probes = list(deterministic_probes(t))
    assert len(probes) > 0
    legs = np.array([[a for a, _, _ in probes], [b for _, b, _ in probes]])
    assert disjointness_defects(legs).max() <= 1e-30


@pytest.mark.parametrize("algebra", _PROBE_GROUPS + (2, 3, 8, 24))
def test_probe_legs_match_their_definitions(algebra):
    # 1 +- lambda(s) from the translation matrix, and the rotated coordinate
    # projections (e_i +- e_j)(e_i +- e_j)* / 2 as dense outer products
    if isinstance(algebra, str):
        g = builtin_group(algebra)
        t = fourier_multiplier_map(g, np.ones(g.order))
        eye = np.eye(g.order)
        expected = [(eye + regular_representation(g, s), eye - regular_representation(g, s))
                    for s in g.involutions()]
    else:
        t = schur_multiplier_map(np.ones((algebra, algebra)))
        eye = np.eye(algebra)
        r = 1.0 / np.sqrt(2.0)
        expected = []
        for i, j in itertools.combinations(range(algebra), 2):
            plus, minus = r * (eye[i] + eye[j]), r * (eye[i] - eye[j])
            expected.append((np.outer(plus, plus), np.outer(minus, minus)))
    legs = [(a, b) for a, b, _ in deterministic_probes(t)]
    assert len(legs) == len(expected) > 0
    for (a, b), (want_a, want_b) in zip(legs, expected):
        assert np.array_equal(a, want_a) and np.array_equal(b, want_b)


@pytest.mark.parametrize("case", ["cyclic(5)", "cyclic(7)", "cyclic(3)xcyclic(5)", "block"])
def test_trial_witnesses_carry_their_pair_seed(case):
    # raising tol to each witness's violation moves the search to a later
    # pair, from trial 0 past trial 31; every trial witness's seed is the
    # one its pair was drawn from
    rng = np.random.default_rng(49)
    if case == "block":
        m = np.ones((6, 6))
        m[0, 5] = m[5, 0] = -1.0
        t = schur_multiplier_map(m)
    else:
        g = builtin_group(case)
        t = fourier_multiplier_map(g, np.ones(g.order) + 0.3 * (
            rng.standard_normal(g.order) + 1j * rng.standard_normal(g.order)))
    indices = []
    for seed in (3, 11):
        tol = DEFAULT_TOL
        while True:
            verdict = separating_test(t, trials=TRIALS, seed=seed, tol=tol)
            if verdict.witness is None or verdict.witness.violation >= 1.0:
                break
            kind, index = verdict.witness.label.split(":")
            assert kind == "trial"
            assert verdict.witness.seed == derive_seed(seed, int(index))
            assert type(verdict.witness.seed) is int
            indices.append(int(index))
            tol = verdict.witness.violation
    assert 0 in indices and max(indices) >= 32


def test_probe_iteration_builds_one_pair_at_a_time():
    # 1,128 probes of 73 KB each: the whole family would take 80 MB
    t = schur_multiplier_map(np.ones((48, 48)))
    tracemalloc.start()
    try:
        count = sum(1 for _ in deterministic_probes(t))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert count == 48 * 47 // 2
    assert peak < 2 ** 20


def _probe_maps():
    """(label, map) of Fourier maps of Gaussian symbols, Schur maps of
    Gaussian symbols, plain and transposed, and the transpose."""
    rng = np.random.default_rng(47)
    cases = []
    for label in _PROBE_GROUPS:
        g = builtin_group(label)
        phi = rng.standard_normal(g.order) + 1j * rng.standard_normal(g.order)
        cases.append((label, fourier_multiplier_map(g, phi)))
    for n in (2, 3, 8, 24):
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        cases.append(("%d/random" % n, LinearMap(m)))
        cases.append(("%d/random-transposed" % n, LinearMap(m, transposed=True)))
        cases.append(("%d/transpose" % n, transpose_map(n)))
    return cases


@pytest.mark.parametrize("case", _probe_maps(), ids=lambda case: case[0])
def test_every_probe_violation_matches_the_dense_defect(case):
    # the closed form read off each probe's 2 x 2 block against the defect
    # of the probe's n x n images, relative to 1e-12 (the transpose's
    # violations are 0, which the dense defect reads as round-off, below
    # 1e-15 at every scale); a power-of-two rescaling leaves every
    # violation bit for bit
    _, t = case
    unscaled = None
    for scale in (1.0, 2.0 ** 600, 2.0 ** -600, 1e160, 1e-160):
        ts = t if scale == 1.0 else classify._map_like(t, scale * t.symbol)
        closed = [classify._probe_violation(ts, probe) for probe in classify._probe_keys(ts)]
        dense = [disjointness_defect(ts.apply(a), ts.apply(b))
                 for a, b, _ in deterministic_probes(ts)]
        assert len(closed) == len(dense) > 0
        np.testing.assert_allclose(closed, dense, rtol=1e-12, atol=1e-15)
        if unscaled is None:
            unscaled = closed
        elif scale in (2.0 ** 600, 2.0 ** -600):
            assert closed == unscaled


def test_zero_blocks_read_zero_and_give_no_witness():
    # a zero 2 x 2 block reads violation 0 (not NaN), so the search passes
    # over its probe to the next one
    m = np.ones((3, 3), dtype=np.complex128)
    m[:2, :2] = 0.0
    t = schur_multiplier_map(m)
    assert classify._probe_violation(t, (0, 1)) == 0.0
    verdict = separating_test(t, trials=TRIALS, seed=SEED)
    assert verdict.witness.label == "probe:hadamard:0,2"
    # phi(e) = phi(s) = 0 for the one involution s of cyclic(4): no probe
    # witness, so a trial refutes
    g = builtin_group("cyclic(4)")
    t = fourier_multiplier_map(g, np.array([0.0, 1.0, 0.0, 1j]))
    assert classify._probe_violation(t, 2) == 0.0
    assert separating_test(t, trials=TRIALS, seed=SEED).witness.label.startswith("trial:")
    # the zero symbol: every probe and trial reads 0
    for t in (schur_multiplier_map(np.zeros((4, 4))),
              fourier_multiplier_map(builtin_group("dihedral(4)"), np.zeros(8))):
        assert all(classify._probe_violation(t, probe) == 0.0
                   for probe in classify._probe_keys(t))
        verdict = separating_test(t, trials=8, seed=SEED)
        assert verdict.status == SEPARATING and verdict.witness is None


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
    # the most recent seed's pairs are still there
    misses = PAIR_CACHE.misses
    separating_test(t, seed=10)
    assert PAIR_CACHE.misses == misses


def _count_draws(monkeypatch):
    """Count the calls of the one-pair drawers the search draws its trial
    pairs with, by name, and give the search an empty cache."""
    counts = Counter()
    for name in ("random_disjoint_pair", "random_disjoint_pair_matrix"):
        def counted(*args, _draw=getattr(classify, name), _name=name):
            counts[_name] += 1
            return _draw(*args)
        monkeypatch.setattr(classify, name, counted)
    cache = PairCache(PAIR_CACHE.cap_bytes)
    monkeypatch.setattr(classify, "PAIR_CACHE", cache)
    return counts, cache


_DRAWER = {"fourier": "random_disjoint_pair", "schur": "random_disjoint_pair_matrix",
           "transpose": "random_disjoint_pair_matrix"}


@pytest.mark.parametrize("kind", ["fourier", "schur"])
def test_a_search_refuted_at_trial_k_draws_k_plus_one_pairs(monkeypatch, kind):
    t, _, tol = _late_trial_case(kind)
    counts, _ = _count_draws(monkeypatch)
    verdict = separating_test(t, trials=TRIALS, seed=SEED, tol=tol)
    k = int(verdict.witness.label.split(":")[1])
    assert k >= 40
    assert counts == {_DRAWER[kind]: k + 1}
    # at the default tol the same map is refuted by trial 0, its one pair
    # now cached
    verdict = separating_test(t, trials=TRIALS, seed=SEED)
    assert verdict.witness.label == "trial:0"
    assert counts == {_DRAWER[kind]: k + 1}


@pytest.mark.parametrize("kind", ["fourier", "schur", "transpose"])
def test_a_full_sweep_draws_each_trial_pair_once(monkeypatch, kind):
    # no witness: every trial runs; the cache holds one entry per trial,
    # keyed ("trial", algebra, seed, i): the pair, its defect and its seed
    if kind == "fourier":
        g = builtin_group("cyclic(5)")
        t = fourier_multiplier_map(g, (0.5 - 2j) * enumerate_characters(g)[-1].values)
        algebra = g.table_bytes
    elif kind == "schur":
        phases = np.exp(0.3j * np.arange(4))
        t = schur_multiplier_map(np.outer(phases, phases.conj() ** 2))
        algebra = 4
    else:
        t, algebra = transpose_map(4), 4
    counts, cache = _count_draws(monkeypatch)
    trials = 40
    assert separating_test(t, trials=trials, seed=SEED).status == SEPARATING
    assert counts == {_DRAWER[kind]: trials}
    assert list(cache._entries) == [("trial", algebra, SEED, i) for i in range(trials)]
    n = t.matrix_dim
    for (_, _, _, i), (pair, defect, seed) in cache._entries.items():
        assert pair.shape == (2, n, n)
        assert defect == disjointness_defects(pair) <= 1e-10
        assert int(seed) == derive_seed(SEED, i)
    hits = cache.hits
    assert separating_test(t, trials=trials, seed=SEED).status == SEPARATING
    assert counts == {_DRAWER[kind]: trials}
    assert cache.hits == hits + trials


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


def test_block_symbol_probe_sweep_stays_small():
    # every 2 x 2 principal block is rank-one unimodular, so all 8,128
    # probes run before trial 0 refutes; each is read off its block, so no
    # probe stack is built
    n = 128
    m = np.ones((n, n), dtype=np.complex128)
    m[0, n - 1] = m[n - 1, 0] = -1.0
    tracemalloc.start()
    try:
        verdict = classify_schur(m, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert verdict.status == NOT_SEPARATING
    assert verdict.witness.label == "trial:0"
    assert peak < 8 * 2 ** 20


def test_searches_cache_no_probes(monkeypatch):
    cache = PairCache(PAIR_CACHE.cap_bytes)
    monkeypatch.setattr(classify, "PAIR_CACHE", cache)
    rng = np.random.default_rng(48)
    g = builtin_group("dihedral(4)")
    block = np.ones((5, 5), dtype=np.complex128)
    block[0, 4] = block[4, 0] = -1.0
    labels = [separating_test(t, trials=40, seed=SEED).witness.label for t in (
        fourier_multiplier_map(g, rng.standard_normal(8)),
        schur_multiplier_map(rng.standard_normal((4, 4))),
        schur_multiplier_map(block),
        fourier_multiplier_map(builtin_group("cyclic(5)"), np.exp(2j * rng.random(5))))]
    assert [label.split(":")[0] for label in labels] == ["probe", "probe", "trial", "trial"]
    assert len(cache) > 0
    assert all(key[0] == "trial" for key in cache._entries)


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
