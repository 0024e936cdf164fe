"""Batched disjoint-pair draws against a per-pair reference.

The reference draws one pair at a time, the way the library did before its
draws were batched: a Python loop over attempts and splits, one
eigendecomposition or SVD per matrix, and group-algebra products summed
term by term.  It uses numpy only, so it shares no drawing code with the
library.  The batched drawers must give the same pairs to round-off, on
every seed, whichever way the seeds are chunked.  Gaussian spectra almost
never lack a gap, so the projection retries are exercised by raising the
gap floor, which the reference reads from the library.
"""

import math

import numpy as np
import pytest

from sepmult import vna
from sepmult.classify import random_disjoint_pair_matrix, random_disjoint_pairs_matrix
from sepmult.groups import builtin_group
from sepmult.vna import (
    DegenerateSpectrum,
    ExhaustedRetries,
    GroupAlgebraElement,
    derive_seed,
    random_disjoint_pair,
    random_disjoint_pairs,
    random_element,
    random_projection_pair,
)

SEEDS = [derive_seed(17, i) for i in range(200)]
GROUPS = ["cyclic(3)", "symmetric(3)", "symmetric(4)", "cyclic(4)xcyclic(4)"]
DIMS = [2, 8, 24]
REL = 1e-13


# ---------------------------------------------------------------------------
# per-pair reference


def _norm(x):
    return float(np.linalg.norm(x))


def _loop_product(g, f, h):
    """Coefficients of f h, one translate of h per nonzero f(s)."""
    out = np.zeros(g.order, dtype=np.complex128)
    for s in range(g.order):
        if f[s] != 0:
            out[g.mul[s]] += f[s] * h
    return out


def _realize(g, f):
    return f[g.mul[:, g.inv]]


def _defect(a, b):
    na, nb = _norm(a), _norm(b)
    if na == 0.0 or nb == 0.0:
        return 0.0
    return max(_norm(a.conj().T @ b), _norm(a @ b.conj().T)) / (na * nb)


def _reference_projection_pair(g, seed, retries):
    rng = np.random.default_rng(seed)
    n = g.order
    unit = np.zeros(n, dtype=np.complex128)
    unit[g.identity] = 1.0
    if n == 1:
        return (0 * unit, unit) if int(rng.integers(2)) == 0 else (unit, 0 * unit)
    cols = np.arange(n)
    for _ in range(16):
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        h = _realize(g, x + np.conj(x[g.inv]))
        vals, vecs = np.linalg.eigh(0.5 * (h + h.conj().T))
        radius = float(np.max(np.abs(vals)))
        gaps = np.diff(vals)
        cut = int(np.argmax(gaps))
        if radius == 0.0 or gaps[cut] <= vna._GAP_FLOOR * radius:
            retries["projection"] += 1
            continue
        low = vecs[:, :cut + 1]
        pmat = low @ low.conj().T
        p = pmat[g.mul, cols[None, :]].mean(axis=1)
        if _norm(_realize(g, p) - pmat) > 1e-8 * max(_norm(pmat), 1e-300):
            retries["projection"] += 1
            continue
        pp = _loop_product(g, p, p)
        if _norm(_realize(g, pp) - _realize(g, p)) > 1e-9 * max(1.0, _norm(_realize(g, p))):
            retries["projection"] += 1
            continue
        return p, unit - p
    raise DegenerateSpectrum("reference: no split")


def _reference_disjoint_pair(g, seed, retries):
    if g.order == 1:
        raise ExhaustedRetries("reference: trivial group")
    rng = np.random.default_rng(derive_seed(seed, 0x0E1E))
    n = g.order
    for attempt in range(64):
        p, q = _reference_projection_pair(g, derive_seed(seed, 2 * attempt), retries)
        r, s = _reference_projection_pair(g, derive_seed(seed, 2 * attempt + 1), retries)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        y = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        a = _loop_product(g, _loop_product(g, p, x), r)
        b = _loop_product(g, _loop_product(g, q, y), s)
        scale = max(_norm(x), _norm(y))
        if (_norm(a) <= 1e-8 * scale or _norm(b) <= 1e-8 * scale
                or _defect(_realize(g, a), _realize(g, b)) > 1e-10):
            retries["pair"] += 1
            continue
        return a, b
    raise ExhaustedRetries("reference: no pair")


def _reference_unitary(n, rng):
    for _ in range(8):
        z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        u, sigma, vh = np.linalg.svd(z)
        keep = sigma > 1e-9 * sigma[0]
        w = u[:, keep] @ vh[keep]
        if _norm(w.conj().T @ w - np.eye(n)) <= 1e-10 * math.sqrt(n):
            return w
    raise AssertionError("reference: no unitary")


def _reference_subset(rng, n):
    for _ in range(64):
        mask = rng.integers(0, 2, size=n).astype(bool)
        if mask.any() and not mask.all():
            return mask
    raise ExhaustedRetries("reference: no subset")


def _reference_matrix_pair(n, seed, retries):
    if n < 2:
        raise ExhaustedRetries("reference: dimension %d" % n)
    rng = np.random.default_rng(seed)
    for _ in range(64):
        u = _reference_unitary(n, rng)
        v = _reference_unitary(n, rng)
        m1 = _reference_subset(rng, n)
        m2 = _reference_subset(rng, n)
        p, q = (u * m1) @ u.conj().T, (u * ~m1) @ u.conj().T
        r, s = (v * m2) @ v.conj().T, (v * ~m2) @ v.conj().T
        x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        y = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        a = p @ x @ r
        b = q @ y @ s
        scale = max(_norm(x), _norm(y))
        if (_norm(a) <= 1e-8 * scale or _norm(b) <= 1e-8 * scale
                or _defect(a, b) > 1e-10):
            retries["pair"] += 1
            continue
        return a, b
    raise ExhaustedRetries("reference: no pair")


def _assert_close(got, want):
    assert _norm(got - want) <= REL * _norm(want)


# ---------------------------------------------------------------------------
# batched draws against the reference


def _draw_in_chunks(draw):
    """The legs and defects of SEEDS, drawn in chunks of 1, 32 and 167."""
    chunks = [draw(SEEDS[start:stop]) for start, stop in ((0, 1), (1, 33), (33, 200))]
    legs = np.concatenate([c[0] for c in chunks], axis=1)
    defects = np.concatenate([c[1] for c in chunks])
    # the defects are those of the returned legs, so a search can store them
    np.testing.assert_allclose(defects, vna.disjointness_defects(legs), rtol=1e-12, atol=1e-16)
    assert defects.max() <= 1e-10
    return legs


def _assert_group_pairs_match(g):
    retries = {"projection": 0, "pair": 0}
    legs = _draw_in_chunks(lambda seeds: random_disjoint_pairs(g, seeds))
    for k, seed in enumerate(SEEDS):
        a, b = _reference_disjoint_pair(g, seed, retries)
        _assert_close(legs[0, k], _realize(g, a))
        _assert_close(legs[1, k], _realize(g, b))
    return retries


@pytest.mark.parametrize("name", GROUPS)
def test_group_pairs_match_per_pair_reference(name):
    retries = _assert_group_pairs_match(builtin_group(name))
    if name == "cyclic(3)":
        # a = p x r vanishes when the splits p and r of the three-point
        # spectrum do not overlap: the low-yield group retries pairs often
        assert retries["pair"] > 0


@pytest.mark.parametrize("name", ["cyclic(3)", "symmetric(3)"])
def test_projection_retries_match_per_pair_reference(monkeypatch, name):
    monkeypatch.setattr(vna, "_GAP_FLOOR", 0.4)
    retries = _assert_group_pairs_match(builtin_group(name))
    assert retries["projection"] > 0 and retries["pair"] > 0


def test_exhausted_projection_retries_raise_like_the_reference(monkeypatch):
    monkeypatch.setattr(vna, "_GAP_FLOOR", 2.0)   # gaps never exceed 2 radii
    g = builtin_group("symmetric(3)")
    retries = {"projection": 0, "pair": 0}
    for call in (lambda: random_disjoint_pairs(g, SEEDS[:3]),
                 lambda: random_projection_pair(g, 0),
                 lambda: _reference_disjoint_pair(g, 0, retries)):
        with pytest.raises(DegenerateSpectrum):
            call()


@pytest.mark.parametrize("n", DIMS)
def test_matrix_pairs_match_per_pair_reference(n):
    retries = {"projection": 0, "pair": 0}
    legs = _draw_in_chunks(lambda seeds: random_disjoint_pairs_matrix(n, seeds))
    for k, seed in enumerate(SEEDS):
        a, b = _reference_matrix_pair(n, seed, retries)
        _assert_close(legs[0, k], a)
        _assert_close(legs[1, k], b)


def test_projection_pairs_match_per_pair_reference():
    retries = {"projection": 0, "pair": 0}
    for name in ("cyclic(1)", "cyclic(2)", "cyclic(3)", "symmetric(3)"):
        g = builtin_group(name)
        for seed in SEEDS[:50]:
            p, q = random_projection_pair(g, seed)
            want_p, want_q = _reference_projection_pair(g, seed, retries)
            _assert_close(p.coeffs, want_p)
            _assert_close(q.coeffs, want_q)


@pytest.mark.parametrize("kind", ["group", "matrix"])
def test_chunking_does_not_change_the_pairs(kind):
    seeds = SEEDS[:64]
    if kind == "group":
        g = builtin_group("cyclic(3)")

        def draw(chunk):
            return random_disjoint_pairs(g, chunk)

        single = [np.stack([a.matrix, b.matrix])
                  for a, b in (random_disjoint_pair(g, seed) for seed in seeds)]
    else:
        def draw(chunk):
            return random_disjoint_pairs_matrix(8, chunk)

        single = [np.stack(random_disjoint_pair_matrix(8, seed)) for seed in seeds]
    single = np.stack(single, axis=1)
    chunks = [draw(seeds[:1]), draw(seeds[1:33]), draw(seeds[33:])]
    whole = draw(seeds)
    np.testing.assert_array_equal(np.concatenate([c[0] for c in chunks], axis=1), single)
    np.testing.assert_array_equal(whole[0], single)
    np.testing.assert_array_equal(np.concatenate([c[1] for c in chunks]), whole[1])


def test_one_dimensional_algebras_raise_like_the_reference():
    g = builtin_group("cyclic(1)")
    retries = {"projection": 0, "pair": 0}
    for call in (lambda: random_disjoint_pair(g, 0),
                 lambda: random_disjoint_pairs(g, SEEDS[:3]),
                 lambda: _reference_disjoint_pair(g, 0, retries)):
        with pytest.raises(ExhaustedRetries):
            call()
    for call in (lambda: random_disjoint_pair_matrix(1, 0),
                 lambda: random_disjoint_pairs_matrix(1, SEEDS[:3]),
                 lambda: _reference_matrix_pair(1, 0, retries)):
        with pytest.raises(ExhaustedRetries):
            call()


# ---------------------------------------------------------------------------
# products


@pytest.mark.parametrize("name", ["cyclic(5)", "symmetric(3)", "quaternion8",
                                  "cyclic(2)xcyclic(4)"])
def test_product_is_the_convolution_sum(name):
    g = builtin_group(name)
    rng = np.random.default_rng(5)
    f = random_element(g, rng)
    h = random_element(g, rng)
    want = np.zeros(g.order, dtype=np.complex128)
    for s in range(g.order):
        for t in range(g.order):
            want[g.mul[s, t]] += f.coeffs[s] * h.coeffs[t]
    _assert_close((f * h).coeffs, want)
    _assert_close((f * h).matrix, f.matrix @ h.matrix)
    assert isinstance(f * h, GroupAlgebraElement)
