"""One verdict path for every exponent: ``fourier_verdicts`` and
``schur_verdicts`` give, from one run, exactly the verdicts that
``classify_fourier`` and ``classify_schur`` give one p at a time."""

import numpy as np
import pytest

from sepmult import classify, verify
from sepmult.classify import (
    INCONCLUSIVE,
    NOT_SEPARATING,
    SEPARATING,
    classify_fourier,
    classify_schur,
    fourier_multiplier_map,
    fourier_verdicts,
    isometry_test,
    schur_multiplier_map,
    schur_verdicts,
    verdict_to_json,
)
from sepmult.groups import builtin_group, enumerate_characters, trivial_character
from sepmult.linalg import InvalidExponent
from sepmult.schur import RankOneCertificate
from sepmult.verify import SuiteConfig, run_suite

PS = (1.0, 1.5, 2.0, 4.0, np.inf)

C3 = builtin_group("cyclic(3)")
S3 = builtin_group("symmetric(3)")
SIGN = enumerate_characters(S3)[1].values


def _unimodular(rng, n):
    return np.exp(2j * np.pi * rng.random(n))


RNG = np.random.default_rng(17)
UNIMODULAR_OUTER = np.outer(_unimodular(RNG, 3), _unimodular(RNG, 3))

#: name -> (family, symbol, expected status); the group of a Fourier
#: symbol is given by its length
CASES = {
    "fourier-certified-unimodular": ("fourier", 1j * SIGN, SEPARATING),
    "fourier-certified-scaled": ("fourier", 2.5 * SIGN, SEPARATING),
    "fourier-zero": ("fourier", np.zeros(6), SEPARATING),
    "fourier-refuted-probe": ("fourier", np.array([1.0, 1, 1, 1, 1, 0]), NOT_SEPARATING),
    "fourier-refuted-trial": ("fourier", np.array([1.0, 1.0, 0.5]), NOT_SEPARATING),
    "fourier-one-dimensional": ("fourier", np.array([0.5 - 2j]), SEPARATING),
    "schur-certified-unimodular": ("schur", UNIMODULAR_OUTER, SEPARATING),
    "schur-certified-scaled": ("schur", -3j * UNIMODULAR_OUTER, SEPARATING),
    "schur-zero": ("schur", np.zeros((3, 3)), SEPARATING),
    "schur-refuted": ("schur", np.array([[1.0, 1.0], [1.0, -1.0]]), NOT_SEPARATING),
    "schur-one-dimensional": ("schur", np.array([[1j]]), SEPARATING),
}

GROUPS = {1: builtin_group("cyclic(1)"), 3: C3, 6: S3}


def _run(family, symbol, ps=None, p=None, **kw):
    """The multi-p verdicts at ``ps``, or the single-p verdict at ``p``."""
    if family == "fourier":
        g = GROUPS[len(symbol)]
        if ps is None:
            return classify_fourier(g, symbol, p=p, **kw)
        return fourier_verdicts(g, symbol, ps, **kw)
    if ps is None:
        return classify_schur(symbol, p=p, **kw)
    return schur_verdicts(symbol, ps, **kw)


def _assert_same_verdict(many, one):
    assert (many.status, many.p, many.trials, many.seed, many.note) == \
        (one.status, one.p, one.trials, one.seed, one.note)
    assert many.max_deviation == one.max_deviation
    assert (many.certificate is None) == (one.certificate is None)
    if one.certificate is not None:
        assert many.certificate.keys() == one.certificate.keys()
        for key, value in one.certificate.items():
            assert np.array_equal(many.certificate[key], value), key
    assert (many.witness is None) == (one.witness is None)
    if one.witness is not None:
        for name in ("a", "b", "image_a", "image_b"):
            assert np.array_equal(getattr(many.witness, name),
                                  getattr(one.witness, name)), name
        assert (many.witness.violation, many.witness.label, many.witness.seed) == \
            (one.witness.violation, one.witness.label, one.witness.seed)
    assert verdict_to_json(many) == verdict_to_json(one)


@pytest.mark.parametrize("name", sorted(CASES))
def test_multi_p_verdicts_equal_the_single_p_verdicts(name):
    family, symbol, status = CASES[name]
    kw = dict(trials=30, seed=3, isometry_trials=5)
    verdicts = _run(family, symbol, ps=PS, **kw)
    assert [v.p for v in verdicts] == [float(p) for p in PS]
    for p, verdict in zip(PS, verdicts):
        assert verdict.status == status
        _assert_same_verdict(verdict, _run(family, symbol, p=p, **kw))


def test_contradicted_certificate_is_inconclusive_at_every_p(monkeypatch):
    g = builtin_group("cyclic(2)")
    monkeypatch.setattr(classify, "fit_scalar_character",
                        lambda g, phi, tol: (1.0, trivial_character(g)))
    verdicts = fourier_verdicts(g, [1.0, 0.0], PS, trials=10)
    for p, verdict in zip(PS, verdicts):
        assert verdict.status == INCONCLUSIVE
        assert verdict.witness.label == "probe:involution:1"
        _assert_same_verdict(verdict, classify_fourier(g, [1.0, 0.0], p=p, trials=10))


def test_contradicted_schur_certificate_is_inconclusive_at_every_p(monkeypatch):
    ones = np.ones(2)
    monkeypatch.setattr(classify, "rank_one_unimodular_factor",
                        lambda m, tol: RankOneCertificate(1.0, ones, ones))
    hadamard = np.array([[1.0, 1.0], [1.0, -1.0]])
    verdicts = schur_verdicts(hadamard, PS, trials=10)
    for p, verdict in zip(PS, verdicts):
        assert verdict.status == INCONCLUSIVE
        _assert_same_verdict(verdict, classify_schur(hadamard, p=p, trials=10))


@pytest.mark.parametrize("tmap", [
    fourier_multiplier_map(S3, SIGN),
    fourier_multiplier_map(S3, 2.0 * SIGN),
    schur_multiplier_map(UNIMODULAR_OUTER),
    schur_multiplier_map([[1.0, 2.0], [0.5, -1.0]]),
], ids=["character", "scaled-character", "unimodular-outer", "non-factorable"])
def test_deviations_at_every_p_equal_the_per_p_isometry_test(tmap):
    deviations = classify._isometry_deviations(tmap, PS, 7, 5)
    assert deviations == [isometry_test(tmap, p=p, trials=7, seed=5)[1] for p in PS]


def test_multi_p_entry_points_refuse_bad_exponent_lists():
    with pytest.raises(InvalidExponent, match="at least one"):
        fourier_verdicts(C3, SIGN[:3], ())
    with pytest.raises(InvalidExponent, match="at least one"):
        schur_verdicts(UNIMODULAR_OUTER, [])
    for bad in ((2.0, 0.5), (True,), (2.0, None)):
        with pytest.raises(InvalidExponent, match="must satisfy p >= 1"):
            schur_verdicts(UNIMODULAR_OUTER, bad)


def test_cross_p_searches_at_most_once_per_symbol_and_never_when_certified(monkeypatch):
    calls = []
    runs = []
    search = classify.separating_test
    verdicts = verify.fourier_verdicts

    def counted_search(*args, **kwargs):
        calls.append(1)
        return search(*args, **kwargs)

    def counted_verdicts(*args, **kwargs):
        before = len(calls)
        out = verdicts(*args, **kwargs)
        runs.append(len(calls) - before)
        return out

    monkeypatch.setattr(classify, "separating_test", counted_search)
    monkeypatch.setattr(verify, "fourier_verdicts", counted_verdicts)
    config = SuiteConfig(groups=("symmetric(3)",))
    passed, residual, detail = verify._cell_cross_p(S3, "symmetric(3)", config)
    assert passed and residual == 0.0
    # the trivial character and twice the last character are certified
    assert runs[:2] == [0, 0]
    assert len(runs) == 6 and all(count <= 1 for count in runs[2:])


def test_cross_p_counts_an_isometry_deviation_beyond_tol(monkeypatch):
    monkeypatch.setattr(classify, "_isometry_deviations",
                        lambda tmap, ps, trials, seed: [0.0] * (len(ps) - 1) + [1.0])
    passed, residual, detail = verify._cell_cross_p(S3, "symmetric(3)", SuiteConfig())
    # only the trivial character has |c| = 1
    assert not passed and residual == 1.0
    assert detail == "6 symbols at p in [1.0, 2.0, 4.0], 1 verdict disagreements"


#: the cells that read verdicts at several p or sample isometry, as the
#: per-p verdict path reported them with numpy's LAPACK on x86-64
PINNED_CELLS = {
    "fourier/cross-p/cyclic(3)":
        (0.0, "6 symbols at p in [1.0, 2.0, 4.0], 0 verdict disagreements"),
    "fourier/cross-p/symmetric(3)":
        (0.0, "6 symbols at p in [1.0, 2.0, 4.0], 0 verdict disagreements"),
    "fourier/forward/cyclic(3)":
        (4.440892098500626e-16,
         "45 classifications separating, worst isometry deviation 4.44e-16"),
    "fourier/forward/symmetric(3)":
        (4.440892098500626e-16,
         "30 classifications separating, worst isometry deviation 4.44e-16"),
    "schur/factor/dim2":
        (9.411435867334768e-16,
         "20 factored symbols, reconstruction 9.41e-16, isometry deviation 2.22e-16"),
    "schur/factor/dim3":
        (6.683961614677375e-16,
         "20 factored symbols, reconstruction 6.68e-16, isometry deviation 4.44e-16"),
}


def test_multi_p_cells_report_the_pinned_details():
    report = run_suite(SuiteConfig(groups=("cyclic(3)", "symmetric(3)"),
                                   matrix_dims=(2, 3)))
    cells = {cell["name"]: cell for cell in report["cells"]
             if cell["name"] in PINNED_CELLS}
    assert cells.keys() == PINNED_CELLS.keys()
    for name, (residual, detail) in PINNED_CELLS.items():
        assert cells[name]["passed"], name
        assert (cells[name]["residual"], cells[name]["detail"]) == (residual, detail), name
