"""The benchmark's checkers accept real verdicts and reject tampered ones.

Run from the repository root: ``python3 -m pytest perfbench/test_checks.py``.
"""

import os
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(HERE, "..", "src"), HERE]

import checks  # noqa: E402
from sepmult.classify import classify_fourier, classify_schur  # noqa: E402
from sepmult.groups import builtin_group, enumerate_characters  # noqa: E402


def _fourier_separating():
    g = builtin_group("cyclic(4)")
    phi = 2j * enumerate_characters(g)[1].values
    return g, phi, classify_fourier(g, phi, p=3.0)


def _fourier_refuted():
    g = builtin_group("cyclic(5)")
    phi = np.random.default_rng(3).standard_normal(5) + 0j
    return g, phi, classify_fourier(g, phi)


def test_fourier_certificate_accepted_and_tampered_rejected():
    g, phi, verdict = _fourier_separating()
    assert verdict.status == "separating"
    assert checks.check_fourier_certificate(g.mul, phi, verdict.certificate) == []
    bent = dict(verdict.certificate)
    bent["character"] = bent["character"].copy()
    bent["character"][1] *= np.exp(0.1j)
    assert checks.check_fourier_certificate(g.mul, phi, bent)
    scaled = dict(verdict.certificate, c=verdict.certificate["c"] * 1.001)
    assert checks.check_fourier_certificate(g.mul, phi, scaled)


def test_non_multiplicative_unimodular_character_rejected():
    g, phi, verdict = _fourier_separating()
    fake = dict(verdict.certificate)
    fake["character"] = np.ones(4, dtype=np.complex128)
    fake["character"][2] = -1.0
    errors = checks.check_fourier_certificate(g.mul, fake["character"], fake)
    assert "character is not multiplicative" in errors


def test_schur_certificate_accepted_and_tampered_rejected():
    rng = np.random.default_rng(7)
    m = 0.5 * np.outer(np.exp(1j * rng.uniform(0, 6, 6)), np.exp(1j * rng.uniform(0, 6, 6)))
    verdict = classify_schur(m, p=1.0)
    assert checks.check_schur_certificate(m, verdict.certificate) == []
    bent = dict(verdict.certificate, alpha=verdict.certificate["alpha"] * 1.01)
    assert "alpha is not unimodular" in checks.check_schur_certificate(m, bent)


def test_witness_accepted_and_tampered_rejected():
    g, phi, verdict = _fourier_refuted()
    assert verdict.status == "not-separating"

    def image(x):
        return checks.fourier_image(g.mul, phi, x)

    assert checks.check_witness(verdict.witness, None, image, g.mul) == []
    witness = verdict.witness
    witness.image_a = witness.image_a + 1e-3
    assert "image_a differs from T(a)" in checks.check_witness(witness, None, image, g.mul)


def test_witness_with_joint_pair_or_certificate_rejected():
    g, phi, verdict = _fourier_refuted()
    witness = verdict.witness

    def image(x):
        return checks.fourier_image(g.mul, phi, x)

    witness.b = witness.a.copy()
    errors = checks.check_witness(witness, None, image, g.mul)
    assert "pair is not disjoint" in errors
    _, _, fresh = _fourier_refuted()
    errors = checks.check_witness(fresh.witness, {"kind": "scalar-character"}, image, g.mul)
    assert errors == ["certificate attached to a refutation"]


def test_schur_witness_images_recomputed():
    m = np.random.default_rng(11).standard_normal((5, 5)) + 0j
    verdict = classify_schur(m)
    assert verdict.status == "not-separating"
    assert checks.check_witness(verdict.witness, None,
                                lambda x: checks.schur_image(m, x)) == []
    other = m.copy()
    other[0, 0] += 1.0
    assert checks.check_witness(verdict.witness, None,
                                lambda x: checks.schur_image(other, x))


def test_isometry_rule():
    assert checks.check_isometry(1j, 3.0, 1e-15) == []
    assert checks.check_isometry(1.0, 1.0, None)
    assert checks.check_isometry(1.0, 3.0, 1e-6)
    assert checks.check_isometry(2.0, 3.0, None) == []
    assert checks.check_isometry(1.0, 2.0, None) == []
