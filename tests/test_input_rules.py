"""The two input rules every entry point shares: a tolerance is a finite
number > 0, and a function on a group is a 1-D array with one finite value
per element."""

import math

import numpy as np
import pytest

from sepmult.classify import (
    classify_fourier,
    classify_schur,
    fourier_multiplier_map,
    isometry_test,
    positive_definite_test,
    schur_multiplier_map,
    separating_test,
    yeadon_extract,
)
from sepmult.groups import Character, builtin_group, fit_scalar_character
from sepmult.schur import (
    herz_schur_symbol,
    rank_one_unimodular_factor,
    recover_character,
)
from sepmult.verify import SuiteConfig, SuiteError

BAD_TOLS = (math.nan, math.inf, 0.0, -1.0)

C3 = builtin_group("cyclic(3)")
#: neither a multiple of a character nor rank-one unimodular
NON_CHARACTER = np.array([1.0, 1.0, 0.5])
NON_FACTORABLE = np.array([[1.0, 1.0], [1.0, 0.5]])


def _certificate():
    return rank_one_unimodular_factor(herz_schur_symbol(C3, np.ones(3)))


TOL_ENTRY_POINTS = {
    "separating_test": lambda tol: separating_test(
        fourier_multiplier_map(C3, NON_CHARACTER), trials=4, tol=tol),
    "isometry_test": lambda tol: isometry_test(
        schur_multiplier_map(NON_FACTORABLE), trials=4, tol=tol),
    "yeadon_extract": lambda tol: yeadon_extract(
        fourier_multiplier_map(C3, NON_CHARACTER), tol=tol),
    "classify_fourier": lambda tol: classify_fourier(C3, NON_CHARACTER, trials=4, tol=tol),
    "classify_schur": lambda tol: classify_schur(NON_FACTORABLE, trials=4, tol=tol),
    "fit_scalar_character": lambda tol: fit_scalar_character(C3, NON_CHARACTER, tol),
    "fit_scalar_character_zero": lambda tol: fit_scalar_character(C3, np.zeros(3), tol),
    "rank_one_unimodular_factor": lambda tol: rank_one_unimodular_factor(
        NON_FACTORABLE, tol),
    "recover_character": lambda tol: recover_character(C3, _certificate(), tol),
    "positive_definite_test": lambda tol: positive_definite_test(C3, NON_CHARACTER, tol),
}


@pytest.mark.parametrize("tol", BAD_TOLS)
@pytest.mark.parametrize("entry", sorted(TOL_ENTRY_POINTS))
def test_entry_points_refuse_a_tolerance_that_is_not_finite_and_positive(entry, tol):
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        TOL_ENTRY_POINTS[entry](tol)


@pytest.mark.parametrize("tol", BAD_TOLS)
def test_suite_config_refuses_a_tolerance_that_is_not_finite_and_positive(tol):
    with pytest.raises(SuiteError, match="tol must be positive and finite"):
        SuiteConfig(tol=tol)


def test_accepted_tolerances_leave_the_non_character_unseparated():
    for tol in (1e-12, 1e-9, 1e-3):
        assert classify_fourier(C3, NON_CHARACTER, tol=tol).status != "separating"
        assert classify_schur(NON_FACTORABLE, tol=tol).status != "separating"


C4 = builtin_group("cyclic(4)")
BAD_SHAPES = {
    "column": np.ones((4, 1)),
    "row": np.ones((1, 4)),
    "square": np.ones((2, 2)),
}

SYMBOL_ENTRY_POINTS = {
    "fourier_multiplier_map": lambda phi: fourier_multiplier_map(C4, phi),
    "herz_schur_symbol": lambda phi: herz_schur_symbol(C4, phi),
    "fit_scalar_character": lambda phi: fit_scalar_character(C4, phi),
    "Character": lambda phi: Character(C4, phi),
    "classify_fourier": lambda phi: classify_fourier(C4, phi, trials=4),
    "positive_definite_test": lambda phi: positive_definite_test(C4, phi),
}


@pytest.mark.parametrize("shape", sorted(BAD_SHAPES))
@pytest.mark.parametrize("entry", sorted(SYMBOL_ENTRY_POINTS))
def test_entry_points_refuse_a_symbol_that_is_not_one_dimensional(entry, shape):
    phi = BAD_SHAPES[shape]
    with pytest.raises(ValueError) as caught:
        SYMBOL_ENTRY_POINTS[entry](phi)
    assert str(caught.value) == (
        "symbol needs shape (4,), one value per group element, got %r" % (phi.shape,))


@pytest.mark.parametrize("entry", sorted(SYMBOL_ENTRY_POINTS))
def test_entry_points_refuse_non_finite_symbol_values(entry):
    with pytest.raises(ValueError, match="symbol values must be finite"):
        SYMBOL_ENTRY_POINTS[entry](np.array([1.0, np.nan, 1.0, 1.0]))
