"""The input rules every entry point shares: a tolerance is a number with
0 < tol < 1, a Schatten exponent a real number p >= 1, a trial count a
positive integer, a seed a Python or numpy integer, and a function on a group
is a 1-D array with one finite value per element."""

import math

import numpy as np
import pytest

from sepmult.classify import (
    InvalidTrials,
    LinearMap,
    classify_fourier,
    classify_schur,
    fourier_multiplier_map,
    isometry_test,
    positive_definite_test,
    schur_multiplier_map,
    separating_test,
    verdict_to_json,
    yeadon_extract,
)
from sepmult.groups import (
    Character,
    builtin_group,
    enumerate_characters,
    fit_scalar_character,
)
from sepmult.linalg import (
    InvalidExponent,
    check_p,
    hermitian_eig,
    polar_decompose,
    schatten_norm,
)
from sepmult.schur import (
    herz_schur_symbol,
    rank_one_unimodular_factor,
    recover_character,
)
from sepmult.verify import SuiteConfig, SuiteError

BAD_TOLS = (math.nan, math.inf, 0.0, -1.0, 1.0, 2.0)

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
    # a zero pivot passes the moduli test only at tol >= 1
    "classify_schur_zero_pivot": lambda tol: classify_schur(
        [[0.0, 1.0], [1.0, 1.0]], trials=4, tol=tol),
    "fit_scalar_character": lambda tol: fit_scalar_character(C3, NON_CHARACTER, tol),
    "fit_scalar_character_zero": lambda tol: fit_scalar_character(C3, np.zeros(3), tol),
    "rank_one_unimodular_factor": lambda tol: rank_one_unimodular_factor(
        NON_FACTORABLE, tol),
    "recover_character": lambda tol: recover_character(C3, _certificate(), tol),
    "positive_definite_test": lambda tol: positive_definite_test(C3, NON_CHARACTER, tol),
}


@pytest.mark.parametrize("tol", BAD_TOLS)
@pytest.mark.parametrize("entry", sorted(TOL_ENTRY_POINTS))
def test_entry_points_refuse_a_tolerance_outside_the_open_unit_interval(entry, tol):
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        TOL_ENTRY_POINTS[entry](tol)


@pytest.mark.parametrize("entry", [hermitian_eig, polar_decompose])
def test_hermitian_gate_and_polar_cutoff_take_no_tolerance(entry):
    # both read DEFAULT_TOL; a tolerance passed to them is an error
    with pytest.raises(TypeError):
        entry(np.eye(2), 1e-3)


@pytest.mark.parametrize("tol", BAD_TOLS)
def test_suite_config_refuses_a_tolerance_outside_the_open_unit_interval(tol):
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
    # the n x n symbol [phi(u t^-1)] where phi belongs
    "n-by-n": np.ones((4, 4)),
}

SYMBOL_ENTRY_POINTS = {
    "LinearMap": lambda phi: LinearMap(phi, C4),
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
def test_entry_points_refuse_a_symbol_of_another_length(entry):
    with pytest.raises(ValueError) as caught:
        SYMBOL_ENTRY_POINTS[entry](np.ones(3))
    assert str(caught.value) == (
        "symbol needs shape (4,), one value per group element, got (3,)")


@pytest.mark.parametrize("entry", sorted(SYMBOL_ENTRY_POINTS))
def test_entry_points_refuse_non_finite_symbol_values(entry):
    with pytest.raises(ValueError, match="symbol values must be finite"):
        SYMBOL_ENTRY_POINTS[entry](np.array([1.0, np.nan, 1.0, 1.0]))


#: finite real and imaginary parts whose modulus is not a finite float
HUGE = complex(1.5e308, 1.5e308)


@pytest.mark.parametrize("classify", [
    lambda: classify_fourier(builtin_group("cyclic(2)"), [HUGE] * 2),
    lambda: classify_schur([[HUGE] * 2] * 2),
    lambda: fit_scalar_character(C4, [1.0, HUGE, 1.0, 1.0]),
    lambda: rank_one_unimodular_factor([[1.0, 1.0], [1.0, HUGE]]),
], ids=["classify_fourier", "classify_schur", "fit_scalar_character",
        "rank_one_unimodular_factor"])
def test_symbols_whose_moduli_exceed_the_float_range_are_refused(classify):
    with pytest.raises(ValueError, match="symbol moduli exceed the float range"):
        classify()


#: the characters of cyclic(4) as the columns of exp(2 pi i j k / 4); a
#: column is a strided view of a complex array
FOURIER_MATRIX = np.exp(2j * np.pi * np.outer(np.arange(4), np.arange(4)) / 4)


def test_entry_points_take_a_column_of_a_complex_matrix():
    column = FOURIER_MATRIX[:, 1]
    assert not column.flags.c_contiguous
    assert classify_fourier(C4, column).status == "separating"
    c, psi = fit_scalar_character(C4, column)
    assert c == 1.0
    np.testing.assert_array_equal(psi.values, fit_scalar_character(C4, column.copy())[1].values)
    np.testing.assert_array_equal(herz_schur_symbol(C4, column),
                                  herz_schur_symbol(C4, column.copy()))
    np.testing.assert_array_equal(Character(C4, column).values, column)
    np.testing.assert_array_equal(fourier_multiplier_map(C4, column).symbol,
                                  column[C4.rebuild_grid])


@pytest.mark.parametrize("bad", [np.nan, complex(1.0, np.inf)], ids=repr)
@pytest.mark.parametrize("entry", sorted(SYMBOL_ENTRY_POINTS))
def test_entry_points_refuse_non_finite_values_in_a_strided_view(entry, bad):
    m = FOURIER_MATRIX.copy()
    m[2, 1] = bad
    with pytest.raises(ValueError, match="symbol values must be finite"):
        SYMBOL_ENTRY_POINTS[entry](m[:, 1])


GOOD_EXPONENTS = (np.int64(2), np.float32(2), np.float64(2), np.int32(1), 2, 2.0,
                   math.inf, np.float64(math.inf))


@pytest.mark.parametrize("p", GOOD_EXPONENTS, ids=repr)
def test_exponent_entry_points_accept_numpy_scalars(p):
    assert check_p(p) == float(p) and type(check_p(p)) is float
    assert schatten_norm(np.eye(2), p) == pytest.approx(2.0 ** (1.0 / float(p)))
    t = schur_multiplier_map(NON_FACTORABLE)
    assert separating_test(t, p=p, trials=4).p == float(p)
    assert isometry_test(t, p=p, trials=4)[1] > 0.0


@pytest.mark.parametrize("p", (math.nan, 0.5, -math.inf, 0, "2", None, 2j, True),
                         ids=repr)
def test_exponent_entry_points_refuse_anything_but_a_real_p_of_at_least_one(p):
    with pytest.raises(InvalidExponent, match="must satisfy p >= 1"):
        check_p(p)
    with pytest.raises(InvalidExponent, match="must satisfy p >= 1"):
        schatten_norm(np.eye(2), p)
    with pytest.raises(InvalidExponent, match="must satisfy p >= 1"):
        classify_schur(NON_FACTORABLE, p=p, trials=4)


#: verdicts that never sample isometry: a certified symbol whose scale is not
#: unimodular, and symbols with no certificate
TRIAL_ENTRY_POINTS = {
    "classify_fourier_scaled": lambda **kw: classify_fourier(
        C3, 2.0 * enumerate_characters(C3)[1].values, **kw),
    "classify_fourier_refuted": lambda **kw: classify_fourier(C3, NON_CHARACTER, **kw),
    "classify_schur_scaled": lambda **kw: classify_schur(2.0 * np.ones((2, 2)), **kw),
    "classify_schur_refuted": lambda **kw: classify_schur(NON_FACTORABLE, **kw),
}


@pytest.mark.parametrize("count", (0, -1, 2.5, "3", None, True), ids=repr)
@pytest.mark.parametrize("keyword", ("trials", "isometry_trials"))
@pytest.mark.parametrize("entry", sorted(TRIAL_ENTRY_POINTS))
def test_classifiers_refuse_a_trial_count_that_is_not_a_positive_integer(
        entry, keyword, count):
    with pytest.raises(InvalidTrials, match="must be a positive integer"):
        TRIAL_ENTRY_POINTS[entry](**{keyword: count})


def test_suite_config_takes_a_numpy_trial_count_as_the_classifiers_do():
    config = SuiteConfig(trials=np.int64(5))
    assert type(config.trials) is int and config.trials == 5


def test_suite_config_refuses_a_bool_trial_count_or_matrix_dim():
    with pytest.raises(InvalidTrials, match="must be a positive integer"):
        SuiteConfig(trials=True)
    with pytest.raises(SuiteError, match="matrix dimension must be an integer, got True"):
        SuiteConfig(matrix_dims=(2, True))


#: a seed is a Python or numpy integer; no bool, float or string is one
BAD_SEEDS = (0.5, 1.5, True, np.bool_(True), "1", None)

SEED_ENTRY_POINTS = dict(
    TRIAL_ENTRY_POINTS,
    separating_test=lambda **kw: separating_test(
        schur_multiplier_map(NON_FACTORABLE), trials=4, **kw),
    isometry_test=lambda **kw: isometry_test(
        schur_multiplier_map(NON_FACTORABLE), trials=4, **kw),
)


@pytest.mark.parametrize("seed", BAD_SEEDS, ids=repr)
@pytest.mark.parametrize("entry", sorted(SEED_ENTRY_POINTS))
def test_entry_points_refuse_a_seed_that_is_not_an_integer(entry, seed):
    with pytest.raises(ValueError, match="seed must be an integer"):
        SEED_ENTRY_POINTS[entry](seed=seed)


@pytest.mark.parametrize("seed", BAD_SEEDS, ids=repr)
def test_suite_config_refuses_a_seed_that_is_not_an_integer(seed):
    with pytest.raises(SuiteError, match="seed must be an integer"):
        SuiteConfig(seed=seed)


@pytest.mark.parametrize("seed", (np.int64(5), np.uint16(5), np.int8(5)), ids=repr)
def test_seed_entry_points_accept_numpy_integers(seed):
    got = classify_schur(NON_FACTORABLE, trials=4, seed=seed)
    assert type(got.seed) is int
    assert verdict_to_json(got) == verdict_to_json(
        classify_schur(NON_FACTORABLE, trials=4, seed=5))
    assert type(SuiteConfig(seed=seed).seed) is int and SuiteConfig(seed=seed).seed == 5
