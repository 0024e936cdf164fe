"""Finite groups, character enumeration, scalar-character fitting."""

import time

import numpy as np
import pytest

from sepmult import groups
from sepmult.groups import (
    Character,
    FiniteGroup,
    GroupTooLarge,
    InvalidGroupTable,
    UnknownFamily,
    builtin_group,
    commutator_subgroup,
    direct_product,
    enumerate_characters,
    fit_scalar_character,
    group_from_json,
    group_to_json,
    same_group,
    trivial_character,
)

DISTINCT_FLOOR = 0.5

#: the groups of the acceptance criteria
ACCEPTANCE_GROUPS = (
    "cyclic(1)", "cyclic(2)", "cyclic(3)", "cyclic(4)", "cyclic(5)",
    "cyclic(6)", "cyclic(7)", "cyclic(8)", "cyclic(2)xcyclic(2)",
    "symmetric(3)", "symmetric(4)", "dihedral(4)", "quaternion8",
)

# order-5 loop: Latin square, two-sided identity and inverses, yet
# (1*1)*2 = 2 while 1*(1*2) = 4
NONASSOC_TABLE = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 4, 0, 1, 3],
    [3, 2, 4, 0, 1],
    [4, 3, 1, 2, 0],
]

# order-5 loop where 2*3 = 0 but 3*2 = 1: no two-sided inverse for 2
NO_INVERSE_TABLE = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 3, 4, 0, 1],
    [3, 4, 1, 2, 0],
    [4, 2, 0, 1, 3],
]


# ---------------------------------------------------------------------------
# construction and builtins


@pytest.mark.parametrize("name,order,abelian", [
    ("cyclic(1)", 1, True),
    ("cyclic(2)", 2, True),
    ("cyclic(8)", 8, True),
    ("cyclic(2)xcyclic(2)", 4, True),
    ("dihedral(3)", 6, False),
    ("dihedral(4)", 8, False),
    ("quaternion8", 8, False),
    ("symmetric(3)", 6, False),
    ("symmetric(4)", 24, False),
    ("cyclic(3)xsymmetric(3)", 18, False),
])
def test_builtin_orders_and_abelianness(name, order, abelian):
    g = builtin_group(name)
    assert g.order == order
    assert g.is_abelian() is abelian
    assert g.mul[g.identity, 0] == 0


@pytest.mark.parametrize("name", [
    "cyclic(0)", "dihedral(0)", "symmetric(5)", "symmetric(2)",
    "alternating(4)", "", "x", "cyclic(2)x", "cyclic(-1)",
])
def test_unknown_family(name):
    with pytest.raises(UnknownFamily):
        builtin_group(name)


def test_dihedral_relations():
    g = builtin_group("dihedral(4)")
    r, s = 1, 4  # rotation by one step, a reflection
    assert g.element_order(r) == 4
    assert g.element_order(s) == 2
    # s r s^-1 = r^-1
    conj = g.multiply(g.multiply(s, r), g.inverse(s))
    assert conj == g.inverse(r)


def test_quaternion_relations():
    g = builtin_group("quaternion8")
    i = g.names.index("i")
    j = g.names.index("j")
    k = g.names.index("k")
    minus = g.names.index("-1")
    assert g.multiply(i, j) == k
    assert g.multiply(j, i) == g.names.index("-k")
    assert g.multiply(i, i) == minus
    assert g.element_order(minus) == 2
    assert g.element_order(i) == 4


def test_direct_product_indexing():
    a = builtin_group("cyclic(2)")
    b = builtin_group("cyclic(3)")
    g = direct_product(a, b)
    assert g.order == 6
    # (1, 1) * (1, 2) = (0, 0)
    assert g.multiply(1 * 3 + 1, 1 * 3 + 2) == 0


def test_involutions():
    assert builtin_group("cyclic(2)").involutions() == [1]
    assert builtin_group("quaternion8").involutions() == [1]
    assert builtin_group("cyclic(3)").involutions() == []
    assert len(builtin_group("symmetric(3)").involutions()) == 3


def test_closure_generates_subgroup():
    g = builtin_group("symmetric(3)")
    invol = g.involutions()[0]
    sub = g.closure([invol])
    assert len(sub) == 2
    assert g.identity in sub


@pytest.mark.parametrize("table,message", [
    ([[0, 1], [1, 1]], "Latin"),
    ([[0, 1, 2], [2, 0, 1], [1, 2, 0]], "identity"),
    (NO_INVERSE_TABLE, "inverse"),
    (NONASSOC_TABLE, "associative"),
    ([[0, 1]], "square"),
    ([], "square"),
    ([[0, 5], [5, 0]], "indices"),
])
def test_invalid_tables(table, message):
    with pytest.raises(InvalidGroupTable, match=message):
        FiniteGroup(table)


def test_nonassociative_table_above_order_64_is_rejected():
    # the order-5 loop times cyclic(13): order 65
    loop = np.array(NONASSOC_TABLE)
    i, j = np.divmod(np.arange(65), 13)
    table = loop[np.ix_(i, i)] * 13 + (j[:, None] + j[None, :]) % 13
    with pytest.raises(InvalidGroupTable, match="associative"):
        FiniteGroup(table)


def test_order_256_validation_within_budget():
    table = builtin_group("cyclic(256)").mul
    seconds = []
    for _ in range(3):
        start = time.perf_counter()
        FiniteGroup(table)
        seconds.append(time.perf_counter() - start)
    assert min(seconds) <= 0.5


def test_name_length_mismatch():
    with pytest.raises(InvalidGroupTable):
        FiniteGroup([[0, 1], [1, 0]], names=["e"])


def test_same_group():
    assert same_group(builtin_group("cyclic(3)"), builtin_group("cyclic(3)"))
    assert not same_group(builtin_group("cyclic(3)"), builtin_group("cyclic(4)"))


# ---------------------------------------------------------------------------
# commutator subgroup


def test_commutator_abelian_is_trivial():
    g = builtin_group("cyclic(6)")
    assert commutator_subgroup(g) == (g.identity,)


def test_commutator_sizes():
    assert len(commutator_subgroup(builtin_group("symmetric(3)"))) == 3
    assert len(commutator_subgroup(builtin_group("quaternion8"))) == 2
    assert len(commutator_subgroup(builtin_group("dihedral(4)"))) == 2
    assert len(commutator_subgroup(builtin_group("symmetric(4)"))) == 12


# ---------------------------------------------------------------------------
# characters


@pytest.mark.parametrize("name,count", [
    ("cyclic(1)", 1),
    ("cyclic(5)", 5),
    ("cyclic(2)xcyclic(2)", 4),
    ("symmetric(3)", 2),
    ("symmetric(4)", 2),
    ("dihedral(4)", 4),
    ("quaternion8", 4),
])
def test_character_counts(name, count):
    g = builtin_group(name)
    chars = enumerate_characters(g)
    assert len(chars) == count
    assert g.order // len(commutator_subgroup(g)) == count


def test_characters_validate_and_start_trivial():
    for name in ("cyclic(6)", "dihedral(3)", "quaternion8"):
        g = builtin_group(name)
        chars = enumerate_characters(g)
        np.testing.assert_allclose(chars[0].values, np.ones(g.order), atol=1e-12)
        for psi in chars:
            psi.validate(tol=1e-12)


def test_characters_pairwise_distinct():
    for name in ("cyclic(8)", "cyclic(2)xcyclic(4)", "dihedral(4)"):
        chars = enumerate_characters(builtin_group(name))
        for a in range(len(chars)):
            for b in range(a + 1, len(chars)):
                gap = float(np.max(np.abs(chars[a].values - chars[b].values)))
                assert gap > DISTINCT_FLOOR


def test_characters_kill_commutators():
    g = builtin_group("symmetric(4)")
    derived = commutator_subgroup(g)
    for psi in enumerate_characters(g):
        for d in derived:
            assert psi(d) == pytest.approx(1.0, abs=1e-12)


def test_cyclic4_character_values():
    g = builtin_group("cyclic(4)")
    chars = enumerate_characters(g)
    want = {
        tuple(np.round(np.exp(2j * np.pi * j * np.arange(4) / 4), 12))
        for j in range(4)
    }
    got = {tuple(np.round(psi.values, 12)) for psi in chars}
    assert got == want


def test_symmetric3_characters_are_trivial_and_sign():
    g = builtin_group("symmetric(3)")
    chars = enumerate_characters(g)
    sign = np.array([1, -1, -1, 1, 1, -1], dtype=np.complex128)
    got = {tuple(np.round(psi.values.real, 12)) for psi in chars}
    assert got == {tuple(np.ones(6)), tuple(sign.real)}


def test_characters_cached_per_group():
    g = builtin_group("cyclic(4)")
    assert enumerate_characters(g) is enumerate_characters(g)


def test_character_enumeration_order_cap():
    big = builtin_group("cyclic(8)xcyclic(9)")
    with pytest.raises(GroupTooLarge):
        enumerate_characters(big)


def test_enumeration_with_redundant_generators():
    # 32 characters among 256 eigenvectors, most of them from the
    # two-dimensional representations of quaternion8
    g = builtin_group("quaternion8xcyclic(8)")
    chars = enumerate_characters(g)
    assert len(chars) == 32
    for psi in chars:
        psi.validate(tol=1e-12)


#: groups up to order 64 on which the enumeration is pinned structurally
ENUMERATION_GROUPS = (
    "cyclic(1)", "cyclic(7)", "cyclic(64)", "dihedral(5)", "dihedral(32)",
    "symmetric(4)", "quaternion8", "cyclic(3)xcyclic(5)",
    "quaternion8xcyclic(8)", "cyclic(2)xcyclic(2)xcyclic(2)xcyclic(2)xcyclic(2)xcyclic(2)",
    "symmetric(4)xcyclic(2)", "quaternion8xquaternion8", "dihedral(4)xdihedral(4)",
)


def _exponents(g, chars):
    """Exponent vectors k with psi(s) = exp(2 pi i k[s] / |G|)."""
    turns = np.angle([psi.values for psi in chars]) / (2 * np.pi)
    return np.rint(turns * g.order).astype(np.int64) % g.order


@pytest.mark.parametrize("name", ENUMERATION_GROUPS)
def test_enumeration_is_the_sorted_exact_character_list(name):
    g = builtin_group(name)
    chars = enumerate_characters(g)
    k = _exponents(g, chars)
    assert len(chars) == g.order // len(commutator_subgroup(g))
    assert not k[0].any()
    rows = [tuple(row) for row in k.tolist()]
    assert all(a < b for a, b in zip(rows, rows[1:]))
    assert groups._homomorphisms(g, k).all()
    for psi, row in zip(chars, k):
        assert np.array_equal(psi.values, groups._roots_of_unity(g.order, row))


@pytest.mark.parametrize("name", ("cyclic(12)", "dihedral(6)", "symmetric(4)",
                                  "quaternion8xcyclic(8)", "cyclic(4)xcyclic(4)xcyclic(4)"))
def test_enumeration_does_not_depend_on_the_spectral_seed(name, monkeypatch):
    want = [psi.values for psi in enumerate_characters(builtin_group(name))]
    for seed in (1, 2, 12345, 0xDEADBEEF, 2**63 + 7):
        monkeypatch.setattr(groups, "_SPECTRAL_SEED", seed)
        got = [psi.values for psi in enumerate_characters(builtin_group(name))]
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert np.array_equal(a, b)


def test_character_constructor_checks_length():
    g = builtin_group("cyclic(3)")
    with pytest.raises(ValueError):
        Character(g, np.ones(4))


def test_character_validate_rejects_nonmultiplicative():
    g = builtin_group("cyclic(3)")
    bad = Character(g, np.array([1.0, 1.0, -1.0]))
    with pytest.raises(ValueError):
        bad.validate()


# ---------------------------------------------------------------------------
# scalar-character fitting


def test_fit_scaled_sign():
    g = builtin_group("symmetric(3)")
    sign = next(psi for psi in enumerate_characters(g)
                if abs(psi.values.sum()) < 1e-9)
    c, psi = fit_scalar_character(g, 2.0 * sign.values)
    assert c == pytest.approx(2.0)
    np.testing.assert_allclose(psi.values, sign.values, atol=1e-12)


def test_fit_complex_scale():
    g = builtin_group("cyclic(4)")
    target = enumerate_characters(g)[1]
    c, psi = fit_scalar_character(g, (1 - 2j) * target.values)
    assert c == pytest.approx(1 - 2j)
    np.testing.assert_allclose(psi.values, target.values, atol=1e-12)


def test_fit_indicator_fails():
    g = builtin_group("cyclic(2)")
    assert fit_scalar_character(g, np.array([1.0, 0.0])) is None


def test_fit_zero_symbol():
    g = builtin_group("cyclic(3)")
    c, psi = fit_scalar_character(g, np.zeros(3))
    assert c == 0
    np.testing.assert_allclose(psi.values, trivial_character(g).values)


def test_fit_respects_tolerance():
    g = builtin_group("cyclic(3)")
    psi = enumerate_characters(g)[1]
    noisy = psi.values + 1e-6
    assert fit_scalar_character(g, noisy, tol=1e-9) is None
    c, fit = fit_scalar_character(g, noisy, tol=1e-4)
    np.testing.assert_allclose(fit.values, psi.values, atol=1e-12)


def test_fit_refuses_unimodular_roots_that_do_not_multiply():
    # every value is a cube root of unity, so only the table test refuses
    g = builtin_group("cyclic(3)")
    w = np.exp(2j * np.pi / 3)
    assert fit_scalar_character(g, np.array([1.0, w, w])) is None


@pytest.mark.parametrize("name", ACCEPTANCE_GROUPS)
def test_fit_returns_the_enumerated_character_exactly(name):
    g = builtin_group(name)
    for chi in enumerate_characters(g):
        for c in (1.0, -0.5 + 2j, 1e-170, 1e170):
            got_c, psi = fit_scalar_character(g, c * chi.values)
            assert got_c == c
            assert np.array_equal(psi.values, chi.values)


@pytest.mark.parametrize("name", ["cyclic(65)", "cyclic(128)", "dihedral(64)"])
def test_fit_above_the_enumeration_cap(name, monkeypatch):
    def refuse(g):
        raise AssertionError("the fit must not enumerate characters")

    monkeypatch.setattr(groups, "enumerate_characters", refuse)
    g = builtin_group(name)
    s = np.arange(g.order)
    if name.startswith("dihedral"):
        chi = np.where(s < g.order // 2, 1.0, -1.0)   # rotations come first
    else:
        chi = np.exp(2j * np.pi * 7 * s / g.order)
    c, psi = fit_scalar_character(g, 3j * chi)
    assert c == 3j
    np.testing.assert_allclose(psi.values, chi, atol=1e-12)
    psi.validate(tol=1e-12)
    bent = 3j * chi
    bent[5] *= np.exp(2j * np.pi / g.order)
    assert fit_scalar_character(g, bent) is None


def test_fit_rejects_bad_symbols():
    g = builtin_group("cyclic(2)")
    with pytest.raises(ValueError):
        fit_scalar_character(g, np.ones(3))
    with pytest.raises(ValueError):
        fit_scalar_character(g, np.array([np.nan, 1.0]))


# ---------------------------------------------------------------------------
# serialization


def test_group_json_round_trip():
    g = builtin_group("dihedral(3)")
    back = group_from_json(group_to_json(g))
    assert same_group(g, back)
    assert back.names == g.names


def test_group_json_rejects_malformed():
    with pytest.raises(InvalidGroupTable):
        group_from_json(None)
    with pytest.raises(InvalidGroupTable):
        group_from_json({"order": 2})
    with pytest.raises(InvalidGroupTable):
        group_from_json({"order": 3, "mul": [[0, 1], [1, 0]]})
