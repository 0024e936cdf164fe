"""Suite configuration, report structure, failure formatting, and the stacked
norm cells against their per-matrix form."""

import json
import math
import re
from dataclasses import fields

import numpy as np
import pytest

from sepmult import verify
from sepmult.classify import InvalidTrials, fourier_multiplier_map
from sepmult.groups import UnknownFamily, builtin_group, enumerate_characters
from sepmult.linalg import (
    frobenius,
    hermitian_eig,
    polar_decompose,
    random_unitary,
    schatten_norm,
    svd,
)
from sepmult.vna import regular_representation
from sepmult.verify import (
    EmptySuite,
    SuiteConfig,
    SuiteError,
    config_from_json,
    config_to_json,
    default_config,
    format_report,
    load_group,
    report_passed,
    run_suite,
)

TINY = dict(groups=("cyclic(1)",), trials=5, matrix_dims=(2,))


def test_default_config_is_valid_and_round_trips():
    config = default_config()
    assert "cyclic(2)" in config.groups
    back = config_from_json(config_to_json(config))
    assert back == config


def test_config_round_trip_preserves_overrides():
    config = SuiteConfig(**TINY)
    back = config_from_json(config_to_json(config))
    assert back == config
    assert back.groups == ("cyclic(1)",)


def test_config_round_trip_with_every_field_changed():
    config = SuiteConfig(
        groups=("cyclic(2)", "dihedral(3)"), trials=7, seed=11, tol=1e-7,
        output="report.json", matrix_dims=(4,),
        injected=({"kind": "fourier", "group": "cyclic(2)",
                   "symbol": [[1.0, 0.0], [1.0, 0.0]], "expect": "separating"},))
    for f in fields(SuiteConfig):
        assert getattr(config, f.name) != f.default, f.name
    obj = config_to_json(config)
    assert list(obj) == [f.name for f in fields(SuiteConfig)]
    assert config_from_json(json.loads(json.dumps(obj))) == config


def test_config_takes_groups_and_dims_from_any_iterable():
    # an iterator is read once: the dims are not checked on one pass and
    # then found empty on the next
    config = SuiteConfig(groups=iter(["cyclic(2)"]), matrix_dims=iter([2, 3]))
    assert (config.groups, config.matrix_dims) == (("cyclic(2)",), (2, 3))


def test_config_rejects_bad_values():
    with pytest.raises(InvalidTrials):
        SuiteConfig(trials=0)
    with pytest.raises(SuiteError):
        SuiteConfig(tol=0.0)
    with pytest.raises(SuiteError, match="matrix dimension must be at least 1, got 0"):
        SuiteConfig(matrix_dims=(0,))
    # no entry is cast: 2.7 would run dimension 2 and "3" dimension 3
    for dim in (2.7, "3"):
        with pytest.raises(SuiteError, match="matrix dimension must be an integer"):
            SuiteConfig(matrix_dims=(dim,))
    with pytest.raises(SuiteError, match="groups lists cyclic\\(2\\) twice"):
        SuiteConfig(groups=("cyclic(2)", "cyclic(3)", "cyclic(2)"))
    with pytest.raises(SuiteError, match="matrix_dims lists 2 twice"):
        SuiteConfig(matrix_dims=(2, 3, 2))
    with pytest.raises(SuiteError):
        SuiteConfig(injected=({"kind": "mystery", "expect": "separating"},))
    with pytest.raises(SuiteError):
        SuiteConfig(injected=({"kind": "fourier", "expect": "maybe"},))
    with pytest.raises(SuiteError):
        SuiteConfig(injected=(5,))


def test_config_from_json_rejects_non_object():
    with pytest.raises(SuiteError):
        config_from_json([1, 2])
    with pytest.raises(SuiteError):
        config_from_json({"trials": "many"})


@pytest.mark.parametrize("obj", [
    {"trials": 2.7},                 # a float is no count
    {"trials": True},                # nor is a bool
    {"groups": "cyclic(3)"},         # a string is no group list
    {"injected": [5]},               # an injected case is an object
    {"matrix_dims": [2.5]},
    {"tol": "1e-9"},
    {"output": 5},
])
def test_config_from_json_casts_nothing(obj):
    with pytest.raises(SuiteError):
        config_from_json(obj)


def test_empty_group_list_raises():
    with pytest.raises(EmptySuite):
        run_suite(SuiteConfig(groups=()))


def test_load_group_dispatches_on_name_vs_path(tmp_path):
    assert load_group("cyclic(3)").order == 3
    import json

    from sepmult.groups import group_to_json
    g = builtin_group("dihedral(3)")
    path = tmp_path / "g.json"
    path.write_text(json.dumps(group_to_json(g)), encoding="utf-8")
    assert np.array_equal(load_group(str(path)).mul, g.mul)
    with pytest.raises(UnknownFamily):
        load_group("octonion")


def test_tiny_suite_report_shape():
    groups = ("cyclic(1)", "cyclic(2)")
    dims = (1, 2)
    report = run_suite(SuiteConfig(**dict(TINY, groups=groups, matrix_dims=dims)))
    assert report_passed(report)
    assert report["tool"]["name"] == "sepmult"
    assert report["summary"]["total"] == len(report["cells"])
    assert report["summary"]["failed_cells"] == []
    names = [cell["name"] for cell in report["cells"]]
    group_families = ("characters/completeness", "fourier/forward",
                      "fourier/converse", "fourier/cross-p", "yeadon/fourier",
                      "positive-definite", "herz-schur/recovery", "vna/norms")
    dim_families = ("schur/factor", "schur/converse", "schur/transpose",
                    "yeadon/schur")
    assert names == sorted(
        ["%s/%s" % (family, label) for family in group_families for label in groups]
        + ["%s/dim%d" % (family, n) for family in dim_families for n in dims]
        + ["linalg/invariants"])
    for cell in report["cells"]:
        assert set(cell) == {"name", "passed", "residual", "detail", "wall_ms"}
    text = format_report(report)
    assert "cells passed" in text
    assert "FAIL" not in text


def test_injected_failure_shows_in_report():
    config = SuiteConfig(injected=({
        "kind": "schur",
        "matrix": {"dim": 2, "re": [[1.0, 1.0], [1.0, -1.0]],
                   "im": [[0.0, 0.0], [0.0, 0.0]]},
        "expect": "separating",  # the Hadamard symbol is not separating
    },), **TINY)
    report = run_suite(config)
    assert not report_passed(report)
    assert report["summary"]["failed_cells"] == ["injected/schur/0"]
    text = format_report(report)
    assert "FAIL injected/schur/0" in text
    assert "failing: injected/schur/0" in text


# ---------------------------------------------------------------------------
# the stacked norm cells against their per-matrix form


def _reference_linalg(config):
    """``linalg/invariants`` as one LAPACK call per matrix and exponent, in
    the draw order of the stacked cell."""
    rng = verify._rng(config, "linalg")
    worst = dict.fromkeys(("sigma", "polar", "trace", "holder", "unitary"), 0.0)
    for _ in range(40):
        n = int(rng.integers(1, 13))
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        u1, u2 = random_unitary(n, rng), random_unitary(n, rng)
        scale = max(frobenius(a), 1e-300)
        _, sigma, _ = svd(a)
        gram = a.conj().T @ a
        vals, _ = hermitian_eig(0.5 * (gram + gram.conj().T))
        roots = np.sqrt(np.clip(vals[::-1], 0.0, None))
        worst["sigma"] = max(worst["sigma"], float(np.max(np.abs(sigma - roots))) / scale)
        w_mat, b_mat = polar_decompose(a)
        worst["polar"] = max(worst["polar"], frobenius(a - w_mat @ b_mat) / scale)
        two = schatten_norm(a, 2.0, 1.0)
        trace = float(np.real(np.trace(a.conj().T @ a)))
        worst["trace"] = max(worst["trace"], abs(two * two - trace) / max(trace, 1e-300))
        weight = 1.0 if n % 2 else 1.0 / n
        for p in (1.0, 1.5, 2.0, 3.0):
            q = math.inf if p == 1.0 else p / (p - 1.0)
            lhs = abs(weight * np.trace(a @ b))
            rhs = schatten_norm(a, p, weight) * schatten_norm(b, q, weight)
            if lhs > rhs:
                worst["holder"] = max(worst["holder"], (lhs - rhs) / max(rhs, 1e-300))
        base = schatten_norm(a, 1.5, weight)
        moved = schatten_norm(u1 @ a @ u2, 1.5, weight)
        worst["unitary"] = max(worst["unitary"], abs(moved - base) / max(base, 1e-300))
    ok = (worst["sigma"] <= 1e-10 and worst["polar"] <= 1e-10
          and max(worst["trace"], worst["holder"], worst["unitary"]) <= config.tol)
    return ok, list(worst.values())


def _reference_vna_norms(g, label, config):
    """``vna/norms`` as one LAPACK call per element and exponent."""
    rng = verify._rng(config, "vna-norms", label)
    worst = 0.0
    n = g.order
    for s in range(min(n, 4)):
        for t in range(min(n, 4)):
            ls, lt = regular_representation(g, s), regular_representation(g, t)
            worst = max(worst, frobenius(ls @ lt - regular_representation(g, g.mul[s, t])))
            worst = max(worst, frobenius(ls.conj().T - regular_representation(g, g.inv[s])))
    psi = fourier_multiplier_map(g, enumerate_characters(g)[-1].values)
    for _ in range(8):
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        xm = x[g.rebuild_grid]
        euclid = float(np.linalg.norm(x))
        worst = max(worst, abs(schatten_norm(xm, 2.0, 1.0 / n) - euclid) / max(euclid, 1e-300))
        for p in (1.0, 2.0, 3.0):
            base = schatten_norm(xm, p, 1.0 / n)
            moved = schatten_norm(psi.apply(xm), p, 1.0 / n)
            worst = max(worst, abs(moved - base) / max(base, 1e-300))
    return worst <= config.tol, [worst]


def _figures(detail):
    return [float(x) for x in re.findall(r"\d[\d.]*(?:e[-+]\d+)?", detail)]


NORM_GROUPS = ("cyclic(1)", "cyclic(3)", "symmetric(3)", "quaternion8")


@pytest.mark.parametrize("seed", [0, 1, 7, 36])
def test_stacked_norm_cells_match_their_per_matrix_form(seed):
    config = SuiteConfig(seed=seed)
    cases = [(verify._cell_linalg, _reference_linalg, (config,))]
    cases += [(verify._cell_vna_norms, _reference_vna_norms,
               (builtin_group(label), label, config)) for label in NORM_GROUPS]
    for cell, reference, args in cases:
        ok, residual, detail = cell(*args)
        ref_ok, ref_residuals = reference(*args)
        assert ok == ref_ok
        assert abs(residual - max(ref_residuals)) <= 1e-14
        figures = _figures(detail)
        assert len(figures) == len(ref_residuals)
        for figure, ref in zip(figures, ref_residuals):
            assert abs(figure - ref) <= 1e-14, detail


def _perturb_mid_stack(monkeypatch, name, call, perturb):
    """Wrap ``verify.<name>`` so that on its ``call``-th call (from 0) on a
    stack of three or more matrices the result for the middle matrix is
    perturbed; returns the list that records that matrix's index."""
    original = getattr(verify, name)
    stacked = []
    hit = []

    def wrapper(a, *args, **kwargs):
        out = original(a, *args, **kwargs)
        if np.ndim(a) == 3 and len(a) >= 3:
            stacked.append(len(a))
            if len(stacked) == call + 1:
                hit.append(len(a) // 2)
                perturb(out, hit[0])
        return out

    monkeypatch.setattr(verify, name, wrapper)
    return hit


def _nudge(array, k):
    array[k] *= 1.0 + 1e-6


def _zero(array, k):
    array[k] = 0.0


def _nan(array, k):
    array[k] = np.nan


def _linalg_cell(config):
    return verify._cell_linalg(config)


def _vna_cell(config):
    return verify._cell_vna_norms(builtin_group("symmetric(3)"), "symmetric(3)", config)


#: (cell, function, stacked call, perturbation of its result): in each size
#: the linalg cell takes the singular values of a, b and u1 a u2 in turn,
#: and the vna cell those of x and M_psi(x)
FAULTS = {
    "linalg/svd": (_linalg_cell, "svd", 0, lambda out, k: _nudge(out[1], k)),
    "linalg/eig": (_linalg_cell, "hermitian_eig", 0, lambda out, k: _nudge(out[0], k)),
    "linalg/polar": (_linalg_cell, "polar_decompose", 0, lambda out, k: _nudge(out[0], k)),
    "linalg/a": (_linalg_cell, "singular_values", 0, _zero),
    "linalg/b": (_linalg_cell, "singular_values", 1, _zero),
    "linalg/u1-a-u2": (_linalg_cell, "singular_values", 2, _zero),
    "linalg/nan": (_linalg_cell, "singular_values", 0, _nan),
    "vna/x": (_vna_cell, "singular_values", 0, _zero),
    "vna/moved": (_vna_cell, "singular_values", 1, _zero),
    "vna/nan": (_vna_cell, "singular_values", 1, _nan),
}


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_a_fault_in_one_matrix_mid_stack_fails_its_cell(monkeypatch, fault):
    cell, name, call, perturb = FAULTS[fault]
    hit = _perturb_mid_stack(monkeypatch, name, call, perturb)
    ok, residual, detail = cell(SuiteConfig())
    assert hit and hit[0] > 0
    # a NaN must fail the cell too, not vanish from the stack's maximum
    assert not ok and not residual <= 1e-7, detail
