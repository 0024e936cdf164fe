"""Suite configuration, report structure, and failure formatting."""

import json
from dataclasses import fields

import pytest

from sepmult.classify import InvalidTrials
from sepmult.groups import UnknownFamily, builtin_group, same_group
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
    with pytest.raises(SuiteError):
        SuiteConfig(matrix_dims=(0,))
    # no entry is cast: 2.7 would run dimension 2 and "3" dimension 3
    for dim in (2.7, "3"):
        with pytest.raises(SuiteError, match="matrix dims must be integers"):
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
    assert same_group(load_group(str(path)), g)
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
