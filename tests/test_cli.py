"""Command-line interface: exit codes, JSON output, suite runs."""

import json

import numpy as np
import pytest

from sepmult.classify import fourier_multiplier_map, schur_multiplier_map, yeadon_extract
from sepmult.cli import (
    EXIT_DATA,
    EXIT_INCONCLUSIVE,
    EXIT_SEPARATING,
    EXIT_USAGE,
    EXIT_WITNESS,
    main,
)
from sepmult.groups import builtin_group, enumerate_characters, group_to_json
from sepmult.linalg import matrix_from_json, matrix_to_json
from sepmult.vna import symbol_from_json, symbol_to_json

SMALL_SUITE = {
    "groups": ["cyclic(2)"],
    "trials": 30,
    "seed": 0,
    "matrix_dims": [2],
}


def _write_json(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def _symbol_file(tmp_path, name, values):
    return _write_json(tmp_path, name, symbol_to_json(np.asarray(values)))


def _matrix_file(tmp_path, name, m):
    return _write_json(tmp_path, name, matrix_to_json(np.asarray(m)))


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# classify-fourier


def test_classify_fourier_character_exits_zero(tmp_path, capsys):
    g = builtin_group("cyclic(4)")
    symbol = _symbol_file(tmp_path, "phi.json",
                          2j * enumerate_characters(g)[1].values)
    code, out, _ = _run(capsys, [
        "classify-fourier", "--group", "cyclic(4)", "--symbol", symbol,
        "--trials", "20", "--json"])
    assert code == EXIT_SEPARATING
    blob = json.loads(out)
    assert blob["status"] == "separating"
    assert blob["certificate"]["kind"] == "scalar-character"
    assert blob["certificate"]["c"] == [0.0, 2.0]


def test_classify_fourier_witness_exits_one(tmp_path, capsys):
    symbol = _symbol_file(tmp_path, "phi.json", [1.0, 0.0])
    code, out, _ = _run(capsys, [
        "classify-fourier", "--group", "cyclic(2)", "--symbol", symbol,
        "--trials", "10", "--json"])
    assert code == EXIT_WITNESS
    blob = json.loads(out)
    assert blob["status"] == "not-separating"
    assert blob["witness"]["label"] == "probe:involution:1"


def test_classify_fourier_accepts_group_file(tmp_path, capsys):
    g = builtin_group("cyclic(3)")
    group_path = _write_json(tmp_path, "group.json", group_to_json(g))
    symbol = _symbol_file(tmp_path, "phi.json", np.ones(3))
    code, out, _ = _run(capsys, [
        "classify-fourier", "--group", group_path, "--symbol", symbol,
        "--trials", "10", "--json"])
    assert code == EXIT_SEPARATING
    assert json.loads(out)["status"] == "separating"


def test_classify_fourier_pretty_output_is_default(tmp_path, capsys):
    symbol = _symbol_file(tmp_path, "phi.json", np.ones(2))
    _, out, _ = _run(capsys, [
        "classify-fourier", "--group", "cyclic(2)", "--symbol", symbol,
        "--trials", "5"])
    assert out.count("\n") > 2  # indented JSON spans lines
    json.loads(out)


# ---------------------------------------------------------------------------
# classify-schur


def test_classify_schur_certificate(tmp_path, capsys):
    matrix = _matrix_file(tmp_path, "m.json", [[2j, 2.0], [-2j, -2.0]])
    code, out, _ = _run(capsys, [
        "classify-schur", "--symbol", matrix, "--trials", "10", "--json"])
    assert code == EXIT_SEPARATING
    blob = json.loads(out)
    assert blob["certificate"]["kind"] == "rank-one-unimodular"
    assert blob["certificate"]["c"] == [0.0, 2.0]


def test_classify_schur_witness(tmp_path, capsys):
    matrix = _matrix_file(tmp_path, "m.json", [[1.0, 1.0], [1.0, -1.0]])
    code, out, _ = _run(capsys, [
        "classify-schur", "--symbol", matrix, "--trials", "10", "--json"])
    assert code == EXIT_WITNESS
    assert json.loads(out)["witness"]["label"] == "probe:hadamard:0,1"


def test_classify_schur_witness_on_a_subnormal_symbol(tmp_path, capsys):
    # no NaN certificate: the output is strict JSON and the witness the
    # one found at scale 1
    matrix = _matrix_file(tmp_path, "m.json", 2.0 ** -1060 * np.array([[1.0, 1.0], [1.0, -1.0]]))
    code, out, _ = _run(capsys, [
        "classify-schur", "--symbol", matrix, "--trials", "10", "--json"])
    assert code == EXIT_WITNESS

    def refuse(token):
        raise ValueError("not JSON: %s" % token)

    blob = json.loads(out, parse_constant=refuse)
    assert blob["witness"]["label"] == "probe:hadamard:0,1"


# ---------------------------------------------------------------------------
# herz-schur


def test_herz_schur_recovers_character(tmp_path, capsys):
    g = builtin_group("cyclic(3)")
    psi = enumerate_characters(g)[1]
    symbol = _symbol_file(tmp_path, "phi.json", 2j * psi.values)
    code, out, _ = _run(capsys, [
        "herz-schur", "--group", "cyclic(3)", "--symbol", symbol, "--json"])
    assert code == EXIT_SEPARATING
    blob = json.loads(out)
    assert blob["certificate"] != "NONE"
    rec = blob["recovered"]
    assert rec["c"] == pytest.approx([0.0, 2.0])
    got = np.array([re + 1j * im for re, im in rec["character"]])
    np.testing.assert_allclose(got, psi.values, atol=1e-9)


def test_herz_schur_recovers_exact_roots_of_unity(tmp_path, capsys):
    g = builtin_group("cyclic(5)")
    psi = enumerate_characters(g)[2]
    symbol = _symbol_file(tmp_path, "phi.json", (1.0 - 3j) * psi.values)
    code, out, _ = _run(capsys, [
        "herz-schur", "--group", "cyclic(5)", "--symbol", symbol, "--json"])
    assert code == EXIT_SEPARATING
    assert json.loads(out)["recovered"]["character"] == symbol_to_json(psi.values)


def test_herz_schur_without_factorization(tmp_path, capsys):
    symbol = _symbol_file(tmp_path, "phi.json", [1.0, 0.0, 0.0])
    code, out, _ = _run(capsys, [
        "herz-schur", "--group", "cyclic(3)", "--symbol", symbol,
        "--trials", "20", "--json"])
    assert code == EXIT_WITNESS
    blob = json.loads(out)
    assert blob["certificate"] == "NONE"
    assert blob["verdict"]["status"] == "not-separating"


@pytest.mark.parametrize("symbol", [[1.0, 1.0, 1.0], [1.0, 2.0, 1.0]])
@pytest.mark.parametrize("flag", [["--p", "0.5"], ["--trials", "0"]])
def test_herz_schur_checks_its_flags_for_every_symbol(tmp_path, capsys, symbol, flag):
    # [1, 1, 1] factors and [1, 2, 1] does not; neither may decide the exit code
    path = _symbol_file(tmp_path, "phi.json", symbol)
    code, out, err = _run(capsys, [
        "herz-schur", "--group", "cyclic(3)", "--symbol", path] + flag)
    assert code == EXIT_DATA
    assert out == ""
    assert "p >= 1" in err or "positive integer" in err


# ---------------------------------------------------------------------------
# yeadon


def test_yeadon_fourier_triple(tmp_path, capsys):
    g = builtin_group("cyclic(2)")
    symbol = _symbol_file(tmp_path, "phi.json",
                          1.5 * enumerate_characters(g)[1].values)
    code, out, _ = _run(capsys, [
        "yeadon", "--group", "cyclic(2)", "--symbol", symbol, "--json"])
    assert code == EXIT_SEPARATING
    blob = json.loads(out)
    assert blob["separating"] is True
    np.testing.assert_allclose(blob["b"]["re"], [[1.5, 0.0], [0.0, 1.5]],
                               atol=1e-9)
    assert max(blob["residuals"].values()) <= 1e-9
    psi = enumerate_characters(g)[1].values
    # J's symbol is printed as a symbol array, psi = phi / phi(e)
    printed = symbol_from_json(blob["jordan_symbol"], g.order)
    np.testing.assert_allclose(printed, psi, rtol=0, atol=1e-13)
    _assert_jordan_symbol(fourier_multiplier_map(g, printed),
                          fourier_multiplier_map(g, 1.5 * psi))


def test_yeadon_rejects_indicator(tmp_path, capsys):
    symbol = _symbol_file(tmp_path, "phi.json", [1.0, 0.0])
    code, out, _ = _run(capsys, [
        "yeadon", "--group", "cyclic(2)", "--symbol", symbol, "--json"])
    assert code == EXIT_WITNESS
    blob = json.loads(out)
    assert blob["separating"] is False
    assert "jordan_square" in blob["residuals"]


def test_yeadon_schur_matrix_path(tmp_path, capsys):
    rng = np.random.default_rng(1)
    alpha = np.exp(2j * np.pi * rng.random(2))
    matrix = _matrix_file(tmp_path, "m.json", 2.0 * np.outer(alpha, alpha))
    code, out, _ = _run(capsys, ["yeadon", "--symbol", matrix, "--json"])
    assert code == EXIT_SEPARATING
    blob = json.loads(out)
    assert blob["separating"] is True
    m = 2.0 * np.outer(alpha, alpha)
    # J's symbol is printed as matrix JSON, K = S_ij / S_ii
    printed = matrix_from_json(blob["jordan_symbol"])
    np.testing.assert_allclose(printed, m / m.diagonal()[:, None], rtol=0, atol=1e-13)
    _assert_jordan_symbol(schur_multiplier_map(printed), schur_multiplier_map(m))


def test_yeadon_large_schur_symbol_prints_no_basis_images(tmp_path, capsys):
    # J is printed as its 48 x 48 symbol, not as 48^2 basis images of 48 x 48
    rng = np.random.default_rng(2)
    m = 2.0 * np.outer(np.exp(2j * np.pi * rng.random(48)),
                       np.exp(2j * np.pi * rng.random(48)))
    code, out, _ = _run(capsys, ["yeadon", "--symbol", _matrix_file(tmp_path, "m.json", m)])
    assert code == EXIT_SEPARATING
    assert len(out.encode("utf-8")) < 1_000_000
    blob = json.loads(out)
    assert sorted(blob) == ["b", "jordan_symbol", "residuals", "separating", "w"]
    printed = matrix_from_json(blob["jordan_symbol"])
    _assert_jordan_symbol(schur_multiplier_map(printed), schur_multiplier_map(m))


def _assert_jordan_symbol(printed_map, tmap):
    # the multiplier with the printed symbol is the triple's J, entry for entry
    np.testing.assert_array_equal(printed_map.symbol,
                                  yeadon_extract(tmap, tol=1e-9).jmap.symbol)


# ---------------------------------------------------------------------------
# list-characters


def test_list_characters(capsys):
    code, out, _ = _run(capsys, ["list-characters", "--group", "cyclic(4)", "--json"])
    assert code == EXIT_SEPARATING
    blob = json.loads(out)
    assert blob["order"] == 4
    assert len(blob["characters"]) == 4
    assert blob["characters"][0] == [[1.0, 0.0]] * 4


def test_classify_fourier_above_order_64(tmp_path, capsys):
    character = np.exp(2j * np.pi * 7 * np.arange(65) / 65)
    symbol = _symbol_file(tmp_path, "phi.json", 2.0 * character)
    code, out, _ = _run(capsys, [
        "classify-fourier", "--group", "cyclic(65)", "--symbol", symbol,
        "--trials", "2", "--json"])
    assert code == EXIT_SEPARATING
    blob = json.loads(out)
    assert blob["status"] == "separating"
    assert blob["certificate"]["kind"] == "scalar-character"


def test_list_characters_above_order_64(capsys):
    code, out, _ = _run(capsys, ["list-characters", "--group", "cyclic(65)", "--json"])
    assert code == EXIT_SEPARATING
    blob = json.loads(out)
    assert blob["order"] == 65
    assert len(blob["characters"]) == 65
    assert blob["characters"][0] == [[1.0, 0.0]] * 65


# ---------------------------------------------------------------------------
# data and usage errors


def test_missing_file_is_data_error(capsys):
    code, _, err = _run(capsys, [
        "classify-fourier", "--group", "cyclic(2)", "--symbol", "/no/such.json"])
    assert code == EXIT_DATA
    assert "error:" in err


def test_invalid_json_is_data_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    code, _, err = _run(capsys, [
        "classify-schur", "--symbol", str(path)])
    assert code == EXIT_DATA
    assert "invalid JSON" in err


def test_symbol_length_mismatch_is_data_error(tmp_path, capsys):
    symbol = _symbol_file(tmp_path, "phi.json", [1.0, 0.0, 0.0])
    code, _, err = _run(capsys, [
        "classify-fourier", "--group", "cyclic(2)", "--symbol", symbol])
    assert code == EXIT_DATA
    assert "expected 2" in err


def test_unknown_group_is_data_error(tmp_path, capsys):
    symbol = _symbol_file(tmp_path, "phi.json", [1.0])
    code, _, err = _run(capsys, [
        "classify-fourier", "--group", "sporadic(1)", "--symbol", symbol])
    assert code == EXIT_DATA
    assert "unknown builtin group" in err


def test_malformed_matrix_is_data_error(tmp_path, capsys):
    path = _write_json(tmp_path, "m.json",
                       {"dim": 2, "re": [[1.0, 0.0]], "im": [[0.0, 0.0]] * 2})
    code, _, err = _run(capsys, ["classify-schur", "--symbol", str(path)])
    assert code == EXIT_DATA
    assert "shape" in err


def test_empty_matrix_is_data_error(tmp_path, capsys):
    path = _matrix_file(tmp_path, "m.json", np.zeros((0, 0)))
    code, _, err = _run(capsys, ["classify-schur", "--symbol", path])
    assert code == EXIT_DATA
    assert "matrix dimension must be at least 1, got 0" in err


@pytest.mark.parametrize("argv", [
    [],
    ["no-such-command"],
    ["classify-fourier"],                         # missing required flags
    ["classify-schur", "--symbol", "x", "--frob"],
    ["classify-schur", "--symbol", "x", "--json", "--pretty"],
])
def test_usage_errors_exit_five(argv, capsys):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == EXIT_USAGE
    assert "usage" in capsys.readouterr().err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0
    assert capsys.readouterr().out.startswith("sepmult ")


# ---------------------------------------------------------------------------
# verify-theorems


def test_verify_small_suite_passes(tmp_path, capsys):
    config = _write_json(tmp_path, "config.json", SMALL_SUITE)
    report_path = tmp_path / "report.json"
    code, out, _ = _run(capsys, [
        "verify-theorems", "--config", config, "--output", str(report_path)])
    assert code == EXIT_SEPARATING
    assert "cells passed" in out
    assert "FAIL" not in out
    report = json.loads(report_path.read_text(encoding="utf-8"))
    assert report["summary"]["passed"] is True
    assert report["summary"]["total"] == 13
    names = {cell["name"] for cell in report["cells"]}
    assert "characters/completeness/cyclic(2)" in names
    assert "yeadon/schur/dim2" in names
    assert "linalg/invariants" in names


def test_verify_report_json_is_deterministic(tmp_path, capsys):
    config = _write_json(tmp_path, "config.json", SMALL_SUITE)
    argv = ["verify-theorems", "--config", config, "--report-json", "--json"]
    _, out1, _ = _run(capsys, argv)
    _, out2, _ = _run(capsys, argv)

    def strip_volatile(text):
        report = json.loads(text)
        report.pop("generated_at")
        for cell in report["cells"]:
            cell.pop("wall_ms")
        return report

    assert strip_volatile(out1) == strip_volatile(out2)


def test_verify_injected_mismatch_fails_and_names_cell(tmp_path, capsys):
    bad = dict(SMALL_SUITE)
    bad["injected"] = [{
        "kind": "fourier",
        "group": "cyclic(2)",
        "symbol": [[1.0, 0.0], [0.0, 0.0]],
        "expect": "separating",   # actually not-separating
    }]
    config = _write_json(tmp_path, "config.json", bad)
    code, out, _ = _run(capsys, ["verify-theorems", "--config", config])
    assert code == EXIT_WITNESS
    assert "failing: injected/fourier/0" in out


@pytest.mark.parametrize("case, message", [
    ({"kind": "fourier", "symbol": [[1.0, 0.0], [1.0, 0.0]]}, "injected case 1 has no 'group'"),
    ({"kind": "fourier", "group": "cyclic(2)", "symbol": [[1.0, 0.0]]},
     "injected case 1: symbol has 1 entries, expected 2"),
    ({"kind": "schur", "matrix": {"dim": 2}},
     "injected case 1: matrix JSON needs an integer 'dim' and numeric 're', 'im'"),
])
def test_verify_malformed_injected_case_is_data_error(tmp_path, capsys, case, message):
    # every injected case is parsed before the first cell runs, so a
    # malformed one is a data error naming its index, not a failed cell
    well_formed = {"kind": "schur", "matrix": matrix_to_json(np.ones((2, 2))),
                   "expect": "separating"}
    config = _write_json(tmp_path, "config.json", dict(
        SMALL_SUITE, injected=[well_formed, dict(case, expect="separating")]))
    code, out, err = _run(capsys, ["verify-theorems", "--config", config])
    assert code == EXIT_DATA
    assert out == ""
    assert err == "error: %s\n" % message


def test_verify_empty_group_list_is_inconclusive(tmp_path, capsys):
    config = _write_json(tmp_path, "config.json", {"groups": []})
    code, _, err = _run(capsys, ["verify-theorems", "--config", config])
    assert code == EXIT_INCONCLUSIVE
    assert "nothing verified" in err


def test_verify_group_override(tmp_path, capsys):
    config = _write_json(tmp_path, "config.json", SMALL_SUITE)
    code, out, _ = _run(capsys, [
        "verify-theorems", "--config", config, "--group", "cyclic(3)"])
    assert code == EXIT_SEPARATING
    assert "cyclic(3)" in out
    assert "cyclic(2)\n" not in out


@pytest.mark.parametrize("override", [["--trials", "0"], ["--tol", "-1"]])
def test_verify_invalid_override_is_data_error(tmp_path, capsys, override):
    # overrides go through the same validation as config-file values
    config = _write_json(tmp_path, "config.json", SMALL_SUITE)
    code, out, err = _run(capsys, ["verify-theorems", "--config", config] + override)
    assert code == EXIT_DATA
    assert out == ""
    assert "must be positive" in err or "positive integer" in err


@pytest.mark.parametrize("values, flags, repeated", [
    ({}, ["--group", "cyclic(2)", "--group", "cyclic(2)"], "groups lists cyclic(2) twice"),
    ({"matrix_dims": [2, 3, 2]}, [], "matrix_dims lists 2 twice"),
])
def test_verify_repeated_label_is_data_error(tmp_path, capsys, values, flags, repeated):
    # a repeated group or dimension would run and list its cells twice
    config = _write_json(tmp_path, "config.json", dict(SMALL_SUITE, **values))
    code, out, err = _run(capsys, ["verify-theorems", "--config", config] + flags)
    assert code == EXIT_DATA
    assert out == ""
    assert err == "error: %s\n" % repeated


@pytest.mark.parametrize("value", [
    {"trials": 2.7}, {"trials": True}, {"groups": "cyclic(3)"}, {"injected": [5]},
])
def test_verify_config_value_of_the_wrong_kind_is_data_error(tmp_path, capsys, value):
    config = _write_json(tmp_path, "config.json", dict(SMALL_SUITE, **value))
    code, out, err = _run(capsys, ["verify-theorems", "--config", config])
    assert code == EXIT_DATA
    assert out == ""
    assert err.startswith("error: ")


def test_verify_unknown_config_key_is_data_error(tmp_path, capsys):
    # the suite's exponents and sample counts are constants, not keys
    for key in ("bogus", "p_values", "converse_samples", "schur_samples",
                "cp_samples", "norm_samples", "linalg_samples"):
        config = _write_json(tmp_path, "config.json", {"groups": ["cyclic(2)"], key: 1})
        code, out, err = _run(capsys, ["verify-theorems", "--config", config])
        assert code == EXIT_DATA
        assert out == ""
        assert err == "error: unknown config keys: %s\n" % key


def test_verify_missing_group_file_is_data_error(tmp_path, capsys):
    path = str(tmp_path / "absent" / "g.json")
    code, out, err = _run(capsys, ["verify-theorems", "--group", path])
    assert code == EXIT_DATA
    assert out == ""
    assert err == "error: cannot read %s: No such file or directory\n" % path


def test_verify_invalid_group_json_is_data_error(tmp_path, capsys):
    path = tmp_path / "g.json"
    path.write_text("{not json", encoding="utf-8")
    code, out, err = _run(capsys, ["verify-theorems", "--group", str(path)])
    assert code == EXIT_DATA
    assert out == ""
    assert err.startswith("error: invalid JSON in %s: " % path)


@pytest.mark.parametrize("command", [
    ["classify-fourier", "--symbol", "phi.json"],
    ["list-characters"],
])
def test_group_file_errors_name_the_path(tmp_path, capsys, command):
    missing = str(tmp_path / "g.json")
    code, _, err = _run(capsys, command[:1] + ["--group", missing] + command[1:])
    assert code == EXIT_DATA
    assert err == "error: cannot read %s: No such file or directory\n" % missing
    bad = tmp_path / "bad.json"
    bad.write_text("[", encoding="utf-8")
    code, _, err = _run(capsys, command[:1] + ["--group", str(bad)] + command[1:])
    assert code == EXIT_DATA
    assert err.startswith("error: invalid JSON in %s: " % bad)


@pytest.mark.parametrize("group", [
    {"order": 2, "mul": [[0, 1], [1, 0.5]]},     # no longer truncated to cyclic(2)
    {"order": 2.9, "mul": [[0, 1], [1, 0]]},
    {"order": True, "mul": [[0]]},
    {"order": "2", "mul": [[0, 1], [1, 0]]},
    {"order": 2, "mul": [[0, 1], [1, "0"]]},
    {"order": 2, "mul": [[False, True], [True, False]]},
    {"order": 2, "mul": [[0, 1], [1, 0]], "names": "ab"},
    {"order": 2, "mul": [[0, 1], [1, 0]], "names": ["e", 1]},
], ids=repr)
def test_group_file_that_is_not_integers_is_data_error(tmp_path, capsys, group):
    path = _write_json(tmp_path, "g.json", group)
    code, out, err = _run(capsys, ["list-characters", "--group", path])
    assert code == EXIT_DATA
    assert out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize("symbol", [
    [[1.0, 0.0], ["1", 0.0]], [[1.0, 0.0], [True, 0.0]], [[1.0, 0.0], [1.0, None]],
    [[1.0, 0.0], [float("nan"), 0.0]],
], ids=repr)
def test_symbol_file_that_is_not_numbers_is_data_error(tmp_path, capsys, symbol):
    path = _write_json(tmp_path, "phi.json", symbol)
    code, out, err = _run(capsys, ["classify-fourier", "--group", "cyclic(2)",
                                   "--symbol", path])
    assert code == EXIT_DATA
    assert out == ""
    assert err.startswith("error: symbol JSON must be")


@pytest.mark.parametrize("matrix", [
    {"dim": "2", "re": [[1, 0], [0, 1]], "im": [[0, 0], [0, 0]]},
    {"dim": 2.7, "re": [[1, 0], [0, 1]], "im": [[0, 0], [0, 0]]},
    {"dim": 2.0, "re": [[1, 0], [0, 1]], "im": [[0, 0], [0, 0]]},
    {"dim": True, "re": [[1]], "im": [[0]]},
    {"dim": 2, "re": [[1, 0], [0, "1"]], "im": [[0, 0], [0, 0]]},
    {"dim": 2, "re": [[1, 0], [0, 1]], "im": [[0, 0], [0, True]]},
], ids=repr)
def test_matrix_file_that_is_not_numbers_is_data_error(tmp_path, capsys, matrix):
    path = _write_json(tmp_path, "m.json", matrix)
    code, out, err = _run(capsys, ["classify-schur", "--symbol", path])
    assert code == EXIT_DATA
    assert out == ""
    assert err.startswith("error: matrix JSON needs")


def test_integer_parts_are_json_numbers(tmp_path, capsys):
    # an int is a JSON number as much as a float is
    symbol = _write_json(tmp_path, "phi.json", [[1, 0], [-1, 0]])
    code, _, _ = _run(capsys, ["classify-fourier", "--group", "cyclic(2)",
                               "--symbol", symbol, "--trials", "10"])
    assert code == EXIT_SEPARATING
    matrix = _write_json(tmp_path, "m.json", {"dim": 2, "re": [[1, 1], [1, 1]],
                                              "im": [[0, 0], [0, 0]]})
    code, _, _ = _run(capsys, ["classify-schur", "--symbol", matrix, "--trials", "10"])
    assert code == EXIT_SEPARATING


@pytest.mark.parametrize("command", [
    ["classify-fourier", "--group", "cyclic(3)", "--symbol", "phi.json"],
    ["classify-schur", "--symbol", "m.json"],
    ["herz-schur", "--group", "cyclic(3)", "--symbol", "phi.json"],
    ["yeadon", "--group", "cyclic(3)", "--symbol", "phi.json"],
    ["yeadon", "--symbol", "m.json"],
    ["verify-theorems", "--config", "config.json"],
])
@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1", "1.0", "2.0"])
def test_tolerance_outside_the_open_unit_interval_is_data_error(
        tmp_path, capsys, command, tol):
    # a symbol that no tolerance may certify: not c times a character, and
    # its Herz-Schur matrix and the Schur matrix are not rank-one unimodular
    files = {"phi.json": _symbol_file(tmp_path, "phi.json", [1.0, 1.0, 0.5]),
             "m.json": _matrix_file(tmp_path, "m.json", [[1.0, 1.0], [1.0, 0.5]]),
             "config.json": _write_json(tmp_path, "config.json", SMALL_SUITE)}
    argv = [files.get(arg, arg) for arg in command] + ["--tol", tol]
    code, out, err = _run(capsys, argv)
    assert code == EXIT_DATA
    assert out == ""
    assert "tol must be positive and finite" in err


def test_verify_group_above_order_64(tmp_path, capsys):
    config = _write_json(tmp_path, "config.json", SMALL_SUITE)
    report = tmp_path / "report.json"
    code, out, _ = _run(capsys, ["verify-theorems", "--config", config,
                                 "--group", "dihedral(33)", "--trials", "4",
                                 "--output", str(report)])
    assert code == EXIT_SEPARATING
    assert "FAIL" not in out
    blob = json.loads(report.read_text(encoding="utf-8"))
    assert blob["summary"]["passed"] is True
    assert "characters/completeness/dihedral(33)" in {
        cell["name"] for cell in blob["cells"]}
