import argparse
import json
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from qhsplit.cli import (
    COMMANDS,
    EXIT_FAILURE,
    EXIT_MALFORMED_RATIONAL,
    EXIT_OK,
    EXIT_USAGE,
    build_parser,
    main,
)
from test_hochschild import random_integer_algebra


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "qhsplit", *args],
                          capture_output=True, text=True)


# --- happy paths -------------------------------------------------------------

def test_blowup_split_report():
    result = run_cli("blowup", "split", "--n", "2", "--eps", "1/10")
    assert result.returncode == EXIT_OK
    payload = json.loads(result.stdout)
    assert payload["report"]["total_dim"] == 4
    assert payload["report"]["generation"] == "generates"
    assert payload["meta"]["cutoff"] == "3"


def test_potential_crit_lists_three_points():
    result = run_cli("potential", "crit", "--kind", "pn", "--n", "2")
    assert result.returncode == EXIT_OK
    payload = json.loads(result.stdout)
    assert payload["count"] == 3
    assert payload["meta"]["cyclotomic_order"] == 3


def test_potential_crit_evaluates_each_monomial_once_per_point(monkeypatch, capsys):
    # the value, gradient check and Hessian at a point share one evaluation
    from qhsplit import toric
    calls = []
    power_product = toric._power_product
    monkeypatch.setattr(toric, "_power_product",
                        lambda y, exp: calls.append(exp) or power_product(y, exp))
    for argv, expected in ((("--kind", "pn", "--n", "3"), 4 * 4),
                           (("--kind", "exceptional", "--n", "4", "--eps", "1/10"), 3 * 5)):
        calls.clear()
        assert main(["potential", "crit", *argv]) == EXIT_OK
        assert len(calls) == expected
    capsys.readouterr()


def test_oc_matrix_csv_two_by_two():
    result = run_cli("oc", "matrix", "--n", "1", "--kind", "pn", "--format", "csv")
    assert result.returncode == EXIT_OK
    lines = result.stdout.strip().split("\n")
    assert lines[0].startswith("#")
    assert lines[1] == "row,pt0,pt1"
    assert len(lines) == 4  # meta comment + header + two rows


def test_trees_enumerate_csv():
    result = run_cli("trees", "enumerate", "--boundary", "3", "--interior", "0")
    assert result.returncode == EXIT_OK
    assert result.stdout.splitlines()[0].startswith("#")
    assert result.stdout.splitlines()[1] == "dimension,count"
    assert "total,3" in result.stdout


def test_trees_enumerate_counts_without_building_types():
    # checked once against the tally of dim() over the 129,367 enumerated
    # types (about 7 s in process) and recorded here
    result = run_cli("trees", "enumerate", "--boundary", "5", "--interior", "1",
                     "--metric", "all")
    assert result.returncode == EXIT_OK
    assert result.stdout.splitlines()[1:] == [
        "dimension,count", "0,8064", "1,30240", "2,44800", "3,32760", "4,11820",
        "5,1683", "total,129367"]


def test_trees_enumerate_two_interior_inputs_is_fast(capsys):
    # recorded from the shape enumeration, which took about a minute for
    # each metric; the counted census takes milliseconds
    expected = {
        "zero": ["0,24024", "1,96096", "2,156156", "3,132132", "4,61950", "5,15792",
                 "6,1988", "7,98", "8,1", "total,488237"],
        "all": ["0,6150144", "1,36900864", "2,96096000", "3,141837696", "4,129759840",
                "5,75333888", "6,27101648", "7,5523420", "8,488237", "total,519191737"],
    }
    for metric, lines in expected.items():
        start = time.perf_counter()
        code = main(["trees", "enumerate", "--boundary", "6", "--interior", "2",
                     "--metric", metric])
        elapsed = time.perf_counter() - start
        assert code == EXIT_OK
        assert capsys.readouterr().out.splitlines() == [
            "# cutoff=inf cyclotomic_order=1", "dimension,count", *lines]
        assert elapsed < 1.0, (metric, elapsed)


def test_ainfty_verify_round_trip(tmp_path):
    from qhsplit import toric
    W = toric.PotentialFunction.clifford_torus(1)
    alg = toric.brane_algebra(W, toric.critical_points(W)[0])
    path = tmp_path / "algebra.json"
    path.write_text(json.dumps(alg.to_json_dict()), encoding="utf-8")
    result = run_cli("ainfty", "verify", str(path))
    assert result.returncode == EXIT_OK
    assert json.loads(result.stdout)["ok"] is True


def test_hh_dims_csv(tmp_path):
    from qhsplit import toric
    W = toric.PotentialFunction.clifford_torus(1)
    alg = toric.brane_algebra(W, toric.critical_points(W)[0])
    path = tmp_path / "algebra.json"
    path.write_text(json.dumps(alg.to_json_dict()), encoding="utf-8")
    result = run_cli("hh", "dims", str(path), "--length", "5")
    assert result.returncode == EXIT_OK
    lines = result.stdout.strip().split("\n")
    assert lines[0].startswith("#")
    assert lines[1] == "degree,dimension,stable"
    assert "total,1,true" in lines[-1]


# --- error paths ----------------------------------------------------------------

def test_malformed_rational_exit_code():
    # outside the grammar p, p/q, -p/q, though int() reads each part of all
    # but the first
    for eps in ("0.1", "1_0/1_00", "+1/10", "1/-10", "\u0661/\u0662"):
        result = run_cli("blowup", "split", "--n", "2", "--eps", eps)
        assert result.returncode == EXIT_MALFORMED_RATIONAL
        error = json.loads(result.stderr)
        assert error["error"] == "malformed rational"


@pytest.mark.parametrize("tensors,degrees,message", [
    # m_2(a, a) = b, m_2(b, b) = a, m_2(a, b) = a: printed -3, -1 and total -4
    ({2: {(0, 0): {1: 1}, (1, 1): {0: 1}, (0, 1): {0: 1}}}, [0, 0],
     "object 0 breaks the A-infinity relations"),
    # m_1(1) = 1 in degree 0: printed graded=false, -2, -2 and total -4
    ({1: {(0,): {0: 1}}}, [0], "object 0 breaks the degree rule"),
], ids=["relations", "degrees"])
def test_hh_dims_refuses_what_is_not_an_ainfty_category(tmp_path, capsys, tensors, degrees,
                                                         message):
    from qhsplit.ainfty import AInftyAlgebra
    from qhsplit.novikov import NovikovElement as N
    alg = AInftyAlgebra(["a", "b"][:len(degrees)], degrees, {
        d: {key: {o: N.from_rational(c) for o, c in vec.items()} for key, vec in entries.items()}
        for d, entries in tensors.items()})
    path = tmp_path / "algebra.json"
    path.write_text(json.dumps(alg.to_json_dict()), encoding="utf-8")
    assert main(["hh", "dims", str(path), "--length", "4"]) == EXIT_FAILURE
    out, err = capsys.readouterr()
    assert out == ""
    error = json.loads(err)
    assert error["error"] == "value error" and error["message"].startswith(message)


def test_hh_dims_refuses_every_algebra_that_ainfty_verify_rejects(tmp_path, capsys):
    # the seeded draws of the relation fuzz in test_hochschild, through the CLI
    rng = random.Random(11)
    path = tmp_path / "algebra.json"
    rejected = 0
    for draw in range(300):
        path.write_text(json.dumps(random_integer_algebra(rng).to_json_dict()), encoding="utf-8")
        verified = main(["ainfty", "verify", str(path)])
        capsys.readouterr()
        code = main(["hh", "dims", str(path), "--length", "4"])
        out, err = capsys.readouterr()
        if verified == EXIT_OK:
            assert code == EXIT_OK, draw
            continue
        rejected += 1
        assert code == EXIT_FAILURE and out == "", draw
        error = json.loads(err)
        assert error["error"] == "value error", draw
        assert error["message"].startswith("object 0 breaks the A-infinity relations at "), draw
    assert rejected


def test_hh_dims_checks_the_relations_of_exact_constants_without_weights(tmp_path, capsys):
    # m_2(a, a) = (1 + q) b, m_2(b, b) = a, m_2(a, b) = a: exact but with no
    # weights, so ranked over the Novikov scalars; unchecked, length 6
    # printed total,-28,false as a cutoff-limited report
    from qhsplit.ainfty import AInftyAlgebra
    from qhsplit.novikov import NovikovElement as N
    one = N.one()
    alg = AInftyAlgebra(["a", "b"], [0, 0], {
        2: {(0, 0): {1: one + N.q_power(1)}, (1, 1): {0: one}, (0, 1): {0: one}}})
    assert alg.q_weights() is None and alg.least_cutoff is None
    path = tmp_path / "algebra.json"
    path.write_text(json.dumps(alg.to_json_dict()), encoding="utf-8")
    assert main(["hh", "dims", str(path), "--length", "6"]) == EXIT_FAILURE
    out, err = capsys.readouterr()
    assert out == ""
    error = json.loads(err)
    assert error["error"] == "value error"
    assert error["message"].startswith("object 0 breaks the A-infinity relations at "
                                       "(3, (0, 0, 0), 0) ")


@pytest.mark.parametrize("command", [("hh", "dims"), ("ainfty", "verify")])
def test_deeply_nested_json_is_a_value_error(command, tmp_path, capsys):
    # past the parser's recursion limit, json.load raises RecursionError
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000, encoding="utf-8")
    assert main([*command, str(path)]) == EXIT_FAILURE
    out, err = capsys.readouterr()
    assert out == ""
    error = json.loads(err)
    assert error["error"] == "value error"
    assert error["message"].startswith("JSON nested too deeply")


@pytest.mark.parametrize("command", [
    ("blowup", "split", "--n", "2"),
    ("potential", "crit", "--kind", "exceptional", "--n", "3"),
    ("oc", "matrix", "--n", "2", "--kind", "exceptional"),
])
def test_negative_eps_reaches_the_value_check(command):
    # "-1/10" must be read as the value of --eps, not as an unknown option
    result = run_cli(*command, "--eps", "-1/10")
    assert result.returncode == EXIT_FAILURE
    error = json.loads(result.stderr)
    assert error == {"error": "value error", "message": "eps must be positive"}
    assert result.stdout == ""


@pytest.mark.parametrize("command", [("potential", "crit"), ("oc", "matrix")])
def test_an_empty_eps_is_a_malformed_rational(command, capsys):
    # "--eps=" gives the flag, with a value outside the grammar
    assert main([*command, "--kind", "exceptional", "--n", "2", "--eps="]) == \
        EXIT_MALFORMED_RATIONAL
    out, err = capsys.readouterr()
    assert out == ""
    assert json.loads(err) == {"error": "malformed rational",
                               "message": "malformed rational ''"}


def test_blowup_split_md_header_prints_the_eps_it_used(capsys):
    assert main(["blowup", "split", "--n", "2", "--eps", " 2/20", "--format", "md"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "# blowup splitting report (n=2, eps=1/10)"
    assert "- **eps**: 1/10" in lines


@pytest.mark.parametrize("command", [("potential", "crit"), ("oc", "matrix")])
def test_exceptional_kind_without_eps_is_a_value_error(command):
    result = run_cli(*command, "--kind", "exceptional", "--n", "3")
    assert result.returncode == EXIT_FAILURE
    error = json.loads(result.stderr)
    assert error == {"error": "value error",
                     "message": "the exceptional family needs the size parameter eps"}
    assert result.stdout == ""


def test_unknown_flag_exit_code():
    result = run_cli("blowup", "split", "--n", "2", "--eps", "1/10", "--bogus", "1")
    assert result.returncode == EXIT_USAGE


def test_failing_report_exit_code():
    result = run_cli("blowup", "split", "--n", "2", "--eps", "1")
    assert result.returncode == EXIT_FAILURE


# --- determinism -------------------------------------------------------------------

def test_reports_byte_identical():
    for args in (("blowup", "split", "--n", "2", "--eps", "1/10"),
                 ("oc", "matrix", "--n", "2", "--kind", "pn", "--format", "md"),
                 ("potential", "crit", "--kind", "exceptional", "--n", "3",
                  "--eps", "1/10")):
        first = run_cli(*args)
        second = run_cli(*args)
        assert first.stdout == second.stdout
        assert first.returncode == second.returncode


def test_main_in_process():
    assert main(["trees", "enumerate", "--boundary", "2"]) == EXIT_OK


def test_importing_the_cli_leaves_the_acceptance_suite_unloaded():
    # only verify-all runs the suite, so no other call should compile it
    result = subprocess.run(
        [sys.executable, "-c",
         "import sys, qhsplit.cli; print('qhsplit.acceptance' in sys.modules)"],
        capture_output=True, text=True)
    assert result.stdout == "False\n", result.stderr


def registered_commands(parser) -> list:
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return list(action.choices)


def test_main_builds_no_parser_after_its_first_call(monkeypatch, capsys):
    assert main(["trees", "enumerate", "--boundary", "2"]) == EXIT_OK
    built = []
    init = argparse.ArgumentParser.__init__
    monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                        lambda self, *args, **kwargs: built.append(self) or init(
                            self, *args, **kwargs))
    assert main(["trees", "enumerate", "--boundary", "3"]) == EXIT_OK
    assert main(["potential", "crit", "--kind", "pn", "--n", "1"]) == EXIT_OK
    assert main(["oc", "matrix", "--n", "1", "--kind", "pn", "--format", "csv"]) == EXIT_OK
    with pytest.raises(SystemExit):
        main(["bogus"])
    assert built == []
    assert registered_commands(build_parser()) == list(COMMANDS)
    capsys.readouterr()


def test_readme_command_lines_parse_to_the_command_they_name():
    # each line of the README's "Command line" block, parsed but not run
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line.split("#", 1)[0].split() for line in block.splitlines()]
    assert lines
    for words in lines:
        assert words[0] == "qhsplit", words
        args = build_parser().parse_args(words[1:])
        assert args.command == words[1]
        assert args.func is COMMANDS[words[1]][3], words


def test_oc_matrix_json_reports_determinant_split():
    result = run_cli("oc", "matrix", "--n", "2", "--kind", "pn")
    payload = json.loads(result.stdout)
    det = payload["determinant"]
    assert det["surjectivity"] == "surjective"
    assert det["det_below"] != "0"
    assert det["split_at"] == "2"


def test_oc_matrix_seven_by_seven_is_surjective():
    # n=6 is a 7x7 determinant, past the old permutation expansion's reach
    result = run_cli("oc", "matrix", "--n", "6", "--kind", "pn")
    assert result.returncode == EXIT_OK
    payload = json.loads(result.stdout)
    assert len(payload["rows"]) == len(payload["cols"]) == 7
    assert payload["determinant"]["surjectivity"] == "surjective"
    # 343 (1 + 2 (z + z^2 + z^4)) = 7^3 sqrt(-7), as for a 7-point DFT
    assert payload["determinant"]["det"] == "(343 + 686*z7 + 686*z7^2 + 686*z7^4)*q^3"


@pytest.mark.parametrize("command", [("potential", "crit"), ("oc", "matrix")])
def test_eps_with_the_projective_kind_is_a_usage_error(command):
    result = run_cli(*command, "--kind", "pn", "--n", "2", "--eps", "1/10")
    assert result.returncode == EXIT_USAGE
    error = json.loads(result.stderr)
    assert error == {"error": "usage error",
                     "message": "--eps applies only to --kind exceptional"}
    assert result.stdout == ""


def test_blowup_report_contains_ranks_and_gram():
    result = run_cli("blowup", "split", "--n", "3", "--eps", "1/3")
    report = json.loads(result.stdout)["report"]
    assert report["old_block_rank"] == 4
    assert report["exceptional_block_rank"] == 2
    assert all(entry == "0" for row in report["cross_gram"] for entry in row)


def test_oc_matrix_order_override():
    result = run_cli("oc", "matrix", "--n", "2", "--kind", "pn", "--order", "6")
    payload = json.loads(result.stdout)
    assert payload["meta"]["cyclotomic_order"] == 6
    assert all(entry["order"] == 6
               for row in payload["entries"] for entry in row)
    bad = run_cli("oc", "matrix", "--n", "2", "--kind", "pn", "--order", "4")
    assert bad.returncode == EXIT_FAILURE


# --- malformed inputs ------------------------------------------------------------

def _algebra_with_scalar(order, coeff, inputs=("e", "e")):
    scalar = {"order": order, "terms": [{"exp": "0", "coeff": coeff}], "cutoff": "inf"}
    return {"basis": [{"name": "e", "degree": 0}],
            "tensors": {"2": [{"inputs": list(inputs), "outputs": {"e": scalar}}]}}


def _unit_square(coeff):
    # the m_2 entries giving 1 * 1 = coeff * 1
    scalar = {"order": 1, "terms": [{"exp": "0", "coeff": [coeff]}], "cutoff": "inf"}
    return [{"inputs": ["1", "1"], "outputs": {"1": scalar}}]


def _unit_algebra(tensors):
    return {"basis": [{"name": "1", "degree": 0}], "unit": "1", "tensors": tensors}


MALFORMED_ALGEBRAS = {
    "basis_entry_not_an_object": ({"basis": ["e"]}, "basis entry"),
    "basis_entry_without_degree": ({"basis": [{"name": "e"}]}, "'degree'"),
    # JSON true is a Python bool, which is an int, but not a degree
    "degree_true": ({"basis": [{"name": "1", "degree": True}, {"name": "e", "degree": False}],
                     "tensors": {}}, "'degree'"),
    "scalar_order_below_one": (_algebra_with_scalar(0, []), "'order'"),
    "scalar_coeff_wrong_length": (_algebra_with_scalar(3, ["1"]), "'coeff'"),
    "n_grading_not_an_integer": ({"basis": [], "n_grading": "2"}, "'n_grading'"),
    "tensor_arity_not_an_integer": ({"basis": [], "tensors": {"two": []}}, "'tensors'"),
    # Unicode digits that str.isdigit() accepts: Arabic-Indic one, superscript two
    "tensor_arity_not_ascii": ({"basis": [], "tensors": {"\u0661": []}}, "'tensors'"),
    "tensor_arity_superscript": ({"basis": [], "tensors": {"\u00b2": []}}, "'tensors'"),
    # "2" and "02" name one arity; the later one would replace the unit's m_2
    "tensor_arity_repeated": (_unit_algebra({"2": _unit_square("1"), "02": _unit_square("2")}),
                              "arity 2 twice"),
    # the later entry would replace m_2(1,1) = 2 by the unit's 1
    "tensor_inputs_repeated": (_unit_algebra({"2": _unit_square("2") + _unit_square("1")}),
                               "['1', '1'] twice"),
    "basis_name_repeated": ({"basis": [{"name": "1", "degree": 0}, {"name": "1", "degree": 1}],
                             "unit": "1", "tensors": {}}, "'1' twice"),
    "tensor_entries_not_a_list": ({"basis": [], "tensors": {"2": 5}}, "'tensors'"),
    "tensor_inputs_not_the_arity": (_algebra_with_scalar(1, ["1"], inputs=("e",)), "'inputs'"),
    # a bad basis name, not a bad rational, though its text says "malformed rational"
    "tensor_input_named_malformed_rational": (
        _algebra_with_scalar(1, ["1"], inputs=("malformed rational x", "e")), "'inputs'"),
}


@pytest.mark.parametrize("command", [("ainfty", "verify"), ("hh", "dims")])
@pytest.mark.parametrize("case", sorted(MALFORMED_ALGEBRAS))
def test_malformed_algebra_file_is_a_value_error(tmp_path, command, case):
    data, key = MALFORMED_ALGEBRAS[case]
    path = tmp_path / "algebra.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    result = run_cli(*command, str(path))
    assert result.returncode == EXIT_FAILURE
    error = json.loads(result.stderr)  # a structured error, not a traceback
    assert error["error"] == "value error"
    assert key in error["message"]


def _unit_square_output(coeff):
    return _unit_square(coeff)[0]["outputs"]["1"]


# json.dumps of a dict cannot repeat a key, so each file names its repeat
# "twice", which the test renames in the text
REPEATED_KEYS = {
    # m_2(1,1) = 2, then = 1: json.load keeps the later "2", a unital algebra
    "tensor_arity_spelt_twice": (
        _unit_algebra({"2": _unit_square("2"), "twice": _unit_square("1")}), "2"),
    # one entry's outputs give the unit 2, then 1
    "output_named_twice": (_unit_algebra({"2": [{"inputs": ["1", "1"], "outputs": {
        "1": _unit_square_output("2"), "twice": _unit_square_output("1")}}]}), "1"),
}


@pytest.mark.parametrize("command", [("ainfty", "verify"), ("hh", "dims")])
@pytest.mark.parametrize("case", sorted(REPEATED_KEYS))
def test_a_repeated_key_in_an_algebra_file_is_a_value_error(tmp_path, command, case):
    data, key = REPEATED_KEYS[case]
    path = tmp_path / "algebra.json"
    path.write_text(json.dumps(data).replace('"twice"', json.dumps(key)), encoding="utf-8")
    result = run_cli(*command, str(path))
    assert result.returncode == EXIT_FAILURE
    error = json.loads(result.stderr)
    assert error["error"] == "value error"
    assert f"key {key!r}" in error["message"]
    assert result.stdout == ""


@pytest.mark.parametrize("argv, flag, message", [
    (("trees", "enumerate", "--boundary", "\u0663", "--interior", "0", "--metric", "zero"),
     "--boundary", "invalid int value: '\u0663'"),
    (("trees", "enumerate", "--boundary", "3", "--interior", "0_0", "--metric", "zero"),
     "--interior", "invalid int value: '0_0'"),
    (("oc", "matrix", "--n", "\u0662", "--kind", "pn"), "--n", "invalid int value: '\u0662'"),
    (("oc", "matrix", "--n", "2", "--kind", "pn", "--order", "\u0664"),
     "--order", "must be a positive integer, got '\u0664'"),
    (("potential", "crit", "--kind", "pn", "--n", "+2"), "--n", "invalid int value: '+2'"),
    (("blowup", "split", "--n", "\uff12", "--eps", "1/10"), "--n", "invalid int value: '\uff12'"),
], ids=["boundary-arabic-indic", "interior-underscore", "oc-n-arabic-indic",
        "order-arabic-indic", "crit-n-plus", "blowup-n-fullwidth"])
def test_integer_flags_take_ascii_digits_only(capsys, argv, flag, message):
    # int() reads each of these values; the flags take p or -p in ASCII digits
    with pytest.raises(SystemExit) as exit_:
        main(list(argv))
    assert exit_.value.code == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert err.endswith(f"error: argument {flag}: {message}\n")


def test_hh_dims_length_takes_ascii_digits_only(tmp_path):
    result = run_cli("hh", "dims", _write_flat_algebra(tmp_path), "--length", "\u0663")
    assert result.returncode == EXIT_USAGE
    assert result.stderr.endswith("error: argument --length: invalid int value: '\u0663'\n")


def test_integer_flags_keep_a_leading_minus():
    # a negative count is read, and reaches the check that rejects it
    result = run_cli("trees", "enumerate", "--boundary", "-1", "--interior", "0")
    assert result.returncode == EXIT_FAILURE
    assert json.loads(result.stderr) == {"error": "value error",
                                         "message": "input counts must be nonnegative"}


@pytest.mark.parametrize("order", ["0", "-3"])
def test_oc_matrix_rejects_non_positive_order(order):
    result = run_cli("oc", "matrix", "--n", "2", "--kind", "pn", "--order", order)
    assert result.returncode == EXIT_USAGE
    assert "positive integer" in result.stderr
    assert result.stdout == ""


@pytest.mark.parametrize("command", [("ainfty", "verify"), ("hh", "dims")])
def test_unreadable_file_is_a_structured_error(tmp_path, command):
    result = run_cli(*command, str(tmp_path))  # a directory, not a file
    assert result.returncode == EXIT_FAILURE
    assert json.loads(result.stderr)["error"] == "file error"


def _write_flat_algebra(tmp_path):
    # k[x]/(x^2), the unit's structure constants written at orders 3 and 4
    def one(order):
        return {"order": order, "terms": [{"exp": "0", "coeff": ["1", "0"]}]}
    data = {"basis": [{"name": "1", "degree": 0}, {"name": "x", "degree": 0}],
            "unit": "1",
            "tensors": {"2": [{"inputs": ["1", "1"], "outputs": {"1": one(3)}},
                              {"inputs": ["1", "x"], "outputs": {"x": one(4)}},
                              {"inputs": ["x", "1"], "outputs": {"x": one(4)}}]}}
    path = tmp_path / "algebra.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def test_hh_dims_reports_the_lcm_of_mixed_scalar_orders(tmp_path):
    result = run_cli("hh", "dims", _write_flat_algebra(tmp_path), "--length", "3")
    assert result.returncode == EXIT_OK
    assert result.stdout.startswith("# cutoff=inf cyclotomic_order=12\n")


@pytest.mark.parametrize("length", ["1", "0", "-1"])
def test_hh_dims_rejects_lengths_below_two(tmp_path, length):
    result = run_cli("hh", "dims", _write_flat_algebra(tmp_path), "--length", length)
    assert result.returncode == EXIT_FAILURE
    error = json.loads(result.stderr)
    assert error["error"] == "value error"
    assert "truncation length" in error["message"]
    assert result.stdout == ""


def _write_clifford(tmp_path, form):
    # the Clifford algebra of the quadratic form
    from qhsplit import toric
    alg = toric.clifford_algebra(form)
    path = tmp_path / "algebra.json"
    path.write_text(json.dumps(alg.to_json_dict()), encoding="utf-8")
    return path


def test_hh_dims_flags_cutoff_limited_ranks(tmp_path):
    # q^4 + q^5 is not q-homogeneous, so the ranks are taken over the
    # truncated scalars; its structure constants sit above the default
    # cutoff 3, so the ranks are taken modulo terms the scalars cannot see
    from qhsplit.novikov import NovikovElement
    path = _write_clifford(
        tmp_path, [[NovikovElement.q_power(4) + NovikovElement.q_power(5)]])
    result = run_cli("hh", "dims", str(path), "--length", "4")
    assert result.returncode == EXIT_FAILURE
    assert result.stdout.splitlines() == [
        "# cutoff=inf cyclotomic_order=1 cutoff_limited=true rank_cutoff=3",
        "degree,dimension,stable", "0,3,false", "1,3,false", "total,6,false"]


def _truncated_clifford(tmp_path, case):
    """A rank-2 Clifford algebra file with a truncated constant: ``zero``
    writes e1 e1 = 0 + O(q^3), ``declared`` declares cutoff 1 on e1 e1 = q,
    and ``entry`` writes e1 e1 = q + O(q^2)."""
    from qhsplit import toric
    from qhsplit.novikov import NovikovElement as N
    square = {"zero": N.q_power(4), "declared": N.q_power(1), "entry": N.q_power(1, cutoff=2)}
    data = toric.clifford_algebra([[square[case]]]).to_json_dict()
    if case == "zero":
        entry, = [e for e in data["tensors"]["2"] if e["inputs"] == ["e1", "e1"]]
        entry["outputs"] = {o: {"order": 1, "terms": [], "cutoff": "3"} for o in entry["outputs"]}
    if case == "declared":
        data["cutoff"] = "1"
    path = tmp_path / "algebra.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    return path


@pytest.mark.parametrize("case, header, dims", [
    # the algebra with the zero is the exterior algebra, but the constant
    # could be q^4, whose algebra has one class
    ("zero", "# cutoff=3 cyclotomic_order=1 cutoff_limited=true rank_cutoff=3",
     ["0,3,false", "1,3,false", "total,6,false"]),
    # the rank pivots on q^1, which the file says is unknown
    ("declared", "# cutoff=1 cyclotomic_order=1 cutoff_limited=true rank_cutoff=3",
     ["0,0,true", "1,1,true", "total,1,true"]),
], ids=["zero", "declared"])
def test_hh_dims_flags_a_truncated_zero_and_a_declared_cutoff(tmp_path, case, header, dims):
    result = run_cli("hh", "dims", str(_truncated_clifford(tmp_path, case)), "--length", "4")
    assert result.returncode == EXIT_FAILURE
    assert result.stdout.splitlines() == [header, "degree,dimension,stable", *dims]


@pytest.mark.parametrize("case, cutoff", [("zero", "3"), ("declared", "1"), ("entry", "2")])
def test_ainfty_verify_reports_truncated_constants_as_cutoff_limited(tmp_path, case, cutoff):
    # the relations hold, but only modulo the least cutoff
    result = run_cli("ainfty", "verify", str(_truncated_clifford(tmp_path, case)))
    assert result.returncode == EXIT_FAILURE
    payload = json.loads(result.stdout)
    assert payload["relation_violations"] == payload["unit_violations"] == []
    assert payload["meta"]["cutoff"] == cutoff
    assert payload["cutoff_limited"] is True
    assert payload["ok"] is False


def test_hh_dims_flags_ranks_through_a_truncated_pivot_inverse(tmp_path):
    # exact entries with no weights: a non-monomial pivot's inverse is cut
    # at the rank cutoff, which printed an unflagged dimension -1 at length 4
    from fractions import Fraction
    from qhsplit.novikov import NovikovElement as N
    off, top = N.from_rational(2) - N.q_power(1), N.q_power(Fraction(3, 2))
    form = [[top, off], [off, top - N.monomial(2, 3)]]
    result = run_cli("hh", "dims", str(_write_clifford(tmp_path, form)), "--length", "5")
    assert result.returncode == EXIT_FAILURE
    assert result.stdout.splitlines()[0] == (
        "# cutoff=inf cyclotomic_order=1 cutoff_limited=true rank_cutoff=3")


def test_hh_dims_ranks_homogeneous_constants_exactly(tmp_path):
    # e * e = q^4 is q-homogeneous (e' = q^-2 e squares to 1), so the ranks
    # are exact over the coefficient field however high the valuation
    from qhsplit.novikov import NovikovElement
    path = _write_clifford(tmp_path, [[NovikovElement.q_power(4)]])
    result = run_cli("hh", "dims", str(path), "--length", "4")
    assert result.returncode == EXIT_OK
    assert result.stdout.splitlines() == [
        "# cutoff=inf cyclotomic_order=1",
        "degree,dimension,stable", "0,0,true", "1,1,true", "total,1,true"]



def test_hh_dims_says_when_the_complex_is_not_length_graded(tmp_path):
    # m_1(e) = 1 makes the boundary mix word lengths; the complex is acyclic
    from qhsplit.ainfty import AInftyAlgebra
    from qhsplit.novikov import NovikovElement as N
    dga = AInftyAlgebra(["1", "e"], [0, 1],
                        {1: {(1,): {0: N.one()}},
                         2: {(0, 0): {0: N.one()}, (0, 1): {1: N.one()}, (1, 0): {1: -N.one()}}},
                        unit=0)
    path = tmp_path / "dga.json"
    path.write_text(json.dumps(dga.to_json_dict()), encoding="utf-8")
    result = run_cli("hh", "dims", str(path), "--length", "3")
    assert result.returncode == EXIT_OK
    assert result.stdout.splitlines() == [
        "# cutoff=inf cyclotomic_order=1 graded=false",
        "degree,dimension,stable", "0,0,false", "1,0,false", "total,0,false"]


# --- category files ------------------------------------------------------------------

def _brane_algebra_dict():
    from qhsplit import toric
    W = toric.PotentialFunction.clifford_torus(1)
    return toric.brane_algebra(W, toric.critical_points(W)[0]).to_json_dict()


def test_hh_dims_of_a_category_file_adds_its_objects(tmp_path):
    alg = _brane_algebra_dict()
    path = tmp_path / "category.json"
    path.write_text(json.dumps({"objects": [{"name": "a", "algebra": alg},
                                            {"name": "b", "algebra": alg}]}),
                    encoding="utf-8")
    result = run_cli("hh", "dims", str(path), "--length", "4")
    assert result.returncode == EXIT_OK
    assert result.stdout.splitlines()[1:] == [
        "degree,dimension,stable", "0,0,true", "1,2,true", "total,2,true"]


def test_hh_dims_prints_the_least_cutoff_of_a_category(tmp_path):
    # no object's scalars are known past cutoff 2, whichever object comes first
    alg = _brane_algebra_dict()
    path = tmp_path / "category.json"
    path.write_text(json.dumps({"objects": [{"name": "a", "algebra": dict(alg, cutoff="5")},
                                            {"name": "b", "algebra": dict(alg, cutoff="2")}]}),
                    encoding="utf-8")
    result = run_cli("hh", "dims", str(path), "--length", "4")
    assert result.returncode == EXIT_FAILURE
    assert result.stdout.splitlines()[0] == (
        "# cutoff=2 cyclotomic_order=2 cutoff_limited=true rank_cutoff=3")


def test_hh_dims_of_an_empty_category_takes_no_rank(tmp_path):
    path = tmp_path / "category.json"
    path.write_text(json.dumps({"objects": []}), encoding="utf-8")
    result = run_cli("hh", "dims", str(path))
    assert result.returncode == EXIT_OK
    assert result.stdout.splitlines() == [
        "# cutoff=inf cyclotomic_order=1", "degree,dimension,stable",
        "0,0,true", "1,0,true", "total,0,true"]


MALFORMED_CATEGORIES = {
    "objects_not_a_list": (lambda alg: {"objects": {"a": alg}}, "'objects'"),
    "object_not_an_object": (lambda alg: {"objects": ["a"]}, "object must be"),
    "object_without_algebra": (lambda alg: {"objects": [{"name": "a"}]}, "'algebra'"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_CATEGORIES))
def test_malformed_category_file_is_a_value_error(tmp_path, case):
    build, key = MALFORMED_CATEGORIES[case]
    path = tmp_path / "category.json"
    path.write_text(json.dumps(build(_brane_algebra_dict())), encoding="utf-8")
    result = run_cli("hh", "dims", str(path))
    assert result.returncode == EXIT_FAILURE
    error = json.loads(result.stderr)
    assert error["error"] == "value error"
    assert key in error["message"]
    assert result.stdout == ""
