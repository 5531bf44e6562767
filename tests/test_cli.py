import json
import subprocess
import sys

import pytest

from qhsplit.cli import (
    EXIT_FAILURE,
    EXIT_MALFORMED_RATIONAL,
    EXIT_OK,
    EXIT_USAGE,
    main,
)


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
    result = run_cli("blowup", "split", "--n", "2", "--eps", "0.1")
    assert result.returncode == EXIT_MALFORMED_RATIONAL
    error = json.loads(result.stderr)
    assert error["error"] == "malformed rational"


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


MALFORMED_ALGEBRAS = {
    "basis_entry_not_an_object": ({"basis": ["e"]}, "basis entry"),
    "basis_entry_without_degree": ({"basis": [{"name": "e"}]}, "'degree'"),
    "scalar_order_below_one": (_algebra_with_scalar(0, []), "'order'"),
    "scalar_coeff_wrong_length": (_algebra_with_scalar(3, ["1"]), "'coeff'"),
    "n_grading_not_an_integer": ({"basis": [], "n_grading": "2"}, "'n_grading'"),
    "tensor_arity_not_an_integer": ({"basis": [], "tensors": {"two": []}}, "'tensors'"),
    "tensor_entries_not_a_list": ({"basis": [], "tensors": {"2": 5}}, "'tensors'"),
    "tensor_inputs_not_the_arity": (_algebra_with_scalar(1, ["1"], inputs=("e",)), "'inputs'"),
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


def test_hh_dims_flags_cutoff_limited_ranks(tmp_path):
    # structure constants at valuation 4 sit above the default cutoff 3, so
    # the ranks are taken modulo terms the scalars cannot see
    from qhsplit import toric
    from qhsplit.novikov import NovikovElement
    alg = toric.clifford_algebra([[NovikovElement.q_power(4)]], 1)
    path = tmp_path / "algebra.json"
    path.write_text(json.dumps(alg.to_json_dict()), encoding="utf-8")
    result = run_cli("hh", "dims", str(path), "--length", "4")
    assert result.returncode == EXIT_FAILURE
    assert result.stdout.splitlines() == [
        "# cutoff=inf cyclotomic_order=1 cutoff_limited=true",
        "degree,dimension,stable", "0,3,false", "1,3,false", "total,6,false"]


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
