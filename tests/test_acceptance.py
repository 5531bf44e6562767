"""The acceptance gate: every criterion at its stated tolerance (exact).

Each test prints its pass/fail line; the final test runs the full suite
through the command line twice and compares bytes.
"""

import itertools
import subprocess
import sys

import pytest

from qhsplit import acceptance, toric, trees
from qhsplit.ainfty import AInftyAlgebra
from qhsplit.novikov import NovikovElement


@pytest.fixture(scope="module")
def results():
    return {r.number: r for r in acceptance.run_all()}


def _check(results, number):
    result = results[number]
    print(result.line())
    assert result.passed, result.detail


def test_criterion_01_novikov_field_axioms(results):
    _check(results, 1)


def test_criterion_02_tree_census(results):
    _check(results, 2)


def test_criterion_02_fails_on_a_census_one_count_off():
    # off at one dimension of the nodal census, the associahedron oracle
    # catches it; off in the census over all three classes, the enumeration does
    every_class = (trees.ZERO, trees.POS, trees.INF)
    for metric, detail in (((trees.ZERO,), "oracle"), (every_class, "enumerated")):
        def census(d, i=0, metric_classes=every_class):
            counts = trees.census_by_dimension(d, i, metric_classes)
            if d == 4 and metric_classes == metric:
                counts[1] += 1
            return counts
        result = acceptance.criterion_2(census)
        assert not result.passed
        assert detail in result.detail


def test_criterion_03_composition_relations(results):
    _check(results, 3)


def test_criterion_04_critical_points(results):
    _check(results, 4)


def test_criterion_05_divisor_equation(results):
    _check(results, 5)


def test_criterion_06_hochschild_one_dimensional(results):
    _check(results, 6)


def test_criterion_06_fails_on_the_exterior_algebra():
    # Lambda[e] (basis 1, e in degrees 0, 1, e * e = 0) has one class in each
    # parity at every word length, so its homology never stabilizes
    one = NovikovElement.one
    exterior = AInftyAlgebra(
        ["1", "e"], [0, 1],
        {2: {(0, 0): {0: one()}, (0, 1): {1: one()}, (1, 0): {1: -one()}}}, unit=0)
    result = acceptance.hochschild_check("exterior", exterior, 0, 5)
    assert not result.passed
    assert result.line() == ("[FAIL]  6 one-dimensional Hochschild homology: "
                             "exterior: dims {0: 4, 1: 4} stable False")


def test_criterion_06_helper_passes_a_brane_algebra():
    potential = toric.PotentialFunction.clifford_torus(1)
    algebra = toric.brane_algebra(potential, toric.critical_points(potential)[0])
    assert acceptance.hochschild_check("projective n=1", algebra, 1, 6).passed
    assert not acceptance.hochschild_check("projective n=1", algebra, 0, 6).passed


def test_criterion_07_open_closed_matrix(results):
    _check(results, 7)


def test_criterion_08_determinant_surjectivity(results):
    _check(results, 8)


def test_criterion_09_ring_relation(results):
    _check(results, 9)


def test_criterion_10_orthogonality(results):
    _check(results, 10)


def test_criterion_11_blowup_splitting(results):
    _check(results, 11)


def test_criterion_12_index_area_correspondence(results):
    _check(results, 12)


def test_criterion_13_determinism(results):
    _check(results, 13)


def test_criterion_13_fails_on_a_payload_that_changes():
    calls = itertools.count()
    result = acceptance.criterion_13(lambda: str(next(calls)))
    assert not result.passed
    assert result.line() == "[FAIL] 13 determinism: reports differ between runs"


def test_verify_all_cli_runs_are_byte_identical(tmp_path):
    outputs = []
    for name in ("first.txt", "second.txt"):
        path = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "qhsplit", "verify-all", "--out", str(path)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        outputs.append(path.read_bytes())
    assert outputs[0] == outputs[1]
