"""The acceptance gate: every criterion at its stated tolerance (exact).

Each test prints its pass/fail line; the final test runs the full suite
through the command line twice and compares bytes.
"""

import ast
import hashlib
import inspect
import itertools
import re
import subprocess
import sys
from fractions import Fraction

import pytest

from qhsplit import acceptance, hochschild, openclosed, toric, trees
from qhsplit.ainfty import AInftyAlgebra
from qhsplit.novikov import CyclotomicNumber, NovikovElement


@pytest.fixture(scope="module")
def results():
    return {r.number: r for r in acceptance.run_all()}


def _check(results, number):
    result = results[number]
    print(result.line())
    assert result.passed, result.detail


def test_criterion_01_novikov_field_axioms(results):
    _check(results, 1)


def test_criterion_01_fails_on_a_product_that_drops_its_top_term():
    # dropping the highest-exponent term of a product of three elements
    # depends on how they are bracketed
    def mul(x, y):
        product = x * y
        return NovikovElement(product.terms[:-1], product.cutoff)

    result = acceptance.criterion_1(mul)
    assert not result.passed
    assert result.line() == "[FAIL]  1 novikov field axioms: associativity broke"


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


def mutant_census(old, new):
    """``census_by_dimension`` from the source of ``qhsplit.trees`` with the
    one occurrence of ``old`` replaced by ``new``: a deliberately broken
    census."""
    source = inspect.getsource(trees)
    assert source.count(old) == 1, old
    namespace = {"__name__": trees.__name__}
    exec(compile(source.replace(old, new), trees.__file__, "exec"), namespace)
    return namespace["census_by_dimension"]


@pytest.mark.parametrize("old, new", [
    # no vertex over an empty run: the recurrence for E is dropped
    ("empty = add(term(1, 1), mul(grow, mul(empty, empty)))", "empty = {}"),
    # every placement of the interior inputs counted, stable or not
    ("for k in range(need + 1))", "for k in range(1))"),
], ids=["no-empty-children", "no-inclusion-exclusion"])
def test_criterion_02_fails_on_a_census_wrong_only_with_interior_inputs(old, new):
    # with no interior input both mutants count right, so the oracle and the
    # nodal cross-checks pass; the cases with interior inputs catch them
    result = acceptance.criterion_2(census=mutant_census(old, new))
    assert not result.passed
    assert " i=" in result.detail


def test_criterion_02_fails_on_a_vertex_bound_one_short(monkeypatch):
    # a census that prunes one vertex early with two interior inputs; the
    # enumeration reads no vertex bound, so the two totals differ
    check_arguments = trees._check_arguments

    def one_short(d_boundary, d_interior, metric_classes):
        bound = check_arguments(d_boundary, d_interior, metric_classes)
        return bound - 1 if d_interior >= 2 else bound

    monkeypatch.setattr(trees, "_check_arguments", one_short)
    result = acceptance.criterion_2()
    assert not result.passed
    assert result.detail == "d=0 i=2: 25 types enumerated != 7 counted"


def test_criterion_02_fails_without_broken_edges(monkeypatch):
    # with no length_inf move, no broken type is a stratum: 5 of the 20
    # dimension-0 types at d = 4 are missed, and 2 of the 4 at d = 3 first
    strata = trees._strata
    monkeypatch.setattr(trees, "_strata", lambda node: (
        (op, s) for op, s in strata(node) if op != "length_inf"))
    types = trees.enumerate_stable_types(4, 0)
    reached = {s for t in types if t.dim() == 1 for _, s in trees.boundary_strata(t)}
    points = {t for t in types if t.dim() == 0}
    assert (len(points - reached), len(points)) == (5, 20)
    result = acceptance.criterion_2()
    assert not result.passed
    assert result.detail == ("d=3: the strata of the dimension-1 types miss 2 of the 4 "
                             "dimension-0 types and add 0 others")


@pytest.mark.parametrize("move, detail", [
    # without either move the strata still reach exactly the dimension-0
    # types; only the count of strata per interval shows the loss
    ("length_zero", "d=3: 2 of the 3 dimension-1 types have other than two boundary strata"),
    ("collapse", "d=3: 1 of the 3 dimension-1 types have other than two boundary strata"),
], ids=["no-length-zero", "no-collapse"])
def test_criterion_02_fails_unless_every_one_cell_is_an_interval(monkeypatch, move, detail):
    strata = trees._strata
    monkeypatch.setattr(trees, "_strata", lambda node: (
        (op, s) for op, s in strata(node) if op != move))
    result = acceptance.criterion_2()
    assert not result.passed
    assert result.detail == detail


def test_criterion_03_composition_relations(results):
    _check(results, 3)


def test_criterion_03_fails_on_a_flipped_m2_sign(monkeypatch):
    # m_2(e1, e2) changes sign in every brane algebra with an e2, so P^2 is
    # the first to break; the flip keeps the exponent, so the algebra stays
    # q-homogeneous and C3 checks it over the coefficient field
    def brane_algebra(potential, critical):
        algebra = toric.brane_algebra(potential, critical)
        if "e2" not in algebra.basis:
            return algebra
        e1, e2 = algebra.basis.index("e1"), algebra.basis.index("e2")
        tensors = {d: dict(entries) for d, entries in algebra.tensors.items()}
        tensors[2][(e1, e2)] = {o: -value for o, value in tensors[2][(e1, e2)].items()}
        return AInftyAlgebra(algebra.basis, algebra.degrees, tensors, unit=algebra.unit)

    potential = toric.PotentialFunction.clifford_torus(2)
    weights = brane_algebra(potential, toric.critical_points(potential)[0]).q_weights()
    assert weights is not None
    # (e1,e1,e2) -> e2 carries q^(w(e1) + w(e1) + w(e2) - w(e2))
    assert 2 * weights[1] == Fraction(1, 3)
    result = acceptance.criterion_3(brane_algebra)
    assert not result.passed
    assert result.detail == "projective n=2: Violation(d=3, (e1,e1,e2) -> e2: 2*q^(1/3))"
    # the Novikov scalars report the same violation
    monkeypatch.setattr(AInftyAlgebra, "q_weights", lambda self: None)
    assert acceptance.criterion_3(brane_algebra) == result


def test_criterion_04_critical_points(results):
    _check(results, 4)


@pytest.mark.parametrize("order, n, line", [
    (4, 3, "P^3 det -4*z4*q^(3/4) != -4*q^(3/4)"),
    (3, 4, "exceptional n=4 det -3*z3*q^(2/5) != (3 + 3*z3)*q^(2/5)"),
])
def test_criterion_04_fails_on_a_repeated_root(order, n, line):
    # the third critical point of one potential repeats the second: it is
    # still critical with the same Hessian shape, but its determinant
    # belongs to the second root
    def critical_points(potential):
        points = toric.critical_points(potential)
        if (potential.order, potential.n) == (order, n):
            points[2] = points[1]
        return points

    result = acceptance.criterion_4(critical_points)
    assert not result.passed
    assert result.line() == f"[FAIL]  4 critical points: {line}"


@pytest.mark.parametrize("entries, line", [
    ([(0, 1)], "P^2 det 5*q^(2/3) != 3*q^(2/3)"),
    ([(0, 1), (1, 0)], "P^2 hessian entry (0,1)"),
])
def test_criterion_04_fails_on_a_perturbed_hessian(entries, line):
    # the first record of P^2 carries x (I + J) with its off-diagonal
    # entries negated: one of them changes the determinant, both keep it
    # and leave only the entry check to fail
    def critical_points(potential):
        points = toric.critical_points(potential)
        if (potential.order, potential.n) == (3, 2):
            h = [list(row) for row in points[0].hessian]
            for a, b in entries:
                h[a][b] = -h[a][b]
            points[0] = points[0]._replace(hessian=tuple(map(tuple, h)))
        return points

    result = acceptance.criterion_4(critical_points)
    assert not result.passed
    assert result.line() == f"[FAIL]  4 critical points: {line}"


def test_criterion_05_divisor_equation(results):
    _check(results, 5)


def test_criterion_05_fails_on_a_flipped_quadratic_form():
    # Q = +H/2 makes every symmetrized degree-one product -H
    def brane_algebra(potential, critical):
        form = toric.brane_quadratic_form(critical.hessian)
        return toric.clifford_algebra([[-entry for entry in row] for row in form])

    result = acceptance.criterion_5(brane_algebra)
    assert not result.passed
    assert result.line() == "[FAIL]  5 divisor equation: projective n=1 k=0 entry (0,0)"


def test_criterion_05_fails_on_one_negated_m2_entry():
    # m_2(e2, e1) negated at the last critical point only: its unit
    # component is the whole of the symmetrized (0, 1) entry, since
    # m_2(e1, e2) = -e12 has none
    def brane_algebra(potential, critical):
        algebra = toric.brane_algebra(potential, critical)
        if (potential.order, potential.n) != (3, 4) or critical != toric.critical_points(potential)[2]:
            return algebra
        e1, e2 = algebra.basis.index("e1"), algebra.basis.index("e2")
        tensors = {d: dict(entries) for d, entries in algebra.tensors.items()}
        tensors[2][(e2, e1)] = {o: -value for o, value in tensors[2][(e2, e1)].items()}
        return AInftyAlgebra(algebra.basis, algebra.degrees, tensors, unit=algebra.unit)

    result = acceptance.criterion_5(brane_algebra)
    assert not result.passed
    assert result.line() == "[FAIL]  5 divisor equation: exceptional n=4 k=2 entry (0,1)"


def test_criterion_06_hochschild_one_dimensional(results):
    _check(results, 6)


def test_criterion_06_fails_on_the_exterior_algebra():
    # Lambda[e] (basis 1, e in degrees 0, 1, e * e = 0) in place of the P^1
    # brane has one class in each parity at every word length, so its
    # homology never stabilizes
    one = NovikovElement.one
    exterior = AInftyAlgebra(
        ["1", "e"], [0, 1],
        {2: {(0, 0): {0: one()}, (0, 1): {1: one()}, (1, 0): {1: -one()}}}, unit=0)

    def brane_algebra(potential, critical):
        return exterior if potential.n == 1 else toric.brane_algebra(potential, critical)

    assert acceptance.criterion_6(brane_algebra).line() == (
        "[FAIL]  6 one-dimensional Hochschild homology: "
        "projective n=1: dims {0: 5, 1: 5} stable False")


def test_criterion_06_fails_on_a_p1_brane_whose_generator_squares_to_zero():
    # m_2(e1, e1) of the P^1 brane has only a unit component; without it the
    # algebra is the exterior algebra, whose homology never stabilizes
    def brane_algebra(potential, critical):
        algebra = toric.brane_algebra(potential, critical)
        if potential.n != 1:
            return algebra
        e1 = algebra.basis.index("e1")
        tensors = {d: dict(entries) for d, entries in algebra.tensors.items()}
        assert tensors[2].pop((e1, e1)).keys() == {algebra.unit}
        return AInftyAlgebra(algebra.basis, algebra.degrees, tensors, unit=algebra.unit)

    assert acceptance.criterion_6(brane_algebra).line() == (
        "[FAIL]  6 one-dimensional Hochschild homology: "
        "projective n=1: dims {0: 5, 1: 5} stable False")


def test_criterion_06_fails_on_a_class_in_the_wrong_parity():
    # the P^2 brane in place of the P^1 one: its one stable class sits in
    # parity 0, not in P^1's parity 1
    def brane_algebra(potential, critical):
        if potential.n == 1:
            potential = toric.PotentialFunction.clifford_torus(2)
            critical = toric.critical_points(potential)[0]
        return toric.brane_algebra(potential, critical)

    assert acceptance.criterion_6(brane_algebra).line() == (
        "[FAIL]  6 one-dimensional Hochschild homology: "
        "projective n=1: class in wrong parity")


def test_criterion_06_check_at_rank_16():
    # the projective n=4 brane algebra has rank 16; its one Hochschild class
    # sits in parity 0 and is stable at truncation length 3
    potential = toric.PotentialFunction.clifford_torus(4)
    algebra = toric.brane_algebra(potential, toric.critical_points(potential)[0])
    assert algebra.rank == 16
    report = hochschild.hochschild_homology_dims(hochschild.FlatCategory.single(algebra), 3)
    assert report.total() == 1, report.dims
    assert report.dims[0] == 1
    assert report.stable


def test_criterion_07_open_closed_matrix(results):
    _check(results, 7)


def test_criterion_07_fails_on_swapped_oc_columns():
    # columns 0 and 1 of every P^n matrix trade places; row 0 is all ones,
    # so the first wrong entry is (1, 0) of the P^1 matrix
    def oc_matrix(size, family, eps=None):
        matrix = openclosed.oc_matrix(size, family, eps)
        entries = tuple(row[1::-1] + row[2:] for row in matrix.entries)
        return matrix._replace(entries=entries)

    result = acceptance.criterion_7(oc_matrix)
    assert not result.passed
    assert result.detail == "n=1 entry (1,0)"


def test_criterion_07_fails_on_swapped_critical_points():
    # P^2's second and third records trade places, so column 1 of its
    # matrix meets the value at zeta^2 first in row 1
    def critical_points(potential):
        points = toric.critical_points(potential)
        if potential.n == 2:
            points[1], points[2] = points[2], points[1]
        return points

    result = acceptance.criterion_7(critical_points=critical_points)
    assert not result.passed
    assert result.detail == "n=2 entry (1,1)"


def test_criterion_08_determinant_surjectivity(results):
    _check(results, 8)


@pytest.mark.parametrize("kind, n", [("projective", 3), ("exceptional", 4)])
def test_criterion_08_fails_on_a_repeated_oc_column(kind, n):
    # the (kind, n) matrix gets its first column twice, so its determinant
    # is zero; every other matrix is left as it is
    def oc_matrix(size, family, eps=None):
        matrix = openclosed.oc_matrix(size, family, eps)
        if (family, size) != (kind, n):
            return matrix
        entries = tuple(row[:1] * 2 + row[2:] for row in matrix.entries)
        return matrix._replace(entries=entries)

    result = acceptance.criterion_8(oc_matrix)
    assert not result.passed
    assert result.detail.startswith(f"{kind} n={n}: ")


def test_criterion_09_ring_relation(results):
    _check(results, 9)


def _replacing_a_critical_value(n, k, replace):
    """``toric.critical_points`` with the value of P^n's k-th record
    replaced by ``replace`` of it."""
    def critical_points(potential):
        points = toric.critical_points(potential)
        if potential.n == n:
            points[k] = points[k]._replace(value=replace(points[k].value))
        return points
    return critical_points


def test_criterion_09_fails_on_a_wrong_power_of_q():
    # one critical value off by q^(1/7) breaks H^(n+1) = q at that point
    for n, k in ((2, 0), (4, 3)):
        critical_points = _replacing_a_critical_value(
            n, k, lambda value: value * NovikovElement.q_power(Fraction(1, 7)))
        result = acceptance.criterion_9(critical_points)
        assert not result.passed
        assert result.detail == f"n={n} k={k}"


def test_criterion_09_fails_on_a_root_of_the_wrong_order():
    # the value at the second point of P^3 times z8: its hyperplane value
    # q^(1/4) z4 z8 is an 8th root of unity times q^(1/4), of fourth power -q
    z8 = NovikovElement.from_cyclotomic(CyclotomicNumber.root_of_unity(8))
    critical_points = _replacing_a_critical_value(3, 1, lambda value: value * z8)
    result = acceptance.criterion_9(critical_points)
    assert not result.passed
    assert result.detail == "n=3 k=1"


def test_criterion_10_orthogonality(results):
    _check(results, 10)


@pytest.mark.parametrize("n", [1, 3])
def test_criterion_10_fails_on_a_repeated_oc_column(n):
    # column 1 of the P^n matrix repeats column 0, so the two columns pair
    # as column 0 pairs with itself
    def oc_matrix(size, family, eps=None):
        matrix = openclosed.oc_matrix(size, family, eps)
        if size != n:
            return matrix
        entries = tuple(row[:1] * 2 + row[2:] for row in matrix.entries)
        return matrix._replace(entries=entries)

    result = acceptance.criterion_10(oc_matrix)
    assert not result.passed
    assert result.detail == f"n={n} off-diagonal (0,1)"


def test_criterion_11_blowup_splitting(results):
    _check(results, 11)


def test_criterion_11_fails_on_an_exceptional_family_of_n_branes(monkeypatch):
    # the point summands are the exceptional block's columns, one per brane
    # the family claims, so n branes make the blowup of P^2 five-dimensional
    exceptional = toric.PotentialFunction.exceptional
    monkeypatch.setattr(toric.PotentialFunction, "exceptional", lambda n, eps: (
        exceptional(n, eps)._replace(order=n)))
    result = acceptance.criterion_11()
    assert not result.passed
    assert result.detail == "n=2: dim 5"


def test_criterion_11_fails_when_the_blowup_refuses_no_eps(monkeypatch):
    # with the cut's refusal patched out, split_report reports at eps = 9/10,
    # above n/(n+1), where no cut simplex exists
    monkeypatch.setattr(toric.ToricModel, "blowup", lambda model, eps: model)
    result = acceptance.criterion_11()
    assert not result.passed
    assert result.detail == "n=2 eps=9/10: generates with no cut simplex"


def test_criterion_12_index_area_correspondence(results):
    _check(results, 12)


def test_criterion_12_fails_on_a_wrong_cut_normal():
    # the normal (1, ..., 1, 2) blows beta_E down to n + 1 vertex classes,
    # so the index drops by 2n d instead of 2(n - 1) d
    def blowup_model(model, eps):
        cut = model.blowup(eps)
        n = len(model.normals[0])
        return toric.ToricModel(cut.normals[:-1] + ((1,) * (n - 1) + (2,),), cut.levels)

    result = acceptance.criterion_12(blowup_model)
    assert not result.passed
    assert result.detail == "n=5: index mismatch (0, 2, 1, 3, 3, 3, 3)"


def test_criterion_12_fails_on_a_cut_of_twice_the_size():
    result = acceptance.criterion_12(lambda model, eps: model.blowup(2 * eps))
    assert not result.passed
    assert result.detail == "n=5 eps=1/12: area mismatch (0, 2, 1, 3, 3, 3, 3)"


def test_criterion_13_determinism(results):
    _check(results, 13)


def test_criterion_13_fails_on_a_payload_that_changes():
    calls = itertools.count()
    result = acceptance.criterion_13(lambda: str(next(calls)))
    assert not result.passed
    assert result.line() == "[FAIL] 13 determinism: reports differ between runs"


def test_every_criterion_has_a_negative_control(results):
    # a test_criterion_NN_fails_* function here for each number in ALL_CRITERIA
    controls = {int(match[1]) for name in globals()
                if (match := re.fullmatch(r"test_criterion_(\d\d)_fails_\w+", name))}
    assert set(results) <= controls


def test_only_the_criterion_decorator_builds_a_result():
    # each criterion's number and name are stated once, where _criterion
    # decorates its check; the check returns or raises only its detail
    tree = ast.parse(inspect.getsource(acceptance))

    def results_built(node):
        return {call for call in ast.walk(node) if isinstance(call, ast.Call)
                and isinstance(call.func, ast.Name) and call.func.id == "CriterionResult"}

    decorator, = (node for node in tree.body
                  if isinstance(node, ast.FunctionDef) and node.name == "_criterion")
    assert results_built(decorator)
    assert results_built(tree) == results_built(decorator)


def test_exactly_the_listed_criteria_are_decorated():
    # _criterion(number, name) is called only as the one decorator of each
    # function in ALL_CRITERIA, in list order with the numbers 1..13, and no
    # other function of the module carries a decorator
    tree = ast.parse(inspect.getsource(acceptance))
    calls = [call for call in ast.walk(tree) if isinstance(call, ast.Call)
             and isinstance(call.func, ast.Name) and call.func.id == "_criterion"]
    decorated = [node for node in tree.body
                 if isinstance(node, ast.FunctionDef) and node.decorator_list]
    assert [node.name for node in decorated] == [fn.__name__ for fn in acceptance.ALL_CRITERIA]
    assert [node.decorator_list for node in decorated] == [[call] for call in calls]
    assert [call.args[0].value for call in calls] == list(range(1, 14))


def test_verify_all_report_bytes_are_pinned(results):
    # the sha256 of what `python -m qhsplit verify-all` prints
    table = acceptance.summary_table([results[number] for number in sorted(results)])
    assert hashlib.sha256(table.encode("utf-8")).hexdigest() == (
        "9ecb079aa426113ee72bdb335d3284193361d852aa846ed67ea60a655919554b")


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
