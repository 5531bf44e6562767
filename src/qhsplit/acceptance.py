"""The acceptance suite: one callable per criterion, shared by CLI and tests.

Every criterion is exact (zero tolerance); randomized criteria use fixed
seeds so the whole suite is deterministic.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction

from . import ainfty, blowup, hochschild, linalg, openclosed, toric, trees
from .novikov import CyclotomicNumber, NovikovElement, format_rational

SEED = 20240 + 8


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.number:2d} {self.name}: {self.detail}"


def _random_cyclotomic(rng, order) -> CyclotomicNumber:
    from .novikov import euler_phi
    coeffs = [Fraction(rng.randint(-3, 3), rng.randint(1, 4))
              for _ in range(euler_phi(order))]
    return CyclotomicNumber(order, coeffs)


def _random_novikov(rng, order=12, max_terms=3) -> NovikovElement:
    terms = []
    for _ in range(rng.randint(0, max_terms)):
        exp = Fraction(rng.randint(-4, 8), rng.randint(1, 4))
        terms.append((exp, _random_cyclotomic(rng, order)))
    return NovikovElement(terms)


def criterion_1() -> CriterionResult:
    """Field axioms and valuation multiplicativity on random elements."""
    rng = random.Random(SEED)
    for _ in range(1000):
        x, y, z = (_random_novikov(rng) for _ in range(3))
        if (x * y) * z != x * (y * z):
            return CriterionResult(1, "novikov field axioms", False, "associativity broke")
        if x * (y + z) != x * y + x * z:
            return CriterionResult(1, "novikov field axioms", False, "distributivity broke")
        if x * y != y * x:
            return CriterionResult(1, "novikov field axioms", False, "commutativity broke")
    pairs = 0
    while pairs < 1000:
        x, y = _random_novikov(rng), _random_novikov(rng)
        if x.is_zero() or y.is_zero():
            continue
        pairs += 1
        if (x * y).val_q() != x.val_q() + y.val_q():
            return CriterionResult(1, "novikov field axioms", False,
                                   "valuation multiplicativity broke")
    return CriterionResult(1, "novikov field axioms", True,
                           "1000 triples, 1000 valuation pairs, exact")


def criterion_2(census=trees.census_by_dimension) -> CriterionResult:
    """Tree census against the bracketing oracle plus boundary conformance.

    ``census`` is the counting routine under test; the types it counts are
    also enumerated, and the two totals must agree.
    """
    for d in (2, 3, 4):
        oracle = trees.associahedron_face_counts(d)
        counted = census(d, 0, metric_classes=(trees.ZERO,))
        if oracle != counted:
            return CriterionResult(2, "tree census", False,
                                   f"d={d}: oracle {oracle} != census {counted}")
    allowed_ops = {"collapse", "length_zero", "length_inf"}
    checked = 0
    for d in (2, 3, 4):
        types = trees.enumerate_stable_types(d, 0)
        total = sum(census(d, 0).values())
        if len(types) != total:
            return CriterionResult(2, "tree census", False,
                                   f"d={d}: {len(types)} types enumerated != {total} counted")
        for t in types:
            if t.dim() != 1:
                continue
            for op, stratum in trees.boundary_strata(t):
                if op not in allowed_ops:
                    return CriterionResult(2, "tree census", False, f"alien operation {op}")
                if stratum.dim() != 0 or not stratum.is_stable():
                    return CriterionResult(2, "tree census", False,
                                           "stratum not a stable codimension-one type")
                if not trees.leq(stratum, t):
                    return CriterionResult(2, "tree census", False, "stratum not below")
                checked += 1
    return CriterionResult(2, "tree census", True,
                           f"censuses match for d=2,3,4; {checked} strata conform")


def _brane_algebras(max_n: int):
    for n in range(1, max_n + 1):
        potential = toric.PotentialFunction.clifford_torus(n)
        for k, y in enumerate(toric.critical_points(potential)):
            yield ("projective", n, k, potential, y)
    for n in range(2, max_n + 1):
        potential = toric.PotentialFunction.exceptional(n, Fraction(1, 10))
        for k, y in enumerate(toric.critical_points(potential)):
            yield ("exceptional", n, k, potential, y)


def criterion_3() -> CriterionResult:
    """Relation check on the Hessian Clifford algebras, ranks 2..16."""
    count = 0
    for kind, n, k, potential, y in _brane_algebras(4):
        if k > 0:
            continue  # one critical point per potential suffices for the relations
        algebra = toric.brane_algebra(potential, y)
        violations = ainfty.check_ainfty(algebra)
        if violations:
            return CriterionResult(3, "composition relations", False,
                                   f"{kind} n={n}: {violations[0]!r}")
        if algebra.unit_violations() or algebra.degree_violations():
            return CriterionResult(3, "composition relations", False,
                                   f"{kind} n={n}: unit or degree axiom broke")
        count += 1
    return CriterionResult(3, "composition relations", True,
                           f"{count} algebras pass with zero violations")


def criterion_4() -> CriterionResult:
    """Critical points, Hessian shape, and determinant, both kinds."""
    for n in range(1, 7):
        potential = toric.PotentialFunction.clifford_torus(n)
        points = toric.critical_points(potential)
        if len(points) != n + 1:
            return CriterionResult(4, "critical points", False, f"P^{n} count")
        zeta = CyclotomicNumber.root_of_unity(n + 1)
        for k, y in enumerate(points):
            h = toric.hessian(potential, y)
            shape = _hessian_shape(h)
            if shape != "identity-plus-ones":
                return CriterionResult(4, "critical points", False,
                                       f"P^{n} hessian shape {shape}")
            det = linalg.determinant(h)
            expected = NovikovElement.monomial(
                Fraction(n, n + 1), zeta ** (k * n) * (n + 1))
            if det != expected:
                return CriterionResult(4, "critical points", False,
                                       f"P^{n} det {det} != {expected}")
    for n in range(2, 7):
        eps = Fraction(1, 10)
        potential = toric.PotentialFunction.exceptional(n, eps)
        points = toric.critical_points(potential)
        if len(points) != n - 1:
            return CriterionResult(4, "critical points", False, f"exceptional n={n} count")
        aleph = CyclotomicNumber.root_of_unity(n - 1)
        for k, y in enumerate(points):
            h = toric.hessian(potential, y)
            shape = _hessian_shape(h)
            if shape != "identity-minus-ones":
                return CriterionResult(4, "critical points", False,
                                       f"exceptional n={n} hessian shape {shape}")
            det = linalg.determinant(h)
            expected = NovikovElement.monomial(n * eps, aleph ** (k * n) * (1 - n))
            if det != expected:
                return CriterionResult(4, "critical points", False,
                                       f"exceptional n={n} det {det} != {expected}")
    return CriterionResult(
        4, "critical points", True,
        "counts n+1 / n-1 with exact roots and vanishing gradients; "
        "hessians unit*q-power*(I+J) [projective] and unit*q-power*(I-J) "
        "[exceptional], determinants (n+1)/(1-n) times unit q-powers")


def _hessian_shape(h) -> str:
    """Classify a symmetric matrix as unit*(I+J), unit*(I-J), or other."""
    n = len(h)
    for a in range(n):
        for b in range(n):
            if h[a][b] != h[b][a]:
                return "asymmetric"
    if n == 1:
        return "identity-plus-ones" if not h[0][0].is_zero() else "degenerate"
    off = h[0][1]
    for a in range(n):
        for b in range(n):
            if a != b and h[a][b] != off:
                return "irregular"
    diag = h[0][0]
    for a in range(n):
        if h[a][a] != diag:
            return "irregular"
    if diag == off + off:
        return "identity-plus-ones"
    if diag.is_zero():
        return "identity-minus-ones"
    return "other"


def criterion_5() -> CriterionResult:
    """Divisor equation on all degree-one pairs, both kinds, n = 1..4."""
    count = 0
    for kind, n, k, potential, y in _brane_algebras(4):
        if not toric.divisor_equation_check(potential, y):
            return CriterionResult(5, "divisor equation", False, f"{kind} n={n} k={k}")
        count += 1
    return CriterionResult(5, "divisor equation", True,
                           f"{count} critical points, all degree-one pairs, exact")


HH_LENGTHS = {1: 6, 2: 5, 3: 4}


def hochschild_check(name: str, algebra: ainfty.AInftyAlgebra, parity: int,
                     max_length: int) -> CriterionResult:
    """C6's verdict on one algebra: one Hochschild class, in ``parity``,
    stable at the truncation length ``max_length``."""
    report = hochschild.hochschild_homology_dims(
        hochschild.FlatCategory.single(algebra), max_length)
    if report.total() != 1 or not report.stable:
        return CriterionResult(6, "one-dimensional Hochschild homology", False,
                               f"{name}: dims {report.dims} stable {report.stable}")
    if report.dims.get(parity) != 1:
        return CriterionResult(6, "one-dimensional Hochschild homology", False,
                               f"{name}: class in wrong parity")
    return CriterionResult(6, "one-dimensional Hochschild homology", True,
                           f"{name}: one stable class in parity {parity}")


def criterion_6() -> CriterionResult:
    """Super-Hochschild homology of the brane algebras is one-dimensional."""
    for kind, n, k, potential, y in _brane_algebras(3):
        if k > 0:
            continue
        result = hochschild_check(f"{kind} n={n}", toric.brane_algebra(potential, y),
                                  n % 2, HH_LENGTHS[n])
        if not result.passed:
            return result
    return CriterionResult(6, "one-dimensional Hochschild homology", True,
                           "total dimension 1, top-class parity, stable at two lengths")


def criterion_7() -> CriterionResult:
    """Open-closed matrix entries and the q -> 1 character sums."""
    for n in range(1, 7):
        matrix = openclosed.oc_matrix(n, openclosed.PROJECTIVE)
        zeta = CyclotomicNumber.root_of_unity(n + 1)
        for b in range(n + 1):
            for a in range(n + 1):
                expected = NovikovElement.monomial(Fraction(b, n + 1), zeta ** (a * b))
                if matrix.entry(b, a) != expected:
                    return CriterionResult(7, "open-closed matrix", False,
                                           f"n={n} entry ({b},{a})")
        q1 = matrix.q_to_one()
        for j in range(n + 1):
            for k in range(n + 1):
                s = CyclotomicNumber.zero()
                for b in range(n + 1):
                    s = s + q1[b][j] * (q1[b][k] ** n)  # conjugate via zeta^-1 = zeta^n
                if (j == k) == s.is_zero():
                    return CriterionResult(7, "open-closed matrix", False,
                                           f"n={n} character sum ({j},{k})")
    return CriterionResult(7, "open-closed matrix", True,
                           "entries exact for n=1..6; q->1 columns orthogonal")


def criterion_8() -> CriterionResult:
    """Determinant surjectivity with the valuation split at ``openclosed.SPLIT``.

    ``surjectivity_test`` normalizes rows by their minimal q-power first;
    without it the plain determinant valuation n/2 leaves the split window
    for n >= 4.
    """
    for n in range(1, 7):
        res = openclosed.surjectivity_test(openclosed.oc_matrix(n, openclosed.PROJECTIVE))
        if res != openclosed.SURJECTIVE:
            return CriterionResult(8, "determinant surjectivity", False,
                                   f"projective n={n}: {res}")
    for n in range(2, 7):
        res = openclosed.surjectivity_test(
            openclosed.oc_matrix(n, openclosed.EXCEPTIONAL, Fraction(1, 10)))
        if res != openclosed.SURJECTIVE:
            return CriterionResult(8, "determinant surjectivity", False,
                                   f"exceptional n={n}: {res}")
    return CriterionResult(8, "determinant surjectivity", True,
                           "surjective for both kinds, n up to 6, split at "
                           + format_rational(openclosed.SPLIT))


def criterion_9() -> CriterionResult:
    """Quantum relation through the closed-open values."""
    for n in range(1, 5):
        potential = toric.PotentialFunction.clifford_torus(n)
        for k, y in enumerate(toric.critical_points(potential)):
            if not openclosed.ring_hom_check(potential, k, y):
                return CriterionResult(9, "closed-open ring relation", False,
                                       f"n={n} k={k}")
    return CriterionResult(9, "closed-open ring relation", True,
                           "hyperplane power relation holds for all branes, n=1..4")


def criterion_10() -> CriterionResult:
    """Frobenius orthogonality and blowup block orthogonality."""
    for n in range(1, 5):
        gram = openclosed.frobenius_orthogonality(n)
        for j in range(n + 1):
            for k in range(n + 1):
                if j != k and not gram[j][k].is_zero():
                    return CriterionResult(10, "orthogonality", False,
                                           f"n={n} off-diagonal ({j},{k})")
                if j == k and gram[j][k].is_zero():
                    return CriterionResult(10, "orthogonality", False,
                                           f"n={n} vanishing diagonal ({j})")
    for n in range(2, 6):
        report = blowup.split_report(n, Fraction(1, 10))
        if not report["cross_gram_zero"]:
            return CriterionResult(10, "orthogonality", False,
                                   f"blowup n={n} cross pairings nonzero")
    return CriterionResult(10, "orthogonality", True,
                           "diagonal Gram matrices n=1..4; blowup blocks orthogonal")


def criterion_11() -> CriterionResult:
    """Splitting dimensions, generation, and the bulk-shift valuation bound."""
    for n in range(2, 6):
        for eps in (Fraction(1, 10), Fraction(1, 3), Fraction(9, 10)):
            report = blowup.split_report(n, eps)
            if report["total_dim"] != 2 * n:
                return CriterionResult(11, "blowup splitting", False,
                                       f"n={n}: dim {report['total_dim']}")
            if report["generation"] != blowup.GENERATES:
                return CriterionResult(11, "blowup splitting", False,
                                       f"n={n} eps={eps}: {report['generation']}")
            if not report["bound_holds"]:
                return CriterionResult(
                    11, "blowup splitting", False,
                    f"n={n} eps={eps}: extra valuation "
                    f"{report['min_extra_valuation']} < 1 - eps")
    return CriterionResult(11, "blowup splitting", True,
                           "dim 2n, generates, corrections at least 1 - eps, "
                           "n=2..5, eps in {1/10, 1/3, 9/10}")


def criterion_12() -> CriterionResult:
    """Index/area correspondence on random classes; sphere obstruction grid."""
    rng = random.Random(SEED + 12)
    for _ in range(100):
        n = rng.randint(2, 5)
        eps = Fraction(rng.randint(1, 9), 10)
        model = blowup.BlowupLocalModel(n, eps)
        up = model.upstairs_class(tuple(rng.randint(0, 3) for _ in range(n + 1)))
        down = model.project(up)
        d = model.e_intersection(up)
        if blowup.index_correspondence(down.index, n, d) != up.index:
            return CriterionResult(12, "index/area correspondence", False,
                                   f"index mismatch {up.degrees}")
        area_up, _ = blowup.area_correspondence(down.area, eps, d)
        if area_up != up.area:
            return CriterionResult(12, "index/area correspondence", False,
                                   f"area mismatch {up.degrees}")
    for n in range(2, 7):
        for k in range(0, 11):
            for m in range(1, 6):
                if not blowup.exceptional_sphere_obstruction(n, k, m):
                    return CriterionResult(12, "index/area correspondence", False,
                                           f"obstruction failed ({n},{k},{m})")
    return CriterionResult(12, "index/area correspondence", True,
                           "100 random classes agree; obstruction holds on the grid")


def _determinism_payload() -> str:
    report = blowup.split_report(2, Fraction(1, 10))
    matrix = openclosed.oc_matrix(2, openclosed.PROJECTIVE)
    payload = {
        "split": {k: str(v) for k, v in sorted(report.items())},
        "matrix": [[repr(matrix.entry(b, a)) for a in range(3)] for b in range(3)],
        "census": {str(k): v for k, v in sorted(trees.census_by_dimension(3, 0).items())},
    }
    return json.dumps(payload, sort_keys=True)


def criterion_13(payload=_determinism_payload) -> CriterionResult:
    """Byte-identical reports on repeated runs of ``payload``."""
    first = payload()
    second = payload()
    if first != second:
        return CriterionResult(13, "determinism", False, "reports differ between runs")
    return CriterionResult(13, "determinism", True,
                           "repeated report generation is byte-identical")


ALL_CRITERIA = [
    criterion_1, criterion_2, criterion_3, criterion_4, criterion_5,
    criterion_6, criterion_7, criterion_8, criterion_9, criterion_10,
    criterion_11, criterion_12, criterion_13,
]


def run_all() -> list[CriterionResult]:
    return [fn() for fn in ALL_CRITERIA]


def summary_table(results: list[CriterionResult]) -> str:
    from .novikov import DEFAULT_CUTOFF
    lines = ["acceptance suite",
             f"default cutoff: {format_rational(DEFAULT_CUTOFF)}",
             ""]
    lines.extend(r.line() for r in results)
    passed = sum(1 for r in results if r.passed)
    lines.append("")
    lines.append(f"{passed}/{len(results)} criteria pass")
    return "\n".join(lines) + "\n"
