"""The acceptance suite: one callable per criterion, shared by CLI and tests.

Every criterion is exact (zero tolerance); randomized criteria use fixed
seeds so the whole suite is deterministic.  Each criterion is a check that
returns the detail of its passing line or raises ``_Failed`` with the
detail of its failing one; ``_criterion`` states its number and name once
and turns either into the ``CriterionResult``.
"""

from __future__ import annotations

import functools
import itertools
import json
import operator
import random
from fractions import Fraction
from typing import NamedTuple

from . import ainfty, blowup, hochschild, linalg, openclosed, toric, trees
from .novikov import DEFAULT_CUTOFF, CyclotomicNumber, NovikovElement, euler_phi, format_rational

SEED = 20240 + 8
EPS = Fraction(1, 10)  # the exceptional family's size wherever the suite fixes one


class CriterionResult(NamedTuple):
    number: int
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.number:2d} {self.name}: {self.detail}"


class _Failed(Exception):
    """A check's failing detail."""


def _criterion(number: int, name: str):
    """Make a check that returns its passing detail, or raises
    ``_Failed(detail)``, return criterion ``number``'s ``CriterionResult``."""
    def decorate(check):
        @functools.wraps(check)
        def criterion(*args, **kwargs) -> CriterionResult:
            try:
                passed, detail = True, check(*args, **kwargs)
            except _Failed as failure:
                passed, detail = False, failure.args[0]
            return CriterionResult(number, name, passed, detail)
        return criterion
    return decorate


def _random_cyclotomic(rng, order) -> CyclotomicNumber:
    coeffs = [Fraction(rng.randint(-3, 3), rng.randint(1, 4))
              for _ in range(euler_phi(order))]
    return CyclotomicNumber(order, coeffs)


def _random_novikov(rng, order=12, max_terms=3) -> NovikovElement:
    terms = []
    for _ in range(rng.randint(0, max_terms)):
        exp = Fraction(rng.randint(-4, 8), rng.randint(1, 4))
        terms.append((exp, _random_cyclotomic(rng, order)))
    return NovikovElement(terms)


@_criterion(1, "novikov field axioms")
def criterion_1(mul=operator.mul) -> str:
    """Field axioms and valuation multiplicativity of the product ``mul``."""
    rng = random.Random(SEED)
    for _ in range(1000):
        x, y, z = (_random_novikov(rng) for _ in range(3))
        if mul(mul(x, y), z) != mul(x, mul(y, z)):
            raise _Failed("associativity broke")
        if mul(x, y + z) != mul(x, y) + mul(x, z):
            raise _Failed("distributivity broke")
        if mul(x, y) != mul(y, x):
            raise _Failed("commutativity broke")
    pairs = 0
    while pairs < 1000:
        x, y = _random_novikov(rng), _random_novikov(rng)
        if x.is_zero() or y.is_zero():
            continue
        pairs += 1
        if mul(x, y).val_q() != x.val_q() + y.val_q():
            raise _Failed("valuation multiplicativity broke")
    return "1000 triples, 1000 valuation pairs, exact"


@_criterion(2, "tree census")
def criterion_2(census=trees.census_by_dimension) -> str:
    """Tree census against the bracketing oracle plus boundary conformance.

    ``census`` is the counting routine under test; the types it counts are
    also enumerated, and the two totals must agree: for d = 2, 3, 4 with no
    interior input, and for three small cases with interior inputs, the only
    ones with vertices short of slots or children over no boundary input.
    In each case but d = 2, a point, the boundary strata of the dimension-1
    types must be exactly the dimension-0 types, and each dimension-1 type,
    an interval, must have exactly two of them.
    """
    for d in (2, 3, 4):
        oracle = trees.associahedron_face_counts(d)
        counted = census(d, 0, metric_classes=(trees.ZERO,))
        if oracle != counted:
            raise _Failed(f"d={d}: oracle {oracle} != census {counted}")
    checked = 0
    for d, i in ((2, 0), (3, 0), (4, 0), (1, 1), (2, 1), (0, 2)):
        where = f"d={d} i={i}" if i else f"d={d}"
        types = trees.enumerate_stable_types(d, i)
        total = sum(census(d, i).values())
        if len(types) != total:
            raise _Failed(f"{where}: {len(types)} types enumerated != {total} counted")
        if (d, i) == (2, 0):
            continue
        boundaries = [trees.boundary_strata(t) for t in types if t.dim() == 1]
        strata = [s for boundary in boundaries for _, s in boundary]
        reached, points = set(strata), {t for t in types if t.dim() == 0}
        if reached != points:
            raise _Failed(f"{where}: the strata of the dimension-1 types miss "
                          f"{len(points - reached)} of the {len(points)} dimension-0 types "
                          f"and add {len(reached - points)} others")
        not_intervals = sum(len(boundary) != 2 for boundary in boundaries)
        if not_intervals:
            raise _Failed(f"{where}: {not_intervals} of the {len(boundaries)} dimension-1 types "
                          "have other than two boundary strata")
        if not i:  # the detail line counts the strata for d = 2, 3, 4
            checked += len(strata)
    return f"censuses match for d=2,3,4; {checked} strata conform"


def _families(max_n: int):
    """Each brane family up to ``max_n``, as ``(kind, n, eps, potential)``:
    P^n from n = 1 with no eps, then the exceptional family from n = 2 at
    ``EPS``."""
    for n in range(1, max_n + 1):
        yield openclosed.PROJECTIVE, n, None, toric.PotentialFunction.clifford_torus(n)
    for n in range(2, max_n + 1):
        yield openclosed.EXCEPTIONAL, n, EPS, toric.PotentialFunction.exceptional(n, EPS)


@_criterion(3, "composition relations")
def criterion_3(brane_algebra=toric.brane_algebra) -> str:
    """Relation check on the Hessian Clifford algebras ``brane_algebra``
    builds at each potential's first critical point, ranks 2..16."""
    count = 0
    for kind, n, _, potential in _families(4):
        algebra = brane_algebra(potential, toric.critical_points(potential)[0])
        violations = ainfty.check_ainfty(algebra)
        if violations:
            raise _Failed(f"{kind} n={n}: {violations[0]!r}")
        if algebra.unit_violations() or algebra.degree_violations():
            raise _Failed(f"{kind} n={n}: unit or degree axiom broke")
        count += 1
    return f"{count} algebras pass with zero violations"


@_criterion(4, "critical points")
def criterion_4(critical_points=toric.critical_points) -> str:
    """Critical points that ``critical_points`` returns, the determinant and
    entries of the Hessian each record carries against the closed forms,
    both kinds.

    At the k-th point the Hessian is ``x (I + J)`` with
    ``x = q^{1/(n+1)} zeta^k`` on P^n and ``x (I - J)`` with
    ``x = q^eps eta^k`` on the exceptional family, of determinant
    ``(n + 1) x^n`` and ``(1 - n) x^n``.
    """
    for kind, n, eps, potential in _families(6):
        name, weight, sign = ((f"P^{n}", Fraction(1, n + 1), 1) if eps is None
                              else (f"{kind} n={n}", eps, -1))
        points = critical_points(potential)
        if len(points) != potential.order:
            raise _Failed(f"{name} count")
        root = CyclotomicNumber.root_of_unity(potential.order)
        det_factor = CyclotomicNumber.from_rational(1 + sign * n)
        for k, critical in enumerate(points):
            det = linalg.determinant(critical.hessian)
            expected = NovikovElement.monomial(n * weight, root ** (k * n) * det_factor)
            if det != expected:
                raise _Failed(f"{name} det {det} != {expected}")
            x = NovikovElement.monomial(weight, root ** k)
            for a, b in itertools.product(range(n), repeat=2):
                if critical.hessian[a][b] != x * NovikovElement.from_rational((a == b) + sign):
                    raise _Failed(f"{name} hessian entry ({a},{b})")
    return ("counts n+1 / n-1 with exact roots and vanishing gradients; "
            "hessians unit*q-power*(I+J) [projective] and unit*q-power*(I-J) "
            "[exceptional], determinants (n+1)/(1-n) times unit q-powers")


@_criterion(5, "divisor equation")
def criterion_5(brane_algebra=toric.brane_algebra) -> str:
    """Divisor equation on the algebras ``brane_algebra`` builds at every
    critical point, both kinds, n = 1..4: the unit component of
    ``m_2(e_a, e_b) + m_2(e_b, e_a)`` is the Hessian entry ``H_ab``.

    With ``m_2(x, y) = (-1)^{|x|} x y`` that component is ``-2 Q_ab``, and
    ``Q = -H/2``.
    """
    count = 0
    zero = NovikovElement.zero()
    for kind, n, _, potential in _families(4):
        for k, critical in enumerate(toric.critical_points(potential)):
            algebra = brane_algebra(potential, critical)
            gens = [algebra.basis.index(f"e{a + 1}") for a in range(n)]
            for a, b in itertools.product(range(n), repeat=2):
                symmetrized = (algebra.m_basis((gens[a], gens[b])).get(algebra.unit, zero)
                               + algebra.m_basis((gens[b], gens[a])).get(algebra.unit, zero))
                if symmetrized != critical.hessian[a][b]:
                    raise _Failed(f"{kind} n={n} k={k} entry ({a},{b})")
            count += 1
    return f"{count} critical points, all degree-one pairs, exact"


HH_LENGTHS = {1: 6, 2: 5, 3: 4}


@_criterion(6, "one-dimensional Hochschild homology")
def criterion_6(brane_algebra=toric.brane_algebra) -> str:
    """Super-Hochschild homology of the algebras ``brane_algebra`` builds at
    each potential's first critical point, n = 1..3: one class, in parity
    n mod 2, stable at the truncation length ``HH_LENGTHS[n]``."""
    for kind, n, _, potential in _families(3):
        algebra = brane_algebra(potential, toric.critical_points(potential)[0])
        report = hochschild.hochschild_homology_dims(
            hochschild.FlatCategory.single(algebra), HH_LENGTHS[n])
        if report.total() != 1 or not report.stable:
            raise _Failed(f"{kind} n={n}: dims {report.dims} stable {report.stable}")
        if report.dims.get(n % 2) != 1:
            raise _Failed(f"{kind} n={n}: class in wrong parity")
    return "total dimension 1, top-class parity, stable at two lengths"


def _hyperplane_values(n: int, critical_points) -> list[NovikovElement]:
    """The closed-open value ``H(p) = W(p) / (n + 1)`` of the hyperplane
    class at each critical point ``critical_points`` returns for P^n:
    ``c_1 = (n + 1) H`` goes to the critical value."""
    scale = NovikovElement.from_rational(Fraction(1, n + 1))
    return [critical.value * scale
            for critical in critical_points(toric.PotentialFunction.clifford_torus(n))]


@_criterion(7, "open-closed matrix")
def criterion_7(oc_matrix=openclosed.oc_matrix, critical_points=toric.critical_points) -> str:
    """Entries ``(b, a)`` of the OC matrices ``oc_matrix`` builds against
    ``H(p_a)^b`` at the points ``critical_points`` returns, and the q -> 1
    character sums."""
    for n in range(1, 7):
        matrix = oc_matrix(n, openclosed.PROJECTIVE)
        values = _hyperplane_values(n, critical_points)
        for b in range(n + 1):
            for a, value in enumerate(values):
                if matrix.entry(b, a) != value ** b:
                    raise _Failed(f"n={n} entry ({b},{a})")
        q1 = matrix.q_to_one()
        for j in range(n + 1):
            for k in range(n + 1):
                s = CyclotomicNumber.zero()
                for b in range(n + 1):
                    s = s + q1[b][j] * (q1[b][k] ** n)  # conjugate via zeta^-1 = zeta^n
                if (j == k) == s.is_zero():
                    raise _Failed(f"n={n} character sum ({j},{k})")
    return "entries exact for n=1..6; q->1 columns orthogonal"


@_criterion(8, "determinant surjectivity")
def criterion_8(oc_matrix=openclosed.oc_matrix) -> str:
    """Each OC matrix ``oc_matrix`` builds is invertible: its exact
    determinant is nonzero (``openclosed.surjectivity``)."""
    for kind, n, eps, _ in _families(6):
        entries = oc_matrix(n, kind, eps).entries
        res = openclosed.surjectivity(not linalg.determinant(entries).is_zero(), entries)
        if res != openclosed.SURJECTIVE:
            raise _Failed(f"{kind} n={n}: {res}")
    return "surjective for both kinds, n up to 6, nonzero exact determinant"


@_criterion(9, "closed-open ring relation")
def criterion_9(critical_points=toric.critical_points) -> str:
    """Quantum relation ``H(p)^{n+1} = q`` on the hyperplane values at the
    points ``critical_points`` returns."""
    q = NovikovElement.q_power(1)
    for n in range(1, 5):
        for k, value in enumerate(_hyperplane_values(n, critical_points)):
            if value ** (n + 1) != q:
                raise _Failed(f"n={n} k={k}")
    return "hyperplane power relation holds for all branes, n=1..4"


@_criterion(10, "orthogonality")
def criterion_10(oc_matrix=openclosed.oc_matrix) -> str:
    """Frobenius orthogonality of the OC matrices ``oc_matrix`` builds, and
    blowup block orthogonality."""
    for n in range(1, 5):
        gram = openclosed.frobenius_orthogonality(oc_matrix(n, openclosed.PROJECTIVE))
        for j in range(n + 1):
            for k in range(n + 1):
                if j != k and not gram[j][k].is_zero():
                    raise _Failed(f"n={n} off-diagonal ({j},{k})")
                if j == k and gram[j][k].is_zero():
                    raise _Failed(f"n={n} vanishing diagonal ({j})")
    for n in range(2, 6):
        if not blowup.split_report(n, EPS)["cross_gram_zero"]:
            raise _Failed(f"blowup n={n} cross pairings nonzero")
    return "diagonal Gram matrices n=1..4; blowup blocks orthogonal"


@_criterion(11, "blowup splitting")
def criterion_11() -> str:
    """Splitting dimensions, generation, and the bulk-shift valuation bound
    where the cut simplex exists; its refusal at ``eps = 9/10``, above
    ``n/(n+1)`` for every ``n`` of the grid."""
    for n in range(2, 6):
        for eps in (EPS, Fraction(1, 3)):
            report = blowup.split_report(n, eps)
            if report["total_dim"] != 2 * n:
                raise _Failed(f"n={n}: dim {report['total_dim']}")
            if report["generation"] != blowup.GENERATES:
                raise _Failed(f"n={n} eps={eps}: {report['generation']}")
            if not report["bound_holds"]:
                raise _Failed(f"n={n} eps={eps}: extra valuation "
                              f"{report['min_extra_valuation']} < 1 - eps")
        try:
            report = blowup.split_report(n, Fraction(9, 10))
        except ValueError:
            continue
        raise _Failed(f"n={n} eps=9/10: {report['status']} with no cut simplex")
    return ("dim 2n, generates, corrections at least 1 - eps, n=2..5, eps in {1/10, 1/3}; "
            "eps = 9/10 refused")


@_criterion(12, "index/area correspondence")
def criterion_12(blowup_model=toric.ToricModel.blowup) -> str:
    """Index and area of random classes of the cut simplex against their
    blowdown, both read off the polytopes.

    ``blowup_model(model, eps)`` cuts the simplex's vertex at the first ``n``
    facets.  Their normals are the unit vectors, so the exceptional class
    ``beta_E`` blows down to the vertex classes with the coordinates of the
    cut normal as degrees.  Meeting the exceptional divisor ``d`` times must
    lower the index by ``2 (n - 1) d`` and the area by ``eps d``.
    """
    rng = random.Random(SEED + 12)
    for _ in range(100):
        n = rng.randint(2, 5)
        eps = Fraction(rng.randint(1, 9), 10 * (n + 1))
        base = toric.ToricModel.simplex(n)
        cut = blowup_model(base, eps)
        up = tuple(rng.randint(0, 3) for _ in range(n + 2))
        d = up[-1]
        down = tuple(k + d * c for k, c in zip(up, cut.normals[-1])) + (up[n],)
        if base.index(down) - cut.index(up) != 2 * (n - 1) * d:
            raise _Failed(f"n={n}: index mismatch {up}")
        if base.area(down) - cut.area(up) != eps * d:
            raise _Failed(f"n={n} eps={format_rational(eps)}: area mismatch {up}")
    return ("100 random classes of the cut simplex, n=2..5: index drops "
            "2(n-1)d and area eps*d under blowdown")


def _determinism_payload() -> str:
    report = blowup.split_report(2, EPS)
    matrix = openclosed.oc_matrix(2, openclosed.PROJECTIVE)
    payload = {
        "split": {k: str(v) for k, v in sorted(report.items())},
        "matrix": [[repr(matrix.entry(b, a)) for a in range(3)] for b in range(3)],
        "census": {str(k): v for k, v in sorted(trees.census_by_dimension(3, 0).items())},
    }
    return json.dumps(payload, sort_keys=True)


@_criterion(13, "determinism")
def criterion_13(payload=_determinism_payload) -> str:
    """Byte-identical reports on repeated runs of ``payload``."""
    if payload() != payload():
        raise _Failed("reports differ between runs")
    return "repeated report generation is byte-identical"


ALL_CRITERIA = [
    criterion_1, criterion_2, criterion_3, criterion_4, criterion_5,
    criterion_6, criterion_7, criterion_8, criterion_9, criterion_10,
    criterion_11, criterion_12, criterion_13,
]


def run_all() -> list[CriterionResult]:
    return [fn() for fn in ALL_CRITERIA]


def summary_table(results: list[CriterionResult]) -> str:
    lines = ["acceptance suite",
             f"default cutoff: {format_rational(DEFAULT_CUTOFF)}",
             ""]
    lines.extend(r.line() for r in results)
    passed = sum(1 for r in results if r.passed)
    lines.append("")
    lines.append(f"{passed}/{len(results)} criteria pass")
    return "\n".join(lines) + "\n"
