import itertools
from fractions import Fraction as F

import pytest

from qhsplit import acceptance, linalg, toric
from qhsplit import openclosed as oc
from qhsplit.novikov import CyclotomicNumber as C, NovikovElement as N


# --- the matrices -----------------------------------------------------------

def test_p1_matrix_rows():
    m = oc.oc_matrix(1, oc.PROJECTIVE)
    assert m.entry(0, 0) == N.one() and m.entry(0, 1) == N.one()
    assert m.entry(1, 0) == N.q_power(F(1, 2))
    assert m.entry(1, 1) == -N.q_power(F(1, 2))


def test_entries_formula():
    for n in (2, 3, 6):
        m = oc.oc_matrix(n, oc.PROJECTIVE)
        zeta = C.root_of_unity(n + 1)
        for b in range(n + 1):
            for a in range(n + 1):
                assert m.entry(b, a) == N.monomial(F(b, n + 1), zeta ** (a * b))


def test_exceptional_matrix():
    m = oc.oc_matrix(2, oc.EXCEPTIONAL, F(1, 10))
    assert m.rows == ("Z1",) and m.cols == ("pt1",)
    assert m.entry(0, 0) == N.q_power(F(1, 10))

    m4 = oc.oc_matrix(4, oc.EXCEPTIONAL, F(1, 5))
    sigma = C.root_of_unity(3)
    for b in range(1, 4):
        for a in range(1, 4):
            assert m4.entry(b - 1, a - 1) == N.monomial(b * F(1, 5), sigma ** (a * b))


def test_q_to_one_is_fourier_matrix():
    for n in (1, 2, 4):
        m = oc.oc_matrix(n, oc.PROJECTIVE)
        q1 = m.q_to_one()
        zeta = C.root_of_unity(n + 1)
        for j in range(n + 1):
            for k in range(n + 1):
                s = C.zero()
                for b in range(n + 1):
                    s = s + q1[b][j] * (q1[b][k] ** n)
                if j == k:
                    assert s == C.from_rational(n + 1)
                else:
                    assert s.is_zero()


# --- closed-open values --------------------------------------------------------

def test_criterion_9_builds_no_brane_algebra(monkeypatch):
    # the hyperplane value is a scalar read off the critical value, so no
    # brane algebra is needed; each is a Clifford algebra, so forbidding
    # those catches one built through any reference to toric.brane_algebra
    def forbidden(*args):
        raise AssertionError("C9 reached a brane algebra")

    monkeypatch.setattr(toric, "clifford_algebra", forbidden)
    assert acceptance.criterion_9().passed


# --- surjectivity -----------------------------------------------------------------

def determinant_verdict(matrix):
    """The one rule on the exact determinant, as `oc matrix` and C8 apply it."""
    return oc.surjectivity(not linalg.determinant(matrix).is_zero(), matrix)


def test_surjectivity_projective():
    assert determinant_verdict(oc.oc_matrix(2, oc.PROJECTIVE).entries) == oc.SURJECTIVE


def test_surjectivity_zero_matrix():
    zero = [[N.zero(), N.zero()], [N.zero(), N.zero()]]
    assert determinant_verdict(zero) == oc.DEFICIENT


def test_surjectivity_high_valuation():
    # the exact determinant is q^3: nonzero, so the matrix is invertible,
    # however far above any valuation split its only term lies
    high = [[N.one(), N.one()], [N.one(), N.one() + N.q_power(3)]]
    assert linalg.determinant(high) == N.q_power(3)
    assert determinant_verdict(high) == oc.SURJECTIVE


def test_surjectivity_truncated_entry():
    # the determinant q [cutoff 2] is nonzero below its cutoff
    one = N.one()
    truncated = [[one, one], [one, one + N.q_power(1, cutoff=2)]]
    assert determinant_verdict(truncated) == oc.SURJECTIVE


def test_surjectivity_verdict_reads_the_scaled_determinant():
    # rows q^1 and q^2 put q^3 in front of the row-scaled determinant q^(3/2);
    # the verdict reads only whether the determinant is zero
    q = N.q_power
    matrix = [[q(1), q(1)], [q(2), q(2) + q(F(7, 2))]]
    assert linalg.determinant(matrix) == q(F(9, 2))
    assert determinant_verdict(matrix) == oc.SURJECTIVE
    assert oc.surjectivity(True, matrix) == oc.SURJECTIVE
    assert oc.surjectivity(False, matrix) == oc.DEFICIENT


def test_surjectivity_singular_matrix():
    singular = [[N.one(), N.one()], [N.one(), N.one()]]
    assert determinant_verdict(singular) == oc.DEFICIENT


def test_surjectivity_singular_matrix_of_high_entries():
    # exact entries all at q^3: the determinant is an exact zero, so the
    # matrix is deficient, not cutoff-limited
    q3 = N.q_power(3)
    assert determinant_verdict([[q3, q3], [q3, q3]]) == oc.DEFICIENT


def test_surjectivity_both_kinds_all_n():
    for n in range(1, 7):
        assert determinant_verdict(oc.oc_matrix(n, oc.PROJECTIVE).entries) == oc.SURJECTIVE
    for n in range(2, 7):
        matrix = oc.oc_matrix(n, oc.EXCEPTIONAL, F(1, 10))
        assert determinant_verdict(matrix.entries) == oc.SURJECTIVE


# --- pairing and orthogonality ----------------------------------------------------

def test_frobenius_gram_diagonal():
    for n in (1, 2, 3):
        gram = oc.frobenius_orthogonality(oc.oc_matrix(n, oc.PROJECTIVE))
        zeta = C.root_of_unity(n + 1)
        for j in range(n + 1):
            for k in range(n + 1):
                if j != k:
                    assert gram[j][k].is_zero()
                else:
                    expected = N.monomial(F(n, n + 1), zeta ** (j * n) * C.from_rational(n + 1))
                    assert gram[j][j] == expected


# --- bulk shift --------------------------------------------------------------------

def test_bulk_shift_minimal_valuation():
    extra = oc.bulk_shift_perturbation(2, F(1, 10))
    assert type(extra) is F
    assert extra == F(9, 10)
    assert extra >= 1 - F(1, 10)


def test_bulk_shift_bound_on_grid():
    for n in (2, 3, 4):
        for eps in (F(1, 10), F(1, 3), F(9, 10)):
            extra = oc.bulk_shift_perturbation(n, eps)
            assert extra >= 1 - eps


def least_constrained_area(n):
    """Brute force: the least area of a class of the simplex through the
    point (the first n facets) and the cycle of a row b (the last b facets),
    over every class under the index cap 2 (n + b + 1).  A class of index 2m
    is a multiset of m facets, and a constraint raises by one the least
    degree of each facet it contains."""
    model = toric.ToricModel.simplex(n)
    facets = range(n + 1)
    areas = []
    for b in range(1, n + 1):
        constraints = [set(range(n)), set(range(n + 1 - b, n + 1))]
        need = [sum(i in c for c in constraints) for i in facets]
        for m in range(n + b + 2):
            for word in itertools.combinations_with_replacement(facets, m):
                k = [word.count(i) for i in facets]
                if all(d >= r for d, r in zip(k, need)):
                    areas.append(model.area(k))
    return min(areas)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_bulk_shift_matches_brute_force(n):
    least = least_constrained_area(n)
    for eps in (F(1, 10), F(1, 3), F(9, 10)):
        assert oc.bulk_shift_perturbation(n, eps) == least - eps


def test_bulk_shift_rejects_bad_parameters():
    with pytest.raises(ValueError, match="shift too large"):
        oc.bulk_shift_perturbation(2, F(1))
    with pytest.raises(ValueError, match="greater than 1"):
        oc.bulk_shift_perturbation(1, F(1, 10))
