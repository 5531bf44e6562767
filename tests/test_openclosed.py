from fractions import Fraction as F

import pytest

from qhsplit import acceptance, toric
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

def test_co_identity_class():
    for n in (1, 2, 3):
        for k in range(n + 1):
            assert oc.co_value(n, k, n) == N.one()


def test_co_value_formula():
    zeta = C.root_of_unity(3)
    assert oc.co_value(2, 1, 1) == N.monomial(F(1, 3), zeta)
    assert oc.co_value(1, 0, 0) == N.q_power(F(1, 2))
    assert oc.co_value(1, 1, 0) == N.monomial(F(1, 2), C.root_of_unity(2))


def test_ring_hom_check():
    for n in (1, 2, 3):
        W = toric.PotentialFunction.clifford_torus(n)
        for k, y in enumerate(toric.critical_points(W)):
            assert oc.ring_hom_check(W, k, y)


def test_criterion_9_checks_each_critical_point_twice(monkeypatch):
    # critical_points checks every point of P^n once and brane_algebra's
    # hessian checks the point it is given once more: two checks per point
    points = {n: toric.critical_points(toric.PotentialFunction.clifford_torus(n))
              for n in range(1, 5)}
    checked = []
    is_critical = toric.PotentialFunction.is_critical

    def counting(self, y):
        checked.append((self.n, y))
        return is_critical(self, y)

    monkeypatch.setattr(toric.PotentialFunction, "is_critical", counting)
    assert acceptance.criterion_9().passed
    for n, ys in points.items():
        for y in ys:
            assert sum(1 for m, z in checked if m == n and z == y) == 2, (n, y)
    assert len(checked) == 2 * sum(len(ys) for ys in points.values())


def test_ring_hom_negative_control():
    # a deliberately wrong exponent breaks the quantum relation
    n, k = 2, 0
    wrong = oc.co_value(n, k, n - 1) * N.q_power(F(1, 7))
    power = N.one()
    for _ in range(n + 1):
        power = power * wrong
    assert power != N.q_power(1)


def test_co_values_respect_quantum_products():
    # co(l) * co(l') matches co of the product class under h^(n+1) = q
    for n in (2, 3):
        for k in range(n + 1):
            for l1 in range(n + 1):
                for l2 in range(n + 1):
                    prod = oc.co_value(n, k, l1) * oc.co_value(n, k, l2)
                    if l1 + l2 >= n:
                        assert prod == oc.co_value(n, k, l1 + l2 - n)
                    else:
                        assert prod == N.q_power(1) * oc.co_value(n, k, l1 + l2 + 1)


# --- surjectivity -----------------------------------------------------------------

def test_surjectivity_projective():
    assert oc.surjectivity_test(oc.oc_matrix(2, oc.PROJECTIVE)) == oc.SURJECTIVE


def test_surjectivity_zero_matrix():
    zero = [[N.zero(), N.zero()], [N.zero(), N.zero()]]
    assert oc.surjectivity_test(zero) == oc.DEFICIENT


def test_surjectivity_high_valuation():
    # rows are normalized first, so a uniform q-factor such as q^3 I is no
    # test; here the normalized determinant is q^3, above the split at 2
    high = [[N.one(), N.one()], [N.one(), N.one() + N.q_power(3)]]
    assert oc.surjectivity_test(high) == oc.CUTOFF_LIMITED


def test_surjectivity_singular_matrix():
    singular = [[N.one(), N.one()], [N.one(), N.one()]]
    assert oc.surjectivity_test(singular) == oc.DEFICIENT


def test_surjectivity_singular_matrix_of_high_entries():
    # exact entries all above the split: the normalized determinant is an
    # exact zero, so the matrix is deficient, not cutoff-limited
    q3 = N.q_power(3)
    assert oc.surjectivity_test([[q3, q3], [q3, q3]]) == oc.DEFICIENT


def test_surjectivity_both_kinds_all_n():
    for n in range(1, 7):
        assert oc.surjectivity_test(oc.oc_matrix(n, oc.PROJECTIVE)) == oc.SURJECTIVE
    for n in range(2, 7):
        assert oc.surjectivity_test(oc.oc_matrix(n, oc.EXCEPTIONAL, F(1, 10))) == oc.SURJECTIVE


# --- pairing and orthogonality ----------------------------------------------------

def test_frobenius_gram_diagonal():
    for n in (1, 2, 3):
        gram = oc.frobenius_orthogonality(n)
        zeta = C.root_of_unity(n + 1)
        for j in range(n + 1):
            for k in range(n + 1):
                if j != k:
                    assert gram[j][k].is_zero()
                else:
                    expected = N.monomial(F(n, n + 1), zeta ** (j * n) * (n + 1))
                    assert gram[j][j] == expected


# --- bulk shift --------------------------------------------------------------------

def test_bulk_shift_minimal_valuation():
    leading, extra = oc.bulk_shift_perturbation(2, F(1, 10))
    assert extra == F(9, 10)
    assert extra >= 1 - F(1, 10)
    # the leading matrix is untouched by the shift
    reference = oc.oc_matrix(2, oc.PROJECTIVE)
    assert leading.entries == reference.entries


def test_bulk_shift_bound_on_grid():
    for n in (2, 3, 4):
        for eps in (F(1, 10), F(1, 3), F(9, 10)):
            _, extra = oc.bulk_shift_perturbation(n, eps)
            assert extra >= 1 - eps


def test_bulk_shift_rejects_bad_parameters():
    with pytest.raises(ValueError, match="shift too large"):
        oc.bulk_shift_perturbation(2, F(1))
    with pytest.raises(ValueError, match="greater than 1"):
        oc.bulk_shift_perturbation(1, F(1, 10))
