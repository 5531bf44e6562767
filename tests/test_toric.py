import random
from fractions import Fraction as F

import pytest

from qhsplit import ainfty, hochschild, linalg, toric
from qhsplit.novikov import CyclotomicNumber as C, NovikovElement as N
from qhsplit.toric import (
    PotentialFunction,
    ToricModel,
    brane_algebra,
    clifford_algebra,
    critical_points,
    hessian,
)


# --- critical points -----------------------------------------------------

def test_projective_critical_points():
    for n in range(1, 7):
        W = PotentialFunction.clifford_torus(n)
        points = critical_points(W)
        assert len(points) == n + 1
        zeta = C.root_of_unity(n + 1)
        for k, y in enumerate(points):
            assert all(c == zeta ** k for c in y)
            assert W.is_critical(y)


def test_exceptional_critical_points():
    W3 = PotentialFunction.exceptional(3, F(1, 10))
    points = critical_points(W3)
    assert len(points) == 2
    assert points[0] == tuple(C.one() for _ in range(3))
    minus_one = C.root_of_unity(2)
    assert points[1] == tuple(minus_one for _ in range(3))

    W2 = PotentialFunction.exceptional(2, F(1, 10))
    assert critical_points(W2) == [tuple(C.one() for _ in range(2))]


def test_noncritical_points_rejected():
    W = PotentialFunction.clifford_torus(2)
    y = (C.one(), C.root_of_unity(3))
    assert not W.is_critical(y)
    with pytest.raises(ValueError, match="critical"):
        hessian(W, y)


def test_potential_values_distinct():
    for n in (2, 3, 4):
        W = PotentialFunction.clifford_torus(n)
        values = [W.evaluate(y) for y in critical_points(W)]
        for i in range(len(values)):
            for j in range(i + 1, len(values)):
                assert values[i] != values[j]


# --- hessians ------------------------------------------------------------------

def test_projective_hessian_identity_plus_ones():
    W = PotentialFunction.clifford_torus(2)
    y = critical_points(W)[0]
    h = hessian(W, y)
    q13 = N.q_power(F(1, 3))
    assert h[0][0] == q13 * 2 and h[1][1] == q13 * 2
    assert h[0][1] == q13 and h[1][0] == q13
    assert linalg.determinant(h) == N.q_power(F(2, 3)) * 3


def test_exceptional_hessian_identity_minus_ones():
    # the honest second derivative has vanishing diagonal: unit * q^eps * (I - J)
    W = PotentialFunction.exceptional(3, F(1, 10))
    y = critical_points(W)[0]
    h = hessian(W, y)
    for a in range(3):
        assert h[a][a].is_zero()
        for b in range(3):
            if a != b:
                assert h[a][b] == -N.q_power(F(1, 10))
    assert linalg.determinant(h) == N.q_power(F(3, 10)) * (-2)


def test_hessian_symmetric():
    for W in (PotentialFunction.clifford_torus(3),
              PotentialFunction.exceptional(4, F(1, 5))):
        for y in critical_points(W):
            h = hessian(W, y)
            for a in range(W.n):
                for b in range(W.n):
                    assert h[a][b] == h[b][a]


# --- clifford algebras -----------------------------------------------------------

def test_rank_two_clifford():
    c = N.q_power(F(1, 2))
    alg = clifford_algebra([[c]], 1)
    assert alg.basis == ("1", "e1")
    assert alg.m_basis((1, 1)) == {0: -c}  # m_2(e, e) = -(e * e) = -Q_11


def test_standard_clifford_relations():
    alg = clifford_algebra([[N.one(), N.zero()], [N.zero(), N.one()]], 2)
    e1, e2 = alg.basis.index("e1"), alg.basis.index("e2")
    e12 = alg.basis.index("e12")
    # algebra products: e1 e2 = -e2 e1 and e_i^2 = 1
    assert alg.m_basis((e1, e2)) == {e12: -N.one()}
    assert alg.m_basis((e2, e1)) == {e12: N.one()}
    assert alg.m_basis((e1, e1)) == {0: -N.one()}
    assert ainfty.check_ainfty(alg) == []


def test_degenerate_form_rejected():
    with pytest.raises(ValueError, match="degenerate quadratic form"):
        clifford_algebra([[N.zero()]], 1)


def _non_diagonal_form(rng, n):
    # symmetric, every off-diagonal entry nonzero, rejected until nondegenerate
    while True:
        q = [[None] * n for _ in range(n)]
        for a in range(n):
            for b in range(a, n):
                value = F(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))
                q[a][b] = q[b][a] = N.monomial(F(rng.randint(0, 2), 2), value)
        if not linalg.determinant(q).is_zero():
            return q


@pytest.mark.parametrize("n,seed", [(2, 0), (2, 1), (3, 2), (3, 3)])
def test_non_diagonal_clifford_relations(n, seed):
    q = _non_diagonal_form(random.Random(seed), n)
    alg = clifford_algebra(q, n)
    gens = [alg.basis.index(f"e{a + 1}") for a in range(n)]

    def times(x, y, x_degree):
        # algebra product from the stored m_2(x, y) = (-1)^{|x|} x y, extended
        # bilinearly from the basis
        out = {}
        for a, u in x.items():
            for b, v in y.items():
                for o, w in alg.m_basis((a, b)).items():
                    out[o] = out[o] + u * v * w if o in out else u * v * w
        out = {o: w for o, w in out.items() if not w.is_zero()}
        return {o: -v for o, v in out.items()} if x_degree % 2 else out

    for a in range(n):
        for b in range(n):
            ea, eb = {gens[a]: N.one()}, {gens[b]: N.one()}
            anti = times(ea, eb, 1)
            for o, v in times(eb, ea, 1).items():
                anti[o] = anti[o] + v if o in anti else v
            assert {o: v for o, v in anti.items() if not v.is_zero()} == \
                {alg.unit: q[a][b] * N.from_rational(2)}
    for s in range(1, 1 << n):
        word = [a for a in range(n) if s >> a & 1]
        acc = {alg.unit: N.one()}
        for length, a in enumerate(word):
            acc = times(acc, {gens[a]: N.one()}, length)
        name = "e" + "".join(str(a + 1) for a in word)
        assert acc == {alg.basis.index(name): N.one()}
    assert ainfty.check_ainfty(alg) == []


def test_hessian_clifford_one_dimensional_homology():
    W = PotentialFunction.clifford_torus(2)
    y = critical_points(W)[0]
    alg = brane_algebra(W, y)
    report = hochschild.hochschild_homology_dims(
        hochschild.FlatCategory.single(alg), 5)
    assert report.total() == 1 and report.stable


# --- divisor equation -------------------------------------------------------------

def symmetrized_unit_part(algebra, a, b):
    """The unit component of ``m_2(e_a, e_b) + m_2(e_b, e_a)``, which the
    divisor equation equates with the Hessian entry ``(a, b)``."""
    ea, eb = algebra.basis.index(f"e{a + 1}"), algebra.basis.index(f"e{b + 1}")
    return (algebra.m_basis((ea, eb)).get(algebra.unit, N.zero())
            + algebra.m_basis((eb, ea)).get(algebra.unit, N.zero()))


def assert_divisor_equation(W, y):
    algebra, h = brane_algebra(W, y), hessian(W, y)
    for a in range(W.n):
        for b in range(W.n):
            assert symmetrized_unit_part(algebra, a, b) == h[a][b]


def test_divisor_equation_p1():
    W = PotentialFunction.clifford_torus(1)
    for y in critical_points(W):
        assert_divisor_equation(W, y)


def test_divisor_equation_diagonal_entries():
    W = PotentialFunction.clifford_torus(2)
    y = critical_points(W)[0]
    # the (a, a) Hessian entry is the class-by-class sum of the curvature
    # contributions weighted by the squared boundary pairing
    h = hessian(W, y)
    per_class = N.zero()
    for exp, coeff in W.monomials:
        if exp[0]:
            per_class = per_class + coeff * toric._power_product(y, exp) \
                * N.from_rational(exp[0] * exp[0])
    assert per_class == h[0][0]
    assert symmetrized_unit_part(brane_algebra(W, y), 0, 0) == h[0][0]


def test_divisor_equation_zero_pairings():
    # the off-diagonal entries: e_1 and e_2 anticommute up to the unit
    W = PotentialFunction.clifford_torus(2)
    y = critical_points(W)[0]
    algebra, h = brane_algebra(W, y), hessian(W, y)
    assert symmetrized_unit_part(algebra, 0, 1) == h[0][1]
    assert symmetrized_unit_part(algebra, 1, 0) == h[1][0]


def test_divisor_equation_both_kinds():
    for n in (2, 3):
        for W in (PotentialFunction.clifford_torus(n),
                  PotentialFunction.exceptional(n, F(1, 10))):
            for y in critical_points(W):
                assert_divisor_equation(W, y)


# --- disk classes of the polytope ---------------------------------------------------

def test_primitive_disk_index_and_area():
    model = ToricModel.simplex(2)
    assert model.index((1, 0, 0)) == 2
    assert model.area((1, 0, 0)) == F(1, 3)


def test_full_degree_vector():
    model = ToricModel.simplex(3)
    assert model.index((1, 1, 1, 1)) == 2 * 4
    assert model.area((1, 1, 1, 1)) == 1


def test_index_area_additive():
    rng = random.Random(4)
    normals = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1))
    model = ToricModel(normals, tuple(F(rng.randint(1, 5), 7) for _ in range(4)))
    for _ in range(50):
        u = tuple(rng.randint(0, 3) for _ in range(4))
        v = tuple(rng.randint(0, 3) for _ in range(4))
        w = tuple(a + b for a, b in zip(u, v))
        assert model.index(w) == model.index(u) + model.index(v)
        assert model.area(w) == model.area(u) + model.area(v)


def test_monotone_when_areas_equal():
    # the simplex at its barycentre is monotone: area = index / (2 (n + 1))
    model = ToricModel.simplex(4)
    rng = random.Random(9)
    for _ in range(30):
        k = tuple(rng.randint(0, 3) for _ in range(5))
        assert model.area(k) * 2 * 5 == model.index(k)


def test_blowup_cuts_the_first_vertex():
    cut = ToricModel.simplex(3).blowup(F(1, 10))
    assert cut.normals[:4] == ToricModel.simplex(3).normals
    assert cut.normals[4] == (1, 1, 1)
    assert cut.levels[4] == F(3, 4) - F(1, 10)
    with pytest.raises(ValueError, match="inside the polytope"):
        ToricModel.simplex(3).blowup(F(3, 4))


def test_clifford_torus_monomials_are_the_simplex_facets():
    # the hand-written potential q^{1/(n+1)} (y_1 + ... + y_n + 1/(y_1 ... y_n))
    for n in range(1, 7):
        coeff = N.q_power(F(1, n + 1))
        monos = tuple((tuple(int(i == j) for j in range(n)), coeff) for i in range(n))
        monos += (((-1,) * n, coeff),)
        W = PotentialFunction.clifford_torus(n)
        assert W.monomials == monos
        assert W.order == n + 1


def test_divisor_equation_zero_pairing_direction():
    # a potential independent of the second direction pairs to zero with it
    coeff = N.q_power(1)
    W = PotentialFunction(2, (((1, 0), coeff), ((-1, 0), coeff)))
    y = (C.one(), C.root_of_unity(5))  # critical: gradient in y_2 is empty
    assert W.is_critical(y)
    h = hessian(W, y)
    assert h[0][1].is_zero() and h[1][1].is_zero()
    # so the Hessian is degenerate and bounds no brane algebra
    with pytest.raises(ValueError, match="degenerate quadratic form"):
        brane_algebra(W, y)


def test_critical_points_need_a_brane_family():
    coeff = N.q_power(1)
    W = PotentialFunction(2, (((1, 0), coeff), ((-1, 0), coeff)))
    with pytest.raises(ValueError, match="no brane family"):
        critical_points(W)
