import math
import random
from fractions import Fraction as F

import pytest

from linalg_reference import permutation_determinant
from qhsplit import linalg
from qhsplit.novikov import CyclotomicNumber as C, NovikovElement as N, euler_phi


def test_rank_identity_and_singular():
    one, zero = N.one(), N.zero()
    assert linalg.row_reduce([{0: one}, {1: one}])[0] == 2
    assert linalg.row_reduce([{0: one, 1: one}, {0: one, 1: one}])[0] == 1
    assert linalg.row_reduce([{}])[0] == 0


def test_rank_with_minimal_valuation_pivoting():
    # the second row reduces to a purely higher-valuation remainder
    rows = [
        {0: N.one(), 1: N.q_power(1)},
        {0: N.one(), 1: N.q_power(1) + N.q_power(2)},
    ]
    assert linalg.row_reduce(rows, F(3))[0] == 2


def test_rank_cutoff_limited_rows_not_counted():
    rows = [{0: N.q_power(5)}, {1: N.one()}]
    rank, _, limited = linalg.row_reduce(rows, F(3))
    assert rank == 1
    assert limited


def test_truncated_entries_and_pivot_inverses_are_cutoff_limited():
    one, q = N.one(), N.q_power(1)
    # monomial pivots invert exactly
    assert not linalg.row_reduce([{0: q, 1: one}, {1: q}])[2]
    # a truncated input entry, even one the elimination never pivots on
    assert linalg.row_reduce([{0: one, 1: N.one(cutoff=2)}])[2]
    # an exact non-monomial pivot, whose inverse is a truncated series
    assert linalg.row_reduce([{0: one + q}])[2]


def test_row_reduce_keeps_reduced_pivots():
    rows = [
        {0: N.one(), 1: N.one()},
        {1: N.one(), 2: N.one()},
        {0: N.one(), 2: -N.one()},
    ]
    rank, pivots, _ = linalg.row_reduce(rows, F(3))
    assert rank == 2
    for col, row in pivots.items():
        for other in pivots:
            if other != col:
                assert other not in row


def test_pivot_is_the_least_valuation_then_the_sparsest_column():
    one, q = N.one(), N.q_power(1)
    # column 1 has one entry and column 0 two: the first row pivots on 1
    _, pivots, _ = linalg.row_reduce([{0: one, 1: one}, {0: one}])
    assert list(pivots) == [1, 0]
    # valuation comes first: column 0 (valuation 0) beats the sparser column 1
    _, pivots, _ = linalg.row_reduce([{0: one, 1: q}, {0: one, 2: one}])
    assert list(pivots)[0] == 0


def field_rank(rows):
    """``integer_rank`` of cyclotomic rows, realified at the lcm of their
    orders over the lcm of their denominators."""
    order = math.lcm(*(v.order for row in rows for v in row.values()))
    den = math.lcm(*(v.den for row in rows for v in row.values()))
    return linalg.integer_rank([{c: linalg.realify(v, order, den) for c, v in row.items()}
                                for row in rows], euler_phi(order))


def test_row_reduce_over_the_coefficient_field():
    # cyclotomic rows of mixed orders are ranked exactly over Q(zeta_3), on
    # the realified integer rows: two per row, since phi(3) = 2
    zeta = C.root_of_unity(3)
    rows = [{0: C.one(), 1: zeta}, {0: zeta, 1: zeta * zeta}, {1: C.from_rational(2), 2: zeta}]
    rank, pivots = field_rank(rows)
    assert rank == 2
    assert len(pivots) == 2 * 2
    for col, row in pivots.items():
        assert all(type(v) is int and v for v in row.values())
        assert math.gcd(*row.values()) == 1
        assert row[col] > 0
        assert not row.keys() & (pivots.keys() - {col})
    novikov = [{c: N.from_cyclotomic(v) for c, v in row.items()} for row in rows]
    assert linalg.row_reduce(novikov)[0] == rank


def test_realify_gives_the_coordinates_of_every_zeta_multiple():
    # against field products, for values stored at divisors of the order
    rng = random.Random(3)
    for order in (1, 3, 4, 5, 12):
        phi = euler_phi(order)
        for d in (d for d in range(1, order + 1) if order % d == 0):
            value = C(d, [F(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(euler_phi(d))])
            den = 2 * value.den
            flat = linalg.realify(value, order, den)
            assert len(flat) == phi * phi
            for k in range(phi):
                w = (C.root_of_unity(order, k) * value).to_order(order)
                assert flat[k * phi:(k + 1) * phi] == tuple(n * den // w.den for n in w.num)


FIELD_ORDERS = (1, 2, 3, 4, 5, 8, 12)


def random_field_rows(seed):
    """Seeded cyclotomic rows with planted dependencies over the field.

    Each dependent row is a combination of independent rows with random
    coefficients of the field, irrational where the field is not Q, so that
    the rows are independent over Q but not over the field.  Entries are
    stored at divisors of the order as well, rational ones at order 1.
    """
    rng = random.Random(seed)
    order = FIELD_ORDERS[seed % len(FIELD_ORDERS)]
    divisors = [d for d in range(1, order + 1) if order % d == 0]

    def scalar():
        d = rng.choice(divisors)
        return C(d, [F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(euler_phi(d))])

    def irrational():
        # zeta^k (a + zeta) has a nonzero zeta-coordinate when phi > 1
        a = C.from_rational(rng.randint(-2, 2))
        return C.root_of_unity(order, rng.randrange(order)) * (a + C.root_of_unity(order))

    cols = rng.randint(2, 6)
    base = [{c: scalar() for c in range(cols) if rng.random() < 0.7}
            for _ in range(rng.randint(1, cols))]
    dependent = []
    for _ in range(rng.randint(1, 3)):
        row = {}
        for source in rng.sample(base, rng.randint(1, len(base))):
            coeff = irrational()
            for c, v in source.items():
                row[c] = row[c] + coeff * v if c in row else coeff * v
        dependent.append(row)
    rows = base + dependent
    rng.shuffle(rows)
    return order, rows


@pytest.mark.parametrize("block", range(4))
def test_field_ranks_match_the_novikov_ranks(block):
    # ranks of the realified integer rows over phi against the elimination
    # over the field itself, through the Novikov scalars
    for seed in range(50 * block, 50 * block + 50):
        order, rows = random_field_rows(seed)
        rank, pivots = field_rank(rows)
        novikov = [{c: N.from_cyclotomic(v) for c, v in row.items()} for row in rows]
        expected, _, novikov_limited = linalg.row_reduce(novikov)
        assert not novikov_limited, seed
        assert rank == expected < len(rows), (seed, order)
        assert len(pivots) == rank * euler_phi(order), seed


def test_determinant_known_values():
    one = N.one()
    q = N.q_power(1)
    assert linalg.determinant([[one, q], [q, one]]) == one - q * q
    zeta = C.root_of_unity(3)
    dft = [[N.from_cyclotomic(zeta ** (a * b)) for a in range(3)] for b in range(3)]
    det = linalg.determinant(dft)
    assert not det.is_zero()
    # swapping two rows flips the sign
    swapped = [dft[1], dft[0], dft[2]]
    assert linalg.determinant(swapped) == -det


EXPONENTS = (F(-2), F(-1), F(-1, 2), F(0), F(0), F(1, 3), F(1), F(3, 2), F(2), F(5, 2))
CUTOFFS = (None, F(1), F(2), F(5, 2), F(3))


def random_entry(rng, orders, cutoffs):
    if rng.random() < 0.2:  # zero, with or without a cutoff
        return N.zero(rng.choice(cutoffs))
    terms = []
    for _ in range(rng.randint(1, 3)):
        order = rng.choice(orders)
        coeff = C.root_of_unity(order, rng.randrange(order)) * C.from_rational(
            F(rng.randint(-4, 4), rng.randint(1, 3)))
        terms.append((rng.choice(EXPONENTS), coeff))
    return N(terms, rng.choice(cutoffs))


def random_matrix(seed):
    """A seeded square matrix of size 0-6 over two cyclotomic orders in 1-12."""
    rng = random.Random(seed)
    n = rng.choice((0, 1, 2, 3, 3, 4, 4, 5, 5, 6))
    first = seed % 12 + 1
    orders = (first, rng.choice([m for m in range(1, 13) if math.lcm(first, m) <= 36]))
    shape = rng.random()
    if shape < 0.3:
        cutoffs = (None,)
    elif shape < 0.6:
        cutoffs = (rng.choice(CUTOFFS[1:]),)
    else:
        cutoffs = CUTOFFS
    rows = [[random_entry(rng, orders, cutoffs) for _ in range(n)] for _ in range(n)]
    if n and rng.random() < 0.1:
        rows[rng.randrange(n)] = [N.zero(rng.choice(cutoffs)) for _ in range(n)]
    return rows


@pytest.mark.parametrize("block", range(6))
def test_determinant_matches_the_permutation_expansion(block):
    for seed in range(50 * block, 50 * block + 50):
        matrix = random_matrix(seed)
        det = linalg.determinant(matrix)
        expected = permutation_determinant(matrix)
        assert det.terms == expected.terms, seed
        assert det.cutoff == expected.cutoff, seed


def test_determinant_keeps_the_cutoff_of_a_cancelled_minor():
    # the leading 2x2 minor cancels to zero, but its cutoff still bounds the result
    one, zero, cut = N.one(), N.zero(), N.one(cutoff=2)
    matrix = [[cut, cut, zero], [cut, cut, zero], [zero, zero, one]]
    det = linalg.determinant(matrix)
    assert det.is_zero() and det.cutoff == 2
    assert permutation_determinant(matrix).cutoff == 2


def test_determinant_truncates_each_product_at_its_own_cutoff():
    # q^2 * 1 * q^-1 has no cutoff; a minor shared with the truncated
    # placement -1 [cutoff 2] must not drop its q^2 before the q^-1 arrives
    one, zero, q = N.one(), N.zero(), N.q_power(1)
    matrix = [[q * q, N.one(cutoff=2), zero], [one, one, zero], [zero, zero, N.q_power(-1)]]
    det = linalg.determinant(matrix)
    assert det.terms == (q - N.q_power(-1)).terms and det.cutoff == 2
    assert det.terms == permutation_determinant(matrix).terms


def test_determinant_has_no_size_limit():
    one = N.one()
    # I + J, with J the all-ones matrix: eigenvalues 11 and 1 (nine times)
    ones = [[one + one if i == j else one for j in range(10)] for i in range(10)]
    assert linalg.determinant(ones) == N.from_rational(11)
    # upper triangular: the product of the diagonal q-monomials
    diagonal = [N.monomial(F(k, 2), C.root_of_unity(5, k)) for k in range(10)]
    triangular = [[diagonal[i] if i == j else (N.q_power(-1) if j > i else N.zero())
                   for j in range(10)] for i in range(10)]
    expected = N.monomial(F(45, 2), C.root_of_unity(5, 45))
    det = linalg.determinant(triangular)
    assert det.terms == expected.terms and det.cutoff is None


def test_determinant_needs_square():
    with pytest.raises(ValueError):
        linalg.determinant([[N.one(), N.one()]])


def test_gram_matrix():
    pairing = {("a", "b"): N.one(), ("b", "a"): N.one()}

    def pair(x, y):
        return pairing.get((x, y), N.zero())

    cols_a = [{"a": N.one()}]
    cols_b = [{"b": N.q_power(1)}, {"a": N.one()}]
    gram = linalg.gram_matrix(cols_a, cols_b, pair)
    assert gram[0][0] == N.q_power(1)
    assert gram[0][1].is_zero()
