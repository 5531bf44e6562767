import json
import random
from fractions import Fraction as F

import pytest

from qhsplit.novikov import (
    CyclotomicNumber,
    NovikovElement,
    cyclotomic_polynomial,
    euler_phi,
    parse_rational,
    format_rational,
)


def N(exp, coeff=1):
    return NovikovElement.monomial(F(exp), coeff)


def random_cyclotomic(rng, order=12):
    return CyclotomicNumber(order, [F(rng.randint(-3, 3), rng.randint(1, 3))
                                    for _ in range(euler_phi(order))])


def random_novikov(rng, order=12, terms=3):
    return NovikovElement([
        (F(rng.randint(-4, 8), rng.randint(1, 4)), random_cyclotomic(rng, order))
        for _ in range(rng.randint(0, terms))
    ])


# --- cyclotomic layer ---------------------------------------------------

def test_cyclotomic_polynomial_values():
    assert cyclotomic_polynomial(1) == (F(-1), F(1))
    assert cyclotomic_polynomial(2) == (F(1), F(1))
    assert cyclotomic_polynomial(3) == (F(1), F(1), F(1))
    assert cyclotomic_polynomial(6) == (F(1), F(-1), F(1))


def test_root_of_unity_orders():
    for m in (2, 3, 4, 5, 7, 12):
        z = CyclotomicNumber.root_of_unity(m)
        assert z ** m == CyclotomicNumber.one()
        for k in range(1, m):
            assert z ** k != CyclotomicNumber.one()


def test_cyclotomic_ring_axioms_random():
    rng = random.Random(11)
    for _ in range(200):
        a, b, c = (random_cyclotomic(rng) for _ in range(3))
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c


def test_cyclotomic_inverse():
    rng = random.Random(5)
    for _ in range(50):
        a = random_cyclotomic(rng)
        if a.is_zero():
            continue
        assert a * a.inverse() == CyclotomicNumber.one()


def test_order_coercion():
    z3 = CyclotomicNumber.root_of_unity(3)
    z4 = CyclotomicNumber.root_of_unity(4)
    s = z3 + z4
    assert s - z4 == z3.to_order(12)


# --- valuation -----------------------------------------------------------

def test_val_q_minimum_of_exponents():
    x = N(F(1, 3), 2) + N(1)
    assert x.val_q() == F(1, 3)


def test_val_q_zero_is_infinite():
    assert NovikovElement.zero().val_q() is None


def test_val_q_negative_shift_coefficient():
    # a point insertion weighted by q^(-eps) has valuation -eps
    assert NovikovElement.q_power(F(-1, 10)).val_q() == F(-1, 10)


def test_val_additive_on_products():
    rng = random.Random(23)
    done = 0
    while done < 300:
        x, y = random_novikov(rng), random_novikov(rng)
        if x.is_zero() or y.is_zero():
            continue
        done += 1
        assert (x * y).val_q() == x.val_q() + y.val_q()


def test_val_subadditive_on_sums():
    rng = random.Random(29)
    for _ in range(300):
        x, y = random_novikov(rng), random_novikov(rng)
        s = x + y
        if s.is_zero() or x.is_zero() or y.is_zero():
            continue
        assert s.val_q() >= min(x.val_q(), y.val_q())
        if x.val_q() != y.val_q():
            assert s.val_q() == min(x.val_q(), y.val_q())


# --- ring structure -------------------------------------------------------

def test_mul_polynomial_identity():
    one, q = NovikovElement.one(), NovikovElement.q_power(1)
    assert (one + q) * (one - q) == one - q * q


def test_mul_adds_exponents():
    assert N(F(1, 3)) * N(F(2, 3)) == NovikovElement.q_power(1)


def test_mul_cyclotomic_reduction():
    z3 = CyclotomicNumber.root_of_unity(3)
    a = NovikovElement.monomial(F(1, 2), z3)
    b = NovikovElement.monomial(F(1, 2), z3 * z3)
    assert a * b == NovikovElement.q_power(1)


def test_field_axioms_random_triples():
    rng = random.Random(101)
    for _ in range(300):
        x, y, z = (random_novikov(rng) for _ in range(3))
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x * y == y * x


def test_truncation_is_ring_hom_on_nonnegative():
    rng = random.Random(7)
    cut = F(2)
    for _ in range(200):
        x = NovikovElement([(F(rng.randint(0, 8), rng.randint(1, 3)),
                             random_cyclotomic(rng)) for _ in range(3)])
        y = NovikovElement([(F(rng.randint(0, 8), rng.randint(1, 3)),
                             random_cyclotomic(rng)) for _ in range(3)])
        assert (x * y).truncate(cut) == (x.truncate(cut) * y.truncate(cut)).truncate(cut)


def test_cutoff_discards_and_flags():
    x = (NovikovElement.one() + NovikovElement.q_power(5)).truncate(3)
    assert x == NovikovElement.one()
    assert x.truncated
    assert not NovikovElement.one().truncated


def test_truncated_zero_prints_its_cutoff():
    x = (NovikovElement.q_power(2) * NovikovElement.one(cutoff=2)) * NovikovElement.q_power(-1)
    assert x.is_zero()
    assert repr(x) == "0 [cutoff 2]"
    assert repr(NovikovElement.zero()) == "0"


# --- inversion -------------------------------------------------------------

def test_invert_geometric_series():
    x = NovikovElement.one() - NovikovElement.q_power(1)
    inv = x.invert(F(4))
    expected = sum((NovikovElement.q_power(k) for k in range(1, 4)),
                   NovikovElement.one())
    assert inv == expected
    assert (x * inv) == NovikovElement.one().truncate(4)


def test_invert_monomial_exact():
    assert NovikovElement.q_power(1).invert() == NovikovElement.q_power(-1)
    assert NovikovElement.from_rational(2).invert() == NovikovElement.from_rational(F(1, 2))


def test_invert_valuation_and_zero():
    x = N(F(2, 3), 5) + N(2)
    y = x.invert(F(3))
    assert y.val_q() == -F(2, 3)
    with pytest.raises(ZeroDivisionError, match="division by zero"):
        NovikovElement.zero().invert(F(2))


def test_invert_random_below_cutoff():
    rng = random.Random(77)
    done = 0
    while done < 50:
        x = random_novikov(rng)
        if x.is_zero():
            continue
        done += 1
        cut = F(3)
        y = x.invert(cut)
        assert y.val_q() == -x.val_q()
        assert ((x * y) - NovikovElement.one()).below(cut).is_zero()


# --- serialization -----------------------------------------------------------

def test_json_round_trip():
    z3 = CyclotomicNumber.root_of_unity(3)
    x = NovikovElement([(F(-1, 10), z3), (F(1, 2), CyclotomicNumber.one())])
    data = x.to_json_dict()
    assert data["order"] == 3
    assert data["terms"][0]["exp"] == "-1/10"
    assert NovikovElement.from_json_dict(json.loads(json.dumps(data))) == x


def test_rational_parsing():
    assert parse_rational("3/4") == F(3, 4)
    assert parse_rational("-2") == F(-2)
    assert format_rational(F(9, 10)) == "9/10"
    with pytest.raises(ValueError, match="malformed rational"):
        parse_rational("0.5")


def test_reduction_idempotent():
    # reducing a high power twice equals reducing once: z^(M+k) == z^k * z^M
    for m in (3, 5, 12):
        z = CyclotomicNumber.root_of_unity(m)
        for k in range(m):
            high = z ** (m + k)
            assert high == z ** k
            assert high * CyclotomicNumber.one() == z ** k


def test_json_order_override():
    x = NovikovElement.monomial(F(1, 2), CyclotomicNumber.root_of_unity(3))
    data = x.to_json_dict(order=12)
    assert data["order"] == 12
    assert NovikovElement.from_json_dict(data) == x
