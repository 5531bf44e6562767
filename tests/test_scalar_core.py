"""The integer scalar core against reference implementations, plus properties.

``cyclotomic_reference.RefCyclotomic`` is the power-basis arithmetic on
``Fraction`` coordinates; every operation of ``CyclotomicNumber`` must give
the same order, the same coordinates and the same ``repr``.
``novikov_reference`` puts raw Novikov terms in canonical form by a dict and
a sort; every constructed element, sum, difference and product must give
its terms and cutoff.
"""

import json
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

import novikov_reference as ref
from cyclotomic_reference import RefCyclotomic
from qhsplit.novikov import CyclotomicNumber, NovikovElement, euler_phi

ORDERS = range(1, 31)


def random_pair(rng, order):
    """The same random element as a library value and as a reference value."""
    phi = euler_phi(order)
    shape = rng.random()
    if shape < 0.2:  # a rational multiple of a root of unity
        coeffs = [F(0)] * phi
        coeffs[rng.randrange(phi)] = F(rng.randint(-6, 6), rng.randint(1, 6))
    else:
        density = 0.3 if shape < 0.5 else 1.0
        coeffs = [F(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 4, 6, 9, 10)))
                  if rng.random() < density else F(0) for _ in range(phi)]
    return CyclotomicNumber(order, coeffs), RefCyclotomic(order, coeffs)


def second_order(rng, order):
    """An order to pair with ``order``: equal, a multiple or a divisor, or mixed."""
    choices = [m for m in ORDERS if math.lcm(order, m) <= 30]
    return order if rng.random() < 0.3 else rng.choice(choices)


def agree(value, ref):
    assert isinstance(value, CyclotomicNumber)
    assert value.order == ref.order
    assert value.coeffs == ref.coeffs
    assert repr(value) == repr(ref)
    assert value.den > 0 and math.gcd(value.den, *value.num) == 1


def test_differential_arithmetic_against_fraction_reference():
    rng = random.Random(20240601)
    for _ in range(3000):
        order = rng.choice(ORDERS)
        a, ra = random_pair(rng, order)
        b, rb = random_pair(rng, second_order(rng, order))
        agree(a, ra)
        agree(a + b, ra + rb)
        agree(a - b, ra - rb)
        agree(-a, -ra)
        agree(a * b, ra * rb)
        assert (a == b) == (ra == rb)
        assert a == a.to_order(math.lcm(a.order, b.order))


def test_differential_to_order_and_equality_across_orders():
    rng = random.Random(7)
    for _ in range(1000):
        order = rng.choice(range(1, 16))
        a, ra = random_pair(rng, order)
        target = order * rng.randint(1, 4)
        agree(a.to_order(target), ra.to_order(target))
        b, rb = random_pair(rng, target)
        assert (a == b) == (ra == rb)
        assert (a.to_order(target) == b) == (ra == rb)
        # a value and its embedding are equal, in either direction
        assert a.to_order(target) == a and a == a.to_order(target)


def test_differential_inverse():
    rng = random.Random(99)
    done = 0
    while done < 300:
        a, ra = random_pair(rng, rng.choice(ORDERS))
        if a.is_zero():
            continue
        done += 1
        agree(a.inverse(), ra.inverse())
        assert a * a.inverse() == CyclotomicNumber.one()


def test_operators_take_only_their_own_class():
    # an int or a Fraction becomes a scalar through a constructor, and a
    # Novikov element takes a cyclotomic one through from_cyclotomic
    for x in (CyclotomicNumber.one(), NovikovElement.one()):
        for combine in (lambda: x + 1, lambda: 1 + x, lambda: x - F(1, 2),
                        lambda: 1 - x, lambda: x * 2, lambda: 2 * x):
            with pytest.raises(TypeError):
                combine()
        assert (x == 1) is False
    with pytest.raises(TypeError):
        NovikovElement.one() * CyclotomicNumber.one()


def test_zero_and_one_have_one_stored_form():
    for order in ORDERS:
        zero = CyclotomicNumber.zero(order)
        assert zero.num == (0,) * euler_phi(order) and zero.den == 1
        half = CyclotomicNumber.from_rational(F(1, 2), order)
        assert (half + half).num == CyclotomicNumber.one(order).num
        assert (half + half).den == 1
        assert (half - half).den == 1


# --- subtraction is adding the negation ---------------------------------------

def stored(x):
    """Every stored field of a scalar: ``==`` ignores orders and cutoffs."""
    if isinstance(x, CyclotomicNumber):
        return x.order, x.num, x.den
    return [(e,) + stored(c) for e, c in x.terms], x.cutoff


def random_novikov(rng):
    # few exponents, so terms often meet; negative ones and orders 1..12
    terms = [(F(rng.randint(-4, 6), rng.choice((1, 2, 3))),
              random_pair(rng, rng.randint(1, 12))[0])
             for _ in range(rng.randint(0, 4))]
    cutoff = rng.choice((None, None, F(rng.randint(-2, 6), rng.choice((1, 2)))))
    return NovikovElement(terms, cutoff)


def test_cyclotomic_subtraction_matches_adding_the_negation():
    rng = random.Random(20241018)
    for _ in range(3000):
        order = rng.randint(1, 12)
        a, _ = random_pair(rng, order)
        b, _ = random_pair(rng, rng.randint(1, 12) if rng.random() < 0.5 else order)
        assert stored(a - b) == stored(a + (-b))
        assert stored(a - a) == stored(a + (-a))


def test_novikov_subtraction_matches_adding_the_negation():
    rng = random.Random(20241019)
    cancelled = 0
    for _ in range(3000):
        a, b = random_novikov(rng), random_novikov(rng)
        assert stored(a - b) == stored(a + (-b))
        # the same terms at another cutoff cancel exactly below both cutoffs
        c = NovikovElement(a.terms, rng.choice((None, F(rng.randint(-2, 6)))))
        assert stored(a - c) == stored(a + (-c))
        assert stored(c - a) == stored(c + (-a))
        cancelled += (a - c).is_zero()
    assert cancelled == 3000


# --- Novikov terms against the dict-then-sort reference ------------------------

def raw_terms(rng):
    """Shuffled raw pairs over few exponents, some negative and some above any
    cutoff: repeated exponents, zero coefficients and pairs that cancel."""
    exponents = [rng.choice((rng.randint(-3, 6), F(rng.randint(-5, 11), 2))) for _ in range(4)]
    terms = []
    for _ in range(rng.randint(0, 8)):
        shape = rng.random()
        if shape < 0.15:
            coeff = 0
        elif shape < 0.3:
            coeff = F(rng.randint(-4, 4), rng.randint(1, 3))
        else:
            coeff = random_pair(rng, rng.choice((1, 3, 4, 5, 6, 12)))[0]
        exp = rng.choice(exponents)
        terms.append((exp, coeff))
        if rng.random() < 0.3:
            terms.append((exp, -coeff))
    rng.shuffle(terms)
    return terms


def random_cutoff(rng):
    return rng.choice((None, None, F(rng.randint(-2, 6)), F(rng.randint(-3, 11), 2)))


def test_novikov_terms_match_the_dict_then_sort_reference():
    rng = random.Random(20241022)
    for _ in range(2000):
        raw_x = raw_terms(rng)
        # y often shares x's terms, or their negations, so sums cancel
        shared = raw_x[:rng.randint(0, len(raw_x))]
        raw_y = raw_terms(rng) + rng.choice((shared, [(e, -c) for e, c in shared], []))
        rng.shuffle(raw_y)
        cut_x, cut_y = random_cutoff(rng), random_cutoff(rng)
        x, y = NovikovElement(raw_x, cut_x), NovikovElement(raw_y, cut_y)
        assert (x.terms, x.cutoff) == ref.canonical(raw_x, cut_x)
        assert (y.terms, y.cutoff) == ref.canonical(raw_y, cut_y)
        for value, expected in ((x + y, ref.sum_terms(x, y)),
                                (x - y, ref.difference_terms(x, y)),
                                (x * y, ref.product_terms(x, y))):
            assert (value.terms, value.cutoff) == expected


# --- value semantics ---------------------------------------------------------

def test_scalars_are_unhashable():
    # == identifies one(1) with one(4), so no hash of the stored form can agree
    assert CyclotomicNumber.one(1) == CyclotomicNumber.one(4)
    assert NovikovElement.one() == NovikovElement.from_cyclotomic(CyclotomicNumber.one(4))
    for value in (CyclotomicNumber.one(4), NovikovElement.one()):
        with pytest.raises(TypeError):
            hash(value)
        with pytest.raises(TypeError):
            {value}


# --- hypothesis properties -----------------------------------------------------

rationals = st.fractions(min_value=-8, max_value=8, max_denominator=12)


@st.composite
def cyclotomics(draw, orders=st.sampled_from((1, 2, 3, 4, 5, 6, 8, 12))):
    order = draw(orders)
    coeffs = draw(st.lists(rationals, min_size=euler_phi(order), max_size=euler_phi(order)))
    return CyclotomicNumber(order, coeffs)


@st.composite
def novikovs(draw, min_exponent=-3):
    # truncation is a ring map only on nonnegative exponents; pass
    # min_exponent=0 where products of truncated elements are compared
    terms = draw(st.lists(st.tuples(st.fractions(min_value=min_exponent, max_value=5,
                                                 max_denominator=6),
                                    cyclotomics()), max_size=3))
    cutoff = draw(st.one_of(st.none(), st.fractions(min_value=1, max_value=6,
                                                    max_denominator=4)))
    return NovikovElement(terms, cutoff)


@settings(max_examples=200, deadline=None)
@given(cyclotomics(), cyclotomics(), cyclotomics())
def test_cyclotomic_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a - a == CyclotomicNumber.zero() and a * CyclotomicNumber.one() == a
    if not a.is_zero():
        assert a * a.inverse() == CyclotomicNumber.one()


@settings(max_examples=100, deadline=None)
@given(novikovs(0), novikovs(0), novikovs(0))
def test_novikov_ring_axioms(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x * y == y * x
    assert (x - x).is_zero()


@settings(max_examples=100, deadline=None)
@given(novikovs(), st.sampled_from((None, 24)))
def test_novikov_json_round_trip(x, order):
    data = json.loads(json.dumps(x.to_json_dict(order)))
    back = NovikovElement.from_json_dict(data)
    assert back == x and back.cutoff == x.cutoff
    assert back.to_json_dict(order) == x.to_json_dict(order)


@settings(max_examples=100, deadline=None)
@given(cyclotomics())
def test_unhashable_whatever_the_value(a):
    with pytest.raises(TypeError):
        hash(a)
    with pytest.raises(TypeError):
        hash(NovikovElement.from_cyclotomic(a))
