"""Exact arithmetic in a truncated universal Novikov field.

Scalars are finite sums ``sum_i c_i q^{d_i}`` with exact rational exponents
``d_i`` and coefficients ``c_i`` in a cyclotomic number field.  An optional
rational *cutoff* turns the ring into the quotient by exponents ``>= cutoff``:
terms at or above the cutoff are discarded and the element is flagged as
truncated.  Everything is immutable and exact; no floats appear anywhere.

A cyclotomic coefficient is stored on integers: a tuple ``num`` of integer
numerators over one denominator ``den``, with ``den > 0`` and
``gcd(num..., den) = 1``, so each value of a given order has exactly one
stored form.  ``Fraction`` appears only at the API boundary (``coeffs``
and the public constructors); ``inverse`` is a product of Galois conjugates
over an integer norm.

Scalars are unhashable.  ``==`` identifies values stored at different
cyclotomic orders (and, for Novikov elements, compares modulo the smaller
cutoff), which no hash of the stored form respects; group them by ``==``.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Iterable


# ---------------------------------------------------------------------------
# rational helpers

def parse_rational(text: str) -> Fraction:
    """Parse an exact rational of the form ``p``, ``p/q`` or ``-p/q``."""
    if not isinstance(text, str):
        raise ValueError(f"malformed rational {text!r}")
    text = text.strip()
    try:
        if "/" in text:
            num, den = text.split("/")
            return Fraction(int(num), int(den))
        return Fraction(int(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"malformed rational {text!r}") from exc


def format_rational(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


# ---------------------------------------------------------------------------
# cyclotomic polynomials and power-basis reduction tables

@functools.cache
def euler_phi(n: int) -> int:
    result = n
    p = 2
    m = n
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


def _poly_divide_exact(num: list[int], den: list[int]) -> list[int]:
    # Exact division of integer polynomials with known-zero remainder;
    # coefficient lists are low-to-high and the divisor is monic.
    num = list(num)
    dn = len(den) - 1
    out = [0] * (len(num) - dn)
    for i in range(len(num) - 1, dn - 1, -1):
        c = num[i]
        if c:
            out[i - dn] = c
            for j, d in enumerate(den):
                num[i - dn + j] -= c * d
    if any(num[:dn]):
        raise ArithmeticError("inexact polynomial division")
    return out


_CYCLOTOMIC_CACHE: dict[int, tuple[int, ...]] = {}


def cyclotomic_polynomial(order: int) -> tuple[int, ...]:
    """Integer coefficients (low to high) of the ``order``-th cyclotomic polynomial."""
    if order < 1:
        raise ValueError("order must be a positive integer")
    cached = _CYCLOTOMIC_CACHE.get(order)
    if cached is not None:
        return cached
    # x^order - 1 divided by the cyclotomic polynomials of proper divisors.
    poly = [-1] + [0] * (order - 1) + [1]
    for d in range(1, order):
        if order % d == 0:
            poly = _poly_divide_exact(poly, list(cyclotomic_polynomial(d)))
    result = tuple(poly)
    _CYCLOTOMIC_CACHE[order] = result
    return result


_POWER_CACHE: dict[int, list[tuple[tuple[int, int], ...]]] = {}


def _power_table(order: int, upto: int) -> list[tuple[tuple[int, int], ...]]:
    # x^j mod Phi_order for 0 <= j <= upto, each as the sparse tuple of its
    # nonzero (index, coefficient) pairs in the power basis.  Phi_order is
    # monic with integer coefficients, so every entry is an integer.
    table = _POWER_CACHE.get(order)
    if table is None:
        table = _POWER_CACHE[order] = [((j, 1),) for j in range(euler_phi(order))]
    if len(table) <= upto:
        poly = cyclotomic_polynomial(order)
        phi = len(poly) - 1
        while len(table) <= upto:
            # x^j = x * x^(j-1); reduce the overflow coordinate via Phi.
            shifted = [0] * (phi + 1)
            for i, c in table[-1]:
                shifted[i + 1] = c
            top = shifted.pop()
            if top:
                for i in range(phi):
                    shifted[i] -= top * poly[i]
            table.append(tuple((i, c) for i, c in enumerate(shifted) if c))
    return table


_new = object.__new__


def _cyclo(order: int, num: tuple[int, ...], den: int) -> "CyclotomicNumber":
    # Trusted constructor: ``num``/``den`` already satisfy the invariant.
    x = _new(CyclotomicNumber)
    x.order = order
    x.num = num
    x.den = den
    return x


def _reduced(order: int, num: list[int], den: int) -> "CyclotomicNumber":
    # Divide out gcd(num..., den); ``den`` must be positive.
    if den != 1:
        g = math.gcd(den, *num)
        if g != 1:
            num = [n // g for n in num]
            den //= g
    return _cyclo(order, tuple(num), den)


class CyclotomicNumber:
    """Element of the cyclotomic field of a fixed order, in the power basis.

    The element is ``sum_k (num[k] / den) z^k``, where ``z`` is a fixed
    primitive ``order``-th root of unity and ``num`` has length
    ``phi(order)``.  ``num`` holds integers and ``den`` is a positive integer
    with ``gcd(num..., den) = 1``, so the stored form is unique.  ``coeffs``
    gives the coordinates as ``Fraction``s.  Elements of different orders are
    coerced into the field of the lcm order before combining.
    """

    __slots__ = ("order", "num", "den")
    __hash__ = None  # == crosses orders; see the module docstring

    def __init__(self, order: int, coeffs: Iterable[Fraction]):
        order = int(order)
        if order < 1:
            raise ValueError(f"cyclotomic order must be a positive integer, got {order}")
        vec = [Fraction(c) for c in coeffs]
        phi = euler_phi(order)
        if len(vec) != phi:
            raise ValueError(f"expected {phi} coordinates for order {order}, got {len(vec)}")
        # den is the lcm of the reduced denominators, so gcd(num..., den) = 1
        den = math.lcm(*(c.denominator for c in vec))
        self.order = order
        self.num = tuple(c.numerator * (den // c.denominator) for c in vec)
        self.den = den

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """Power-basis coordinates as ``Fraction``s."""
        den = self.den
        return tuple(Fraction(n, den) for n in self.num)

    # -- constructors -------------------------------------------------------
    @classmethod
    def from_rational(cls, value, order: int = 1) -> "CyclotomicNumber":
        if type(value) is int:
            num, den = value, 1
        else:
            value = Fraction(value)
            num, den = value.numerator, value.denominator
        phi = euler_phi(order)
        if phi < 1:
            raise ValueError(f"cyclotomic order must be a positive integer, got {order}")
        return _cyclo(order, (num,) + (0,) * (phi - 1), den)

    @classmethod
    def zero(cls, order: int = 1) -> "CyclotomicNumber":
        return cls.from_rational(0, order)

    @classmethod
    def one(cls, order: int = 1) -> "CyclotomicNumber":
        return cls.from_rational(1, order)

    @classmethod
    def root_of_unity(cls, order: int, power: int = 1) -> "CyclotomicNumber":
        """The root ``z^power`` in the field of the given order."""
        power %= order
        num = [0] * euler_phi(order)
        for i, c in _power_table(order, power)[power]:
            num[i] = c
        return _cyclo(order, tuple(num), 1)

    # -- structure ----------------------------------------------------------
    def is_zero(self) -> bool:
        return not any(self.num)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def to_order(self, order: int) -> "CyclotomicNumber":
        """Embed into the field of a multiple order."""
        if order == self.order:
            return self
        if order % self.order != 0:
            raise ValueError(f"cannot embed order {self.order} into order {order}")
        step = order // self.order
        table = _power_table(order, step * (len(self.num) - 1))
        acc = [0] * euler_phi(order)
        for k, c in enumerate(self.num):
            if c:
                for i, v in table[k * step]:
                    acc[i] += c * v
        return _reduced(order, acc, self.den)

    def _unify(self, other: "CyclotomicNumber") -> tuple["CyclotomicNumber", "CyclotomicNumber"]:
        if self.order == other.order:
            return self, other
        m = math.lcm(self.order, other.order)
        return self.to_order(m), other.to_order(m)

    # -- arithmetic ----------------------------------------------------------
    def __add__(self, other):
        other = _coerce_cyclotomic(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._unify(other)
        den, bden = a.den, b.den
        if den == bden:
            num = [x + y for x, y in zip(a.num, b.num)]
        else:
            num = [x * bden + y * den for x, y in zip(a.num, b.num)]
            den *= bden
        return _reduced(a.order, num, den)

    __radd__ = __add__

    def __neg__(self):
        return _cyclo(self.order, tuple(-x for x in self.num), self.den)

    def __sub__(self, other):
        other = _coerce_cyclotomic(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._unify(other)
        den, bden = a.den, b.den
        if den == bden:
            num = [x - y for x, y in zip(a.num, b.num)]
        else:
            num = [x * bden - y * den for x, y in zip(a.num, b.num)]
            den *= bden
        return _reduced(a.order, num, den)

    def __rsub__(self, other):
        other = _coerce_cyclotomic(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = _coerce_cyclotomic(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._unify(other)
        an, bn = a.num, b.num
        phi = len(an)
        if phi == 1:
            return _reduced(a.order, [an[0] * bn[0]], a.den * b.den)
        conv = [0] * (2 * phi - 1)
        bterms = [(j, y) for j, y in enumerate(bn) if y]
        for i, x in enumerate(an):
            if x:
                for j, y in bterms:
                    conv[i + j] += x * y
        acc = conv[:phi]
        table = _power_table(a.order, 2 * phi - 2)
        for j in range(phi, 2 * phi - 1):
            c = conv[j]
            if c:
                for i, v in table[j]:
                    acc[i] += c * v
        return _reduced(a.order, acc, a.den * b.den)

    __rmul__ = __mul__

    def inverse(self) -> "CyclotomicNumber":
        if self.is_zero():
            raise ZeroDivisionError("division by zero")
        order, num, den = self.order, self.num, self.den
        if self.is_rational():
            # gcd(num[0], den) = 1, so den / num[0] is already reduced
            sign = 1 if num[0] > 0 else -1
            return _cyclo(order, (sign * den,) + num[1:], sign * num[0])
        # With a = A / den, the product P of the Galois conjugates sigma_k(A),
        # 1 < k < order and k prime to order, makes A * P the norm of A, a
        # nonzero integer; so 1/a = den * P / norm.  sigma_k maps z^j to
        # z^(jk mod order).
        table = _power_table(order, order - 1)
        conjugates = _cyclo(order, (1,) + (0,) * (len(num) - 1), 1)
        for k in range(2, order):
            if math.gcd(k, order) == 1:
                acc = [0] * len(num)
                for j, c in enumerate(num):
                    if c:
                        for i, v in table[j * k % order]:
                            acc[i] += c * v
                conjugates = conjugates * _cyclo(order, tuple(acc), 1)
        norm = (_cyclo(order, num, 1) * conjugates).num[0]
        if norm < 0:
            den, norm = -den, -norm
        return _reduced(order, [den * c for c in conjugates.num], norm)

    def __pow__(self, exp: int):
        if exp < 0:
            return self.inverse() ** (-exp)
        result = CyclotomicNumber.one(self.order)
        base = self
        while exp:
            if exp & 1:
                result = result * base
            base = base * base
            exp >>= 1
        return result

    def __eq__(self, other):
        other = _coerce_cyclotomic(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._unify(other)
        return a.num == b.num and a.den == b.den

    def __repr__(self):
        if self.is_zero():
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if not c:
                continue
            if k == 0:
                parts.append(format_rational(c))
            else:
                mono = f"z{self.order}" if k == 1 else f"z{self.order}^{k}"
                if c == 1:
                    parts.append(mono)
                elif c == -1:
                    parts.append(f"-{mono}")
                else:
                    parts.append(f"{format_rational(c)}*{mono}")
        return " + ".join(parts).replace("+ -", "- ")


def _coerce_cyclotomic(value):
    if isinstance(value, CyclotomicNumber):
        return value
    if isinstance(value, (int, Fraction)):
        return CyclotomicNumber.from_rational(value)
    return NotImplemented


# ---------------------------------------------------------------------------
# Novikov elements

DEFAULT_CUTOFF = Fraction(3)


def _nov(terms: tuple, cutoff: Fraction | None) -> "NovikovElement":
    # Trusted constructor: ``terms`` already canonical for ``cutoff``.
    x = _new(NovikovElement)
    x.terms = terms
    x.cutoff = cutoff
    return x


def _monomial(exponent: Fraction, coeff: CyclotomicNumber, cutoff) -> "NovikovElement":
    # ``exponent``, ``coeff`` and ``cutoff`` already have their stored types.
    if coeff.is_zero() or (cutoff is not None and exponent >= cutoff):
        return _nov((), cutoff)
    return _nov(((exponent, coeff),), cutoff)


def _merge_cutoff(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def _split_index(terms: tuple, bound: Fraction) -> int:
    # Number of leading terms with exponent below ``bound`` (terms are sorted).
    k = len(terms)
    while k and terms[k - 1][0] >= bound:
        k -= 1
    return k


def _merge(a: tuple, b: tuple, negate: bool) -> tuple:
    # ``a + b``, or ``a - b`` when ``negate``, for two canonical term tuples
    # with no exponent at or above the cutoff; ``b`` is negated term by term
    # as it is merged, never copied first.
    if not b:
        return a
    if not negate and not a:
        return b
    out = []
    i = j = 0
    na, nb = len(a), len(b)
    while i < na and j < nb:
        ea, eb = a[i][0], b[j][0]
        if ea == eb:
            c = a[i][1] - b[j][1] if negate else a[i][1] + b[j][1]
            if not c.is_zero():
                out.append((ea, c))
            i += 1
            j += 1
        elif ea < eb:
            out.append(a[i])
            i += 1
        else:
            out.append((eb, -b[j][1]) if negate else b[j])
            j += 1
    out.extend(a[i:])
    if negate:
        out.extend((e, -c) for e, c in b[j:])
    else:
        out.extend(b[j:])
    return tuple(out)


def _sum(x: "NovikovElement", y: "NovikovElement", negate: bool) -> "NovikovElement":
    # ``x + y``, or ``x - y`` when ``negate``, at the smaller cutoff
    cutoff = _merge_cutoff(x.cutoff, y.cutoff)
    a, b = x.terms, y.terms
    if cutoff is not None:
        # only an operand with a larger (or no) cutoff can hold terms above it
        if x.cutoff is not cutoff:
            a = a[:_split_index(a, cutoff)]
        if y.cutoff is not cutoff:
            b = b[:_split_index(b, cutoff)]
    return _nov(_merge(a, b, negate), cutoff)


def _exponent(term):
    return term[0]


def _add_exponents(e1: Fraction, e2: Fraction) -> Fraction:
    # most factors sit at q^0; skip the Fraction addition for them
    if not e1:
        return e2
    if not e2:
        return e1
    return e1 + e2


_ZERO_EXPONENT = Fraction(0)


class NovikovElement:
    """Finite q-series with rational exponents and cyclotomic coefficients.

    ``terms`` is a sorted tuple of ``(exponent, coefficient)`` pairs with
    strictly increasing ``Fraction`` exponents and no stored zero
    coefficients.  ``cutoff`` is an exact rational or ``None`` for
    "+infinity"; terms with exponent at or above a finite cutoff are never
    stored.  The public constructor validates, merges and sorts its input;
    arithmetic results, already canonical, skip that step.
    """

    __slots__ = ("terms", "cutoff")
    __hash__ = None  # == is cutoff-tolerant; see the module docstring

    def __init__(self, terms=(), cutoff: Fraction | None = None):
        cleaned: dict[Fraction, CyclotomicNumber] = {}
        for exp, coeff in terms:
            exp = Fraction(exp)
            if not isinstance(coeff, CyclotomicNumber):
                coeff = CyclotomicNumber.from_rational(coeff)
            if cutoff is not None and exp >= cutoff:
                continue
            if exp in cleaned:
                cleaned[exp] = cleaned[exp] + coeff
            else:
                cleaned[exp] = coeff
        self.terms = tuple(sorted(
            ((e, c) for e, c in cleaned.items() if not c.is_zero()),
            key=_exponent,
        ))
        self.cutoff = Fraction(cutoff) if cutoff is not None else None

    # -- constructors -------------------------------------------------------
    @classmethod
    def zero(cls, cutoff=None) -> "NovikovElement":
        return _nov((), Fraction(cutoff) if cutoff is not None else None)

    @classmethod
    def one(cls, cutoff=None) -> "NovikovElement":
        return cls.from_rational(1, cutoff)

    @classmethod
    def monomial(cls, exponent, coefficient=1, cutoff=None) -> "NovikovElement":
        if type(exponent) is not Fraction:
            exponent = Fraction(exponent)
        if not isinstance(coefficient, CyclotomicNumber):
            coefficient = CyclotomicNumber.from_rational(coefficient)
        return _monomial(exponent, coefficient,
                         Fraction(cutoff) if cutoff is not None else None)

    @classmethod
    def q_power(cls, exponent, cutoff=None) -> "NovikovElement":
        return cls.monomial(exponent, 1, cutoff)

    @classmethod
    def from_rational(cls, value, cutoff=None) -> "NovikovElement":
        return cls.from_cyclotomic(CyclotomicNumber.from_rational(value), cutoff)

    @classmethod
    def from_cyclotomic(cls, value: CyclotomicNumber, cutoff=None) -> "NovikovElement":
        return cls.monomial(_ZERO_EXPONENT, value, cutoff)

    # -- structure ----------------------------------------------------------
    @property
    def truncated(self) -> bool:
        return self.cutoff is not None

    def is_zero(self) -> bool:
        return not self.terms

    def val_q(self) -> Fraction | None:
        """Minimal stored exponent; ``None`` encodes +infinity (zero element)."""
        if not self.terms:
            return None
        return self.terms[0][0]

    def leading(self) -> tuple[Fraction, CyclotomicNumber]:
        if not self.terms:
            raise ValueError("zero element has no leading term")
        return self.terms[0]

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def order(self) -> int:
        m = 1
        for _, c in self.terms:
            m = math.lcm(m, c.order)
        return m

    def truncate(self, cutoff) -> "NovikovElement":
        cutoff = Fraction(cutoff)
        if self.cutoff is not None:
            cutoff = min(cutoff, self.cutoff)
        return _nov(self.terms[:_split_index(self.terms, cutoff)], cutoff)

    # -- arithmetic ----------------------------------------------------------
    def __add__(self, other):
        other = _coerce_novikov(other)
        if other is NotImplemented:
            return NotImplemented
        return _sum(self, other, False)

    __radd__ = __add__

    def __neg__(self):
        return _nov(tuple((e, -c) for e, c in self.terms), self.cutoff)

    def __sub__(self, other):
        other = _coerce_novikov(other)
        if other is NotImplemented:
            return NotImplemented
        return _sum(self, other, True)

    def __rsub__(self, other):
        other = _coerce_novikov(other)
        if other is NotImplemented:
            return NotImplemented
        return _sum(other, self, True)

    def __mul__(self, other):
        if isinstance(other, CyclotomicNumber):
            if other.is_zero():
                return _nov((), self.cutoff)
            # a field has no zero divisors: every product stays nonzero
            return _nov(tuple((e, c * other) for e, c in self.terms), self.cutoff)
        other = _coerce_novikov(other)
        if other is NotImplemented:
            return NotImplemented
        cutoff = _merge_cutoff(self.cutoff, other.cutoff)
        if len(self.terms) == 1 and len(other.terms) == 1:
            (e1, c1), = self.terms
            (e2, c2), = other.terms
            e = _add_exponents(e1, e2)
            if cutoff is not None and e >= cutoff:
                return _nov((), cutoff)
            return _nov(((e, c1 * c2),), cutoff)
        acc: dict[Fraction, CyclotomicNumber] = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                e = _add_exponents(e1, e2)
                if cutoff is not None and e >= cutoff:
                    continue
                prod = c1 * c2
                if e in acc:
                    acc[e] = acc[e] + prod
                else:
                    acc[e] = prod
        return _nov(tuple(sorted(((e, c) for e, c in acc.items() if not c.is_zero()),
                                 key=_exponent)), cutoff)

    __rmul__ = __mul__

    def __pow__(self, exp: int):
        if exp < 0:
            raise ValueError("negative powers require an explicit cutoff; use invert")
        result = NovikovElement.one(self.cutoff)
        for _ in range(exp):
            result = result * self
        return result

    def invert(self, cutoff=None) -> "NovikovElement":
        """Inverse, exact for monomials and geometric-series-truncated otherwise.

        The returned ``y`` satisfies ``val_q(y) = -val_q(x)`` and
        ``x * y = 1`` up to terms of exponent ``>= cutoff``.
        """
        if self.is_zero():
            raise ZeroDivisionError("division by zero")
        lead_exp, lead_coeff = self.leading()
        inv_lead = NovikovElement.monomial(-lead_exp, lead_coeff.inverse(), self.cutoff)
        if self.is_monomial():
            return inv_lead
        if cutoff is None:
            cutoff = self.cutoff if self.cutoff is not None else DEFAULT_CUTOFF
        cutoff = Fraction(cutoff)
        # The inverse must be accurate enough that the product error stays at
        # or above the cutoff even after multiplying by the leading q-power.
        target = cutoff - min(lead_exp, 0)
        # x = lead * (1 + r) with val(r) > 0; invert the unit factor as a
        # geometric series, truncating once powers of r clear the target.
        rest = (self * inv_lead) - NovikovElement.one()
        rest_val = rest.val_q()
        if rest_val is None:
            return inv_lead
        if rest_val <= 0:
            raise ArithmeticError("leading term did not dominate; cannot invert")
        work = target + max(lead_exp, -lead_exp) + rest_val
        series = NovikovElement.one(work)
        power = NovikovElement.one(work)
        k = 1
        while True:
            power = (power * rest).truncate(work)
            if power.is_zero() or k * rest_val >= work:
                break
            series = series + (power if k % 2 == 0 else -power)
            k += 1
        return (series * inv_lead).truncate(target)

    def __eq__(self, other):
        other = _coerce_novikov(other)
        if other is NotImplemented:
            return NotImplemented
        return (self - other).is_zero()

    # -- conversions ---------------------------------------------------------
    def below(self, bound) -> "NovikovElement":
        """The part of the element with exponent strictly below ``bound``."""
        return _nov(self.terms[:_split_index(self.terms, Fraction(bound))], self.cutoff)

    def at_or_above(self, bound) -> "NovikovElement":
        return _nov(self.terms[_split_index(self.terms, Fraction(bound)):], self.cutoff)

    def specialize_q_to_one(self) -> CyclotomicNumber:
        """Sum of coefficients: the specialization q -> 1."""
        acc = CyclotomicNumber.zero()
        for _, c in self.terms:
            acc = acc + c
        return acc

    def to_json_dict(self, order: int | None = None) -> dict:
        """JSON form; ``order`` forces a larger cyclotomic order for the
        coefficient coordinates (must be a multiple of the natural one)."""
        order = self.order() if order is None else math.lcm(self.order(), order)
        return {
            "order": order,
            "terms": [
                {
                    "exp": format_rational(e),
                    "coeff": [format_rational(x) for x in c.to_order(order).coeffs],
                }
                for e, c in self.terms
            ],
            "cutoff": format_rational(self.cutoff) if self.cutoff is not None else "inf",
            "truncated": self.truncated,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "NovikovElement":
        order = json_field(data, "order", "scalar")
        if type(order) is not int or order < 1:
            raise ValueError(f"scalar key 'order' must be a positive integer, got {order!r}")
        cutoff = data.get("cutoff", "inf")
        cutoff_val = None if cutoff in (None, "inf") else parse_rational(cutoff)
        phi = euler_phi(order)
        terms = []
        for t in json_field(data, "terms", "scalar", list):
            coeff = json_field(t, "coeff", "scalar term", list)
            if len(coeff) != phi:
                raise ValueError(f"scalar key 'coeff' must list {phi} coordinates for "
                                 f"order {order}, got {len(coeff)}")
            terms.append((parse_rational(json_field(t, "exp", "scalar term")),
                          CyclotomicNumber(order, [parse_rational(x) for x in coeff])))
        return cls(terms, cutoff_val)

    def __repr__(self):
        parts = []
        for e, c in self.terms:
            cs = repr(c)
            if " " in cs:
                cs = f"({cs})"
            if e == 0:
                parts.append(cs)
            else:
                qs = f"q^({format_rational(e)})" if e.denominator != 1 or e < 0 else (
                    "q" if e == 1 else f"q^{e}")
                parts.append(qs if cs == "1" else f"{cs}*{qs}")
        text = " + ".join(parts) or "0"
        if self.truncated:
            text += f" [cutoff {format_rational(self.cutoff)}]"
        return text


def json_field(data, key: str, what: str, kind: type | None = None):
    """``data[key]`` from a parsed JSON object, or a ``ValueError`` naming the key."""
    if not isinstance(data, dict):
        raise ValueError(f"{what} must be a JSON object, got {data!r}")
    if key not in data:
        raise ValueError(f"{what} is missing key {key!r}")
    value = data[key]
    if kind is not None and not isinstance(value, kind):
        raise ValueError(f"{what} key {key!r} must be a JSON {kind.__name__}, got {value!r}")
    return value


def _coerce_novikov(value):
    if isinstance(value, NovikovElement):
        return value
    if isinstance(value, (int, Fraction)):
        return NovikovElement.from_rational(value)
    if isinstance(value, CyclotomicNumber):
        return NovikovElement.from_cyclotomic(value)
    return NotImplemented
