"""Reference cyclotomic arithmetic on ``Fraction`` coordinates, for tests only.

This is the straightforward power-basis implementation that
``qhsplit.novikov.CyclotomicNumber`` replaced with integer numerators over
one denominator.  It recomputes the cyclotomic polynomial and the power
tables over Q, so it shares no arithmetic code with the library; the
differential tests check the library against it.
"""

from __future__ import annotations

import math
from fractions import Fraction


def euler_phi(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def _poly_divmod(num: list[Fraction], den: list[Fraction]):
    num = list(num)
    q = [Fraction(0)] * max(len(num) - len(den) + 1, 0)
    dlead = den[-1]
    for i in range(len(num) - 1, len(den) - 2, -1):
        c = num[i] / dlead
        if c:
            q[i - (len(den) - 1)] = c
            for j, d in enumerate(den):
                num[i - (len(den) - 1) + j] -= c * d
    while num and not num[-1]:
        num.pop()
    return q, num


def _poly_mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _poly_sub(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = list(a) + [Fraction(0)] * max(0, len(b) - len(a))
    for i, y in enumerate(b):
        out[i] -= y
    return out


_CYCLOTOMIC: dict[int, list[Fraction]] = {}


def cyclotomic_polynomial(order: int) -> list[Fraction]:
    if order not in _CYCLOTOMIC:
        poly = [Fraction(-1)] + [Fraction(0)] * (order - 1) + [Fraction(1)]
        for d in range(1, order):
            if order % d == 0:
                poly, rem = _poly_divmod(poly, cyclotomic_polynomial(d))
                assert not rem
        _CYCLOTOMIC[order] = poly
    return _CYCLOTOMIC[order]


_POWERS: dict[int, list[tuple[Fraction, ...]]] = {}


def _power_table(order: int, upto: int) -> list[tuple[Fraction, ...]]:
    # x^j mod Phi_order for 0 <= j <= upto, as vectors in the power basis.
    phi = euler_phi(order)
    table = _POWERS.setdefault(order, [])
    if not table:
        for j in range(phi):
            vec = [Fraction(0)] * phi
            vec[j] = Fraction(1)
            table.append(tuple(vec))
    poly = cyclotomic_polynomial(order)
    while len(table) <= upto:
        shifted = [Fraction(0)] + list(table[-1])
        top = shifted.pop()
        if top:
            for i in range(phi):
                shifted[i] -= top * poly[i]
        table.append(tuple(shifted))
    return table


def _format(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


class RefCyclotomic:
    """Element ``sum_k coeffs[k] z^k`` of the cyclotomic field of ``order``."""

    def __init__(self, order: int, coeffs):
        self.order = order
        self.coeffs = tuple(Fraction(c) for c in coeffs)
        assert len(self.coeffs) == euler_phi(order)

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def to_order(self, order: int) -> "RefCyclotomic":
        if order == self.order:
            return self
        assert order % self.order == 0
        step = order // self.order
        phi = euler_phi(order)
        table = _power_table(order, step * (len(self.coeffs) - 1))
        acc = [Fraction(0)] * phi
        for k, c in enumerate(self.coeffs):
            if c:
                for i in range(phi):
                    acc[i] += c * table[k * step][i]
        return RefCyclotomic(order, acc)

    def _unify(self, other):
        m = math.lcm(self.order, other.order)
        return self.to_order(m), other.to_order(m)

    def __add__(self, other):
        a, b = self._unify(other)
        return RefCyclotomic(a.order, [x + y for x, y in zip(a.coeffs, b.coeffs)])

    def __neg__(self):
        return RefCyclotomic(self.order, [-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        a, b = self._unify(other)
        phi = len(a.coeffs)
        conv = [Fraction(0)] * (2 * phi - 1)
        for i, x in enumerate(a.coeffs):
            if x:
                for j, y in enumerate(b.coeffs):
                    conv[i + j] += x * y
        table = _power_table(a.order, 2 * phi - 2)
        acc = [Fraction(0)] * phi
        for j, c in enumerate(conv):
            if c:
                for i in range(phi):
                    acc[i] += c * table[j][i]
        return RefCyclotomic(a.order, acc)

    def inverse(self) -> "RefCyclotomic":
        if self.is_zero():
            raise ZeroDivisionError("division by zero")
        f = list(self.coeffs)
        while f and not f[-1]:
            f.pop()
        r0, r1 = list(cyclotomic_polynomial(self.order)), f
        s0, s1 = [Fraction(0)], [Fraction(1)]
        while len(r1) > 1:
            q, r = _poly_divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, _poly_sub(s0, _poly_mul(q, s1))
        inv = [c / r1[0] for c in s1]
        phi = euler_phi(self.order)
        inv += [Fraction(0)] * (phi - len(inv))
        return RefCyclotomic(self.order, inv[:phi])

    def __eq__(self, other):
        a, b = self._unify(other)
        return a.coeffs == b.coeffs

    def __repr__(self):
        if self.is_zero():
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if not c:
                continue
            if k == 0:
                parts.append(_format(c))
            else:
                mono = f"z{self.order}" if k == 1 else f"z{self.order}^{k}"
                if c == 1:
                    parts.append(mono)
                elif c == -1:
                    parts.append(f"-{mono}")
                else:
                    parts.append(f"{_format(c)}*{mono}")
        return " + ".join(parts).replace("+ -", "- ")
