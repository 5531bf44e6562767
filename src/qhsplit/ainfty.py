"""Finite-rank curved A-infinity algebras over truncated Novikov scalars.

Composition tensors are stored sparsely: ``tensors[d]`` maps a ``d``-tuple of
basis indices to a sparse output vector.  Degrees live in ``Z_N`` for an even
``N`` (default 2) and all sign computations use the reduced degree
``|x| + 1`` modulo 2.

Sign conventions, fixed once and used everywhere:

* relation sign: ``(-1)^{maltese}`` with ``maltese`` the sum of reduced
  degrees of the inputs in front of the inner composition;
* strict unit: ``m_2(1, x) = x`` and ``m_2(x, 1) = (-1)^{|x|} x``, all other
  unit insertions vanish.

Under these conventions ``m_2`` encodes an associative product ``a * b`` via
``m_2(a, b) = (-1)^{|a|} a * b``.

The q-free rescaling.  An algebra with weights ``w`` (``q_weights``) has
every structure constant of the form ``c q^{w(a_1) + ... + w(a_k) - w(o)}``
with ``c`` in a cyclotomic field, so ``e'_a = q^{-w(a)} e_a`` is a basis in
which the structure constants are the coefficients ``c``
(``coefficient_tensors``).  In the relation component of inputs
``a_1..a_d`` and output ``o``, a term nests ``m(b)_s`` in the slot ``s`` of
an outer entry ``m(.., s, ..)_o``.  It carries ``q^{sum w(b) - w(s)}``
times ``q^{sum w(outer inputs) - w(o)}``, which is ``q^{sum w(a) - w(o)}``
whatever the nesting.  So each component is that one power of q times the
same component of the q-free constants, and the relations are checked
exactly over the coefficient field, with no cutoff.

They are checked on integers, with the tables that the Hochschild ranks
use: ``coefficient_tensors`` converts each constant ``c`` once to
``realify(c)``, the coordinates of ``den zeta^k c`` for ``k < phi``, with
``den`` one common denominator per algebra.  An outer constant ``a`` and an
inner one ``b`` give ``den^2 a b = sum_k b0[k] den zeta^k a``, where ``b0``
holds the coordinates of ``den b`` (block 0 of ``realify(b)``) and ``den
zeta^k a`` is block ``k`` of ``realify(a)``: both are integer vectors, so
every term of a relation is ``den^2`` times the field product, and each
relation component is summed exactly on integers.  Dividing the sum by
``den^2`` again is exact, so only a nonzero component goes back to the
field, as the monomial with q-exponent ``sum w(a) - w(o)`` and coefficient
in the field of the lcm of the orders of the algebra's irrational
coefficients.  For an algebra whose irrational coefficients span two or
more orders, that field can be larger than the one the Novikov arithmetic
would print the coefficient in; the value is the same under ``==``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import add, itemgetter, mul, neg
from typing import NamedTuple

from . import linalg
from .novikov import (CyclotomicNumber, NovikovElement, euler_phi, format_rational,
                      json_field, parse_rational)


Vector = dict[int, NovikovElement]


class AInftyAlgebra:
    """Graded module with sparse composition tensors ``m_d``."""

    def __init__(self, basis, degrees, tensors, unit=None, n_grading=2,
                 cutoff: Fraction | None = None):
        self.basis = tuple(basis)
        self.degrees = tuple(int(d) % n_grading for d in degrees)
        if len(self.basis) != len(self.degrees):
            raise ValueError("basis and degree lists must have equal length")
        if n_grading % 2 != 0:
            raise ValueError("the grading group order N must be even")
        self.n_grading = int(n_grading)
        self.unit = unit
        self.cutoff = Fraction(cutoff) if cutoff is not None else None
        cutoffs = [self.cutoff]
        self.tensors: dict[int, dict[tuple, Vector]] = {}
        for d, entries in tensors.items():
            store: dict[tuple, Vector] = {}
            for key, vec in entries.items():
                vec = dict(vec)
                for i, v in vec.items():
                    if not isinstance(v, NovikovElement):
                        raise TypeError(f"m_{d}{tuple(key)} output {i}: "
                                        f"{type(v).__name__} {v!r}, not a NovikovElement")
                    cutoffs.append(v.cutoff)
                vec = {i: v for i, v in vec.items() if not v.is_zero()}
                if vec:
                    store[tuple(key)] = vec
            if store:
                self.tensors[int(d)] = store
        # the least cutoff, declared or of a constant (a zero dropped above
        # included), below which every constant is known; None when all are exact
        self.least_cutoff = min((c for c in cutoffs if c is not None), default=None)

    # -- access ---------------------------------------------------------------
    @property
    def rank(self) -> int:
        return len(self.basis)

    def reduced(self, idx: int) -> int:
        return (self.degrees[idx] + 1) % 2

    def m_basis(self, inputs: tuple) -> Vector:
        entry = self.tensors.get(len(inputs), {}).get(tuple(inputs))
        return dict(entry) if entry else {}

    def q_weights(self) -> tuple[Fraction, ...] | None:
        """Rational weights ``w`` making every stored entry q-homogeneous.

        Each entry ``m_k(a_1..a_k)_o`` must be one exact term
        ``c q^{w(a_1) + ... + w(a_k) - w(o)}`` with ``c`` free of q; then
        ``e'_a = q^{-w(a)} e_a`` is a basis in which the structure constants
        are the coefficients ``c``.  Returns ``None`` when an entry has two or
        more terms, when the algebra has a ``least_cutoff`` (a constant is then
        known only modulo ``q^C``), or when no weights fit.  Weights left free
        by the entries are 0.
        """
        if self.least_cutoff is not None:
            return None
        entries = []
        for store in self.tensors.values():
            for key, vec in store.items():
                for o, value in vec.items():
                    if len(value.terms) != 1:
                        return None
                    entries.append((key, o, value.terms[0][0]))
        # one equation sum_i w(a_i) - w(o) - x = 0 per entry, as {variable:
        # coefficient} with the constant under -1; the independent ones (at
        # most ``rank``) are kept in reduced row echelon form, keyed by pivot,
        # and every entry is checked against the solution below
        pivots: dict[int, dict[int, Fraction]] = {}
        for key, o, exponent in entries:
            if len(pivots) == self.rank:
                break
            eq = {-1: -exponent}
            for i in key:
                eq[i] = eq.get(i, 0) + 1
            eq[o] = eq.get(o, 0) - 1
            for var in [v for v in eq if v in pivots]:
                coeff = eq.pop(var)
                for v, c in pivots[var].items():
                    eq[v] = eq.get(v, 0) - coeff * c
            eq = {v: c for v, c in eq.items() if c}
            var = max(eq, default=-1)
            if var == -1:
                if eq:  # 0 = a nonzero constant
                    return None
                continue
            lead = eq.pop(var)
            row = {v: Fraction(c, lead) for v, c in eq.items()}
            for other in pivots.values():
                coeff = other.pop(var, 0)
                if coeff:
                    for v, c in row.items():
                        other[v] = other.get(v, 0) - coeff * c
            pivots[var] = row
        # the weights left free are 0, so w(pivot) = -(its constant)
        weights = [Fraction(0)] * self.rank
        for var, row in pivots.items():
            weights[var] = -Fraction(row.get(-1, 0))
        # each entry is checked on integers: the weights and exponents
        # times their common denominator
        den = math.lcm(*(w.denominator for w in weights),
                       *(exponent.denominator for _, _, exponent in entries))
        scaled = [w.numerator * (den // w.denominator) for w in weights]
        for key, o, exponent in entries:
            if (sum(scaled[i] for i in key) - scaled[o]
                    != exponent.numerator * (den // exponent.denominator)):
                return None
        return tuple(weights)

    # -- validation -------------------------------------------------------------
    def degree_violations(self) -> list:
        """Stored tensor entries that break the degree-(2-d) rule."""
        bad = []
        for d, entries in self.tensors.items():
            for key, vec in entries.items():
                want = (sum(self.degrees[i] for i in key) + 2 - d) % self.n_grading
                for o in vec:
                    if self.degrees[o] % self.n_grading != want:
                        bad.append((d, key, o))
        return sorted(bad)

    def unit_violations(self) -> list:
        """Failures of the strict-unit axioms for the declared unit."""
        if self.unit is None:
            return []
        bad = []
        e, m2, one = self.unit, self.tensors.get(2, {}), NovikovElement.one()
        for i in range(self.rank):
            if m2.get((e, i), {}) != {i: one}:
                bad.append((2, (e, i), "left unit"))
            if m2.get((i, e), {}) != {i: one if self.degrees[i] % 2 == 0 else -one}:
                bad.append((2, (i, e), "right unit"))
        # stored vectors are never empty, so every stored insertion is nonzero
        bad += [(d, key, "unit insertion") for d, entries in self.tensors.items()
                if d != 2 for key in entries if e in key]
        return sorted(bad, key=repr)

    # -- serialization ------------------------------------------------------------
    def to_json_dict(self) -> dict:
        return {
            "n_grading": self.n_grading,
            "cutoff": format_rational(self.cutoff) if self.cutoff is not None else "inf",
            "unit": self.basis[self.unit] if self.unit is not None else None,
            "basis": [{"name": str(b), "degree": d}
                      for b, d in zip(self.basis, self.degrees)],
            "tensors": {
                str(d): [
                    {
                        "inputs": [str(self.basis[i]) for i in key],
                        "outputs": {str(self.basis[o]): val.to_json_dict()
                                    for o, val in sorted(vec.items())},
                    }
                    for key, vec in sorted(entries.items())
                ]
                for d, entries in sorted(self.tensors.items())
            },
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "AInftyAlgebra":
        """Parse ``to_json_dict`` output; a malformed file raises ``ValueError``."""
        basis_data = json_field(data, "basis", "algebra", list)
        basis = [json_field(b, "name", "basis entry", str) for b in basis_data]
        degrees = [json_field(b, "degree", "basis entry", int) for b in basis_data]
        cutoff = data.get("cutoff", "inf")
        cutoff_val = None if cutoff in (None, "inf") else parse_rational(cutoff)
        index = {name: i for i, name in enumerate(basis)}
        if len(index) < len(basis):
            name = next(name for i, name in enumerate(basis) if index[name] != i)
            raise ValueError(f"algebra key 'basis' names {name!r} twice")

        def lookup(name, key):
            if not isinstance(name, str) or name not in index:
                raise ValueError(f"algebra key {key!r} names {name!r}, which is not in the basis")
            return index[name]

        tensors: dict[int, dict[tuple, Vector]] = {}
        tensor_data = data.get("tensors", {})
        if not isinstance(tensor_data, dict):
            raise ValueError(f"algebra key 'tensors' must be a JSON dict, got {tensor_data!r}")
        for d, entries in tensor_data.items():
            if not (d.isascii() and d.isdigit()):  # [0-9]+, not every Unicode digit
                raise ValueError(f"algebra key 'tensors' has a non-integer arity {d!r}")
            if int(d) in tensors:  # "2" and "02" name one arity
                raise ValueError(f"algebra key 'tensors' gives arity {int(d)} twice")
            if not isinstance(entries, list):
                raise ValueError(f"algebra key 'tensors' maps arity {d} to {entries!r}, "
                                 "not a JSON list")
            store = {}
            for entry in entries:
                names = json_field(entry, "inputs", "tensor entry", list)
                if len(names) != int(d):
                    raise ValueError(f"tensor entry key 'inputs' has {len(names)} names "
                                     f"for arity {d}")
                key = tuple(lookup(name, "inputs") for name in names)
                if key in store:
                    raise ValueError(f"tensor entry key 'inputs' names {names!r} twice "
                                     f"for arity {d}")
                vec = {lookup(name, "outputs"): NovikovElement.from_json_dict(val)
                       for name, val in json_field(entry, "outputs", "tensor entry", dict).items()}
                store[key] = vec
            tensors[int(d)] = store
        unit = lookup(data["unit"], "unit") if data.get("unit") is not None else None
        n_grading = data.get("n_grading", 2)
        if type(n_grading) is not int or n_grading < 1:
            raise ValueError(f"algebra key 'n_grading' must be a positive integer, got {n_grading!r}")
        return cls(basis, degrees, tensors, unit=unit, n_grading=n_grading, cutoff=cutoff_val)


# ---------------------------------------------------------------------------
# the relation checker


class Violation(NamedTuple):
    arity: int
    inputs: tuple
    output: str
    value: NovikovElement

    def __repr__(self):
        ins = ",".join(str(x) for x in self.inputs)
        return f"Violation(d={self.arity}, ({ins}) -> {self.output}: {self.value})"


def _map_tensors(tensors, f) -> dict:
    """``tensors`` with every scalar ``v`` replaced by ``f(v)``."""
    return {d: {key: {o: f(v) for o, v in vec.items()} for key, vec in store.items()}
            for d, store in tensors.items()}


def coefficient_tensors(algebra: AInftyAlgebra) -> tuple | None:
    """The algebra's q-free structure constants as integer coordinates.

    When the algebra has ``q_weights``, each structure constant ``c q^x`` is
    replaced by its coefficient ``c`` at the lcm ``order`` of the orders of
    its irrational coefficients (order 1, the field ``Q``, when all are
    rational), and ``c`` by ``linalg.realify(c, order, den)``, the
    power-basis coordinates of ``den zeta^k c`` for ``k < phi``, with ``den``
    the lcm of the denominators of its constants.  Returns ``(order, phi,
    tables, den, weights)``, ``tables`` keyed as its ``tensors``; otherwise
    ``None``.  See the module docstring for why the relations survive the
    rescaling.
    """
    if (weights := algebra.q_weights()) is None:
        return None
    coefficients = [value.terms[0][1] for store in algebra.tensors.values()
                    for vec in store.values() for value in vec.values()]
    order = math.lcm(1, *(c.order for c in coefficients if not c.is_rational()))
    # the power basis of Z[zeta_m] is an integral basis, so a constant's
    # least denominator is the same at every order that holds it
    den = math.lcm(1, *(c.den for c in coefficients))
    tables = _map_tensors(algebra.tensors,
                          lambda value: linalg.realify(value.terms[0][1], order, den))
    return order, euler_phi(order), tables, den, weights


def _relation_sums(algebra: AInftyAlgebra, outer_tensors, inner_tensors, times, plus, minus):
    """The relation sums ``{inputs: {output: sum}}``, over every entry of
    ``inner_tensors`` nested in every slot of every entry of
    ``outer_tensors``, two forms of the algebra's tensors.  A term is
    ``times(outer scalar, inner scalar)``, the inner scalar replaced by
    ``minus`` of it where the relation sign is odd, and ``plus`` sums."""
    # the inner entries indexed by the basis element they produce
    producing: dict[int, list] = {}
    for inner in inner_tensors.values():
        for tin, vin in inner.items():
            for slot, value in vin.items():
                producing.setdefault(slot, []).append((tin, value, minus(value)))
    acc: dict[tuple, dict] = {}
    for outer in outer_tensors.values():
        for tout, vout in outer.items():
            for d1, slot in enumerate(tout):
                negate = sum(algebra.reduced(i) for i in tout[:d1]) % 2
                for tin, value, negated in producing.get(slot, ()):
                    scale = negated if negate else value
                    target = acc.setdefault(tout[:d1] + tin + tout[d1 + 1:], {})
                    for o, val in vout.items():
                        term = times(val, scale)
                        target[o] = plus(target[o], term) if o in target else term
    return acc


def relation_failures(algebra: AInftyAlgebra, rescaled) -> list:
    """The nonzero relation components of ``algebra`` as ``(inputs, output,
    value)``, sorted by arity, inputs and output: over the Novikov scalars
    when ``rescaled`` is None, else on the integer tables of ``rescaled``,
    ``coefficient_tensors(algebra)``, each value the monomial
    ``c q^{sum w(a) - w(o)}``."""
    if rescaled is None:
        sums = _relation_sums(algebra, algebra.tensors, algebra.tensors, mul, add, neg)
        bad = [(key, o, value) for key, vec in sums.items()
               for o, value in vec.items() if not value.is_zero()]
    else:
        order, phi, tables, den, weights = rescaled
        if phi == 1:
            # over Q, realify(c) is (den c,) and den^2 a b one product; the
            # loop sums plain ints about three times as fast as 1-tuples
            ints = _map_tensors(tables, itemgetter(0))
            sums = _relation_sums(algebra, ints, ints, mul, add, neg)
            nonzero = [(key, o, (x,)) for key, vec in sums.items() for o, x in vec.items() if x]
        else:
            # realify(a) is k-major, block k the coordinates of den zeta^k a: with
            # b0 the block 0 of realify(b), den^2 a b is sum_k b0[k] den zeta^k a,
            # so coordinate i is b0 dotted with the coordinates i of the blocks
            sums = _relation_sums(
                algebra, _map_tensors(tables, lambda c: tuple(c[i::phi] for i in range(phi))),
                _map_tensors(tables, lambda c: c[:phi]),
                lambda columns, b0: tuple([sum(map(mul, column, b0)) for column in columns]),
                lambda x, y: tuple(map(add, x, y)), lambda b0: tuple([-x for x in b0]))
            nonzero = [(key, o, coords) for key, vec in sums.items()
                       for o, coords in vec.items() if any(coords)]
        square = den * den
        bad = [(key, o, NovikovElement.monomial(
                    sum(weights[i] for i in key) - weights[o],
                    CyclotomicNumber(order, [Fraction(x, square) for x in coords])))
               for key, o, coords in nonzero]
    return sorted(bad, key=lambda v: (len(v[0]), v[0], v[1]))


def check_ainfty(algebra: AInftyAlgebra) -> list[Violation]:
    """All failures of the quadratic composition relations of the stored arities.

    Nesting an inner composition of arity ``k_in`` in a slot of an outer one
    of arity ``k_out`` contributes to the relation of arity
    ``k_in + k_out - 1``, so one pass over the pairs of stored arities covers
    every relation they reach.  On every basis tuple the signed sum must
    vanish; the sign exponent is the sum of reduced degrees of the inputs
    preceding the inner composition.  The pass is ``relation_failures``, on
    the integer tables of ``coefficient_tensors`` when the algebra has
    weights and over its Novikov scalars otherwise; this names its
    violations, in its order.
    """
    return [Violation(len(key), tuple(algebra.basis[i] for i in key), algebra.basis[o], value)
            for key, o, value in relation_failures(algebra, coefficient_tensors(algebra))]
