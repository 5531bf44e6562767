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
exactly over the coefficient field, with no cutoff.  A violating component
is reported as the monomial with q-exponent ``sum w(a) - w(o)`` and
coefficient in the field of the lcm of the orders of the algebra's
irrational coefficients.  For an algebra whose irrational coefficients span
two or more orders, that field can be larger than the one the Novikov
arithmetic would print the coefficient in; the value is the same under
``==``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .novikov import NovikovElement, format_rational, json_field, parse_rational


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
        self.tensors: dict[int, dict[tuple, Vector]] = {}
        for d, entries in tensors.items():
            store: dict[tuple, Vector] = {}
            for key, vec in entries.items():
                vec = {i: v for i, v in dict(vec).items() if not v.is_zero()}
                if vec:
                    store[tuple(key)] = vec
            if store:
                self.tensors[int(d)] = store

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
        more terms, when an entry or the algebra has a finite cutoff (``c q^x``
        is then known only modulo ``q^C``), or when no weights fit.  Weights
        left free by the entries are 0.
        """
        if self.cutoff is not None:
            return None
        entries = []
        for store in self.tensors.values():
            for key, vec in store.items():
                for o, value in vec.items():
                    if value.cutoff is not None or len(value.terms) != 1:
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
        for key, o, exponent in entries:
            if sum(weights[i] for i in key) - weights[o] != exponent:
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

        def lookup(name, key):
            if not isinstance(name, str) or name not in index:
                raise ValueError(f"algebra key {key!r} names {name!r}, which is not in the basis")
            return index[name]

        tensors: dict[int, dict[tuple, Vector]] = {}
        tensor_data = data.get("tensors", {})
        if not isinstance(tensor_data, dict):
            raise ValueError(f"algebra key 'tensors' must be a JSON dict, got {tensor_data!r}")
        for d, entries in tensor_data.items():
            if not d.isdigit():
                raise ValueError(f"algebra key 'tensors' has a non-integer arity {d!r}")
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


@dataclass(frozen=True)
class Violation:
    arity: int
    inputs: tuple
    output: str
    value: NovikovElement

    def __repr__(self):
        ins = ",".join(str(x) for x in self.inputs)
        return f"Violation(d={self.arity}, ({ins}) -> {self.output}: {self.value})"


def coefficient_tensors(algebras) -> list[tuple[dict, tuple[Fraction, ...]]] | None:
    """Each algebra's tensors rescaled out of the Novikov layer, with its weights.

    When every algebra has ``q_weights``, each structure constant ``c q^x``
    is replaced by its coefficient ``c``, stored at the lcm of the orders of
    the irrational coefficients of all the algebras (order 1, the field
    ``Q``, when all are rational); otherwise ``None``.  The tensors keep the
    algebra's basis, degrees and unit.  See the module docstring for why the
    relations survive the rescaling.
    """
    weights = []
    for alg in algebras:
        w = alg.q_weights()
        if w is None:
            return None
        weights.append(w)
    order = math.lcm(1, *(value.terms[0][1].order for alg in algebras
                          for store in alg.tensors.values()
                          for vec in store.values() for value in vec.values()
                          if not value.terms[0][1].is_rational()))
    return [({d: {key: {o: value.terms[0][1].to_order(order) for o, value in vec.items()}
                  for key, vec in store.items()}
              for d, store in alg.tensors.items()}, w)
            for alg, w in zip(algebras, weights)]


def check_ainfty(algebra: AInftyAlgebra) -> list[Violation]:
    """All failures of the quadratic composition relations of the stored arities.

    Nesting an inner composition of arity ``k_in`` in a slot of an outer one
    of arity ``k_out`` contributes to the relation of arity
    ``k_in + k_out - 1``, so one pass over the pairs of stored arities covers
    every relation they reach.  On every basis tuple the signed sum must
    vanish; the sign exponent is the sum of reduced degrees of the inputs
    preceding the inner composition.  Violations are sorted by arity, inputs
    and output.

    The pass runs over the q-free constants of ``coefficient_tensors`` when
    the algebra has weights, and over its Novikov scalars otherwise.  On the
    field path a violating component ``(a_1..a_d) -> o`` with coefficient
    ``c`` is reported as ``c q^{sum w(a) - w(o)}``, ``c`` in the field of the
    lcm order (module docstring).
    """
    rescaled = coefficient_tensors([algebra])
    tensors, weights = rescaled[0] if rescaled else (algebra.tensors, None)
    # the inner entries indexed by the basis element they produce
    producing: dict[int, list] = {}
    for inner in tensors.values():
        for tin, vin in inner.items():
            for slot, value in vin.items():
                producing.setdefault(slot, []).append((tin, value))
    acc: dict[tuple, dict] = {}
    for outer in tensors.values():
        for tout, vout in outer.items():
            for d1, slot in enumerate(tout):
                negate = sum(algebra.reduced(i) for i in tout[:d1]) % 2
                for tin, value in producing.get(slot, ()):
                    scale = -value if negate else value
                    target = acc.setdefault(tout[:d1] + tin + tout[d1 + 1:], {})
                    for o, val in vout.items():
                        term = val * scale
                        target[o] = target[o] + term if o in target else term
    bad = sorted(((len(key), key, o, value) for key, vec in acc.items()
                  for o, value in vec.items() if not value.is_zero()),
                 key=lambda v: v[:3])
    if weights is not None:
        bad = [(d, key, o, NovikovElement.monomial(sum(weights[i] for i in key) - weights[o],
                                                   value))
               for d, key, o, value in bad]
    return [Violation(d, tuple(algebra.basis[i] for i in key), algebra.basis[o], value)
            for d, key, o, value in bad]
