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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .novikov import (CyclotomicNumber, NovikovElement, format_rational, json_field,
                      parse_rational)


MAX_DENSE_RANK = 64

Vector = dict[int, NovikovElement]


class NonConvergentDeformation(ArithmeticError):
    """The insertion series of a deformation cannot be certified to converge."""


def _vec_add(acc: Vector, idx: int, value: NovikovElement):
    if idx in acc:
        acc[idx] = acc[idx] + value
    else:
        acc[idx] = value


def _vec_clean(vec: Vector) -> Vector:
    return {i: v for i, v in vec.items() if not v.is_zero()}


def _vec_scale(vec: Vector, scalar) -> Vector:
    return {i: v * scalar for i, v in vec.items()}


class AInftyAlgebra:
    """Graded module with sparse composition tensors ``m_d``, ``0 <= d <= d_max``."""

    def __init__(self, basis, degrees, tensors, unit=None, n_grading=2,
                 cutoff: Fraction | None = None, d_max: int = 6):
        self.basis = tuple(basis)
        self.degrees = tuple(int(d) % n_grading for d in degrees)
        if len(self.basis) != len(self.degrees):
            raise ValueError("basis and degree lists must have equal length")
        if n_grading % 2 != 0:
            raise ValueError("the grading group order N must be even")
        self.n_grading = int(n_grading)
        self.unit = unit
        self.cutoff = Fraction(cutoff) if cutoff is not None else None
        self.d_max = int(d_max)
        self.tensors: dict[int, dict[tuple, Vector]] = {}
        for d, entries in tensors.items():
            store: dict[tuple, Vector] = {}
            for key, vec in entries.items():
                vec = _vec_clean(dict(vec))
                if vec:
                    store[tuple(key)] = vec
            if store:
                self.tensors[int(d)] = store

    # -- access ---------------------------------------------------------------
    @property
    def rank(self) -> int:
        return len(self.basis)

    def index_of(self, name) -> int:
        return self.basis.index(name)

    def degree(self, idx: int) -> int:
        return self.degrees[idx]

    def reduced(self, idx: int) -> int:
        return (self.degrees[idx] + 1) % 2

    def m_basis(self, inputs: tuple) -> Vector:
        entry = self.tensors.get(len(inputs), {}).get(tuple(inputs))
        return dict(entry) if entry else {}

    def unit_vector(self) -> Vector:
        if self.unit is None:
            raise ValueError("no strict unit declared")
        return {self.unit: NovikovElement.one(self.cutoff)}

    def curvature_valuation_positive(self) -> bool:
        """True when the curvature vanishes or has positive valuation."""
        vals = [v.val_q() for v in self.curvature().values() if not v.is_zero()]
        vals = [v for v in vals if v is not None]
        return not vals or min(vals) > 0

    def m(self, elements: list[Vector]) -> Vector:
        """Apply the composition of the given arity multilinearly."""
        d = len(elements)
        tensor = self.tensors.get(d)
        if not tensor:
            return {}
        acc: Vector = {}
        for key, out in tensor.items():
            coeff = NovikovElement.one(self.cutoff)
            ok = True
            for idx, element in zip(key, elements):
                c = element.get(idx)
                if c is None or c.is_zero():
                    ok = False
                    break
                coeff = coeff * c
            if not ok:
                continue
            for o, val in out.items():
                _vec_add(acc, o, val * coeff)
        return _vec_clean(acc)

    def curvature(self) -> Vector:
        return self.m_basis(())

    def element_from_names(self, combo: dict) -> Vector:
        return {self.index_of(name): _as_scalar(v, self.cutoff) for name, v in combo.items()}

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
        e = self.unit
        for i in range(self.rank):
            left = dict(self.m_basis((e, i)))
            _vec_add(left, i, -NovikovElement.one())
            if _vec_clean(left):
                bad.append((2, (e, i), "left unit"))
            right = dict(self.m_basis((i, e)))
            _vec_add(right, i, NovikovElement.from_rational(-((-1) ** self.degrees[i])))
            if _vec_clean(right):
                bad.append((2, (i, e), "right unit"))
        for d, entries in self.tensors.items():
            if d == 2:
                continue
            for key, vec in entries.items():
                if e in key and _vec_clean(dict(vec)):
                    bad.append((d, key, "unit insertion"))
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
            store = {}
            for entry in entries:
                key = tuple(lookup(name, "inputs")
                            for name in json_field(entry, "inputs", "tensor entry", list))
                vec = {lookup(name, "outputs"): NovikovElement.from_json_dict(val)
                       for name, val in json_field(entry, "outputs", "tensor entry", dict).items()}
                store[key] = vec
            if not d.isdigit():
                raise ValueError(f"algebra key 'tensors' has a non-integer arity {d!r}")
            tensors[int(d)] = store
        unit = lookup(data["unit"], "unit") if data.get("unit") is not None else None
        n_grading = data.get("n_grading", 2)
        if type(n_grading) is not int or n_grading < 1:
            raise ValueError(f"algebra key 'n_grading' must be a positive integer, got {n_grading!r}")
        return cls(basis, degrees, tensors, unit=unit, n_grading=n_grading, cutoff=cutoff_val)


def _as_scalar(value, cutoff) -> NovikovElement:
    if isinstance(value, NovikovElement):
        return value
    if isinstance(value, CyclotomicNumber):
        return NovikovElement.from_cyclotomic(value, cutoff)
    return NovikovElement.from_rational(value, cutoff)


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


def check_ainfty(algebra: AInftyAlgebra, max_arity: int | None = None) -> list[Violation]:
    """All failures of the quadratic composition relations up to ``max_arity``.

    For every arity ``d`` the signed sum over ways of nesting one composition
    inside another must vanish on every basis tuple; the sign exponent is the
    sum of reduced degrees of the inputs preceding the inner composition.
    """
    top = max_arity if max_arity is not None else algebra.d_max
    violations = []
    for d in range(0, top + 1):
        defect = _relation_defect(algebra, d)
        for key in sorted(defect):
            for o in sorted(defect[key]):
                value = defect[key][o]
                if not value.is_zero():
                    violations.append(Violation(
                        d,
                        tuple(algebra.basis[i] for i in key),
                        algebra.basis[o],
                        value,
                    ))
    return violations


def _relation_defect(algebra: AInftyAlgebra, d: int) -> dict[tuple, Vector]:
    acc: dict[tuple, Vector] = {}
    for d2 in range(0, d + 1):
        inner = algebra.tensors.get(d2)
        outer = algebra.tensors.get(d - d2 + 1)
        if inner is None or outer is None:
            continue
        for d1 in range(0, d - d2 + 1):
            for tin, vin in inner.items():
                for tout, vout in outer.items():
                    slot = tout[d1]
                    if slot not in vin:
                        continue
                    combined = tout[:d1] + tin + tout[d1 + 1:]
                    maltese = sum(algebra.reduced(i) for i in combined[:d1]) % 2
                    scale = vin[slot] * (-1 if maltese else 1)
                    target = acc.setdefault(combined, {})
                    for o, val in vout.items():
                        _vec_add(target, o, val * scale)
    return {key: _vec_clean(vec) for key, vec in acc.items()}


# ---------------------------------------------------------------------------
# branes, deformation, potentials


@dataclass
class Brane:
    """An object: an algebra with a local system, a bounding cochain, and the
    value of its disk potential."""

    algebra: AInftyAlgebra
    local_system: tuple = ()
    mc_cochain: Vector = field(default_factory=dict)
    potential_value: NovikovElement = field(default_factory=NovikovElement.zero)
    name: str = ""

    def mc_residual(self) -> Vector:
        w, residual = potential(self.algebra, self.mc_cochain)
        res = dict(residual)
        diff = w - self.potential_value
        if not diff.is_zero():
            _vec_add(res, self.algebra.unit, diff)
        return _vec_clean(res)


def maurer_cartan(algebra: AInftyAlgebra, b: Vector) -> Vector:
    """The full sum ``m_0(1) + m_1(b) + m_2(b, b) + ...`` (finitely many terms)."""
    _convergence_guard(algebra, b)
    acc: Vector = {}
    for d in sorted(algebra.tensors):
        part = algebra.m([b] * d)
        for o, val in part.items():
            _vec_add(acc, o, val)
    return _vec_clean(acc)


def potential(algebra: AInftyAlgebra, b: Vector) -> tuple[NovikovElement, Vector]:
    """Split the Maurer-Cartan sum into its unit multiple and the residual."""
    if algebra.unit is None:
        raise ValueError("potential needs a declared strict unit")
    total = maurer_cartan(algebra, b)
    w = total.pop(algebra.unit, NovikovElement.zero(algebra.cutoff))
    return w, _vec_clean(total)


def _element_valuation(b: Vector):
    vals = [v.val_q() for v in b.values() if not v.is_zero()]
    vals = [v for v in vals if v is not None]
    return min(vals) if vals else None


def _convergence_guard(algebra: AInftyAlgebra, b: Vector):
    val = _element_valuation(b)
    if val is None or val > 0:
        return
    # Non-positive valuation: the insertion series only terminates because the
    # stored tensors do.  If the top stored arity is active the tail is
    # unknown and the sum cannot be certified.
    if algebra.tensors.get(algebra.d_max):
        raise NonConvergentDeformation(
            "non-convergent deformation: cochain valuation "
            f"{format_rational(val)} <= 0 with compositions active at arity "
            f"{algebra.d_max}")


def deform(algebra: AInftyAlgebra, branes: list[Brane]) -> AInftyAlgebra:
    """Insertion-deformed algebra for a cyclic run of branes on one object.

    All branes must live on the given algebra.  For a single brane ``b`` the
    result has ``m_d^b(c_1, ..., c_d) = sum m_{d+k_0+...+k_d}(b^{k_0}, c_1,
    b^{k_1}, ..., c_d, b^{k_d})`` and the new curvature is the Maurer-Cartan
    sum minus the shared potential value times the unit.
    """
    if not branes:
        raise ValueError("need at least one brane")
    for brane in branes:
        if brane.algebra is not algebra:
            raise ValueError("branes must live on the deformed algebra")
        _convergence_guard(algebra, brane.mc_cochain)
    b = branes[0].mc_cochain
    w = branes[0].potential_value
    if any(brane.potential_value != w for brane in branes):
        raise ValueError("branes in one deformation must share the potential value")

    # Each source entry m_s(T) contributes to the deformed m_d for every
    # order-preserving choice of d slots of T read as arguments, the other
    # slots being filled by coefficients of b.
    new_tensors: dict[int, dict[tuple, Vector]] = {}
    for s, entries in algebra.tensors.items():
        for key, out in entries.items():
            b_support = [pos for pos in range(s) if key[pos] in b and not b[key[pos]].is_zero()]
            forced = [pos for pos in range(s) if pos not in b_support]
            for fill in _subsets(b_support):
                arg_slots = sorted(forced + [p for p in b_support if p not in fill])
                scalar = None
                for pos in fill:
                    c = b[key[pos]]
                    scalar = c if scalar is None else scalar * c
                target_key = tuple(key[pos] for pos in arg_slots)
                store = new_tensors.setdefault(len(target_key), {})
                acc = store.setdefault(target_key, {})
                for o, val in out.items():
                    _vec_add(acc, o, val if scalar is None else val * scalar)
    for d in list(new_tensors):
        cleaned = {key: _vec_clean(vec) for key, vec in new_tensors[d].items()}
        cleaned = {key: vec for key, vec in cleaned.items() if vec}
        if cleaned:
            new_tensors[d] = cleaned
        else:
            del new_tensors[d]

    # curvature relative to the shared potential value
    m0 = maurer_cartan(algebra, b)
    if algebra.unit is not None:
        _vec_add(m0, algebra.unit, -w)
    m0 = _vec_clean(m0)
    if m0:
        new_tensors[0] = {(): m0}
    else:
        new_tensors.pop(0, None)
    return AInftyAlgebra(algebra.basis, algebra.degrees, new_tensors,
                         unit=algebra.unit, n_grading=algebra.n_grading,
                         cutoff=algebra.cutoff, d_max=algebra.d_max)


def _subsets(items: list):
    for mask in range(1 << len(items)):
        yield [items[i] for i in range(len(items)) if mask >> i & 1]


# ---------------------------------------------------------------------------
# spectral decomposition


def spectral_decompose(branes: list[Brane]) -> dict[int, list[Brane]]:
    """Group branes by exact potential value, keyed by group index.

    Morphisms between groups are zero by construction; within each group the
    deformed algebra has curvature zero relative to the shared value.  Scalars
    are unhashable, so groups are found by ``==`` on the values.
    """
    groups: dict[int, list[Brane]] = {}
    for brane in branes:
        for members in groups.values():
            if members[0].potential_value == brane.potential_value:
                members.append(brane)
                break
        else:
            groups[len(groups)] = [brane]
    return groups


# ---------------------------------------------------------------------------
# the bar-collapse map and small sign helpers


def collapse_mu(algebra: AInftyAlgebra, factors: list[Vector]) -> Vector:
    """Compose all factors of a two-sided bar element into one morphism.

    ``factors`` is ``[x_-, x_1, ..., x_k, x_+]``; the result is
    ``(-1)^{|x_-| + sum ||x_j||} m_{k+2}(x_-, x_1, ..., x_k, x_+)``.
    Inputs must be homogeneous for the sign to make sense.
    """
    if len(factors) < 2:
        raise ValueError("a bar element has at least two factors")
    degs = [_homogeneous_degree(algebra, f) for f in factors]
    koszul = degs[0] + sum((dj + 1) for dj in degs[1:-1])
    value = algebra.m(factors)
    if koszul % 2:
        value = {o: -v for o, v in value.items()}
    return value


def bar_boundary(algebra: AInftyAlgebra, factors: list[Vector]) -> list[list[Vector]]:
    """Contractions of a two-sided bar element, with collapse-compatible signs.

    The sign is the sum of reduced degrees in front of the contracted block;
    a block absorbing the final module slot picks up the extra Koszul term
    that matches the sign carried by the collapse map, so composing after
    this boundary telescopes into the quadratic composition relations.
    """
    out = []
    k = len(factors)
    for d2 in sorted(algebra.tensors):
        if d2 == 0 or d2 > k:
            continue
        for start in range(0, k - d2 + 1):
            block = factors[start:start + d2]
            inner = algebra.m(block)
            if not inner:
                continue
            sign = sum((_homogeneous_degree(algebra, f) + 1)
                       for f in factors[:start])
            if start + d2 == k:  # block contains the final module slot
                sign += sum((_homogeneous_degree(algebra, f) + 1) for f in block)
                sign += (_homogeneous_degree(algebra, factors[-1]) + 1) + 1
            if sign % 2:
                inner = {o: -v for o, v in inner.items()}
            out.append(factors[:start] + [inner] + factors[start + d2:])
    return out


def _homogeneous_degree(algebra: AInftyAlgebra, element: Vector) -> int:
    degs = {algebra.degrees[i] for i, v in element.items() if not v.is_zero()}
    if len(degs) > 1:
        raise ValueError("element is not homogeneous")
    return degs.pop() if degs else 0


def sign_heart(degrees: list[int]) -> int:
    """Overall sign ``(-1)^{sum_i i |x_i|}`` on an input run (1-indexed)."""
    return -1 if sum(i * d for i, d in enumerate(degrees, start=1)) % 2 else 1


# ---------------------------------------------------------------------------
# weighted disk contributions


@dataclass(frozen=True)
class DiskContribution:
    """All multiplicative data attached to one rigid configuration."""

    bulk_coefficient: NovikovElement
    branch_weight: Fraction
    holonomy: CyclotomicNumber
    area: Fraction
    orientation: int
    interior_counts: tuple = ()  # ((label, count), ...)

    def __post_init__(self):
        if self.orientation not in (1, -1):
            raise ValueError("orientation must be +1 or -1")


def weight(u: DiskContribution) -> NovikovElement:
    """The scalar ``c * p * y * q^A * o / prod(count!)`` of one configuration."""
    denom = 1
    for _, count in u.interior_counts:
        denom *= math.factorial(count)
    scalar = (u.bulk_coefficient
              * NovikovElement.monomial(u.area, u.holonomy)
              * NovikovElement.from_rational(Fraction(u.branch_weight) * u.orientation,
                                             ))
    return scalar * NovikovElement.from_rational(Fraction(1, denom))
