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

from dataclasses import dataclass, field
from fractions import Fraction

from .novikov import NovikovElement, format_rational, json_field, parse_rational


Vector = dict[int, NovikovElement]

# the largest arity whose composition relation ``check_ainfty`` checks
MAX_ARITY = 6


def _vec_add(acc: Vector, idx: int, value: NovikovElement):
    if idx in acc:
        acc[idx] = acc[idx] + value
    else:
        acc[idx] = value


def _vec_clean(vec: Vector) -> Vector:
    return {i: v for i, v in vec.items() if not v.is_zero()}


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

    def reduced(self, idx: int) -> int:
        return (self.degrees[idx] + 1) % 2

    def m_basis(self, inputs: tuple) -> Vector:
        entry = self.tensors.get(len(inputs), {}).get(tuple(inputs))
        return dict(entry) if entry else {}

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


def check_ainfty(algebra: AInftyAlgebra) -> list[Violation]:
    """All failures of the quadratic composition relations up to ``MAX_ARITY``.

    For every arity ``d`` the signed sum over ways of nesting one composition
    inside another must vanish on every basis tuple; the sign exponent is the
    sum of reduced degrees of the inputs preceding the inner composition.
    """
    violations = []
    for d in range(0, MAX_ARITY + 1):
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
# branes and the spectral decomposition


@dataclass
class Brane:
    """An object: an algebra with a local system and the value of its disk
    potential."""

    algebra: AInftyAlgebra
    local_system: tuple = ()
    potential_value: NovikovElement = field(default_factory=NovikovElement.zero)
    name: str = ""


def spectral_decompose(branes: list[Brane]) -> dict[int, list[Brane]]:
    """Group branes by exact potential value, keyed by group index.

    Morphisms between groups are zero by construction.  Scalars are
    unhashable, so groups are found by ``==`` on the values.
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
