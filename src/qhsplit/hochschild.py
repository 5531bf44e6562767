"""Hochschild chains of flat categories, with exact homology.

The categories handled here are block-diagonal: a finite list of objects,
each carrying its own flat algebra, with zero morphisms between distinct
objects.  Chains are cyclic words of endomorphism generators of a single
object; the boundary sums two families of contractions:

* interior contractions, where a composition eats a consecutive block that
  avoids the final slot, with sign the sum of reduced degrees in front;
* wraparound contractions, where the block contains the final slot (possibly
  wrapping past it), the composed value landing in the final slot, with sign
  exponent ``M(1,p) * (1 + M(p+1,d)) + M(p+1,d-1) + 1`` where ``M(i,k)`` sums
  reduced degrees of slots ``i..k`` and ``p`` counts wrapped-in front slots.

Homology is computed on the normalized complex (Loday, *Cyclic Homology*,
1.1.14-15): chains with the unit in a slot other than the final one, where
wraparound contractions land, span an acyclic subcomplex, so they are
dropped from the basis and from every boundary.  That holds when the
boundary is length-graded and the object's declared unit satisfies the
strict-unit axioms (``AInftyAlgebra.unit_violations`` is empty); otherwise
no chain is dropped.

Ranks are taken over the coefficient field when they can be.  An algebra
with weights ``w`` (``AInftyAlgebra.q_weights``) has every structure
constant of the form ``c q^{w(a_1) + ... + w(a_k) - w(o)}`` with ``c`` in a
cyclotomic field ``Q(zeta)``, so ``e'_a = q^{-w(a)} e_a`` is an isomorphism
over the Novikov field onto the algebra with structure constants ``c``
(``ainfty.coefficient_algebras``, shared with the relation check).  It
keeps word lengths, parities and the unit (``w(unit) = 0``), so it carries
the (normalized) Hochschild complex isomorphically onto the complex of that
algebra, which is defined over ``Q(zeta)``.  Rank does not change under the
field extension from ``Q(zeta)`` to the Novikov field, so when every object
has weights the ranks are computed exactly over ``Q(zeta)``: no q-exponent,
no cutoff and no truncation (Loday, *Cyclic Homology*, 1.1).  ``linalg``
takes those ranks on integers: the power-basis coordinates of ``zeta^k r``,
``k < phi = euler_phi(order)``, span over Q what the boundary rows ``r`` span
over ``Q(zeta)``, so the rank over ``Q(zeta)`` is their rank over Q over
``phi``.  Any other category is ranked over the truncated Novikov scalars.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

from . import ainfty, linalg
from .ainfty import AInftyAlgebra
from .novikov import DEFAULT_CUTOFF, NovikovElement


@dataclass(frozen=True)
class FlatCategory:
    """Objects with endomorphism algebras and zero cross-object morphisms."""

    objects: tuple
    algebras: tuple

    def __post_init__(self):
        if len(self.objects) != len(self.algebras):
            raise ValueError("need one algebra per object")
        for alg in self.algebras:
            if alg.tensors.get(0):
                raise ValueError("Hochschild theory here needs flat algebras (m_0 = 0)")

    @classmethod
    def single(cls, algebra: AInftyAlgebra, name="obj") -> "FlatCategory":
        return cls((name,), (algebra,))

    def algebra(self, obj_index: int) -> AInftyAlgebra:
        return self.algebras[obj_index]


# chains: {(obj_index, word): scalar}, word a tuple of generator indices; the
# scalars are NovikovElements, or CyclotomicNumbers over the coefficient field
Chain = dict[tuple, NovikovElement]


def chain_parity(cat: FlatCategory, key) -> int:
    obj, word = key
    alg = cat.algebra(obj)
    return (sum(alg.degrees[i] for i in word) + len(word) - 1) % 2


def chain_basis(cat: FlatCategory, length: int) -> list:
    out = []
    for obj, alg in enumerate(cat.algebras):
        for word in itertools.product(range(alg.rank), repeat=length):
            out.append((obj, word))
    return out


def hochschild_boundary_basis(cat: FlatCategory, key) -> Chain:
    """Boundary of one basis chain."""
    obj, word = key
    alg = cat.algebra(obj)
    d = len(word)
    # prefix[k]: sum of the reduced degrees of slots 1..k, mod 2, so slots
    # i..k sum to prefix[k] ^ prefix[i - 1]
    prefix = [0]
    for i in word:
        prefix.append(prefix[-1] ^ alg.reduced(i))
    acc: Chain = {}

    def add(new_word, scalar):
        k = (obj, new_word)
        acc[k] = acc[k] + scalar if k in acc else scalar

    # interior contractions (block avoids the final slot)
    for arity, tensor in alg.tensors.items():
        if arity > d:
            continue
        for start in range(0, d - arity):
            inner = tensor.get(word[start:start + arity])
            if not inner:
                continue
            sign = prefix[start]
            for o, val in inner.items():
                add(word[:start] + (o,) + word[start + arity:], -val if sign else val)

    # wraparound contractions (block contains the final slot)
    for p in range(0, d):
        for t in range(0, d - p):
            tensor = alg.tensors.get(t + 1 + p)
            if not tensor:
                continue
            inner = tensor.get(word[d - 1 - t:] + word[:p])
            if not inner:
                continue
            kept = word[p:d - 1 - t]
            section = (prefix[p] & (1 ^ prefix[d] ^ prefix[p])) ^ prefix[d - 1] ^ prefix[p] ^ 1
            for o, val in inner.items():
                add(kept + (o,), -val if section else val)

    return {k: v for k, v in acc.items() if not v.is_zero()}


def is_length_graded(cat: FlatCategory) -> bool:
    """True when the boundary strictly lowers word length (only m_2 active)."""
    for alg in cat.algebras:
        for d in alg.tensors:
            if d != 2:
                return False
    return True


@dataclass
class HomologyReport:
    dims: dict
    stable: bool
    per_length: dict = field(default_factory=dict)
    cutoff_limited: bool = False
    graded: bool = True
    max_length: int = 0
    rank_cutoff: Fraction | None = None  # of the Novikov ranks; None over the field

    def total(self) -> int:
        return sum(self.dims.values())


def hochschild_homology_dims(cat: FlatCategory, max_length: int = 6) -> HomologyReport:
    """Homology dimensions by parity, with a two-length stabilization flag.

    For a length-graded boundary (compositions of arity two only) the
    homology in word length ``l`` is exact once the boundary from length
    ``l + 1`` is known, so the report covers lengths up to ``max_length - 1``
    and is flagged stable when dropping the top computed length changes
    nothing.  Otherwise the truncated subcomplex is used and the result is
    flagged as an unstable truncation.  Ranks are taken on the normalized
    complex where it applies, exactly over the coefficient field when every
    algebra is q-homogeneous and at ``DEFAULT_CUTOFF``, recorded as
    ``rank_cutoff``, otherwise (see the module docstring).
    """
    if max_length < 2:
        raise ValueError(f"the truncation length must be at least 2, got {max_length}")
    graded = is_length_graded(cat)
    # the unit of each object whose chains are normalized, else None
    units = [alg.unit if graded and alg.unit is not None and not alg.unit_violations()
             else None for alg in cat.algebras]

    def degenerate(key) -> bool:
        obj, word = key
        return units[obj] is not None and units[obj] in word[:-1]

    # the boundary rows, over the coefficient field where that is exact
    rescaled = ainfty.coefficient_algebras(cat.algebras)
    rows_cat = (FlatCategory(cat.objects, tuple(alg for alg, _ in rescaled))
                if rescaled else cat)

    # per (length, parity): basis and boundary matrix ranks
    by_parity: dict[tuple, list] = {}
    position: dict[tuple, int] = {}  # chain -> its column in every boundary matrix
    for length in range(1, max_length + 1):
        for key in chain_basis(cat, length):
            if not degenerate(key):
                by_parity.setdefault((length, chain_parity(cat, key)), []).append(key)
                position[key] = len(position)

    cutoff_limited = False
    ranks: dict[tuple, int] = {}

    def boundary_rank(lengths: tuple, parity: int) -> int:
        """Rank of the boundary on the chains of these lengths and parity."""
        nonlocal cutoff_limited
        key = (lengths, parity)
        if key in ranks:
            return ranks[key]
        rows = []
        for length in lengths:
            for basis_key in by_parity.get((length, parity), []):
                image = hochschild_boundary_basis(rows_cat, basis_key)
                rows.append({_column(k): v for k, v in image.items() if not degenerate(k)})
        rk, _, limited = linalg.row_reduce(rows, DEFAULT_CUTOFF)
        cutoff_limited = cutoff_limited or limited
        ranks[key] = rk
        return rk

    def _column(key) -> int:
        if key not in position:
            raise KeyError("boundary left the truncation window")
        return position[key]

    def count(length: int, parity: int) -> int:
        return len(by_parity.get((length, parity), []))

    per_length = {}
    if graded:
        for length in range(1, max_length):
            per_length[length] = {
                parity: (count(length, parity) - boundary_rank((length,), parity)
                         - boundary_rank((length + 1,), (parity + 1) % 2))
                for parity in (0, 1)
            }
        dims = {parity: sum(h[parity] for h in per_length.values()) for parity in (0, 1)}
        # dropping the top length changes the sum iff that length has homology
        stable = per_length[max_length - 1] == {0: 0, 1: 0}
    else:
        # homology of the truncated subcomplex, spurious top classes and all;
        # boundaries of different lengths land in the same chains, so each
        # parity's boundary is ranked over all lengths at once
        lengths = tuple(range(1, max_length + 1))
        dims = {parity: (sum(count(length, parity) for length in lengths)
                         - boundary_rank(lengths, parity)
                         - boundary_rank(lengths, (parity + 1) % 2))
                for parity in (0, 1)}
        stable = False
    return HomologyReport(dims=dims, stable=stable, per_length=per_length,
                          cutoff_limited=cutoff_limited, graded=graded,
                          max_length=max_length,
                          rank_cutoff=None if rescaled else DEFAULT_CUTOFF)
