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

Ranks are taken over the coefficient field when they can be.  When every
algebra has weights, its structure constants are rescaled to their q-free
coefficients in a cyclotomic field ``Q(zeta)`` (the module docstring of
``ainfty`` gives the argument).  The rescaling keeps word lengths, parities
and the unit, so it carries the (normalized) Hochschild complex
isomorphically onto that of the q-free constants, and rank does not change
under the field extension to the Novikov field (Loday, *Cyclic Homology*,
1.1): the ranks are exact, with no q-exponent, cutoff or truncation.  They
are taken on integers by ``linalg.integer_rank``.  Every row entry is a
signed sum of single structure constants, so the rows are built from the
integer tables of ``ainfty.coefficient_tensors``, the same tables the
relation check sums on: each constant converted once per algebra to the
coordinates of its ``zeta``-multiples over a common denominator
(``linalg.realify``; see the module docstring of ``linalg``).  A chain's
rows are sums and differences of those, with the signs of the same
contractions that ``hochschild_boundary_basis`` enumerates.  Any other
category is ranked over the truncated Novikov scalars.

Before any rank, each object with exact constants has its A-infinity
relations summed by ``ainfty.relation_failures``, on the same tables on the
integer path and over the Novikov scalars otherwise, and is refused if one
fails.  Then the boundary squares to zero on the normalized complex, so a
length-graded block of length ``L >= 2`` has its boundary in the kernel of
the boundary on the block of length ``L - 1`` and the other parity.  On the
integer path the blocks are ranked in length order with that kernel's
dimension as a bound, and ``integer_rank`` reads no row, which is built only
when read, past it: every later row would reduce to zero.  A Novikov rank
not flagged cutoff-limited is exact, so only a flagged report can show a
negative dimension.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from operator import add, sub

from . import ainfty, linalg
from .ainfty import AInftyAlgebra
from .novikov import DEFAULT_CUTOFF, NovikovElement


@dataclass(frozen=True)
class FlatCategory:
    """Objects, one per endomorphism algebra, with zero cross-object morphisms."""

    algebras: tuple

    def __post_init__(self):
        for alg in self.algebras:
            if alg.tensors.get(0):
                raise ValueError("Hochschild theory here needs flat algebras (m_0 = 0)")

    @classmethod
    def single(cls, algebra: AInftyAlgebra) -> "FlatCategory":
        return cls((algebra,))


# chains: {(obj_index, word): scalar}, word a tuple of generator indices and
# the scalar a NovikovElement; ranks over the coefficient field build no
# chains, but integer rows from the tables (``_integer_row``)
Chain = dict[tuple, NovikovElement]


def chain_parity(cat: FlatCategory, key) -> int:
    obj, word = key
    alg = cat.algebras[obj]
    return (sum(alg.degrees[i] for i in word) + len(word) - 1) % 2


def chain_basis(cat: FlatCategory, length: int) -> list:
    out = []
    for obj, alg in enumerate(cat.algebras):
        for word in itertools.product(range(alg.rank), repeat=length):
            out.append((obj, word))
    return out


def _contractions(tensors, reduced, word):
    """Each contraction of a word as ``(head, tail, sign, inner)``: the block
    composes to ``inner``'s outputs ``o``, giving ``head + (o,) + tail`` with
    sign ``(-1)^sign``; ``reduced(i)`` is generator ``i``'s reduced degree."""
    d = len(word)
    # prefix[k]: sum of the reduced degrees of slots 1..k, mod 2, so slots
    # i..k sum to prefix[k] ^ prefix[i - 1]
    prefix = [0]
    for i in word:
        prefix.append(prefix[-1] ^ reduced(i))

    # interior contractions (block avoids the final slot)
    for arity, tensor in tensors.items():
        for start in range(0, d - arity):
            if inner := tensor.get(word[start:start + arity]):
                yield word[:start], word[start + arity:], prefix[start], inner

    # wraparound contractions (block contains the final slot): an arity-k
    # block is the final slot, the t = k - 1 - p slots before it and the
    # first p slots, so only arities up to d have one
    for arity, tensor in tensors.items():
        for p in range(0, arity if arity <= d else 0):
            t = arity - 1 - p
            if inner := tensor.get(word[d - 1 - t:] + word[:p]):
                section = (prefix[p] & (1 ^ prefix[d] ^ prefix[p])) ^ prefix[d - 1] ^ prefix[p] ^ 1
                yield word[p:d - 1 - t], (), section, inner


def hochschild_boundary_basis(cat: FlatCategory, key) -> Chain:
    """Boundary of one basis chain."""
    obj, word = key
    alg = cat.algebras[obj]
    acc: Chain = {}
    for head, tail, sign, inner in _contractions(alg.tensors, alg.reduced, word):
        for o, val in inner.items():
            k = (obj, head + (o,) + tail)
            val = -val if sign else val
            acc[k] = acc[k] + val if k in acc else val
    return {k: v for k, v in acc.items() if not v.is_zero()}


def _integer_row(tables, cat: FlatCategory, key, column) -> dict:
    """A basis chain's boundary with ``realify``d entries, summed from the
    tables of ``ainfty.coefficient_tensors``; ``column`` maps a chain to its
    column, or to None."""
    (obj, word), acc = key, {}
    for head, tail, sign, inner in _contractions(tables[obj], cat.algebras[obj].reduced, word):
        for o, coords in inner.items():
            if (col := column((obj, head + (o,) + tail))) is not None:
                acc[col] = tuple(map(sub if sign else add, acc.get(col, itertools.repeat(0)), coords))
    return {c: v for c, v in acc.items() if any(v)}


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
    complex where it applies, where a degenerate chain has no column,
    exactly over the coefficient field when every algebra is q-homogeneous
    and at ``DEFAULT_CUTOFF``, recorded as ``rank_cutoff``, otherwise (see
    the module docstring).  Each boundary block, the chains of one length
    and parity (of one parity, over all lengths, when ungraded), is ranked
    once; over the coefficient field a graded block's rank is bounded by the
    kernel it lands in, and no row is built past that bound.  A category
    with a truncated constant (``least_cutoff``) is reported cutoff-limited.

    Input that is not an A-infinity category raises ``ValueError``: a stored
    composition that breaks the degree rule, then an object with exact
    constants that breaks the A-infinity relations, named at its first
    violation in ``ainfty verify``'s order.
    """
    if max_length < 2:
        raise ValueError(f"the truncation length must be at least 2, got {max_length}")
    for obj, alg in enumerate(cat.algebras):
        if bad := alg.degree_violations():
            raise ValueError(f"object {obj} breaks the degree rule at {bad[0]!r} (arity, "
                             "inputs, output); see qhsplit ainfty verify")
    rescaled = ainfty.coefficient_tensors(cat.algebras)
    if rescaled is not None:
        order, phi, per_algebra = rescaled
        tables = [tensors for tensors, _, _ in per_algebra]
    # truncated constants are cutoff-limited, their relations true mod q^cutoff
    for obj, alg in enumerate(cat.algebras):
        own = None if rescaled is None else (order, phi, per_algebra[obj:obj + 1])
        if alg.least_cutoff is None and (bad := ainfty.relation_failures(alg, own)):
            at = (len(bad[0][0]), *bad[0][:2])
            raise ValueError(f"object {obj} breaks the A-infinity relations at {at!r} "
                             "(arity, inputs, output); see qhsplit ainfty verify")
    graded = is_length_graded(cat)
    # the unit of each object whose chains are normalized, else None
    units = [alg.unit if graded and alg.unit is not None and not alg.unit_violations()
             else None for alg in cat.algebras]

    # the chains of each block, keyed (length, parity), or (None, parity)
    # when ungraded, since boundaries of different lengths then land in the
    # same chains; rows stay in length order, which decides Novikov pivots
    blocks = {(length if graded else None, parity): []
              for length in range(1, max_length + 1) for parity in (0, 1)}
    position: dict[tuple, int] = {}  # chain -> its column in every boundary matrix
    for length in range(1, max_length + 1):
        for key in chain_basis(cat, length):
            obj, word = key
            if units[obj] is None or units[obj] not in word[:-1]:
                blocks[length if graded else None, chain_parity(cat, key)].append(key)
                position[key] = len(position)

    cutoff_limited = any(alg.least_cutoff is not None for alg in cat.algebras)

    # with m_0 = 0 an arity-k contraction takes length d to d - k + 1 in
    # 1..d, so a target lacks a column only when it is degenerate
    def rank(chains: list, bound: int | None) -> int:
        """Rank of the boundary on these chains, given a bound on it or None."""
        nonlocal cutoff_limited
        if rescaled is not None:
            rows = (_integer_row(tables, cat, c, position.get) for c in chains)
            return linalg.integer_rank(rows, phi, bound)[0]
        rows = [{position[k]: v for k, v in hochschild_boundary_basis(cat, c).items()
                 if k in position} for c in chains]
        r, _, limited = linalg.row_reduce(rows, DEFAULT_CUTOFF)
        cutoff_limited = cutoff_limited or limited
        return r

    # a block's homology is its chains, less the rank of its boundary and
    # of the boundary that lands in it; with the relations checked, d^2 = 0,
    # so a graded block's boundary lies in the kernel of the boundary on
    # the block below, and its rank is at most that kernel's dimension
    ranks = {}
    for (length, parity), chains in blocks.items():
        bound = None
        if graded and rescaled is not None and length > 1:
            below = length - 1, 1 - parity
            bound = len(blocks[below]) - ranks[below]
        ranks[length, parity] = rank(chains, bound)
    per_length = {}
    if graded:
        for length in range(1, max_length):
            per_length[length] = {parity: len(blocks[length, parity]) - ranks[length, parity]
                                  - ranks[length + 1, 1 - parity] for parity in (0, 1)}
        dims = {parity: sum(h[parity] for h in per_length.values()) for parity in (0, 1)}
        # dropping the top length changes the sum iff that length has homology
        stable = per_length[max_length - 1] == {0: 0, 1: 0}
    else:
        # homology of the truncated subcomplex, spurious top classes and all
        dims = {parity: len(blocks[None, parity]) - ranks[None, parity] - ranks[None, 1 - parity]
                for parity in (0, 1)}
        stable = False
    return HomologyReport(dims=dims, stable=stable, per_length=per_length,
                          cutoff_limited=cutoff_limited, graded=graded,
                          rank_cutoff=DEFAULT_CUTOFF if rescaled is None else None)
