"""Closed-form open-closed data for the torus brane families.

The open-closed matrix of a brane family is a quantized discrete Fourier
transform: entry ``(b, a) = (q^w zeta^a)^b``, where ``q^w`` is the
coefficient of the family's disk potential and ``zeta`` a primitive root of
unity of the family's order, with rows indexed by the cycle basis ``Z_b``
and columns by the branes.  Specializing ``q -> 1`` recovers the classical
DFT.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from . import linalg, toric
from .novikov import CyclotomicNumber, NovikovElement

PROJECTIVE = "projective"
EXCEPTIONAL = "exceptional"

SURJECTIVE = "surjective"
CUTOFF_LIMITED = "cutoff-limited"
DEFICIENT = "deficient"

# the valuation at which `oc matrix` prints its determinant in two parts;
# the surjectivity verdict does not read it
SPLIT = Fraction(2)


class OCMatrix(NamedTuple):
    rows: tuple          # quantum basis labels
    cols: tuple          # brane labels
    entries: tuple       # tuple of row tuples of NovikovElement
    order: int           # cyclotomic order of the entries

    def entry(self, b: int, a: int) -> NovikovElement:
        return self.entries[b][a]

    def q_to_one(self) -> list[list[CyclotomicNumber]]:
        return [[entry.specialize_q_to_one() for entry in row] for row in self.entries]


def oc_matrix(n: int, kind: str, eps=None) -> OCMatrix:
    """The open-closed matrix in the cycle and brane bases.

    One row and column per critical point of the family's potential, whose
    ``order`` counts them: the projective family runs over ``Z_0 .. Z_n``,
    the exceptional one over ``Z_1 .. Z_{n-1}``.
    """
    if kind == PROJECTIVE:
        potential, first = toric.PotentialFunction.clifford_torus(n), 0
    elif kind == EXCEPTIONAL:
        potential, first = toric.PotentialFunction.exceptional(n, eps), 1
    else:
        raise ValueError(f"unknown kind {kind}")
    labels = range(first, first + potential.order)
    # every monomial of a family's potential carries q^w, up to sign
    weight = potential.monomials[0][1].val_q()
    entries = tuple(tuple(_oc_entry(weight, potential.order, b, a) for a in labels)
                    for b in labels)
    return OCMatrix(tuple(f"Z{b}" for b in labels), tuple(f"pt{a}" for a in labels),
                    entries, potential.order)


def _oc_entry(weight: Fraction, order: int, b: int, a: int) -> NovikovElement:
    """Entry ``(b, a) = (q^weight zeta^a)^b``, ``zeta`` of order ``order``."""
    return NovikovElement.monomial(weight * b, CyclotomicNumber.root_of_unity(order, a * b))


def frobenius_orthogonality(matrix: OCMatrix) -> list[list[NovikovElement]]:
    """Gram matrix of the open-closed columns under the intersection pairing,
    which pairs ``Z_b`` with ``Z_c`` when ``b + c`` is the top index."""
    top = len(matrix.rows) - 1
    cols = [{b: row[a] for b, row in enumerate(matrix.entries)}
            for a in range(len(matrix.cols))]
    one = NovikovElement.one()
    return linalg.gram_matrix(cols, cols, lambda b, c: one if b + c == top else None)


def surjectivity(invertible: bool, lines) -> str:
    """The surjectivity of a square block over the Novikov field.

    A square block is surjective exactly when it is ``invertible``; the
    caller decides that from exact data, a nonzero determinant or a full
    rank.  Otherwise ``lines``, the block's rows or columns of entries, say
    whether a truncated entry could hide the missing rank.
    """
    if invertible:
        return SURJECTIVE
    if any(entry.truncated for line in lines for entry in line):
        return CUTOFF_LIMITED
    return DEFICIENT


def bulk_shift_perturbation(n: int, eps) -> Fraction:
    """Minimal correction valuation of the projective open-closed matrix
    under a point bulk shift of weight ``-eps``.

    Corrections come from disks of ``toric.ToricModel.simplex(n)`` forced
    through the shifted point and the cycle of their row.  The point sits at
    the toric fixed point of the first ``n`` facets and ``Z_b`` meets the
    last ``b``; each constraint raises the least degree of its facets by
    one, and the levels are positive, so the least constrained class has
    degree on each facet the number of constraints containing it.
    """
    if n < 2:
        raise ValueError("the bulk shift needs ambient dimension greater than 1")
    eps = Fraction(eps)
    if eps >= 1:
        raise ValueError("shift too large")
    if eps <= 0:
        raise ValueError("eps must be positive")
    model = toric.ToricModel.simplex(n)
    least = min(model.area([(i < n) + (i > n - b) for i in range(n + 1)])
                for b in range(1, n + 1))
    return least - eps
