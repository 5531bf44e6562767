"""Closed-form open-closed and closed-open data for the torus brane families.

The open-closed matrix of a brane family is a quantized discrete Fourier
transform: entry ``(b, a) = (q^w zeta^a)^b``, where ``q^w`` is the
coefficient of the family's disk potential and ``zeta`` a primitive root of
unity of the family's order, with rows indexed by the cycle basis ``Z_b``
and columns by the branes.  Specializing ``q -> 1`` recovers the classical
DFT.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import linalg, toric
from .novikov import CyclotomicNumber, NovikovElement

PROJECTIVE = "projective"
EXCEPTIONAL = "exceptional"

SURJECTIVE = "surjective"
CUTOFF_LIMITED = "cutoff-limited"
DEFICIENT = "deficient"

# the valuation at which surjectivity_test splits the determinant
SPLIT = Fraction(2)


@dataclass(frozen=True)
class OCMatrix:
    rows: tuple          # quantum basis labels
    cols: tuple          # brane labels
    entries: tuple       # tuple of row tuples of NovikovElement
    order: int           # cyclotomic order of the entries

    def entry(self, b: int, a: int) -> NovikovElement:
        return self.entries[b][a]

    def as_lists(self) -> list[list[NovikovElement]]:
        return [list(row) for row in self.entries]

    def q_to_one(self) -> list[list[CyclotomicNumber]]:
        return [[entry.specialize_q_to_one() for entry in row] for row in self.entries]


def oc_matrix(n: int, kind: str, eps=None) -> OCMatrix:
    """The open-closed matrix in the cycle and brane bases.

    The projective family runs over ``Z_0 .. Z_n``, the exceptional one over
    ``Z_1 .. Z_{n-1}``.
    """
    if kind == PROJECTIVE:
        potential, labels = toric.PotentialFunction.clifford_torus(n), range(n + 1)
    elif kind == EXCEPTIONAL:
        potential, labels = toric.PotentialFunction.exceptional(n, eps), range(1, n)
    else:
        raise ValueError(f"unknown kind {kind}")
    # every monomial of a family's potential carries q^w, up to sign
    weight = potential.monomials[0][1].val_q()
    root = CyclotomicNumber.root_of_unity(potential.order)
    entries = tuple(
        tuple(NovikovElement.monomial(weight * b, root ** (a * b)) for a in labels)
        for b in labels)
    return OCMatrix(tuple(f"Z{b}" for b in labels), tuple(f"pt{a}" for a in labels),
                    entries, potential.order)


def co_value(n: int, k: int, ell: int) -> NovikovElement:
    """Closed-open image of the codimension-graded cycle class on brane ``k``.

    The class of an ``ell``-plane maps to ``y_k^{n - ell} q^{(n-ell)/(n+1)}``
    times the unit of the brane's endomorphism algebra, the projective
    open-closed entry ``(n - ell, k)``; the scalar is returned.
    """
    if not (0 <= ell <= n and 0 <= k <= n):
        raise ValueError("need 0 <= k, ell <= n")
    return oc_matrix(n, PROJECTIVE).entry(n - ell, k)


def ring_hom_check(potential: toric.PotentialFunction, k: int, y: tuple) -> bool:
    """Quantum relation through the brane algebra: the hyperplane image to
    the power ``n + 1`` must equal ``q`` times the unit, multiplied out in
    the Clifford endomorphism algebra.

    ``y`` is the ``k``-th critical point of the Clifford-torus potential of
    P^n, as ``toric.critical_points`` returns it.
    """
    n = potential.n
    algebra = toric.brane_algebra(potential, y)
    scalar = co_value(n, k, n - 1)
    element = {algebra.unit: scalar}
    power = {algebra.unit: NovikovElement.one()}
    for _ in range(n + 1):
        power = algebra.m([power, element])
    expected = {algebra.unit: NovikovElement.q_power(1)}
    diff = dict(power)
    for o, v in expected.items():
        diff[o] = diff.get(o, NovikovElement.zero()) - v
    return all(v.is_zero() for v in diff.values())


def frobenius_orthogonality(n: int) -> list[list[NovikovElement]]:
    """Gram matrix of the open-closed columns under the intersection pairing."""
    matrix = oc_matrix(n, PROJECTIVE)
    gram = []
    for j in range(n + 1):
        row = []
        for k in range(n + 1):
            acc = NovikovElement.zero()
            for a in range(n + 1):
                b = n - a
                acc = acc + matrix.entry(a, j) * matrix.entry(b, k)
            row.append(acc)
        gram.append(row)
    return gram


def surjectivity_test(matrix) -> str:
    """Determinant-based surjectivity check with a valuation split.

    Each row is first divided by its minimal q-power - an invertible row
    operation that leaves surjectivity unchanged and keeps the split
    meaningful for matrices whose rows carry large uniform q-factors.  The
    determinant is then split at ``SPLIT``: surjective iff the part below
    the split is nonzero.
    """
    if isinstance(matrix, OCMatrix):
        matrix = matrix.as_lists()
    n = len(matrix)
    if n == 0 or any(len(row) != n for row in matrix):
        raise ValueError("need a nonempty square matrix")
    scaled = []
    for row in matrix:
        vals = [e.val_q() for e in row if not e.is_zero()]
        if not vals:
            scaled.append(list(row))
            continue
        shift = NovikovElement.q_power(-min(vals))
        scaled.append([e * shift for e in row])
    det = linalg.determinant(scaled)
    if not det.below(SPLIT).is_zero():
        return SURJECTIVE
    truncated = any(e.truncated for row in scaled for e in row)
    if not det.is_zero() or truncated:
        return CUTOFF_LIMITED
    return DEFICIENT


def bulk_shift_perturbation(n: int, eps) -> tuple[OCMatrix, Fraction]:
    """Leading open-closed matrix under a point bulk shift of weight ``-eps``.

    The leading part is the projective matrix; corrections come from disks
    forced through the shifted point, whose minimal extra valuation is found
    by enumerating degree vectors with the point constraint (one insertion;
    the point sits at a toric fixed point and forces ``n`` additional roots).
    Returns the leading matrix and the exact minimal correction valuation.
    """
    if n < 2:
        raise ValueError("the bulk shift needs ambient dimension greater than 1")
    eps = Fraction(eps)
    if eps >= 1:
        raise ValueError("shift too large")
    if eps <= 0:
        raise ValueError("eps must be positive")
    leading = oc_matrix(n, PROJECTIVE)
    areas = [Fraction(1, n + 1)] * (n + 1)
    point_constraint = frozenset(range(n))  # all but the last coordinate
    best: Fraction | None = None
    for b in range(1, n + 1):
        row_constraint = frozenset(range(n + 1 - b, n + 1))
        classes = toric.blaschke_enumerate(
            n, areas, index_cap=2 * (n + b + 1),
            constraints=[row_constraint, point_constraint])
        if not classes:
            continue
        min_area = min(c.area for c in classes)
        val = min_area - eps
        if best is None or val < best:
            best = val
    if best is None:
        raise AssertionError("no constrained disks found")
    return leading, best
