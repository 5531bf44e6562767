"""Blowup bookkeeping: index/area correspondence, splitting, generation.

The local model realizes the blowup of affine n-space as a quotient of a
product of ``n + 1`` coordinate lines; a disk class upstairs projects to the
class downstairs obtained by adding the exceptional-component degree to each
of the first ``n`` components.  Index and area transform as

    I(up) = I(down) - 2 (n - 1) d,      A(up) = A(down) - eps d,

with ``d`` the intersection number with the exceptional divisor.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import linalg, openclosed, toric
from .novikov import NovikovElement

GENERATES = "generates"
FAILS = "fails"
CUTOFF_LIMITED = openclosed.CUTOFF_LIMITED


def index_correspondence(index_downstairs: int, n: int, d: int) -> int:
    """Index upstairs of a class meeting the exceptional divisor ``d`` times."""
    if d < 0:
        raise ValueError("intersection number must be nonnegative")
    return index_downstairs - 2 * (n - 1) * d


def area_correspondence(area_downstairs, eps, d: int) -> tuple[Fraction, bool]:
    """Area upstairs and a flag marking a nonpositive result."""
    if d < 0:
        raise ValueError("intersection number must be nonnegative")
    area = Fraction(area_downstairs) - Fraction(eps) * d
    return area, area <= 0


@dataclass(frozen=True)
class BlowupLocalModel:
    """Degree-vector model of disks near the exceptional locus.

    Upstairs classes have ``n + 1`` components with areas ``(1, ..., 1,
    n - eps)``; the projection adds the last degree to each of the first
    ``n`` components, with downstairs areas ``(1, ..., 1)``.
    """

    n: int
    eps: Fraction

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("blowups of curves are out of range (need n >= 2)")
        if not 0 < self.eps < self.n:
            raise ValueError("need 0 < eps < n for positive areas")

    def upstairs_areas(self) -> tuple:
        return tuple([Fraction(1)] * self.n + [self.n - self.eps])

    def downstairs_areas(self) -> tuple:
        return tuple([Fraction(1)] * self.n)

    def upstairs_class(self, degrees) -> toric.BlaschkeClass:
        return toric.BlaschkeClass(tuple(degrees), self.upstairs_areas())

    def project(self, cls: toric.BlaschkeClass) -> toric.BlaschkeClass:
        d = cls.degrees[self.n]
        down = tuple(cls.degrees[i] + d for i in range(self.n))
        return toric.BlaschkeClass(down, self.downstairs_areas())

    def e_intersection(self, cls: toric.BlaschkeClass) -> int:
        return cls.degrees[self.n]


def exceptional_sphere_obstruction(n: int, k: int, m: int) -> bool:
    """No integer degree can satisfy both sphere-reduction index bounds.

    The two bounds are ``d >= k + 2m`` and ``d <= k - 2k/(n-1)``; the
    function reports whether they are incompatible over integers ``d >= 1``.
    """
    if n < 2 or k < 0 or m < 1:
        raise ValueError("need n >= 2, k >= 0, m >= 1")
    lower = k + 2 * m
    upper = Fraction(k) - Fraction(2 * k, n - 1)
    d = max(lower, 1)
    return Fraction(d) > upper


@dataclass(frozen=True)
class BlowupModel:
    """Quantum-cohomology bookkeeping for the blowup of projective n-space."""

    n: int
    eps: Fraction

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("no exceptional branes below dimension two")
        if not 0 < self.eps:
            raise ValueError("eps must be positive")

    def total_dim(self) -> int:
        return 2 * self.n

    def pairing(self, la, lb) -> NovikovElement:
        """Poincare-style pairing: base and exceptional classes pair to zero;
        within each block the pairing is the complementary-degree delta, with
        the exceptional block carrying the opposite sign."""
        kind_a, a = la
        kind_b, b = lb
        if kind_a != kind_b:
            return NovikovElement.zero()
        if a + b != self.n:
            return NovikovElement.zero()
        if kind_a == "base":
            return NovikovElement.one()
        return -NovikovElement.one()


def qh_split(model: BlowupModel) -> dict:
    """Dimension bookkeeping of the splitting into base plus point summands."""
    base_dim = model.n + 1
    points = model.n - 1
    return {
        "n": model.n,
        "eps": model.eps,
        "base_dim": base_dim,
        "point_summands": points,
        "total_dim": base_dim + points,
        "summands": ["base"] + ["point"] * points,
    }


def generation_check(old_cols, exc_cols, pairing, total_dim: int,
                     cutoff=None) -> dict:
    """Orthogonality of the two images plus a full combined rank.

    ``old_cols`` and ``exc_cols`` are lists of sparse columns over a common
    label set, ``pairing`` the bilinear form on labels.  Generation holds iff
    the cross Gram matrix vanishes identically and the ranks of the blocks
    sum to the full dimension.  Returns the verdict under ``generation``
    together with the Gram matrix and block ranks it rests on.
    """
    gram = linalg.gram_matrix(old_cols, exc_cols, pairing)
    orthogonal = all(entry.is_zero() for row in gram for entry in row)
    label_index: dict = {}

    def rows_of(cols):
        rows = []
        for col in cols:
            row = {}
            for label, value in col.items():
                idx = label_index.setdefault(label, len(label_index))
                row[idx] = value
            rows.append(row)
        return rows

    rank_old = linalg.rank(rows_of(old_cols), cutoff)
    rank_exc = linalg.rank(rows_of(exc_cols), cutoff)
    generates = orthogonal and rank_old + rank_exc == total_dim
    return {
        "generation": GENERATES if generates else FAILS,
        "old_block_rank": rank_old,
        "exceptional_block_rank": rank_exc,
        "cross_gram": [[repr(entry) for entry in row] for row in gram],
        "cross_gram_zero": orthogonal,
    }


def split_report(n: int, eps) -> dict:
    """Full splitting verification for the blowup of projective n-space.

    Assembles the bulk-shifted projective block and the exceptional block
    over the blowup's cycle basis, checks block orthogonality, block ranks,
    determinant surjectivity of each block, and the correction-valuation
    bound of the bulk shift.
    """
    eps = Fraction(eps)
    model = BlowupModel(n, eps)
    report: dict = dict(qh_split(model))
    if eps >= 1:
        report.update(status=CUTOFF_LIMITED,
                      reason="bulk-shift corrections need eps < 1")
        return report

    old_matrix, min_extra = openclosed.bulk_shift_perturbation(n, eps)
    exc_matrix = openclosed.oc_matrix(n, openclosed.EXCEPTIONAL, eps)

    old_cols = [
        {("base", b): old_matrix.entry(b, a) for b in range(n + 1)}
        for a in range(n + 1)
    ]
    exc_cols = [
        {("exc", b + 1): exc_matrix.entry(b, a) for b in range(n - 1)}
        for a in range(n - 1)
    ]
    # the rank cutoff must clear every entry valuation in both blocks
    vals = [v.val_q() for col in old_cols + exc_cols for v in col.values()
            if v.val_q() is not None]
    rank_cutoff = max(vals) + 1 if vals else None
    check = generation_check(old_cols, exc_cols, model.pairing,
                             model.total_dim(), rank_cutoff)
    surj_old = openclosed.surjectivity_test(old_matrix)
    surj_exc = openclosed.surjectivity_test(exc_matrix)
    report.update(
        check,
        min_extra_valuation=min_extra,
        min_extra_bound=Fraction(1) - eps,
        bound_holds=min_extra >= Fraction(1) - eps,
        old_block_surjectivity=surj_old,
        exceptional_block_surjectivity=surj_exc,
        status=GENERATES if (check["generation"] == GENERATES
                             and surj_old == openclosed.SURJECTIVE
                             and surj_exc == openclosed.SURJECTIVE)
        else FAILS,
    )
    return report
