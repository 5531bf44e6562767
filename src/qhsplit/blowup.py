"""Blowup bookkeeping: quantum-cohomology splitting and generation.

The blowup of projective n-space at a point splits its quantum cohomology
into the bulk-shifted base (the projective open-closed block) plus ``n - 1``
point summands (the exceptional block); ``split_report`` checks that the two
blocks are orthogonal, of full combined rank and each surjective.  The
blowup's disk classes are those of ``toric.ToricModel.simplex(n).blowup(eps)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import linalg, openclosed
from .novikov import NovikovElement

GENERATES = "generates"
FAILS = "fails"
CUTOFF_LIMITED = openclosed.CUTOFF_LIMITED


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
    label set, ``pairing`` the bilinear form on labels; the labels of a block
    sort against each other, which ``linalg.row_reduce`` needs.  Generation
    holds iff the cross Gram matrix vanishes identically and the ranks of the
    blocks sum to the full dimension.  Returns the verdict under
    ``generation`` together with the Gram matrix and block ranks it rests
    on.  When the ranks fall short and a block has a row whose entries all
    sit at or above ``cutoff``, the verdict is ``CUTOFF_LIMITED``, not
    ``FAILS``.
    """
    gram = linalg.gram_matrix(old_cols, exc_cols, pairing)
    orthogonal = all(entry.is_zero() for row in gram for entry in row)
    rank_old, _, limited_old = linalg.row_reduce(old_cols, cutoff)
    rank_exc, _, limited_exc = linalg.row_reduce(exc_cols, cutoff)
    if orthogonal and rank_old + rank_exc == total_dim:
        generation = GENERATES
    elif orthogonal and (limited_old or limited_exc):
        generation = CUTOFF_LIMITED
    else:
        generation = FAILS
    return {
        "generation": generation,
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
