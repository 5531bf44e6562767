"""Blowup bookkeeping: quantum-cohomology splitting and generation.

The blowup of projective n-space at a point splits its quantum cohomology
into the bulk-shifted base (the projective open-closed block, one column per
projective brane, ``n + 1``) plus point summands (the exceptional block, one
column per exceptional brane, ``n - 1``).  ``split_report`` reads the
dimensions off the two blocks' columns and checks that the blocks are
orthogonal, of full combined rank and each surjective.  The blowup's disk
classes are those of ``toric.ToricModel.simplex(n).blowup(eps)``.
"""

from __future__ import annotations

from fractions import Fraction

from . import linalg, openclosed
from .novikov import NovikovElement

GENERATES = "generates"
FAILS = "fails"
CUTOFF_LIMITED = openclosed.CUTOFF_LIMITED


def _pairing(n: int):
    """Poincare-style pairing on the labels of the blowup of projective
    n-space: base and exceptional classes pair to zero; within each block the
    pairing is the complementary-degree delta, with the exceptional block
    carrying the opposite sign."""

    def pairing(la, lb) -> NovikovElement:
        kind_a, a = la
        kind_b, b = lb
        if kind_a != kind_b:
            return NovikovElement.zero()
        if a + b != n:
            return NovikovElement.zero()
        if kind_a == "base":
            return NovikovElement.one()
        return -NovikovElement.one()

    return pairing


def generation_check(old_cols, exc_cols, pairing, cutoff=None) -> dict:
    """Orthogonality of the two images plus a full combined rank.

    ``old_cols`` and ``exc_cols`` are lists of sparse columns over a common
    label set, ``pairing`` the bilinear form on labels; the labels of a block
    sort against each other, which ``linalg.row_reduce`` needs.  Generation
    holds iff the cross Gram matrix vanishes identically and the ranks of the
    blocks sum to the number of columns.  Returns the verdict under
    ``generation`` together with the Gram matrix and block ranks it rests
    on.  When the ranks fall short and a block has a row whose entries all
    sit at or above ``cutoff``, the verdict is ``CUTOFF_LIMITED``, not
    ``FAILS``.
    """
    gram = linalg.gram_matrix(old_cols, exc_cols, pairing)
    orthogonal = all(entry.is_zero() for row in gram for entry in row)
    rank_old, _, limited_old = linalg.row_reduce(old_cols, cutoff)
    rank_exc, _, limited_exc = linalg.row_reduce(exc_cols, cutoff)
    if orthogonal and rank_old + rank_exc == len(old_cols) + len(exc_cols):
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

    Builds the projective block and the exceptional block over the blowup's
    cycle basis once each and reads the summand dimensions off their
    columns; then checks block orthogonality, block ranks, determinant
    surjectivity of each block, and the correction-valuation bound of the
    bulk shift.
    """
    if n < 2:
        raise ValueError("no exceptional branes below dimension two")
    eps = Fraction(eps)
    old_matrix = openclosed.oc_matrix(n, openclosed.PROJECTIVE)
    exc_matrix = openclosed.oc_matrix(n, openclosed.EXCEPTIONAL, eps)
    base_dim, points = len(old_matrix.cols), len(exc_matrix.cols)
    report: dict = {
        "n": n,
        "eps": eps,
        "base_dim": base_dim,
        "point_summands": points,
        "total_dim": base_dim + points,
        "summands": ["base"] + ["point"] * points,
    }
    if eps >= 1:
        report.update(status=CUTOFF_LIMITED,
                      reason="bulk-shift corrections need eps < 1")
        return report

    min_extra = openclosed.bulk_shift_perturbation(n, eps)
    old_cols = [
        {("base", b): old_matrix.entry(b, a) for b in range(base_dim)}
        for a in range(base_dim)
    ]
    exc_cols = [
        {("exc", b + 1): exc_matrix.entry(b, a) for b in range(points)}
        for a in range(points)
    ]
    # the rank cutoff must clear every entry valuation in both blocks
    vals = [v.val_q() for col in old_cols + exc_cols for v in col.values()
            if v.val_q() is not None]
    rank_cutoff = max(vals) + 1 if vals else None
    check = generation_check(old_cols, exc_cols, _pairing(n), rank_cutoff)
    surj_old = openclosed.surjectivity_test(old_matrix.entries)
    surj_exc = openclosed.surjectivity_test(exc_matrix.entries)
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
