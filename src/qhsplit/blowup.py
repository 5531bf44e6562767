"""Blowup bookkeeping: quantum-cohomology splitting and generation.

The blowup of projective n-space at a point splits its quantum cohomology
into the bulk-shifted base (the projective open-closed block, one column per
projective brane, ``n + 1``) plus point summands (the exceptional block, one
column per exceptional brane, ``n - 1``).  ``split_report`` reads the
dimensions off the two blocks' columns and checks that the blocks are
orthogonal, of full combined rank and each surjective, all from one exact
rank per block.  The blowup's disk classes are those of
``toric.ToricModel.simplex(n).blowup(eps)``.
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import linalg, openclosed
from .novikov import NovikovElement, euler_phi

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


def _block_rank(cols) -> int:
    """Exact rank over the Novikov field of a block of sparse columns.

    Each label's nonzero entries must be monomials ``c q^v`` of one
    valuation ``v`` (else ``ValueError``); scaling its row by the unit
    ``q^-v`` leaves the ``c`` in ``K = Q(zeta)``: the rank is their K-rank."""
    vals: dict = {}  # label -> the valuation of its entries
    for col in cols:
        for k, v in col.items():
            if v.terms and (len(v.terms) > 1 or vals.setdefault(k, v.val_q()) != v.val_q()):
                raise ValueError(f"entries under {k!r} are not monomials of one valuation")
    index = {label: i for i, label in enumerate(vals)}
    coeffs = [{index[k]: v.leading()[1] for k, v in col.items() if v.terms} for col in cols]
    order = math.lcm(1, *(c.order for col in coeffs for c in col.values()))
    den = math.lcm(1, *(c.den for col in coeffs for c in col.values()))
    rows = [{i: linalg.realify(c, order, den) for i, c in col.items()} for col in coeffs]
    return linalg.integer_rank(rows, euler_phi(order))[0]


def generation_check(old_cols, exc_cols, pairing) -> dict:
    """Orthogonality of the two images plus a full combined rank.

    ``old_cols`` and ``exc_cols`` are lists of sparse columns over a common
    label set, ``pairing`` the bilinear form on labels.  Generation holds
    iff the cross Gram matrix vanishes identically and the exact ranks of
    the blocks (``_block_rank``) sum to the number of columns.  Returns the
    verdict under ``generation``, ``CUTOFF_LIMITED`` for orthogonal blocks
    with a truncated entry, with the Gram matrix and ranks it rests on.
    """
    gram = linalg.gram_matrix(old_cols, exc_cols, pairing)
    orthogonal = all(entry.is_zero() for row in gram for entry in row)
    rank_old, rank_exc = _block_rank(old_cols), _block_rank(exc_cols)
    if orthogonal and any(value.truncated for col in [*old_cols, *exc_cols]
                          for value in col.values()):
        generation = CUTOFF_LIMITED
    elif orthogonal and rank_old + rank_exc == len(old_cols) + len(exc_cols):
        generation = GENERATES
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
    columns; then checks block orthogonality and the exact block ranks, which
    also decide each block's surjectivity, and the correction-valuation
    bound of the bulk shift.
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
    check = generation_check(old_cols, exc_cols, _pairing(n))
    surjectivity = {True: openclosed.SURJECTIVE, False: openclosed.DEFICIENT}
    report.update(
        check,
        min_extra_valuation=min_extra,
        min_extra_bound=Fraction(1) - eps,
        bound_holds=min_extra >= Fraction(1) - eps,
        old_block_surjectivity=surjectivity[check["old_block_rank"] == base_dim],
        exceptional_block_surjectivity=surjectivity[check["exceptional_block_rank"] == points],
        status=GENERATES if check["generation"] == GENERATES else FAILS,
    )
    return report
