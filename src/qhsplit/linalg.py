"""Sparse exact linear algebra over truncated Novikov scalars.

Rank computations use Gaussian elimination with minimal-valuation pivoting.
An entry qualifies as a pivot only if its valuation lies strictly below the
working cutoff; rows whose surviving entries all sit at or above the cutoff
are counted as cutoff-limited rather than silently treated as zero.
Determinants use a division-free expansion over column subsets, with no
size limit and no scalar inverse.
"""

from __future__ import annotations

from fractions import Fraction

from .novikov import DEFAULT_CUTOFF, NovikovElement

Row = dict[int, NovikovElement]


def _clean(row: Row) -> Row:
    return {c: v for c, v in row.items() if not v.is_zero()}


def row_reduce(rows, cutoff: Fraction | None = None):
    """Reduce rows against each other; returns (rank, pivots, cutoff_limited).

    ``pivots`` maps pivot column -> normalized row (pivot entry 1).  Rows are
    processed in order and pivot columns are chosen by minimal valuation with
    the column index as tie-break, so the result is deterministic.
    """
    if cutoff is None:
        cutoff = DEFAULT_CUTOFF
    cutoff = Fraction(cutoff)
    # Invariant: every stored pivot row has a 1 in its pivot column and no
    # entry in any other pivot column (reduced row echelon form), so one pass
    # suffices to reduce an incoming row.
    pivots: dict[int, Row] = {}
    rank = 0
    cutoff_limited = False

    def subtract(target: Row, coeff: NovikovElement, source: Row):
        for c, v in source.items():
            cur = target.get(c)
            nxt = -(coeff * v) if cur is None else cur - coeff * v
            if nxt.is_zero():
                target.pop(c, None)
            else:
                target[c] = nxt

    for row in rows:
        r = _clean(dict(row))
        for col in sorted(set(r) & set(pivots)):
            coeff = r.get(col)
            if coeff is None or coeff.is_zero():
                r.pop(col, None)
                continue
            subtract(r, coeff, pivots[col])
            r.pop(col, None)
        r = _clean(r)
        if not r:
            continue
        candidates = [(v.val_q(), c) for c, v in r.items() if v.val_q() is not None]
        candidates = [(val, c) for val, c in candidates if val < cutoff]
        if not candidates:
            cutoff_limited = True
            continue
        _, col = min(candidates)
        pivot = r[col]
        inv_cut = cutoff - min(pivot.val_q(), 0) + 1
        inv = pivot.invert(inv_cut)
        normalized = {c: (v * inv) for c, v in r.items()}
        normalized[col] = NovikovElement.one(normalized[col].cutoff)
        normalized = _clean(normalized)
        # back-substitute the new pivot column out of the existing pivots
        for pcol, prow in pivots.items():
            coeff = prow.get(col)
            if coeff is not None and not coeff.is_zero():
                subtract(prow, coeff, normalized)
                prow.pop(col, None)
        pivots[col] = normalized
        rank += 1
    return rank, pivots, cutoff_limited


def rank(rows, cutoff: Fraction | None = None) -> int:
    return row_reduce(rows, cutoff)[0]


def determinant(matrix: list[list[NovikovElement]]) -> NovikovElement:
    """Exact determinant by a division-free expansion over column subsets.

    Rows are taken in order.  ``minors[mask, cutoff]`` is the signed sum,
    over every placement of the rows so far in the columns of ``mask`` whose
    entries have smallest cutoff ``cutoff``, of the products of those
    entries.  Each row extends every minor by each unused column whose entry
    is nonzero, negated when ``mask`` holds an odd number of columns above
    it.  That is about ``n * 2^(n-1)`` products per cutoff, no scalar is
    ever inverted and there is no size limit.  Keeping minors of different
    cutoffs apart truncates each product exactly where the permutation
    expansion would, even when a later negative q-power brings a term back
    below the final cutoff; a minor that cancels to zero is kept, since its
    cutoff still bounds the result.
    """
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("determinant needs a square matrix")
    minors = {(0, None): NovikovElement.one()}
    for row in matrix:
        entries = [(1 << j, entry, -entry) for j, entry in enumerate(row)
                   if not entry.is_zero()]
        extended: dict[tuple, NovikovElement] = {}
        for (mask, _), minor in minors.items():
            for bit, entry, negated in entries:
                if mask & bit:
                    continue
                term = minor * (negated if (mask // bit).bit_count() & 1 else entry)
                key = (mask | bit, term.cutoff)
                extended[key] = extended[key] + term if key in extended else term
        minors = extended
    # every mask is full after the last row
    return sum(minors.values(), NovikovElement.zero())


def gram_matrix(cols_a, cols_b, pairing) -> list[list[NovikovElement]]:
    """Pairing matrix ``G[i][j] = <cols_a[i], cols_b[j]>`` for sparse columns.

    ``pairing`` maps a pair of row labels to a NovikovElement.
    """
    out = []
    for a in cols_a:
        row = []
        for b in cols_b:
            acc = NovikovElement.zero()
            for la, va in a.items():
                for lb, vb in b.items():
                    p = pairing(la, lb)
                    if p is not None and not p.is_zero():
                        acc = acc + va * vb * p
            row.append(acc)
        out.append(row)
    return out
