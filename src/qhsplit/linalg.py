"""Sparse exact linear algebra over truncated Novikov scalars.

Ranks are taken by Gaussian elimination.  A Novikov entry qualifies as a
pivot only if its valuation lies strictly below the working cutoff; rows
whose surviving entries all sit at or above the cutoff are counted as
cutoff-limited rather than silently treated as zero.  So is any rank taken
from a truncated entry or through a non-monomial pivot, whose inverse is a
truncated series: both hide terms the elimination cannot see.  Among the
qualifying entries the pivot has the least valuation, then the fewest input
rows in its column.  Rows over a cyclotomic field ``K = Q(zeta)`` are exact
and ranked on integers: with ``phi = euler_phi(order)``, ``1, zeta, ...,
zeta^(phi-1)`` is a Q-basis of ``K``, so the power-basis coordinate rows of
``zeta^k r`` (``k < phi``) span over Q what the rows ``r`` span over ``K``,
and the K-rank is their Q-rank over ``phi``, found by fraction-free
elimination (Bareiss, Math. Comp. 22, 1968): ``realify`` gives an entry's
coordinates for every ``k``, and ``integer_rank`` ranks the rows that the
caller builds from them.  It reads them one at a time, so its pivot counts
the rows read so far with an entry in a column, and it stops reading at a
rank bound the caller gives.  Determinants use a division-free expansion over
column subsets, with no size limit and no scalar inverse.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction

from .novikov import DEFAULT_CUTOFF, CyclotomicNumber, NovikovElement

Row = dict[object, NovikovElement]  # column keys of one row sort against each other


def _clean(row: Row) -> Row:
    return {c: v for c, v in row.items() if not v.is_zero()}


def row_reduce(rows, cutoff: Fraction | None = None):
    """Reduce Novikov rows against each other; returns (rank, pivots, cutoff_limited).

    ``pivots`` maps pivot column -> normalized row (pivot entry 1).  Rows are
    processed in order, and each row's pivot is its entry with the least key
    ``(valuation, number of input rows with an entry in that column, column
    key)``, so the result is deterministic and sparse columns are eliminated
    first, which keeps the fill-in down.
    """
    if cutoff is None:
        cutoff = DEFAULT_CUTOFF
    cutoff = Fraction(cutoff)
    rows = [_clean(dict(row)) for row in rows]
    entries = Counter(c for row in rows for c in row)
    # Invariant: every stored pivot row has a 1 in its pivot column and no
    # entry in any other pivot column (reduced row echelon form), so one pass
    # suffices to reduce an incoming row.
    pivots: dict[object, Row] = {}
    rank = 0
    cutoff_limited = any(v.truncated for row in rows for v in row.values())

    def subtract(target: Row, coeff, source: Row):
        for c, v in source.items():
            cur = target.get(c)
            nxt = -(coeff * v) if cur is None else cur - coeff * v
            if nxt.is_zero():
                target.pop(c, None)
            else:
                target[c] = nxt

    for r in rows:
        for col in sorted(r.keys() & pivots.keys()):
            subtract(r, r[col], pivots[col])
            r.pop(col, None)
        if not r:
            continue
        candidates = [(val, entries[c], c) for c, v in r.items()
                      if (val := v.val_q()) < cutoff]
        if not candidates:
            cutoff_limited = True
            continue
        col = min(candidates)[2]
        inv = r[col].invert(cutoff - min(r[col].val_q(), 0) + 1)
        cutoff_limited = cutoff_limited or inv.truncated
        normalized = {c: v * inv for c, v in r.items()}
        normalized[col] = NovikovElement.one(inv.cutoff)
        normalized = _clean(normalized)
        # back-substitute the new pivot column out of the existing pivots
        for prow in pivots.values():
            coeff = prow.get(col)
            if coeff is not None:
                subtract(prow, coeff, normalized)
                prow.pop(col, None)
        pivots[col] = normalized
        rank += 1
    return rank, pivots, cutoff_limited


def _eliminate(target: dict, source: dict, col) -> None:
    # target <- (a target - b source) / gcd in place; a / b = source[col] / target[col]
    g = math.gcd(source[col], target[col])
    a, b = source[col] // g, target[col] // g
    if a != 1:
        for c, v in target.items():
            target[c] = a * v
    for c, v in source.items():
        if nxt := target.get(c, 0) - b * v:
            target[c] = nxt
        else:
            del target[c]
    if (g := math.gcd(*target.values())) > 1:
        for c, v in target.items():
            target[c] = v // g


def realify(value: CyclotomicNumber, order: int, den: int) -> tuple[int, ...]:
    """The power-basis coordinates at ``order`` of ``den * zeta^k * value``
    for ``k < phi``, ``k``-major; ``den`` is a multiple of ``value.den``.
    ``zeta`` (``CyclotomicNumber.root_of_unity``) is a unit of ``Z[zeta]``,
    so each multiple keeps the denominator of ``value``."""
    value = value.to_order(order)
    zeta = CyclotomicNumber.root_of_unity(order)
    multiples = [value]
    while len(multiples) < len(value.num):
        multiples.append(multiples[-1] * zeta)
    scale = den // value.den
    return tuple(n * scale for multiple in multiples for n in multiple.num)


def integer_rank(rows, phi: int, bound: int | None = None):
    """``(rank, pivots)`` of K-rows ``{column c: realify(entry)}``.

    ``pivots`` maps a column of the integer rows to a primitive integer row,
    and the rank is over K.  The integer row of ``zeta^k`` times a K-row,
    with coordinate ``i`` of column ``c`` in column ``c * phi + i``, is built
    only if that of ``zeta^(k-1)`` survived.  The pivot has the least (number
    of K-rows read so far with an entry in its ``c``, column).  ``rows`` is
    read lazily: given a ``bound`` on the rank, no row is read once there
    are ``bound * phi`` pivots, since every further row reduces to zero."""
    entries: Counter = Counter()
    pivots: dict[int, dict[int, int]] = {}
    rows = iter(rows)
    while bound is None or len(pivots) < bound * phi:
        if (row := next(rows, None)) is None:
            break
        entries.update(row.keys())
        for k in range(0, phi * phi, phi):
            r = {c * phi + i: n for c, m in row.items() for i in range(phi) if (n := m[k + i])}
            for col in r.keys() & pivots.keys():
                _eliminate(r, pivots[col], col)
            if not r:  # the pivots span a K-space, so r's zeta-multiples go too
                break
            col = min(r, key=lambda c: (entries[c // phi], c))
            g = math.gcd(*r.values()) * (1 if r[col] > 0 else -1)
            r = {c: v // g for c, v in r.items()}
            for prow in pivots.values():  # back-substitute
                if col in prow:
                    _eliminate(prow, r, col)
            pivots[col] = r
    rank, rest = divmod(len(pivots), phi)
    if rest:
        raise ArithmeticError(f"Q-rank {len(pivots)} is not a multiple of phi = {phi}")
    return rank, pivots


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
