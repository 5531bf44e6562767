"""Reference determinant by signed permutation expansion, for tests only.

This is the ``n! * n`` expansion that ``qhsplit.linalg.determinant``
replaced with an expansion over column subsets.  It sums one product per
permutation whose entries are all nonzero, so the differential tests can
check the library's terms and cutoff against it.
"""

from __future__ import annotations

import itertools

from qhsplit.novikov import NovikovElement


def permutation_sign(perm) -> int:
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def permutation_determinant(matrix: list[list[NovikovElement]]) -> NovikovElement:
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("determinant needs a square matrix")
    if n == 0:
        return NovikovElement.one()
    total = NovikovElement.zero()
    for perm in itertools.permutations(range(n)):
        prod = NovikovElement.one()
        for i, j in enumerate(perm):
            entry = matrix[i][j]
            if entry.is_zero():
                break
            prod = prod * entry
        else:
            total = total + (prod if permutation_sign(perm) > 0 else -prod)
    return total
