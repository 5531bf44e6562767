"""Reference canonical form of Novikov terms, for tests only.

This is the dict-then-sort step that ``NovikovElement.__init__`` and the
multi-term ``NovikovElement.__mul__`` used before every element was built
through one sorted merge: the coefficients at one exponent are summed in a
dict, zero sums and terms at or above the cutoff are dropped, and the rest
is sorted by exponent.  The differential tests check the library's
``terms`` and ``cutoff`` against it.
"""

from __future__ import annotations

from fractions import Fraction

from qhsplit.novikov import CyclotomicNumber


def canonical(terms, cutoff) -> tuple[tuple, Fraction | None]:
    """``(terms, cutoff)`` of the element with the raw ``(exponent, coefficient)`` pairs."""
    cutoff = Fraction(cutoff) if cutoff is not None else None
    cleaned: dict[Fraction, CyclotomicNumber] = {}
    for exp, coeff in terms:
        exp = Fraction(exp)
        if not isinstance(coeff, CyclotomicNumber):
            coeff = CyclotomicNumber.from_rational(coeff)
        if cutoff is not None and exp >= cutoff:
            continue
        cleaned[exp] = cleaned[exp] + coeff if exp in cleaned else coeff
    return tuple(sorted(((e, c) for e, c in cleaned.items() if not c.is_zero()),
                        key=lambda term: term[0])), cutoff


def smaller_cutoff(x, y) -> Fraction | None:
    cutoffs = [c for c in (x.cutoff, y.cutoff) if c is not None]
    return min(cutoffs) if cutoffs else None


def sum_terms(x, y):
    return canonical(x.terms + y.terms, smaller_cutoff(x, y))


def difference_terms(x, y):
    return canonical(x.terms + tuple((e, -c) for e, c in y.terms), smaller_cutoff(x, y))


def product_terms(x, y):
    return canonical([(e1 + e2, c1 * c2) for e1, c1 in x.terms for e2, c2 in y.terms],
                     smaller_cutoff(x, y))
