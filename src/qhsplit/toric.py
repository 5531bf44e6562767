"""Torus branes in the toric disk models: potentials, Hessians, Clifford algebras.

Disk classes are read off a moment polytope (``ToricModel``): one Maslov-2
class per facet, of area the facet's level at the brane.  A brane family is a
disk potential (Cho-Oh): a finite Laurent polynomial in the holonomy
coordinates ``y_1 .. y_n`` with Novikov coefficients, together with the order
of the roots of unity that form its critical points.  The two families are
built by the ``PotentialFunction`` constructors:

* ``clifford_torus``: ``q^{1/(n+1)} (y_1 + ... + y_n + (y_1 ... y_n)^{-1})``,
  one monomial per facet of ``ToricModel.simplex(n)``, the torus fiber over
  the barycentre of the simplex, with critical points at the (n+1)-st roots
  of unity;
* ``exceptional``: ``q^eps (y_1 + ... + y_n - y_1 ... y_n)``, the leading
  disk count for the monotone torus near an exceptional divisor of size
  parameter ``eps``.  The sign of the product term is fixed so that the
  stated critical points (tuples of (n-1)-st roots of unity) have exactly
  vanishing logarithmic gradient.

Derivatives are always taken in logarithmic coordinates (``y = exp(x)``), so
the derivative of a monomial multiplies it by its exponent: at a point, ``W``,
``d_a W`` and ``d_a d_b W`` are sums of the values ``c_j y^{v_j}`` of its
monomials weighted by ``1``, ``v_j[a]`` and ``v_j[a] v_j[b]``.
``critical_points`` evaluates the monomials once at each root tuple, checks
that the gradient vanishes there, and reads the value and the Hessian off the
same evaluation into one ``CriticalPoint`` record, which ``brane_algebra``
and the command line take as they are.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from . import linalg
from .ainfty import AInftyAlgebra
from .novikov import CyclotomicNumber, NovikovElement, format_rational


# ---------------------------------------------------------------------------
# disk classes from the moment polytope


class ToricModel:
    """A moment polytope ``{x : <v_j, x> >= c_j}`` seen from a torus fiber.

    ``normals`` are the facet normals ``v_j`` and ``levels`` the heights
    ``l_j = <v_j, u> - c_j`` of the fiber's point ``u`` above the facets.
    Each facet bounds one Maslov-2 disk class ``beta_j`` of area ``l_j``
    (Cho-Oh), so a class is a degree tuple ``k`` over the facets, with index
    ``2 sum k_j`` and area ``sum k_j l_j``.
    """

    __slots__ = ("normals", "levels")

    def __init__(self, normals: tuple, levels: tuple):
        if any(level <= 0 for level in levels):
            raise ValueError("the fiber must lie inside the polytope")
        self.normals = normals  # one integer vector per facet
        self.levels = levels    # one positive Fraction per facet

    @classmethod
    def simplex(cls, n: int) -> "ToricModel":
        """The simplex ``x_i >= 0, x_1 + ... + x_n <= 1`` at its barycentre."""
        if n < 1:
            raise ValueError("n must be at least 1")
        normals = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
        return cls(normals + ((-1,) * n,), (Fraction(1, n + 1),) * (n + 1))

    def blowup(self, eps) -> "ToricModel":
        """Cut off the vertex where the first ``n`` facets meet by size ``eps``.

        The new facet's normal is the sum of theirs, and its level the sum of
        their levels minus ``eps``, so the cut exists only for ``eps`` below
        that sum.
        """
        n = len(self.normals[0])
        normal = tuple(map(sum, zip(*self.normals[:n])))
        bound, eps = sum(self.levels[:n]), Fraction(eps)
        if eps >= bound:
            raise ValueError("the fiber lies inside the polytope only for eps below "
                             + format_rational(bound))
        return ToricModel(self.normals + (normal,), self.levels + (bound - eps,))

    def index(self, k) -> int:
        return 2 * sum(k)

    def area(self, k) -> Fraction:
        return sum((d * level for d, level in zip(k, self.levels)), Fraction(0))


# ---------------------------------------------------------------------------
# potential functions


class PotentialFunction(NamedTuple):
    """Finite Laurent polynomial in y_1..y_n over Novikov scalars.

    ``order`` is the order of the roots of unity whose diagonal tuples are
    the critical points of a brane family; a potential built without a
    family has none.
    """

    n: int
    monomials: tuple  # ((exponent tuple, NovikovElement), ...)
    order: int | None = None

    @classmethod
    def clifford_torus(cls, n: int) -> "PotentialFunction":
        """The simplex's potential: one monomial ``q^{l_j} y^{v_j}`` per facet."""
        model = ToricModel.simplex(n)
        monos = tuple((normal, NovikovElement.q_power(level))
                      for normal, level in zip(model.normals, model.levels))
        return cls(n, monos, n + 1)

    @classmethod
    def exceptional(cls, n: int, eps) -> "PotentialFunction":
        if n < 2:
            raise ValueError("the exceptional family needs n >= 2")
        if eps is None:
            raise ValueError("the exceptional family needs the size parameter eps")
        eps = Fraction(eps)
        if eps <= 0:
            raise ValueError("eps must be positive")
        coeff = NovikovElement.q_power(eps)
        monos = tuple((tuple(int(i == j) for j in range(n)), coeff) for i in range(n))
        return cls(n, monos + (((1,) * n, -coeff),), n - 1)

    def _monomial_values(self, y: tuple) -> list[tuple]:
        """``(v_j, c_j y^{v_j})`` for each monomial: its exponent and its value at ``y``."""
        return [(exp, coeff * _power_product(y, exp)) for exp, coeff in self.monomials]


def _power_product(y: tuple, exp: tuple) -> NovikovElement:
    acc = CyclotomicNumber.one()
    for value, e in zip(y, exp):
        if e == 0:
            continue
        factor = value if e > 0 else value.inverse()
        for _ in range(abs(e)):
            acc = acc * factor
    return NovikovElement.from_cyclotomic(acc)


def _log_derivative(values: list[tuple], *directions: int) -> NovikovElement:
    """The derivative along each of ``directions`` (none: the value) of the
    potential whose ``_monomial_values`` are ``values``."""
    total = NovikovElement.zero()
    for exp, value in values:
        weight = math.prod(exp[a] for a in directions)
        if weight:
            total = total + value * NovikovElement.from_rational(weight)
    return total


class CriticalPoint(NamedTuple):
    """A critical local system: its root tuple, ``W`` there and the log Hessian."""

    point: tuple
    value: NovikovElement
    hessian: tuple  # n rows of n entries


def critical_points(potential: PotentialFunction) -> list[CriticalPoint]:
    """The critical local systems, each read off one evaluation of the
    monomials there, which must kill the logarithmic gradient exactly."""
    if potential.order is None:
        raise ValueError("the potential belongs to no brane family")
    n = potential.n
    points = []
    for k in range(potential.order):
        point = (CyclotomicNumber.root_of_unity(potential.order, k),) * n
        values = potential._monomial_values(point)
        if not all(_log_derivative(values, a).is_zero() for a in range(n)):
            raise AssertionError(
                f"claimed critical point {point} has nonvanishing gradient")
        hessian = tuple(tuple(_log_derivative(values, a, b) for b in range(n))
                        for a in range(n))
        points.append(CriticalPoint(point, _log_derivative(values), hessian))
    return points


# ---------------------------------------------------------------------------
# Clifford algebras


def clifford_algebra(q_matrix) -> AInftyAlgebra:
    """Rank ``2^n`` algebra on generators with ``e_a e_b + e_b e_a = 2 Q_ab``,
    for the ``n x n`` form ``Q`` of Novikov scalars.

    Stored compositions follow the dictionary ``m_2(x, y) = (-1)^{|x|} x y``,
    which makes the quadratic composition relations and the strict-unit axioms
    hold on the nose.  Degenerate forms are rejected.
    """
    det = linalg.determinant([[entry for entry in row] for row in q_matrix])
    if det.is_zero():
        raise ValueError("degenerate quadratic form")
    n = len(q_matrix)

    subsets = sorted(range(1 << n), key=lambda s: (bin(s).count("1"), s))
    position = {s: i for i, s in enumerate(subsets)}
    names = ["1"] + ["e" + "".join(str(a + 1) for a in range(n) if s >> a & 1)
                     for s in subsets[1:]]
    degrees = [bin(s).count("1") % 2 for s in subsets]
    one = NovikovElement.one()
    two = NovikovElement.from_rational(2)

    def times_gen(s, g) -> dict:
        """``e_s e_g``, where ``e_s`` is the increasing product of the
        generators in ``s``: move ``e_g`` left past the largest of them,
        ``e_t e_g = 2 Q_tg - e_g e_t``, and recurse on the rest."""
        t = s.bit_length() - 1
        if t < g:
            return {s | 1 << g: one}
        rest = s ^ 1 << t
        if t == g:
            return {rest: q_matrix[g][g]}
        out = {u | 1 << t: -c for u, c in times_gen(rest, g).items()}
        out[rest] = two * q_matrix[t][g]
        return out

    def product(s, t):
        state = {s: one}
        for g in (a for a in range(n) if t >> a & 1):
            nxt: dict[int, NovikovElement] = {}
            for u, c in state.items():
                for v, d in times_gen(u, g).items():
                    nxt[v] = nxt[v] + c * d if v in nxt else c * d
            state = {v: c for v, c in nxt.items() if not c.is_zero()}
        return state

    tensors: dict[int, dict] = {2: {}}
    for s in subsets:
        for t in subsets:
            prod = product(s, t)
            if not prod:
                continue
            sign = (-1) ** (bin(s).count("1") % 2)
            vec = {position[u]: (v if sign > 0 else -v) for u, v in prod.items()}
            tensors[2][(position[s], position[t])] = vec

    return AInftyAlgebra(names, degrees, tensors, unit=0)


def brane_quadratic_form(h):
    """The quadratic form of the brane algebra with logarithmic Hessian ``h``.

    The composition dictionary ``m_2(x, y) = (-1)^{|x|} x y`` turns the
    symmetrized degree-one composition into ``-2 Q``, so matching it to the
    second derivative of the curvature requires ``Q = -H/2``.
    """
    half = NovikovElement.from_rational(Fraction(-1, 2))
    return [[entry * half for entry in row] for row in h]


def brane_algebra(potential: PotentialFunction, critical: CriticalPoint) -> AInftyAlgebra:
    return clifford_algebra(brane_quadratic_form(critical.hessian))
