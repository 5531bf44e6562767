"""Torus branes in the toric disk models: potentials, Hessians, Clifford algebras.

A brane family is a disk potential (Cho-Oh): a finite Laurent polynomial in
the holonomy coordinates ``y_1 .. y_n`` with Novikov coefficients, together
with the order of the roots of unity that form its critical points.  The two
families are built by the ``PotentialFunction`` constructors:

* ``clifford_torus``: ``q^{1/(n+1)} (y_1 + ... + y_n + (y_1 ... y_n)^{-1})``,
  the full count of lowest-area disks through a torus fiber over the interior
  of the simplex, with critical points at the (n+1)-st roots of unity;
* ``exceptional``: ``q^eps (y_1 + ... + y_n - y_1 ... y_n)``, the leading
  disk count for the monotone torus near an exceptional divisor of size
  parameter ``eps``.  The sign of the product term is fixed so that the
  stated critical points (tuples of (n-1)-st roots of unity) have exactly
  vanishing logarithmic gradient.

Derivatives are always taken in logarithmic coordinates (``y = exp(x)``), so
the derivative of a monomial multiplies it by its exponent.
"""

from __future__ import annotations


from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .ainfty import AInftyAlgebra
from .novikov import CyclotomicNumber, NovikovElement


# ---------------------------------------------------------------------------
# Blaschke degree vectors


@dataclass(frozen=True)
class BlaschkeClass:
    """Degree vector of a holomorphic disk in a product-of-lines model."""

    degrees: tuple
    areas: tuple

    def __post_init__(self):
        if len(self.degrees) != len(self.areas):
            raise ValueError("degrees and areas must have equal length")
        if any(d < 0 for d in self.degrees):
            raise ValueError("degrees are nonnegative")
        if any(Fraction(a) <= 0 for a in self.areas):
            raise ValueError("component areas are positive")

    @property
    def index(self) -> int:
        return 2 * sum(self.degrees)

    @property
    def area(self) -> Fraction:
        return sum((Fraction(a) * d for d, a in zip(self.degrees, self.areas)),
                   Fraction(0))

    def __add__(self, other: "BlaschkeClass") -> "BlaschkeClass":
        if self.areas != other.areas:
            raise ValueError("classes live in different models")
        return BlaschkeClass(tuple(a + b for a, b in zip(self.degrees, other.degrees)),
                             self.areas)


def blaschke_enumerate(n: int, areas, index_cap: int, constraints=None) -> list[BlaschkeClass]:
    """All degree vectors with index at most the cap, meeting the constraints.

    The model has ``n + 1`` coordinate lines.  Each constraint is a set of
    component indices (0-based) forced to vanish at one marked point, so it
    raises the minimal degree of those components by one.
    """
    if index_cap < 0:
        raise ValueError("index cap must be nonnegative")
    areas = tuple(Fraction(a) for a in areas)
    if len(areas) != n + 1:
        raise ValueError("need one area per coordinate line")
    required = [0] * (n + 1)
    for constraint in constraints or ():
        for i in constraint:
            required[i] += 1
    max_total = index_cap // 2
    out = []

    def fill(pos, remaining, prefix):
        if pos == n:
            if remaining >= required[n]:
                for d in range(required[n], remaining + 1):
                    out.append(BlaschkeClass(prefix + (d,), areas))
            return
        for d in range(required[pos], remaining + 1):
            fill(pos + 1, remaining - d, prefix + (d,))

    if max_total >= sum(required):
        fill(0, max_total, ())
    return sorted(out, key=lambda c: (c.index, c.degrees))


def zk_constraint(n: int, k: int) -> frozenset:
    """Vanishing components forced by a marked point on the k-dimensional
    cycle inside the exceptional locus: the last ``n - k`` of the ``n + 1``
    coordinates."""
    if not 1 <= k <= n - 1:
        raise ValueError("the cycle dimension k must satisfy 1 <= k <= n-1")
    return frozenset(range(k + 1, n + 1))


# ---------------------------------------------------------------------------
# potential functions


@dataclass(frozen=True)
class PotentialFunction:
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
        if n < 1:
            raise ValueError("n must be at least 1")
        coeff = NovikovElement.q_power(Fraction(1, n + 1))
        monos = []
        for i in range(n):
            exp = tuple(1 if j == i else 0 for j in range(n))
            monos.append((exp, coeff))
        monos.append((tuple(-1 for _ in range(n)), coeff))
        return cls(n, tuple(monos), n + 1)

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
        monos = []
        for i in range(n):
            exp = tuple(1 if j == i else 0 for j in range(n))
            monos.append((exp, coeff))
        monos.append((tuple(1 for _ in range(n)), -coeff))
        return cls(n, tuple(monos), n - 1)

    # -- evaluation ----------------------------------------------------------
    def evaluate(self, y: tuple) -> NovikovElement:
        total = NovikovElement.zero()
        for exp, coeff in self.monomials:
            total = total + coeff * _power_product(y, exp)
        return total

    def log_derivative(self, a: int) -> "PotentialFunction":
        """d/dx_a in logarithmic coordinates: multiply monomials by exponents."""
        monos = []
        for exp, coeff in self.monomials:
            if exp[a]:
                monos.append((exp, coeff * NovikovElement.from_rational(exp[a])))
        return PotentialFunction(self.n, tuple(monos), self.order)

    def gradient(self, y: tuple) -> list[NovikovElement]:
        return [self.log_derivative(a).evaluate(y) for a in range(self.n)]

    def is_critical(self, y: tuple) -> bool:
        return all(g.is_zero() for g in self.gradient(y))


def _power_product(y: tuple, exp: tuple) -> NovikovElement:
    acc = CyclotomicNumber.one()
    for value, e in zip(y, exp):
        if e == 0:
            continue
        factor = value if e > 0 else value.inverse()
        for _ in range(abs(e)):
            acc = acc * factor
    return NovikovElement.from_cyclotomic(acc)


def critical_points(potential: PotentialFunction) -> list[tuple]:
    """The critical local systems, as exact root-of-unity tuples.

    Every returned point is verified to kill the symbolic gradient exactly.
    """
    if potential.order is None:
        raise ValueError("the potential belongs to no brane family")
    points = []
    for k in range(potential.order):
        root = CyclotomicNumber.root_of_unity(potential.order, k)
        point = tuple(root for _ in range(potential.n))
        if not potential.is_critical(point):
            raise AssertionError(
                f"claimed critical point {point} has nonvanishing gradient")
        points.append(point)
    return points


def hessian(potential: PotentialFunction, y: tuple) -> list[list[NovikovElement]]:
    """Second logarithmic derivative matrix at a critical point."""
    if not potential.is_critical(y):
        raise ValueError("hessian is only evaluated at critical points")
    n = potential.n
    out = []
    for a in range(n):
        da = potential.log_derivative(a)
        out.append([da.log_derivative(b).evaluate(y) for b in range(n)])
    return out


# ---------------------------------------------------------------------------
# Clifford algebras


def clifford_algebra(q_matrix, n: int) -> AInftyAlgebra:
    """Rank ``2^n`` algebra on generators with ``e_a e_b + e_b e_a = 2 Q_ab``.

    Stored compositions follow the dictionary ``m_2(x, y) = (-1)^{|x|} x y``,
    which makes the quadratic composition relations and the strict-unit axioms
    hold on the nose.  Degenerate forms are rejected.
    """
    det = linalg.determinant([[entry for entry in row] for row in q_matrix])
    if det.is_zero():
        raise ValueError("degenerate quadratic form")

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


def brane_algebra(potential: PotentialFunction, y: tuple) -> AInftyAlgebra:
    return clifford_algebra(brane_quadratic_form(hessian(potential, y)), potential.n)


# ---------------------------------------------------------------------------
# checks


def divisor_equation_check(potential: PotentialFunction, y: tuple) -> bool:
    """Two routes to the symmetrized degree-one products must agree.

    Route one sums, class by class, the product of boundary pairings times
    the class contribution to the curvature.  Route two differentiates the
    potential twice symbolically and evaluates.  Both are computed for every
    pair of degree-one directions.
    """
    if not potential.is_critical(y):
        raise ValueError("checked at critical points only")
    n = potential.n
    for a in range(n):
        for b in range(n):
            per_class = NovikovElement.zero()
            for exp, coeff in potential.monomials:
                pairing = exp[a] * exp[b]
                if pairing:
                    per_class = per_class + (coeff * _power_product(y, exp)
                                             * NovikovElement.from_rational(pairing))
            symbolic = potential.log_derivative(a).log_derivative(b).evaluate(y)
            if per_class != symbolic:
                return False
    return True
