"""Stable treed-disk combinatorial types: enumeration, dimension, boundary.

A combinatorial type here is a planar rooted tree of disk vertices.  Each
vertex carries, in counterclockwise (ribbon) order, a list of slots that are
either boundary-input leaves or edges to child vertices, plus an unordered
collection of labelled interior inputs.  Finite edges carry a metric class
(length zero, positive length, or broken/infinite length).

Types are stored in a nested canonical form, so structural equality is
isomorphism of based ribbon trees with labelled inputs.

The census by dimension builds neither a type nor a shape (tree of vertices
and boundary inputs).  Shapes are counted by vertex count and by the number
of vertices that need an interior input, with a recurrence over the length
of the run of boundary labels under a vertex.  Every type has dimension
``b + 2i - 2 - #(edges of class ZERO or INF)``, whatever its shape or
interior placement, and edge classes do not affect stability, so these two
numbers of a shape decide its share of the census; see
``census_by_dimension``.

The enumeration is the census's independent oracle: one recursion builds
each vertex from its interior labels and a slot sequence, straight from the
definition, and reads no vertex bound.  Boundary strata come from one
recursion over vertices, which degenerates each vertex or positive edge in
place.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass


ZERO, POS, INF = "zero", "pos", "inf"

_METRIC_CLASSES = (ZERO, POS, INF)


class UnstableTypeError(ValueError):
    """Raised when an operation requires a stable type."""


# ---------------------------------------------------------------------------
# data model


@dataclass(frozen=True)
class Node:
    """One disk vertex: ribbon-ordered slots plus interior input labels.

    ``slots`` entries are either ``("in", label)`` for a boundary input or
    ``("edge", child, metric)`` for the edge down to a child ``Node``.
    ``interior`` is a sorted tuple of interior-input labels at this vertex.
    """

    slots: tuple
    interior: tuple = ()

    def boundary_valence(self) -> int:
        # edges within the base incident to this vertex, counting the edge
        # towards the parent (or the output for the root)
        return 1 + len(self.slots)

    def is_stable(self) -> bool:
        return self.boundary_valence() + 2 * len(self.interior) >= 3

    def children(self):
        for slot in self.slots:
            if slot[0] == "edge":
                yield slot


@dataclass(frozen=True)
class TreedDiskType:
    """A combinatorial type: a rooted planar tree of disk vertices."""

    root: Node

    # -- validity ------------------------------------------------------------
    def is_stable(self) -> bool:
        def walk(node):
            if not node.is_stable():
                return False
            return all(walk(slot[1]) for slot in node.children())
        return walk(self.root)

    # -- canonical form ------------------------------------------------------
    def canonical_key(self) -> str:
        def render(node):
            parts = []
            for slot in node.slots:
                if slot[0] == "in":
                    parts.append(f"i{slot[1]}")
                else:
                    parts.append(f"e[{slot[2]}]{render(slot[1])}")
            inner = ",".join(parts)
            interior = ",".join(str(x) for x in node.interior)
            return f"({inner};{interior})"
        return render(self.root)

    # -- dimension -----------------------------------------------------------
    def dim(self) -> int:
        """Dimension of the cell of treed disks with this combinatorial type.

        For unbroken types this is ``k + 2l - #zero_edges - 2``.  Broken
        types (edges of infinite length) are scored as products: the type is
        cut at each breaking and the per-piece dimensions are added.

        One walk returns, for a vertex, ``k + 2l - #zero_edges`` of the part
        of its piece at or below it plus the dimensions of the pieces closed
        below it; an infinite edge closes a piece and counts as one boundary
        input of its parent.
        """
        def walk(node) -> int:
            if not node.is_stable():
                raise UnstableTypeError("dimension is defined for stable types only")
            total = 2 * len(node.interior)
            for slot in node.slots:
                if slot[0] == "in":
                    total += 1
                elif slot[2] == INF:
                    total += 1 + (walk(slot[1]) - 2)
                else:
                    total += walk(slot[1]) - (slot[2] == ZERO)
            return total

        return walk(self.root) - 2

    def __repr__(self):
        return f"TreedDiskType({self.canonical_key()})"


# ---------------------------------------------------------------------------
# enumeration


def enumerate_stable_types(
    d_boundary: int,
    d_interior: int = 0,
    metric_classes: tuple = _METRIC_CLASSES,
) -> list[TreedDiskType]:
    """All isomorphism classes of stable types, each exactly once.

    Boundary inputs are labelled ``1..d_boundary`` in counterclockwise order
    and interior inputs ``1..d_interior``.  ``metric_classes`` restricts the
    classes finite edges may take; the default allows all three, and
    ``(ZERO,)`` gives the nodal census, where every finite edge has length
    zero.

    This is the census's independent oracle: it builds every type from the
    definition and shares no bound or count with ``census_by_dimension``.
    A type is its root vertex.  A vertex over a run of boundary labels and
    a set of interior labels keeps some of the interior labels and cuts the
    rest into a slot sequence: each slot is a leaf holding the next boundary
    label, or an edge of each class in ``metric_classes`` to a child vertex
    over a prefix of the remaining run and a subset of the remaining
    interior labels.  Each decomposition gives a distinct type.  A stable
    vertex has no child with as many inputs as itself (that child would be
    its only slot, with no interior input beside it), so children strictly
    shrink and no vertex bound is needed.
    """
    _check_inputs(d_boundary, d_interior, metric_classes)

    @functools.cache
    def vertices(run, labels):
        out = []
        for own in _subsets(labels):
            rest = tuple(x for x in labels if x not in own)
            for slots in sequences(run, rest, len(run) + len(labels)):
                node = Node(slots, own)
                if node.is_stable():
                    out.append(node)
        return out

    @functools.cache
    def sequences(run, labels, size):
        # slot sequences over all of run and labels whose children each have
        # fewer than ``size`` inputs
        if not run and not labels:
            return [()]
        out = [(("in", run[0]),) + tail for tail in sequences(run[1:], labels, size)] if run else []
        for k in range(len(run) + 1):
            for sub in _subsets(labels):
                if 0 < k + len(sub) < size:
                    tails = sequences(run[k:], tuple(x for x in labels if x not in sub), size)
                    for child in vertices(run[:k], sub):
                        for cls in metric_classes:
                            out.extend((("edge", child, cls),) + tail for tail in tails)
        return out

    roots = vertices(tuple(range(1, d_boundary + 1)), tuple(range(1, d_interior + 1)))
    return [TreedDiskType(root) for root in roots]


def _subsets(labels: tuple):
    return itertools.chain.from_iterable(
        itertools.combinations(labels, r) for r in range(len(labels) + 1))


def census_by_dimension(
    d_boundary: int,
    d_interior: int = 0,
    metric_classes: tuple = _METRIC_CLASSES,
) -> dict[int, int]:
    """The number of stable types of each cell dimension, counted.

    Takes the arguments of ``enumerate_stable_types`` and gives the tally of
    ``dim()`` over its types without building one.  In the ``dim`` walk a
    ZERO edge adds ``child - 1``, an INF edge ``1 + (child - 2)`` and a POS
    edge ``child``, so a type with ``j`` edges of class ZERO or INF has
    dimension ``b + 2i - 2 - j``.  Stability asks only that each vertex
    with fewer than two slots carry an interior input, so a shape with
    ``V`` vertices, ``u`` of them short of slots, has
    ``S = sum_k (-1)^k C(u, k) (V - k)^i`` stable placements of the ``i``
    labelled interior inputs (inclusion-exclusion over the short vertices
    left empty).  Its ``V - 1`` edges then take ``j`` non-POS classes in
    ``C(V - 1, j) a^j p^(V - 1 - j)`` ways, with ``a`` and ``p`` the
    entries of ``metric_classes`` other than and equal to POS, counted as
    ``itertools.product`` counts them.

    No shape is built either.  The number of shapes with each ``(V, u)``
    solves a recurrence over the length ``m`` of the run of boundary labels
    under a vertex: the vertex cuts its run into blocks, each a leaf (when
    it holds one label) or a child over that block, and puts children over
    no label in the gaps between them.  With ``x`` marking a vertex and
    ``y`` a vertex short of slots, the shapes over ``m`` labels are
    ``f_m = x (G B_m + D S_m)``, where ``B_m = f_m + [m = 1]``, ``D`` counts
    the gaps' children, ``G = y - 1 + D^2`` the gaps around one block and
    ``S_m`` the runs of two blocks or more; ``_count_shapes`` solves it.
    """
    max_vertices = _check_arguments(d_boundary, d_interior, metric_classes)
    pos = metric_classes.count(POS)
    non_pos = len(metric_classes) - pos
    top = d_boundary + 2 * d_interior - 2
    counts: dict[int, int] = {}
    for (vertices, need), shapes in _count_shapes(d_boundary, max_vertices, d_interior).items():
        placements = sum((-1) ** k * math.comb(need, k) * (vertices - k) ** d_interior
                         for k in range(need + 1))
        edges = vertices - 1
        for j in range(edges + 1):
            count = (shapes * placements * math.comb(edges, j)
                     * non_pos ** j * pos ** (edges - j))
            if count:
                counts[top - j] = counts.get(top - j, 0) + count
    return counts


def _check_arguments(d_boundary: int, d_interior: int, metric_classes: tuple) -> int:
    """Check the census arguments and return the bound on vertices."""
    _check_inputs(d_boundary, d_interior, metric_classes)
    # summing the stability condition 1 + #slots + 2#interior >= 3 over the
    # V vertices gives V + (d_boundary + V - 1) + 2 d_interior >= 3V
    return max(d_boundary + 2 * d_interior - 1, 1)


def _check_inputs(d_boundary: int, d_interior: int, metric_classes: tuple) -> None:
    if d_boundary < 0 or d_interior < 0:
        raise ValueError("input counts must be nonnegative")
    if d_boundary == 0 and d_interior == 0:
        raise ValueError("a type needs at least one input or a vertex")
    for cls in metric_classes:
        if cls not in _METRIC_CLASSES:
            raise ValueError(f"unknown metric class {cls!r}")


def _count_shapes(d_boundary: int, max_vertices: int, max_need: int) -> dict:
    """Shapes over ``d_boundary`` labels, counted by (vertices, need).

    A shape is a planar rooted tree of vertices and boundary leaves; its
    need is the number of its vertices with fewer than two slots, each of
    which needs an interior input to be stable.

    Shapes are counted with generating polynomials in ``x`` (one per
    vertex) and ``y`` (one per vertex short of slots), stored as
    ``{(vertices, need): count}`` and truncated above ``max_vertices`` and
    ``max_need``.  Let ``f_m`` count
    the shapes over a run of ``m`` boundary labels, ``E = f_0`` (``empty``)
    those over no label, ``B_m = f_m + [m = 1]`` a block (a block of one
    label is a leaf or a child) and ``D = 1/(1 - E)`` (``gap``) a gap
    holding any number of empty children.  A vertex over ``m > 0`` labels
    cuts them into ``k`` blocks and puts empty children into the ``k + 1``
    gaps; it is short of slots only when ``k = 1`` and the gaps are empty,
    so

        f_m = x (G B_m + D S_m),    G = y - 1 + D^2  (``single``),

    where ``G`` is the two gaps around one block, ``D^2``, with the term of
    no empty child marked ``y``, and ``S_m`` (``split``) sums ``prod_j B_{L_j} D`` over the
    compositions ``L`` of ``m`` into at least two parts.  A vertex over no
    label has only empty children and is short of slots with at most one,
    so

        E = x (y + y E + E^2 D),    that is    E = x y + (1 + x - x y) E^2.

    Each unknown sits on its own right-hand side only under a factor ``x``,
    so every round of substitution fixes one more vertex degree:
    ``max_vertices`` rounds give ``E``, and ``f_m = x (G [m = 1] + D S_m)
    / (1 - x G)`` follows for ``m = 1, 2, ...`` in turn.  ``S_m`` is summed
    over the first part, ``S_m = sum_{l < m} B_l D Q_{m - l}``, with
    ``Q_0 = 1`` and ``Q_m = S_m + B_m D`` (``runs``) the sum over
    compositions into any number of parts.
    """
    def term(vertices, need, coeff=1):
        if vertices <= max_vertices and need <= max_need:
            return {(vertices, need): coeff}
        return {}

    def add(*polys):
        out: dict = {}
        for poly in polys:
            for key, coeff in poly.items():
                out[key] = out.get(key, 0) + coeff
        return out

    def mul(first, second):
        out: dict = {}
        for (v1, n1), c1 in first.items():
            for (v2, n2), c2 in second.items():
                if v1 + v2 <= max_vertices and n1 + n2 <= max_need:
                    key = (v1 + v2, n1 + n2)
                    out[key] = out.get(key, 0) + c1 * c2
        return out

    def geometric(poly):
        # 1/(1 - poly) for a poly with no constant term
        out = one
        for _ in range(max_vertices):
            out = add(one, mul(poly, out))
        return out

    one, x, y = term(0, 0), term(1, 0), term(0, 1)
    empty: dict = {}
    grow = add(one, x, term(1, 1, -1))
    for _ in range(max_vertices):
        empty = add(term(1, 1), mul(grow, mul(empty, empty)))
    if d_boundary == 0:
        return empty
    gap = geometric(empty)
    single = add(y, term(0, 0, -1), mul(gap, gap))
    solve = geometric(mul(x, single))
    block_gap, runs = [{}], [one]  # B_l D and Q_l by run length l
    for m in range(1, d_boundary + 1):
        split = add(*(mul(block_gap[l], runs[m - l]) for l in range(1, m)))
        shapes = mul(solve, mul(x, add(mul(gap, split), single if m == 1 else {})))
        block_gap.append(mul(add(shapes, one) if m == 1 else shapes, gap))
        runs.append(add(split, block_gap[m]))
    return shapes


# no caller in the package; perfbench/tracer.py counts its calls by this name
def _with_metric_classes(t: TreedDiskType, classes: dict) -> TreedDiskType:
    def rebuild(node, path):
        slots = []
        for i, slot in enumerate(node.slots):
            if slot[0] == "edge":
                cls = classes.get(path + (i,), slot[2])
                slots.append(("edge", rebuild(slot[1], path + (i,)), cls))
            else:
                slots.append(slot)
        return Node(tuple(slots), node.interior)
    return TreedDiskType(rebuild(t.root, ()))


# ---------------------------------------------------------------------------
# associahedron oracle (independent of the enumeration above)


def associahedron_face_counts(d_inputs: int) -> dict[int, int]:
    """Faces of the associahedron on ``d_inputs`` letters, by dimension.

    Brute force over families of pairwise nested-or-disjoint bracketings
    (proper consecutive subwords of length >= 2).  A family with ``j``
    brackets is a face of dimension ``d_inputs - 2 - j``.
    """
    intervals = [(i, j) for i in range(1, d_inputs + 1)
                 for j in range(i + 1, d_inputs + 1)
                 if not (i == 1 and j == d_inputs)]

    def compatible(a, b):
        (i1, j1), (i2, j2) = a, b
        if j1 < i2 or j2 < i1:
            return True  # disjoint
        if i1 <= i2 and j2 <= j1:
            return True  # nested
        if i2 <= i1 and j1 <= j2:
            return True
        return False

    counts: dict[int, int] = {}
    for r in range(len(intervals) + 1):
        for family in itertools.combinations(intervals, r):
            if all(compatible(a, b) for a, b in itertools.combinations(family, 2)):
                dim = d_inputs - 2 - len(family)
                counts[dim] = counts.get(dim, 0) + 1
    return counts


# ---------------------------------------------------------------------------
# boundary strata and the degeneration partial order


def boundary_strata(t: TreedDiskType) -> list[tuple[str, TreedDiskType]]:
    """Codimension-one degenerations of a stable type, tagged by operation.

    The operations are exactly: a vertex splitting into two joined by a new
    zero-length edge ("collapse"); a positive-length edge degenerating to
    length zero or breaking ("length_zero"/"length_inf").  Each stratum is
    listed once, sorted by operation and canonical key.
    """
    if not t.is_stable():
        raise UnstableTypeError("boundary strata are defined for stable types")
    strata: dict[TreedDiskType, str] = {}
    for op, root in _strata(t.root):
        strata.setdefault(TreedDiskType(root), op)
    return sorted(((op, s) for s, op in strata.items()),
                  key=lambda pair: (pair[0], pair[1].canonical_key()))


def _strata(node: Node):
    """``(op, vertex)`` for each degeneration of the subtree at a stable vertex."""
    slots, interior = node.slots, node.interior
    for i in range(len(slots) + 1):
        for j in range(i, len(slots) + 1):
            for moved in _subsets(interior):
                child = Node(slots[i:j], moved)
                kept = tuple(x for x in interior if x not in moved)
                parent = Node(slots[:i] + (("edge", child, ZERO),) + slots[j:], kept)
                if child.is_stable() and parent.is_stable():
                    yield "collapse", parent
    for i, slot in enumerate(slots):
        if slot[0] == "in":
            continue
        _, child, cls = slot
        moves = [("length_zero", child, ZERO), ("length_inf", child, INF)] if cls == POS else []
        moves += [(op, stratum, cls) for op, stratum in _strata(child)]
        for op, new_child, new_cls in moves:
            yield op, Node(slots[:i] + (("edge", new_child, new_cls),) + slots[i + 1:], interior)


def leq(lower: TreedDiskType, upper: TreedDiskType) -> bool:
    """Degeneration partial order: True iff ``lower`` is reachable from
    ``upper`` by finitely many codimension-one moves.

    The search goes down through ``boundary_strata``, never below the
    dimension of ``lower``, and keeps the types it has seen in a set.
    """
    if not (lower.is_stable() and upper.is_stable()):
        raise UnstableTypeError("partial order is defined on stable types")
    seen = {upper}
    frontier = [upper]
    while frontier:
        current = frontier.pop()
        if current == lower:
            return True
        if current.dim() <= lower.dim():
            continue
        for _, stratum in boundary_strata(current):
            if stratum not in seen:
                seen.add(stratum)
                frontier.append(stratum)
    return False
