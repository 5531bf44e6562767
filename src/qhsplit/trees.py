"""Stable treed-disk combinatorial types: enumeration, dimension, boundary.

A combinatorial type here is a planar rooted tree of disk vertices.  Each
vertex carries, in counterclockwise (ribbon) order, a list of slots that are
either boundary-input leaves or edges to child vertices, plus an unordered
collection of labelled interior inputs.  Finite edges carry a metric class
(length zero, positive length, or broken/infinite length).

Types are stored in a nested canonical form, so structural equality is
isomorphism of based ribbon trees with labelled inputs.

The census by dimension is counted from the shapes (trees of vertices and
boundary inputs) without building a type.  Every type has dimension
``b + 2i - 2 - #(edges of class ZERO or INF)``, whatever its shape or
interior placement, and edge classes do not affect stability; see
``census_by_dimension``.
"""

from __future__ import annotations

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

    # -- basic accessors -----------------------------------------------------
    def boundary_inputs(self) -> list:
        out = []

        def walk(node):
            for slot in node.slots:
                if slot[0] == "in":
                    out.append(slot[1])
                else:
                    walk(slot[1])
        walk(self.root)
        return out

    def interior_inputs(self) -> list:
        out = []

        def walk(node):
            out.extend(node.interior)
            for slot in node.children():
                walk(slot[1])
        walk(self.root)
        return sorted(out)

    def finite_edges(self) -> list:
        """All finite base edges as (path-to-child, metric-class)."""
        out = []

        def walk(node, path):
            for i, slot in enumerate(node.slots):
                if slot[0] == "edge":
                    out.append((path + (i,), slot[2]))
                    walk(slot[1], path + (i,))
        walk(self.root, ())
        return out

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

    def cut_at_breakings(self) -> list:
        """Split at infinite-length edges into unbroken types.

        The half of a broken edge pointing away from the root becomes the
        output of its piece; the half pointing towards the root becomes a
        boundary input labelled ``("brk", i)``.
        """
        pieces = []
        counter = itertools.count()

        def strip(node) -> Node:
            new_slots = []
            for slot in node.slots:
                if slot[0] == "in":
                    new_slots.append(slot)
                elif slot[2] == INF:
                    label = ("brk", next(counter))
                    new_slots.append(("in", label))
                    pieces.append(TreedDiskType(strip(slot[1])))
                else:
                    new_slots.append(("edge", strip(slot[1]), slot[2]))
            return Node(tuple(new_slots), node.interior)

        return [TreedDiskType(strip(self.root))] + pieces

    def __repr__(self):
        return f"TreedDiskType({self.canonical_key()})"


# ---------------------------------------------------------------------------
# constructors


def single_vertex_type(d_boundary: int, d_interior: int = 0) -> TreedDiskType:
    slots = tuple(("in", i + 1) for i in range(d_boundary))
    interior = tuple(range(1, d_interior + 1))
    return TreedDiskType(Node(slots, interior))


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

    Distinct shapes, interior placements and edge classes give distinct
    types, so each type is appended once, as it is built.
    """
    types = []
    for shape, _, _ in _stable_shapes(d_boundary, d_interior, metric_classes):
        vertex_paths = _vertex_paths(shape)
        for assignment in itertools.product(range(len(vertex_paths)), repeat=d_interior):
            placed = _place_interior(shape, vertex_paths, assignment)
            base = TreedDiskType(placed)
            if not base.is_stable():
                continue
            edges = base.finite_edges()
            for classes in itertools.product(metric_classes, repeat=len(edges)):
                types.append(_with_metric_classes(
                    base, dict(zip((p for p, _ in edges), classes))))
    return types


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
    """
    shapes = _stable_shapes(d_boundary, d_interior, metric_classes)
    pos = metric_classes.count(POS)
    non_pos = len(metric_classes) - pos
    top = d_boundary + 2 * d_interior - 2
    counts: dict[int, int] = {}
    for _, vertices, need in shapes:
        placements = sum((-1) ** k * math.comb(need, k) * (vertices - k) ** d_interior
                         for k in range(need + 1))
        edges = vertices - 1
        for j in range(edges + 1):
            count = placements * math.comb(edges, j) * non_pos ** j * pos ** (edges - j)
            if count:
                counts[top - j] = counts.get(top - j, 0) + count
    return counts


def _stable_shapes(d_boundary: int, d_interior: int, metric_classes: tuple) -> list:
    """Check the enumeration arguments and return the shape triples."""
    if d_boundary < 0 or d_interior < 0:
        raise ValueError("input counts must be nonnegative")
    if d_boundary == 0 and d_interior == 0:
        raise ValueError("a type needs at least one input or a vertex")
    for cls in metric_classes:
        if cls not in _METRIC_CLASSES:
            raise ValueError(f"unknown metric class {cls!r}")
    # summing the stability condition 1 + #slots + 2#interior >= 3 over the
    # V vertices gives V + (d_boundary + V - 1) + 2 d_interior >= 3V
    max_vertices = max(d_boundary + 2 * d_interior - 1, 1)
    return _enumerate_shapes(tuple(range(1, d_boundary + 1)), max_vertices, d_interior)


def _enumerate_shapes(labels: tuple, max_vertices: int, max_need: int):
    """Planar rooted trees over an ordered run of boundary labels.

    Returns ``(node, vertices, need)`` triples: each shape with its vertex
    count and its interior "need", the number of vertices with fewer than
    two slots, each of which needs an interior input to be stable.  Shapes
    whose need exceeds the number of interior inputs available, or whose
    vertex count exceeds ``max_vertices``, are pruned during generation.
    """
    cache: dict[tuple, list] = {}

    def build(run, depth):
        """All (node, vertices, need) triples over the given boundary run,
        using at most ``depth`` further levels of vertices."""
        if depth <= 0:
            return []
        key = (run, depth)
        if key in cache:
            return cache[key]
        results = []

        def extend(slot_options, slots, vertices, need):
            # depth-first product of the slot options; both totals only
            # grow, so a branch is cut as soon as either exceeds its bound
            if len(slots) == len(slot_options):
                results.append((Node(slots), vertices, need))
                return
            for slot, v, n in slot_options[len(slots)]:
                if vertices + v <= max_vertices and need + n <= max_need:
                    extend(slot_options, slots + (slot,), vertices + v, need + n)

        for blocks in _ordered_blocks(run):
            # interior inputs this vertex needs itself: ceil((2 - #slots)/2)
            own_need = 1 if len(blocks) < 2 else 0
            if own_need > max_need:
                continue
            slot_options = []
            for block in blocks:
                opts = [(("in", block[0]), 0, 0)] if len(block) == 1 else []
                opts += [(("edge", child, ZERO), v, need)
                         for child, v, need in build(block, depth - 1)]
                if not opts:
                    break
                slot_options.append(opts)
            else:
                extend(slot_options, (), 1, own_need)
        cache[key] = results
        return results

    def _ordered_blocks(run):
        # consecutive nonempty blocks covering the run, with at most
        # ``max_need`` empty blocks (vertices without boundary inputs,
        # each needing an interior input) placed in the gaps between them
        n = len(run)
        for cuts in itertools.product([0, 1], repeat=max(n - 1, 0)):
            ends = [i for i, cut in enumerate(cuts, start=1) if cut] + [n]
            blocks = [run[start:end] for start, end in zip([0] + ends, ends)] if n else []
            for empties in itertools.product(range(max_need + 1), repeat=len(blocks) + 1):
                if sum(empties) > max_need:
                    continue
                seq = []
                for count, block in zip(empties, blocks):
                    seq.extend([()] * count)
                    seq.append(block)
                seq.extend([()] * empties[-1])
                yield tuple(seq)

    return build(labels, max_vertices)


def _vertex_paths(node: Node, path=()) -> list:
    out = [path]
    for i, slot in enumerate(node.slots):
        if slot[0] == "edge":
            out.extend(_vertex_paths(slot[1], path + (i,)))
    return out


def _place_interior(node: Node, vertex_paths, assignment) -> Node:
    by_path: dict[tuple, list] = {}
    for label, vidx in enumerate(assignment, start=1):
        by_path.setdefault(vertex_paths[vidx], []).append(label)

    def rebuild(n, path):
        slots = []
        for i, slot in enumerate(n.slots):
            if slot[0] == "edge":
                slots.append(("edge", rebuild(slot[1], path + (i,)), slot[2]))
            else:
                slots.append(slot)
        return Node(tuple(slots), tuple(sorted(by_path.get(path, ()))))
    return rebuild(node, ())


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
    length zero or breaking ("length_zero"/"length_inf").
    """
    if not t.is_stable():
        raise UnstableTypeError("boundary strata are defined for stable types")
    out: dict[str, tuple[str, TreedDiskType]] = {}

    def add(op, new_type):
        if new_type.is_stable():
            out.setdefault(new_type.canonical_key(), (op, new_type))

    # (1) a new vertex with a zero-length edge (the stratum collapses onto t)
    for split in _vertex_splits(t):
        add("collapse", split)

    # (2) positive-length edges to zero or infinity
    for path, cls in t.finite_edges():
        if cls == POS:
            add("length_zero", _with_metric_classes(t, {path: ZERO}))
            add("length_inf", _with_metric_classes(t, {path: INF}))

    return sorted(out.values(), key=lambda pair: (pair[0], pair[1].canonical_key()))


def _vertex_splits(t: TreedDiskType):
    """All stable ways one vertex splits into parent+child with a zero edge."""
    results = []

    def walk(node, path):
        n = len(node.slots)
        interior = list(node.interior)
        for i in range(n + 1):
            for j in range(i, n + 1):
                block = node.slots[i:j]
                rest = node.slots[:i] + node.slots[j:]
                for r in range(len(interior) + 1):
                    for moved in itertools.combinations(interior, r):
                        kept = tuple(x for x in interior if x not in moved)
                        child = Node(tuple(block), tuple(sorted(moved)))
                        if not child.is_stable():
                            continue
                        parent = Node(rest[:i] + (("edge", child, ZERO),) + rest[i:], kept)
                        if not parent.is_stable():
                            continue
                        results.append(_replace_node(t, path, parent))
        for i, slot in enumerate(node.slots):
            if slot[0] == "edge":
                walk(slot[1], path + (i,))

    walk(t.root, ())
    return results


def _replace_node(t: TreedDiskType, path, new_node: Node) -> TreedDiskType:
    def rebuild(node, remaining):
        if not remaining:
            return new_node
        i = remaining[0]
        slot = node.slots[i]
        replaced = ("edge", rebuild(slot[1], remaining[1:]), slot[2])
        return Node(node.slots[:i] + (replaced,) + node.slots[i + 1:], node.interior)
    return TreedDiskType(rebuild(t.root, path))


def leq(lower: TreedDiskType, upper: TreedDiskType) -> bool:
    """Degeneration partial order: True iff ``lower`` is reachable from
    ``upper`` by finitely many codimension-one moves."""
    if not (lower.is_stable() and upper.is_stable()):
        raise UnstableTypeError("partial order is defined on stable types")
    target = lower.canonical_key()
    seen = {upper.canonical_key()}
    frontier = [upper]
    while frontier:
        current = frontier.pop()
        if current.canonical_key() == target:
            return True
        if current.dim() <= lower.dim() and current.canonical_key() != target:
            continue
        for _, nxt in boundary_strata(current):
            key = nxt.canonical_key()
            if key not in seen:
                seen.add(key)
                frontier.append(nxt)
    return target in seen
