"""Stable treed-disk combinatorial types: enumeration, dimension, boundary.

A combinatorial type here is a planar rooted tree of disk vertices.  Each
vertex carries, in counterclockwise (ribbon) order, a list of slots that are
either boundary-input leaves or edges to child vertices, plus an unordered
collection of labelled interior inputs.  Finite edges carry a metric class
(length zero, positive length, or broken/infinite length) and boundary inputs
carry a weight class (black = weight 0, grey = weight in (0,1), white =
weight 1).  Interior inputs are always black.  The output weight class is
determined by the product rule: black if any input is black, white if all are
white, grey otherwise.

Types are stored in a nested canonical form, so structural equality is
isomorphism of based ribbon trees with labelled inputs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction


ZERO, POS, INF = "zero", "pos", "inf"
BLACK, GREY, WHITE = "black", "grey", "white"

_METRIC_CLASSES = (ZERO, POS, INF)
_WEIGHT_CLASSES = (BLACK, GREY, WHITE)


class EnumerationBudgetError(RuntimeError):
    """Raised when an enumeration would exceed its vertex budget."""


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
    """A stable combinatorial type: rooted planar tree + weight classes.

    ``weights`` maps each boundary-input label to its weight class.  The
    output class is derived, never stored.
    """

    root: Node
    weights: tuple = ()  # sorted tuple of (input_label, class)

    # -- basic accessors -----------------------------------------------------
    def weight_of(self, label) -> str:
        for lab, cls in self.weights:
            if lab == label:
                return cls
        return BLACK

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

    def vertex_count(self) -> int:
        def walk(node):
            return 1 + sum(walk(slot[1]) for slot in node.children())
        return walk(self.root)

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

    def edge_count(self) -> int:
        """Total number of edges: finite base edges plus semi-infinite ones.

        A broken edge contributes its two halves, so the count adds up
        exactly over the pieces of a broken type.
        """
        k = len(self.boundary_inputs())
        l = len(self.interior_inputs())
        edges = self.finite_edges()
        finite = len(edges) + sum(1 for _, cls in edges if cls == INF)
        return finite + k + l + 1  # +1 for the output

    def output_weight(self) -> str:
        """Weight class of the output, forced by the product-of-inputs rule."""
        classes = [self.weight_of(lab) for lab in self.boundary_inputs()]
        if self.interior_inputs():
            classes.append(BLACK)
        if not classes:
            return BLACK
        if any(c == BLACK for c in classes):
            return BLACK
        if any(c == GREY for c in classes):
            return GREY
        return WHITE

    # -- validity ------------------------------------------------------------
    def is_stable(self) -> bool:
        def walk(node):
            if not node.is_stable():
                return False
            return all(walk(slot[1]) for slot in node.children())
        return walk(self.root)

    def validate(self):
        labels = self.boundary_inputs()
        if len(set(labels)) != len(labels):
            raise ValueError("duplicate boundary input labels")
        for lab, cls in self.weights:
            if cls not in _WEIGHT_CLASSES:
                raise ValueError(f"unknown weight class {cls}")
            if lab not in labels:
                raise ValueError(f"weight assigned to unknown input {lab}")
        return self

    # -- canonical form ------------------------------------------------------
    def canonical_key(self) -> str:
        def render(node):
            parts = []
            for slot in node.slots:
                if slot[0] == "in":
                    parts.append(f"i{slot[1]}:{self.weight_of(slot[1])}")
                else:
                    parts.append(f"e[{slot[2]}]{render(slot[1])}")
            inner = ",".join(parts)
            interior = ",".join(str(x) for x in node.interior)
            return f"({inner};{interior})"
        return render(self.root)

    # -- dimension -----------------------------------------------------------
    def dim(self) -> int:
        """Dimension of the cell of treed disks with this combinatorial type.

        For unbroken types this is
        ``k + 2l + #grey - #zero_edges - 2#interior_edges - (2 or 4)``
        with the last constant 4 exactly when the output is grey.  Broken
        types (edges of infinite length) are scored as products: the type is
        cut at each breaking and the per-piece dimensions are added.

        One walk sums ``[k, l, #grey inputs, #zero edges, any black input]``
        per piece; an infinite edge closes a piece and is one black input of
        its parent.
        """
        weight = dict(reversed(self.weights))  # first entry wins, as in weight_of
        pieces = []

        def walk(node, acc):
            if not node.is_stable():
                raise UnstableTypeError("dimension is defined for stable types only")
            acc[1] += len(node.interior)
            acc[4] = acc[4] or bool(node.interior)
            for slot in node.slots:
                if slot[0] == "in":
                    cls = weight.get(slot[1], BLACK)
                    acc[0] += 1
                    acc[2] += cls == GREY
                    acc[4] = acc[4] or cls == BLACK
                elif slot[2] == INF:
                    pieces.append(walk(slot[1], [0, 0, 0, 0, False]))
                    acc[0] += 1
                    acc[4] = True
                else:
                    acc[3] += slot[2] == ZERO
                    walk(slot[1], acc)
            return acc

        pieces.append(walk(self.root, [0, 0, 0, 0, False]))
        # a grey output (no black input, some grey one) adds one grey edge
        # and lowers the constant from 2 to 4
        return sum(k + 2 * l + grey - zero - (3 if grey and not black else 2)
                   for k, l, grey, zero, black in pieces)

    def cut_at_breakings(self) -> list:
        """Split at infinite-length edges into unbroken types.

        The half of a broken edge pointing away from the root becomes the
        output of its piece; the half pointing towards the root becomes a
        black boundary input labelled ``("brk", i)``.
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
                    pieces.append(TreedDiskType(strip(slot[1]),
                                                _weights_for_subtree(self, slot[1])))
                else:
                    new_slots.append(("edge", strip(slot[1]), slot[2]))
            return Node(tuple(new_slots), node.interior)

        top = TreedDiskType(strip(self.root),
                            tuple((lab, cls) for lab, cls in self.weights))
        out = [top] + pieces
        # weights of stripped pieces must only mention their own inputs
        fixed = []
        for piece in out:
            labs = set(piece.boundary_inputs())
            fixed.append(TreedDiskType(piece.root,
                                       tuple((lab, cls) for lab, cls in piece.weights
                                             if lab in labs)))
        return fixed

    def __repr__(self):
        return f"TreedDiskType({self.canonical_key()})"


def _weights_for_subtree(full: TreedDiskType, node: Node) -> tuple:
    labs = set()

    def walk(n):
        for slot in n.slots:
            if slot[0] == "in":
                labs.add(slot[1])
            else:
                walk(slot[1])
    walk(node)
    return tuple((lab, cls) for lab, cls in full.weights if lab in labs)


# ---------------------------------------------------------------------------
# constructors


def single_vertex_type(d_boundary: int, d_interior: int = 0, weights=()) -> TreedDiskType:
    slots = tuple(("in", i + 1) for i in range(d_boundary))
    interior = tuple(range(1, d_interior + 1))
    return TreedDiskType(Node(slots, interior), tuple(sorted(weights))).validate()


# ---------------------------------------------------------------------------
# enumeration


def enumerate_stable_types(
    d_boundary: int,
    d_interior: int = 0,
    max_vertices: int | None = None,
    metric_classes: tuple = _METRIC_CLASSES,
    grey_inputs: tuple = (),
    white_inputs: tuple = (),
) -> list[TreedDiskType]:
    """All isomorphism classes of stable types, each exactly once.

    Boundary inputs are labelled ``1..d_boundary`` in counterclockwise order
    and interior inputs ``1..d_interior``.  ``metric_classes`` restricts the
    classes finite edges may take; the default allows all three, and
    ``(ZERO,)`` gives the nodal census, where every finite edge has length
    zero.  ``grey_inputs`` and ``white_inputs`` assign fixed weight classes
    to the named boundary inputs; everything else is black.
    """
    if d_boundary < 0 or d_interior < 0:
        raise ValueError("input counts must be nonnegative")
    if d_boundary == 0 and d_interior == 0:
        raise ValueError("a type needs at least one input or a vertex")
    needed = max(d_boundary + 2 * d_interior - 1, 1)
    budget = max_vertices if max_vertices is not None else 2 * (d_boundary + d_interior) + 2
    if budget < needed:
        raise EnumerationBudgetError(
            f"enumeration budget: need up to {needed} vertices, budget {budget}")

    weights = tuple(sorted([(lab, GREY) for lab in grey_inputs]
                           + [(lab, WHITE) for lab in white_inputs]))

    shapes = _enumerate_shapes(tuple(range(1, d_boundary + 1)), budget, d_interior)
    results: dict[str, TreedDiskType] = {}
    for shape in shapes:
        vertex_paths = _vertex_paths(shape)
        for assignment in itertools.product(range(len(vertex_paths)), repeat=d_interior):
            placed = _place_interior(shape, vertex_paths, assignment)
            base = TreedDiskType(placed, weights)
            if not base.is_stable():
                continue
            edges = base.finite_edges()
            for classes in itertools.product(metric_classes, repeat=len(edges)):
                typed = _with_metric_classes(base, dict(zip((p for p, _ in edges), classes)))
                results[typed.canonical_key()] = typed
    ordered = sorted(results.items(), key=lambda item: (item[1].vertex_count(), item[0]))
    return [t for _, t in ordered]


def _enumerate_shapes(labels: tuple, budget: int, max_need: int):
    """Planar rooted trees over an ordered run of boundary labels.

    Shapes are produced together with their vertex count and their interior
    "need": the minimal number of interior inputs required to stabilize all
    currently under-stabilized vertices.  Shapes whose need exceeds the
    number of interior inputs available, or whose vertex count exceeds the
    budget, are pruned during generation.
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
                if vertices + v <= budget and need + n <= max_need:
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

    return [node for node, _, _ in build(labels, budget)]


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
    return TreedDiskType(rebuild(t.root, ()), t.weights)


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


def census_by_dimension(types: list[TreedDiskType]) -> dict[int, int]:
    counts: dict[int, int] = {}
    for t in types:
        dim = t.dim()
        counts[dim] = counts.get(dim, 0) + 1
    return counts


# ---------------------------------------------------------------------------
# boundary strata and the degeneration partial order


def boundary_strata(t: TreedDiskType) -> list[tuple[str, TreedDiskType]]:
    """Codimension-one degenerations of a stable type, tagged by operation.

    The operations are exactly: a vertex splitting into two joined by a new
    zero-length edge ("collapse"); a positive-length edge degenerating to
    length zero or breaking ("length_zero"/"length_inf"); a grey input weight
    reaching zero or one ("weight_zero"/"weight_one"), with weight-one the
    only admissible move when the output itself is weighted.
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

    # (3)/(4) grey input weights reaching an end of (0,1)
    grey = [lab for lab, cls in t.weights if cls == GREY]
    output_grey = t.output_weight() == GREY
    for lab in grey:
        if output_grey and len(grey) < 2:
            # the single grey weight is tied to the output weight by the
            # product rule and carries no modulus of its own
            continue
        add("weight_one", _set_weight(t, lab, WHITE))
        if not output_grey:
            add("weight_zero", _set_weight(t, lab, BLACK))

    return sorted(out.values(), key=lambda pair: (pair[0], pair[1].canonical_key()))


def _set_weight(t: TreedDiskType, label, cls) -> TreedDiskType:
    weights = tuple(sorted([(lab, c) for lab, c in t.weights if lab != label]
                           + ([] if cls == BLACK else [(label, cls)])))
    return TreedDiskType(t.root, weights)


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
    return TreedDiskType(rebuild(t.root, path), t.weights)


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


# ---------------------------------------------------------------------------
# map-type bookkeeping


@dataclass(frozen=True)
class MapTypeSkeleton:
    """Index data over a domain type: Maslov index, asymptotics, constraints.

    ``constraint_codims`` lists the codimension of the constraint at each
    interior input (2 per input for a divisor constraint of multiplicity
    one); ``branes`` and ``corners`` carry the boundary labels along for
    bookkeeping.
    """

    domain: TreedDiskType
    maslov: int = 0
    morse_indices: tuple = ()
    constraint_codims: tuple = ()
    branes: tuple = ()
    corners: tuple = ()

    def expected_dim(self) -> int:
        if not self.domain.is_stable():
            raise UnstableTypeError("expected dimension needs a stable domain")
        return (self.domain.dim() + self.maslov + sum(self.morse_indices)
                - sum(self.constraint_codims))


def crowded_reduction_drop(replacements: int) -> int:
    """Expected-dimension drop when collapsing repeated-label interior inputs
    onto ghost bubbles: two per replacement."""
    return 2 * replacements


def energy_bound(t: TreedDiskType, k: int, lam: Fraction, a: Fraction) -> Fraction:
    """A priori energy bound ``#Edge/k + lam * a`` for perturbed disk counts."""
    if k == 0:
        raise ZeroDivisionError("divisor degree k must be nonzero")
    return Fraction(t.edge_count(), k) + Fraction(lam) * Fraction(a)
