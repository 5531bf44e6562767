import itertools
import math

import pytest

from qhsplit import trees
from qhsplit.trees import (
    Node,
    TreedDiskType,
    ZERO, POS, INF,
    associahedron_face_counts,
    boundary_strata,
    census_by_dimension,
    enumerate_stable_types,
)


def single_vertex_type(d_boundary, d_interior=0):
    slots = tuple(("in", i + 1) for i in range(d_boundary))
    interior = tuple(range(1, d_interior + 1))
    return TreedDiskType(Node(slots, interior))


def boundary_inputs(t):
    out = []

    def walk(node):
        for slot in node.slots:
            if slot[0] == "in":
                out.append(slot[1])
            else:
                walk(slot[1])
    walk(t.root)
    return out


def finite_edges(t):
    """All finite base edges of ``t`` as (path-to-child, metric-class)."""
    out = []

    def walk(node, path):
        for i, slot in enumerate(node.slots):
            if slot[0] == "edge":
                out.append((path + (i,), slot[2]))
                walk(slot[1], path + (i,))
    walk(t.root, ())
    return out


def interior_inputs(t):
    out = []

    def walk(node):
        out.extend(node.interior)
        for slot in node.children():
            walk(slot[1])
    walk(t.root)
    return sorted(out)


def cut_at_breakings(t):
    """Split at infinite-length edges into unbroken types.

    The half of a broken edge pointing away from the root becomes the
    output of its piece; the half pointing towards the root becomes a
    boundary input labelled ``("brk", i)``.
    """
    pieces = []
    counter = itertools.count()

    def strip(node):
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

    return [TreedDiskType(strip(t.root))] + pieces


def nodal_types(d):
    return enumerate_stable_types(d, 0, metric_classes=(ZERO,))


def tally(types):
    """The census by walking each type: the oracle for the counted census."""
    counts = {}
    for t in types:
        dim = t.dim()
        counts[dim] = counts.get(dim, 0) + 1
    return counts


def two_vertex_pos():
    """Three inputs, one positive-length edge: the interval cell."""
    child = Node((("in", 1), ("in", 2)))
    return TreedDiskType(Node((("edge", child, POS), ("in", 3))))


# --- enumeration and census ---------------------------------------------

def test_unique_stable_three_marked_disk():
    types = enumerate_stable_types(2, 0)
    assert len(types) == 1
    assert types[0].dim() == 0


def test_census_matches_bracketing_oracle():
    # the oracle enumerates nested-or-disjoint bracket families, by dimension
    for d in (2, 3, 4, 5):
        assert tally(nodal_types(d)) == associahedron_face_counts(d)
    for d in (2, 3, 4, 5, 6):
        assert census_by_dimension(d, 0, (ZERO,)) == associahedron_face_counts(d)


def test_nodal_census_is_the_kirkman_cayley_count():
    # the faces of the associahedron of d letters with j brackets are the
    # dissections of a (d + 1)-gon by j diagonals, C(d-2, j) C(d+j, j) / (j+1)
    # of them; their totals are the little Schroeder numbers
    totals = []
    for d in range(2, 13):
        expected = {d - 2 - j: math.comb(d - 2, j) * math.comb(d + j, j) // (j + 1)
                    for j in range(d - 1)}
        census = census_by_dimension(d, 0, (ZERO,))
        assert census == expected, d
        totals.append(sum(census.values()))
    assert totals[:6] == [1, 3, 11, 45, 197, 903]
    assert totals[-1] == 2646723


# (boundary, interior, metric classes) -> census by dimension; the cases
# with an interior input were recorded before the shape enumeration was
# rewritten
PINNED_CENSUSES = {
    (3, 0, (ZERO,)): {1: 1, 0: 2},
    (1, 1, (ZERO,)): {0: 2, 1: 1},
    (2, 1, (ZERO, POS, INF)): {0: 24, 1: 36, 2: 13},
    (3, 1, (ZERO,)): {0: 20, 1: 30, 2: 12, 3: 1},
    (3, 1, (ZERO, POS, INF)): {0: 160, 1: 360, 2: 264, 3: 63},
    (4, 1, (ZERO,)): {0: 70, 1: 140, 2: 90, 3: 20, 4: 1},
}


def test_census_d3_three_strata():
    assert len(nodal_types(3)) == 3
    for (d, i, metric), census in PINNED_CENSUSES.items():
        types = enumerate_stable_types(d, i, metric_classes=metric)
        assert tally(types) == census, (d, i, metric)
        assert census_by_dimension(d, i, metric) == census, (d, i, metric)


@pytest.mark.parametrize("d_boundary, d_interior", [(0, 2), (0, 3), (1, 2), (2, 2)])
def test_collapse_strata_are_enumerated(d_boundary, d_interior):
    # vertices without boundary inputs but with children of their own (disk
    # bubbles carrying only interior inputs) arise as collapse strata
    types = enumerate_stable_types(d_boundary, d_interior, metric_classes=(ZERO,))
    keys = {t.canonical_key() for t in types}
    for t in types:
        for op, stratum in boundary_strata(t):
            if op == "collapse":
                assert stratum.canonical_key() in keys, (t, stratum)


# (boundary, interior, metric classes), with the interior-only bubbles of
# (0, 2) and (0, 3) and the 8,857 types of (2, 2)
DISTINCT_CASES = ([(d, i, m) for d in range(5) for i in (0, 1)
                   for m in ((ZERO,), (ZERO, POS, INF)) if (d, i) != (0, 0)]
                  + [(0, 2, (ZERO, POS, INF)), (0, 3, (ZERO,)), (1, 2, (ZERO,)),
                     (2, 2, (ZERO, POS, INF))])


def test_enumerated_types_are_pairwise_distinct():
    # the enumeration appends each type as it builds it, so no key repeats
    for d, i, metric in DISTINCT_CASES:
        types = enumerate_stable_types(d, i, metric_classes=metric)
        keys = {t.canonical_key() for t in types}
        assert len(keys) == len(types), (d, i, metric)


# metric-class tuples that are not all three classes, counted with
# repetition as itertools.product counts them
METRIC_SUBSETS = [(ZERO,), (POS,), (INF,), (ZERO, POS), (ZERO, INF), (POS, INF),
                  (ZERO, ZERO)]
COUNT_CASES = (DISTINCT_CASES + [(3, 2, (ZERO,))]
               + [(d, i, m) for d, i in ((3, 1), (2, 2), (0, 3)) for m in METRIC_SUBSETS]
               + [(4, 2, (ZERO,)), (5, 2, (ZERO,)), (2, 3, (ZERO,)), (0, 4, (ZERO,)),
                  (3, 2, (ZERO, POS, INF))])


@pytest.mark.parametrize("d_boundary, d_interior, metric", COUNT_CASES,
                         ids=[f"{d}-{i}-{'/'.join(m)}" for d, i, m in COUNT_CASES])
def test_counted_census_matches_the_tally(d_boundary, d_interior, metric):
    types = enumerate_stable_types(d_boundary, d_interior, metric_classes=metric)
    assert census_by_dimension(d_boundary, d_interior, metric) == tally(types)


@pytest.mark.parametrize("metric", [("foo",), (ZERO, "foo")])
def test_unknown_metric_class_is_rejected(metric):
    for routine in (enumerate_stable_types, census_by_dimension):
        with pytest.raises(ValueError, match="'foo'"):
            routine(3, 0, metric_classes=metric)


def test_canonical_form_isomorphism_invariance():
    # the same structure assembled twice gives identical canonical keys
    a = TreedDiskType(Node((("edge", Node((("in", 1), ("in", 2))), ZERO), ("in", 3))))
    b = TreedDiskType(Node(tuple([("edge", Node(tuple([("in", 1), ("in", 2)])), ZERO),
                                  ("in", 3)])))
    assert a.canonical_key() == b.canonical_key()
    assert a == b


# --- dimension -------------------------------------------------------------

def test_dim_examples():
    assert single_vertex_type(2).dim() == 0
    assert single_vertex_type(3).dim() == 1
    assert single_vertex_type(1, 1).dim() == 1
    assert single_vertex_type(2, 2).dim() == 2 + 4 - 2
    assert two_vertex_pos().dim() == 1


def test_dim_broken_is_product():
    child = Node((("in", 1), ("in", 2)))
    broken = TreedDiskType(Node((("edge", child, INF), ("in", 3))))
    assert broken.dim() == 0


def test_dim_rejects_unstable_types():
    lonely = Node((("in", 1),))
    for t in (TreedDiskType(lonely),
              TreedDiskType(Node((("edge", lonely, INF), ("in", 2))))):
        with pytest.raises(trees.UnstableTypeError):
            t.dim()


def test_boundary_strata_rejects_unstable_types():
    # one boundary input and no interior one: the disk has no stable domain
    with pytest.raises(trees.UnstableTypeError, match="defined for stable types"):
        boundary_strata(single_vertex_type(1))


def reference_dim(t):
    """The cell dimension summed over the unbroken pieces of ``t``."""
    total = 0
    for piece in cut_at_breakings(t):
        zero = sum(1 for _, c in finite_edges(piece) if c == ZERO)
        total += (len(boundary_inputs(piece)) + 2 * len(interior_inputs(piece))
                  - zero - 2)
    return total


# the largest case, (5, 1), has 129,367 types
DIM_CASES = [(d, i, (ZERO, POS, INF)) for d in range(6) for i in (0, 1) if (d, i) != (0, 0)]


@pytest.mark.parametrize("d_boundary, d_interior, metric", DIM_CASES,
                         ids=[f"{d}-{i}-{'/'.join(m)}" for d, i, m in DIM_CASES])
def test_dim_matches_the_piecewise_formula(d_boundary, d_interior, metric):
    for t in enumerate_stable_types(d_boundary, d_interior, metric_classes=metric):
        assert t.dim() == reference_dim(t), t


# --- boundary strata ----------------------------------------------------------

def test_interval_cell_boundaries_are_length_degenerations():
    ops = boundary_strata(two_vertex_pos())
    kinds = sorted(op for op, _ in ops)
    assert kinds == ["length_inf", "length_zero"]
    for _, stratum in ops:
        assert stratum.dim() == 0


def test_top_cell_boundaries_are_collapses():
    ops = boundary_strata(single_vertex_type(3))
    assert [op for op, _ in ops] == ["collapse", "collapse"]
    for _, stratum in ops:
        assert stratum.dim() == 0 and stratum.is_stable()


def test_no_weight_or_length_moves_without_grey_or_positive():
    # with no positive edges only collapses remain
    ops = boundary_strata(single_vertex_type(3))
    assert not [op for op, _ in ops if op != "collapse"]


def test_strata_are_below_and_codimension_one():
    for d in (2, 3, 4):
        types = enumerate_stable_types(d, 0)
        for t in types:
            if t.dim() != 1:
                continue
            for op, stratum in boundary_strata(t):
                assert stratum.dim() == t.dim() - 1
                assert stratum in types


def test_closure_under_boundary():
    # iterated strata of the d=4 top cell stay inside the enumeration
    universe = {t.canonical_key() for t in enumerate_stable_types(4, 0)}
    frontier = [single_vertex_type(4)]
    seen = set()
    while frontier:
        current = frontier.pop()
        key = current.canonical_key()
        if key in seen:
            continue
        seen.add(key)
        assert key in universe
        if current.dim() >= 1:
            frontier.extend(s for _, s in boundary_strata(current))
