from fractions import Fraction as F

import pytest

from qhsplit import trees
from qhsplit.trees import (
    EnumerationBudgetError,
    MapTypeSkeleton,
    Node,
    TreedDiskType,
    ZERO, POS, INF,
    associahedron_face_counts,
    boundary_strata,
    census_by_dimension,
    crowded_reduction_drop,
    energy_bound,
    enumerate_stable_types,
    leq,
    single_vertex_type,
)


def nodal_types(d):
    return enumerate_stable_types(d, 0, metric_classes=(ZERO,))


def two_vertex_pos(first_pair=True):
    """Three inputs, one positive-length edge: the interval cell."""
    if first_pair:
        child = Node((("in", 1), ("in", 2)))
        return TreedDiskType(Node((("edge", child, POS), ("in", 3))))
    child = Node((("in", 2), ("in", 3)))
    return TreedDiskType(Node((("in", 1), ("edge", child, POS))))


# --- enumeration and census ---------------------------------------------

def test_unique_stable_three_marked_disk():
    types = enumerate_stable_types(2, 0)
    assert len(types) == 1
    assert types[0].dim() == 0


def test_census_matches_bracketing_oracle():
    # the oracle enumerates nested-or-disjoint bracket families, by dimension
    for d in (2, 3, 4, 5):
        assert census_by_dimension(nodal_types(d)) == associahedron_face_counts(d)


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
        assert census_by_dimension(types) == census, (d, i, metric)


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


def test_enumeration_budget_error():
    with pytest.raises(EnumerationBudgetError, match="enumeration budget"):
        enumerate_stable_types(4, 0, max_vertices=1)


def test_canonical_form_isomorphism_invariance():
    # the same structure assembled twice gives identical canonical keys
    a = TreedDiskType(Node((("edge", Node((("in", 1), ("in", 2))), ZERO), ("in", 3))))
    b = TreedDiskType(Node(tuple([("edge", Node(tuple([("in", 1), ("in", 2)])), ZERO),
                                  ("in", 3)])))
    assert a.canonical_key() == b.canonical_key()
    assert a == b


def test_weighted_census_product_identity():
    # grey inputs contribute interval factors: the count over a fixed
    # grey assignment equals the black-only skeleton count
    for d in (2, 3):
        plain = enumerate_stable_types(d, 0)
        grey = enumerate_stable_types(d, 0, grey_inputs=(1,))
        assert len(grey) == len(plain)


# --- dimension -------------------------------------------------------------

def test_dim_examples():
    assert single_vertex_type(2).dim() == 0
    assert single_vertex_type(3).dim() == 1
    assert single_vertex_type(1, 1).dim() == 1
    assert single_vertex_type(2, 2).dim() == 2 + 4 - 2
    assert two_vertex_pos().dim() == 1


def test_dim_grey_output_drop():
    # two grey inputs and a grey output: k + #grey - 4
    t = single_vertex_type(2, 0, weights=((1, trees.GREY), (2, trees.GREY)))
    assert t.output_weight() == trees.GREY
    assert t.dim() == 2 + 3 - 4


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


def reference_dim(t):
    """The cell dimension summed over the unbroken pieces of ``t``."""
    total = 0
    for piece in t.cut_at_breakings():
        out = piece.output_weight()
        grey = sum(1 for _, c in piece.weights if c == trees.GREY) + (out == trees.GREY)
        zero = sum(1 for _, c in piece.finite_edges() if c == ZERO)
        total += (len(piece.boundary_inputs()) + 2 * len(piece.interior_inputs())
                  + grey - zero - (4 if out == trees.GREY else 2))
    return total


# (5, 1) with all three metric classes has 129,367 types, about 50 s of the
# reference formula under the four weightings; it runs without positive edges
DIM_CASES = [(d, i, (ZERO, POS, INF)) for d in range(6) for i in (0, 1)
             if (d, i) not in ((0, 0), (5, 1))] + [(5, 1, (ZERO, INF))]


@pytest.mark.parametrize("d_boundary, d_interior, metric", DIM_CASES,
                         ids=[f"{d}-{i}-{'/'.join(m)}" for d, i, m in DIM_CASES])
def test_dim_matches_the_piecewise_formula(d_boundary, d_interior, metric):
    weightings = [(), ((1, trees.GREY),),
                  ((1, trees.GREY), (2, trees.GREY), (3, trees.WHITE)),
                  tuple((lab, trees.WHITE) for lab in range(1, d_boundary + 1))]
    for t in enumerate_stable_types(d_boundary, d_interior, metric_classes=metric):
        for weights in weightings:
            weighted = TreedDiskType(t.root, weights)
            assert weighted.dim() == reference_dim(weighted), weighted


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


def test_grey_weight_boundaries():
    # one grey input, unweighted output: strata at weight zero and one
    t = single_vertex_type(3, 0, weights=((1, trees.GREY),))
    assert t.output_weight() == trees.BLACK
    ops = [op for op, _ in boundary_strata(t) if op.startswith("weight")]
    assert sorted(ops) == ["weight_one", "weight_zero"]


def test_no_weight_or_length_moves_without_grey_or_positive():
    # with no grey inputs and no positive edges only collapses remain
    ops = boundary_strata(single_vertex_type(3))
    assert not [op for op, _ in ops if op != "collapse"]


def test_strata_are_below_and_codimension_one():
    for d in (2, 3, 4):
        for t in enumerate_stable_types(d, 0):
            if t.dim() != 1:
                continue
            for op, stratum in boundary_strata(t):
                assert stratum.dim() == t.dim() - 1
                assert leq(stratum, t)


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


# --- partial order ---------------------------------------------------------

def test_leq_reflexive():
    t = single_vertex_type(3)
    assert leq(t, t)


def test_leq_endpoint_below_top_cell():
    top = two_vertex_pos()
    endpoint = trees._with_metric_classes(top, {top.finite_edges()[0][0]: ZERO})
    assert leq(endpoint, top)


def test_leq_distinct_top_cells_incomparable():
    a, b = two_vertex_pos(True), two_vertex_pos(False)
    assert not leq(a, b)
    assert not leq(b, a)


# --- expected dimension and energy ----------------------------------------

def test_expected_dim_divisor_constraints():
    # all interior inputs carrying codimension-two constraints cancel 2l
    t = single_vertex_type(2, 2)
    skeleton = MapTypeSkeleton(t, maslov=0, morse_indices=(),
                               constraint_codims=(2, 2))
    assert t.dim() == 2 + 4 - 2
    assert skeleton.expected_dim() == t.dim() - 4


def test_expected_dim_substitution():
    skeleton = MapTypeSkeleton(single_vertex_type(2), maslov=2)
    assert skeleton.expected_dim() == 2


def test_crowded_reduction_drop():
    assert crowded_reduction_drop(1) == 2
    assert crowded_reduction_drop(3) == 6


def test_energy_bound_values():
    t = single_vertex_type(2)  # edges: 2 inputs + output = 3
    assert t.edge_count() == 3
    assert energy_bound(t, 6, F(0), F(0)) == F(1, 2)
    assert energy_bound(t, 3, F(1, 100), F(2)) == 1 + F(1, 50)
    with pytest.raises(ZeroDivisionError):
        energy_bound(t, 0, F(0), F(0))


def test_energy_additive_under_breaking():
    # a broken type splits so that edge counts and a-values add exactly
    child = Node((("in", 1), ("in", 2)))
    broken = TreedDiskType(Node((("edge", child, INF), ("in", 3))))
    pieces = broken.cut_at_breakings()
    assert broken.edge_count() == sum(p.edge_count() for p in pieces)
    k = 4
    total = energy_bound(broken, k, F(1, 10), F(3))
    parts = sum(energy_bound(p, k, F(1, 10), a) for p, a in zip(pieces, (F(1), F(2))))
    assert total == parts
