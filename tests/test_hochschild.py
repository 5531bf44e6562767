from fractions import Fraction as F

from qhsplit import linalg, toric
from qhsplit.ainfty import AInftyAlgebra
from qhsplit.hochschild import (
    FlatCategory,
    chain_basis,
    chain_parity,
    hochschild_boundary,
    hochschild_boundary_basis,
    hochschild_homology_dims,
)
from qhsplit.novikov import NovikovElement as N


def rank1_category():
    alg = AInftyAlgebra(["1"], [0], {2: {(0, 0): {0: N.one()}}}, unit=0)
    return FlatCategory.single(alg)


def clifford_category(n, kind="pn", k=0):
    if kind == "pn":
        W = toric.PotentialFunction.clifford_torus(n)
    else:
        W = toric.PotentialFunction.exceptional(n, F(1, 10))
    y = toric.critical_points(W)[k]
    return FlatCategory.single(toric.brane_algebra(W, y))


def dga_category():
    # a two-generator algebra with a nonzero differential, for sign coverage
    one = N.one
    alg = AInftyAlgebra(
        ["1", "e"], [0, 1],
        {1: {(1,): {0: one()}},
         2: {(0, 0): {0: one()}, (0, 1): {1: one()}, (1, 0): {1: -one()}}},
        unit=0)
    return FlatCategory.single(alg)


def exterior_category(unit=0):
    # Lambda[e]: basis 1, e in degrees 0, 1 with e * e = 0
    one = N.one
    alg = AInftyAlgebra(
        ["1", "e"], [0, 1],
        {2: {(0, 0): {0: one()}, (0, 1): {1: one()}, (1, 0): {1: -one()}}},
        unit=unit)
    return FlatCategory.single(alg)


def full_complex_per_length(cat, max_length):
    """Per-length homology of the whole complex, degenerate chains and all."""
    basis = {}
    for length in range(1, max_length + 1):
        for key in chain_basis(cat, length):
            basis.setdefault((length, chain_parity(cat, key)), []).append(key)
    column = {key: i for keys in basis.values() for i, key in enumerate(keys)}
    ranks = {}

    def rank(length, parity):
        if (length, parity) not in ranks:
            ranks[length, parity] = linalg.rank(
                [{column[t]: v for t, v in hochschild_boundary_basis(cat, key).items()}
                 for key in basis.get((length, parity), [])])
        return ranks[length, parity]

    return {length: {parity: len(basis.get((length, parity), [])) - rank(length, parity)
                     - rank(length + 1, 1 - parity) for parity in (0, 1)}
            for length in range(1, max_length)}


# --- boundary -------------------------------------------------------------

def test_boundary_squares_to_zero():
    for cat, maxlen in ((rank1_category(), 5), (clifford_category(1), 5),
                        (clifford_category(2), 4), (dga_category(), 4)):
        for length in range(1, maxlen + 1):
            for key in chain_basis(cat, length):
                once = hochschild_boundary_basis(cat, key)
                twice = hochschild_boundary(cat, once)
                assert not twice, (key, twice)


def test_pair_chain_has_wraparound_terms_only():
    # with no differential, a two-factor chain contracts only around the cycle
    cat = clifford_category(1)
    alg = cat.algebras[0]
    e = alg.index_of("e1")
    image = hochschild_boundary_basis(cat, (0, (e, e)))
    # both wraparound contractions of m_2(e, e) land on the unit chain
    assert set(image) <= {(0, (alg.unit,))}


def test_single_chain_boundary_vanishes_without_differential():
    cat = clifford_category(2)
    for key in chain_basis(cat, 1):
        assert hochschild_boundary_basis(cat, key) == {}


def test_unit_pair_chain_closed():
    cat = rank1_category()
    assert hochschild_boundary_basis(cat, (0, (0, 0))) == {}


def test_boundary_flips_parity():
    cat = clifford_category(2)
    for length in (2, 3):
        for key in chain_basis(cat, length):
            p = chain_parity(cat, key)
            for target in hochschild_boundary_basis(cat, key):
                assert chain_parity(cat, target) == 1 - p


# --- homology dimensions ----------------------------------------------------

def test_rank_one_algebra_dimension():
    report = hochschild_homology_dims(rank1_category(), 6)
    assert report.dims == {0: 1, 1: 0}
    assert report.stable


def test_clifford_homology_one_dimensional():
    for n, kind, length in ((1, "pn", 6), (2, "pn", 5), (2, "exc", 5)):
        report = hochschild_homology_dims(clifford_category(n, kind), length)
        assert report.total() == 1, (n, kind, report.dims)
        assert report.dims[n % 2] == 1
        assert report.stable


def test_dims_independent_of_ordering():
    # the rank of a boundary block is basis-order independent
    cat = clifford_category(2)
    rows = []
    for key in chain_basis(cat, 3):
        image = hochschild_boundary_basis(cat, key)
        rows.append({hash(t): v for t, v in image.items()})
    forward = linalg.rank(rows)
    backward = linalg.rank(list(reversed(rows)))
    relabeled = linalg.rank([{-c: v for c, v in row.items()} for row in rows])
    assert forward == backward == relabeled


def test_length_filtration_stabilizes():
    report = hochschild_homology_dims(clifford_category(1), 6)
    assert all(sum(v.values()) == 0 for length, v in report.per_length.items()
               if length >= 2)


def test_nongraded_category_flagged():
    report = hochschild_homology_dims(dga_category(), 3)
    assert not report.graded
    assert not report.stable


def test_nongraded_dims_rank_each_parity_over_all_lengths():
    # m_1(e) = 1 makes the complex acyclic; ranking each length's boundary
    # block separately counts images shared between lengths twice
    for max_length in (3, 4, 5):
        assert hochschild_homology_dims(dga_category(), max_length).dims == {0: 0, 1: 0}


def test_cutoff_limited_ranks_are_flagged():
    # structure constants at valuation 4 sit above the default cutoff 3
    from qhsplit.toric import clifford_algebra
    alg = clifford_algebra([[N.q_power(4)]], 1)
    report = hochschild_homology_dims(FlatCategory.single(alg), 4)
    assert report.cutoff_limited


# --- the normalized complex ---------------------------------------------------

def test_degenerate_chains_form_a_subcomplex():
    # a chain with the unit in a non-final slot has a boundary of such chains
    # only, so dropping them leaves a quotient complex
    for cat, maxlen in ((rank1_category(), 4), (clifford_category(1), 4),
                        (clifford_category(2), 4), (clifford_category(3), 3),
                        (clifford_category(2, "exc"), 4), (dga_category(), 4)):
        unit = cat.algebras[0].unit
        degenerate = 0
        for length in range(2, maxlen + 1):
            for key in chain_basis(cat, length):
                if unit not in key[1][:-1]:
                    continue
                degenerate += 1
                for target in hochschild_boundary_basis(cat, key):
                    assert unit in target[1][:-1], (key, target)
        assert degenerate


def test_normalized_homology_matches_the_full_complex():
    cases = (rank1_category(), clifford_category(1), clifford_category(2),
             clifford_category(2, "exc"), exterior_category())
    for cat in cases:
        report = hochschild_homology_dims(cat, 5)
        full = full_complex_per_length(cat, 5)
        assert report.per_length == full
        assert report.dims == {parity: sum(h[parity] for h in full.values())
                               for parity in (0, 1)}


def test_failed_unit_axioms_give_the_full_complex():
    # e is declared the unit of Lambda[e] but is not one; dropping the words
    # with e in a non-final slot would lose the classes of lengths 2..4
    cat = exterior_category(unit=1)
    assert cat.algebras[0].unit_violations()
    report = hochschild_homology_dims(cat, 5)
    assert report.per_length == full_complex_per_length(cat, 5)
    assert report.dims == {0: 4, 1: 4}


def test_supercommutator_quotient_oracle():
    # independent bottom-layer oracle: dim A/[A,A]_s = 1 for nondegenerate
    # Clifford algebras, matching the reported homology at length one
    for n in (1, 2):
        cat = clifford_category(n)
        alg = cat.algebras[0]
        rows = []
        for a in range(alg.rank):
            for b in range(alg.rank):
                # super-commutator via the composition dictionary:
                # ab = (-1)^{|a|} m_2(a, b)
                comm: dict = {}
                for o, v in alg.m_basis((a, b)).items():
                    s = v if alg.degrees[a] % 2 == 0 else -v
                    comm[o] = comm.get(o, N.zero()) + s
                sign = alg.degrees[a] * alg.degrees[b]
                for o, v in alg.m_basis((b, a)).items():
                    s = v if alg.degrees[b] % 2 == 0 else -v
                    s = -s if sign % 2 == 0 else s
                    comm[o] = comm.get(o, N.zero()) + s
                rows.append(comm)
        quotient_dim = alg.rank - linalg.rank(rows)
        assert quotient_dim == 1
        report = hochschild_homology_dims(cat, 4)
        assert sum(report.per_length[1].values()) == quotient_dim
