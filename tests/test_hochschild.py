import itertools
import math
import random
from collections import Counter
from fractions import Fraction as F

import pytest

from qhsplit import ainfty, hochschild, linalg, toric
from qhsplit.ainfty import AInftyAlgebra
from qhsplit.hochschild import (
    FlatCategory,
    chain_basis,
    chain_parity,
    hochschild_boundary_basis,
    hochschild_homology_dims,
)
from qhsplit.novikov import CyclotomicNumber as C, NovikovElement as N, euler_phi


def rank1_category():
    alg = AInftyAlgebra(["1"], [0], {2: {(0, 0): {0: N.one()}}}, unit=0)
    return FlatCategory.single(alg)


def clifford_category(n, kind="pn", k=0):
    if kind == "pn":
        W = toric.PotentialFunction.clifford_torus(n)
    else:
        W = toric.PotentialFunction.exceptional(n, F(1, 10))
    critical = toric.critical_points(W)[k]
    return FlatCategory.single(toric.brane_algebra(W, critical))


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


def hochschild_boundary(cat, chain):
    """The boundary of a chain, extended linearly from the basis chains."""
    acc = {}
    for key, scalar in chain.items():
        for k, v in hochschild_boundary_basis(cat, key).items():
            acc[k] = acc[k] + v * scalar if k in acc else v * scalar
    return {k: v for k, v in acc.items() if not v.is_zero()}


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
            ranks[length, parity] = linalg.row_reduce(
                [{column[t]: v for t, v in hochschild_boundary_basis(cat, key).items()}
                 for key in basis.get((length, parity), [])])[0]
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
    e = alg.basis.index("e1")
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


def contractions_oracle(tensors, reduced, word):
    """``hochschild._contractions`` with the wraparound blocks found by a scan
    of every pair (p, t) of front and back slot counts."""
    d = len(word)
    prefix = [0]
    for i in word:
        prefix.append(prefix[-1] ^ reduced(i))
    for arity, tensor in tensors.items():
        for start in range(0, d - arity):
            if inner := tensor.get(word[start:start + arity]):
                yield word[:start], word[start + arity:], prefix[start], inner
    for p in range(0, d):
        for t in range(0, d - p):
            tensor = tensors.get(t + 1 + p)
            if tensor and (inner := tensor.get(word[d - 1 - t:] + word[:p])):
                section = (prefix[p] & (1 ^ prefix[d] ^ prefix[p])) ^ prefix[d - 1] ^ prefix[p] ^ 1
                yield word[p:d - 1 - t], (), section, inner


def test_contractions_match_the_scan_over_all_wraparound_pairs():
    rng = random.Random(23)
    wraparound = Counter()
    for _ in range(40):
        # stored arities 1, 2 and 3, each with about half of its keys
        tensors = {arity: {key: {rng.randrange(3): N.one()}
                           for key in itertools.product(range(3), repeat=arity)
                           if rng.random() < 0.5}
                   for arity in (1, 2, 3)}
        alg = AInftyAlgebra(["a", "b", "c"], [rng.randrange(2) for _ in range(3)], tensors)
        for length in range(1, 6):
            word = tuple(rng.randrange(3) for _ in range(length))
            # id(inner) names the stored entry a block composed through
            got, want = (Counter((head, tail, sign, id(inner)) for head, tail, sign, inner
                                 in contractions(alg.tensors, alg.reduced, word))
                         for contractions in (hochschild._contractions, contractions_oracle))
            assert got == want, word
            # only a wraparound block, which holds the final slot, leaves no tail
            wraparound[length] += sum(n for key, n in got.items() if key[1] == ())
    assert all(wraparound[length] for length in range(1, 6))


def random_flat_category(rng):
    """One or two objects of rank 1-3 with random entries of stored arities
    drawn from 1, 2 and 3; an object of rank 2 or more may have a strict unit,
    generator 0, with the other entries keeping it out of their inputs."""
    algebras = []
    for _ in range(rng.randint(1, 2)):
        rank = rng.randint(1, 3)
        arities = rng.sample((1, 2, 3), rng.randint(1, 3))
        degrees = [0] + [rng.randrange(2) for _ in range(rank - 1)]
        unit = 0 if rank > 1 and rng.random() < 0.5 else None
        tensors = {arity: {key: {rng.randrange(rank): rng.choice((N.one(), -N.one()))}
                           for key in itertools.product(range(rank), repeat=arity)
                           if unit not in key and rng.random() < 0.5}
                   for arity in arities}
        if unit is not None:
            tensors.setdefault(2, {}).update(
                {pair: {i: N.one() if pair[0] == unit or degrees[i] == 0 else -N.one()}
                 for i in range(rank) for pair in ((unit, i), (i, unit))})
        alg = AInftyAlgebra([f"g{i}" for i in range(rank)], degrees, tensors, unit=unit)
        assert unit is None or not alg.unit_violations()
        algebras.append(alg)
    return FlatCategory(tuple(algebras))


@pytest.mark.parametrize("seed", range(8))
def test_every_contraction_lands_in_the_truncation_window(seed):
    # with m_0 = 0, hochschild_homology_dims finds a column for every
    # boundary target that is not degenerate, with no window check
    rng = random.Random(seed)
    for _ in range(10):
        cat = random_flat_category(rng)
        window = {key for length in range(1, 5) for key in chain_basis(cat, length)}
        for obj, word in window:
            alg = cat.algebras[obj]
            for head, tail, _, inner in hochschild._contractions(alg.tensors, alg.reduced, word):
                for o in inner:
                    assert (obj, head + (o,) + tail) in window, (obj, word)
    curved = AInftyAlgebra(["1"], [0], {0: {(): {0: N.one()}}})
    with pytest.raises(ValueError, match="m_0 = 0"):
        FlatCategory.single(curved)


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
    forward = linalg.row_reduce(rows)[0]
    backward = linalg.row_reduce(list(reversed(rows)))[0]
    relabeled = linalg.row_reduce([{-c: v for c, v in row.items()} for row in rows])[0]
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


def not_associative_category():
    # m_2(a, a) = b, m_2(b, b) = a, m_2(a, b) = a: right degrees, failed
    # relations; unchecked, length 4 gave dimensions -3 and -1
    one = N.one()
    return FlatCategory.single(AInftyAlgebra(
        ["a", "b"], [0, 0], {2: {(0, 0): {1: one}, (1, 1): {0: one}, (0, 1): {0: one}}}))


def test_a_negative_dimension_is_refused():
    with pytest.raises(ValueError, match=r"object 0 breaks the A-infinity relations at "
                                         r"\(3, \(0, 0, 0\), 0\)"):
        hochschild_homology_dims(not_associative_category(), 4)


def random_integer_algebra(rng):
    """Rank 1-3, one or two stored arities from 1, 2 and 3, and integer
    constants at q^0 on about half of the inputs, each output of the degree
    that the degree rule asks for, so that only the relations can fail."""
    rank = rng.randint(1, 3)
    degrees = [rng.randrange(2) for _ in range(rank)]
    tensors = {}
    for arity in rng.sample((1, 2, 3), rng.randint(1, 2)):
        tensors[arity] = {}
        for key in itertools.product(range(rank), repeat=arity):
            degree = (sum(degrees[i] for i in key) + arity) % 2  # the degree rule: sum + 2 - arity
            outputs = [o for o in range(rank) if degrees[o] == degree]
            if outputs and rng.random() < 0.5:
                constant = N.from_rational(rng.choice((-2, -1, 1, 2)))
                tensors[arity][key] = {rng.choice(outputs): constant}
    return AInftyAlgebra([f"g{i}" for i in range(rank)], degrees, tensors)


# the relations are checked on whichever scalars rank the object: the
# integer tables, or, with no weights, the truncated Novikov scalars
scalar_paths = pytest.mark.parametrize("q_weights", [AInftyAlgebra.q_weights, lambda self: None],
                                       ids=["integer", "novikov"])


def relation_refusal(obj, alg):
    """The refusal of object ``obj``, naming the first violation that
    ``ainfty verify`` lists for ``alg`` on its integer tables."""
    first = ainfty.check_ainfty(alg)[0]
    at = (first.arity, tuple(alg.basis.index(x) for x in first.inputs),
          alg.basis.index(first.output))
    return (f"object {obj} breaks the A-infinity relations at {at!r} "
            "(arity, inputs, output); see qhsplit ainfty verify")


@scalar_paths
def test_exactly_the_algebras_that_break_the_relations_are_refused(q_weights, monkeypatch):
    rng = random.Random(11)
    draws = [random_integer_algebra(rng) for _ in range(300)]
    assert not any(alg.degree_violations() for alg in draws)
    expected = [relation_refusal(0, alg) if ainfty.check_ainfty(alg) else None for alg in draws]
    monkeypatch.setattr(AInftyAlgebra, "q_weights", q_weights)
    for draw, (alg, message) in enumerate(zip(draws, expected)):
        cat = FlatCategory.single(alg)
        if message is None:
            hochschild_homology_dims(cat, 4)
            continue
        with pytest.raises(ValueError) as refusal:
            hochschild_homology_dims(cat, 4)
        assert str(refusal.value) == message, draw
    assert sum(message is not None for message in expected) == 125


@scalar_paths
def test_a_second_object_that_breaks_the_relations_is_named(q_weights, monkeypatch):
    # object 1 of the orders 3 and 4 category, with its last product doubled,
    # is checked on its own tables at order 4
    first, second = orders_3_and_4_category().algebras
    tensors = {d: dict(store) for d, store in second.tensors.items()}
    key = max(tensors[2])
    tensors[2][key] = {o: v * N.from_rational(2) for o, v in tensors[2][key].items()}
    broken = AInftyAlgebra(second.basis, second.degrees, tensors, unit=second.unit)
    assert not ainfty.check_ainfty(first) and not broken.degree_violations()
    message = relation_refusal(1, broken)
    monkeypatch.setattr(AInftyAlgebra, "q_weights", q_weights)
    with pytest.raises(ValueError) as refusal:
        hochschild_homology_dims(FlatCategory((first, broken)), 3)
    assert str(refusal.value) == message


def test_a_degree_violation_is_refused():
    # m_1(1) = 1 in degree 0, where m_1 must raise the degree by one
    alg = AInftyAlgebra(["1"], [0], {1: {(0,): {0: N.one()}}})
    with pytest.raises(ValueError, match=r"object 0 breaks the degree rule at \(1, \(0,\), 0\)"):
        hochschild_homology_dims(FlatCategory.single(alg), 4)


def test_cutoff_limited_ranks_are_flagged():
    # e^2 = q^4 + q^5 has no weights, so the ranks are taken over the
    # truncated scalars, whose structure constants sit above the cutoff 3
    from qhsplit.toric import clifford_algebra
    alg = clifford_algebra([[N.q_power(4) + N.q_power(5)]])
    assert alg.q_weights() is None
    report = hochschild_homology_dims(FlatCategory.single(alg), 4)
    assert report.cutoff_limited
    assert report.dims == {0: 3, 1: 3}
    assert not report.stable


def test_ranks_through_a_truncated_pivot_inverse_are_flagged():
    # every entry is exact and there are no weights, but a non-monomial
    # pivot's inverse is a series cut at the rank cutoff; unflagged, length
    # 4 showed dimension -1
    from qhsplit.toric import clifford_algebra
    off, top = N.from_rational(2) - N.q_power(1), N.q_power(F(3, 2))
    alg = clifford_algebra([[top, off], [off, top - N.monomial(2, 3)]])
    report = hochschild_homology_dims(FlatCategory.single(alg), 5)
    assert report.cutoff_limited
    assert report.rank_cutoff == 3


def test_homogeneous_constants_above_the_cutoff_are_exact():
    # e^2 = q^4: with e' = q^-2 e, e'^2 = 1 over the Novikov field, so the
    # homology is the Clifford algebra's one class in parity 1
    from qhsplit.toric import clifford_algebra
    alg = clifford_algebra([[N.q_power(4)]])
    assert alg.q_weights() == (0, 2)
    report = hochschild_homology_dims(FlatCategory.single(alg), 4)
    assert not report.cutoff_limited and report.rank_cutoff is None
    assert report.dims == {0: 0, 1: 1}
    assert report.stable


# --- ranks over the coefficient field -------------------------------------------

def brane_categories():
    """(category, length) at every critical point of projective n <= 3 and
    exceptional n <= 3 at two eps, the orders 3 and 4 category and the dga
    fixture."""
    cases = []
    families = [("pn", n, toric.PotentialFunction.clifford_torus(n), length)
                for n, length in ((1, 6), (2, 5), (3, 3))]
    families += [(f"exc{eps}", n, toric.PotentialFunction.exceptional(n, eps), length)
                 for eps in (F(1, 10), F(1, 3)) for n, length in ((2, 5), (3, 4))]
    for kind, n, W, length in families:
        for k, critical in enumerate(toric.critical_points(W)):
            cases.append(pytest.param(FlatCategory.single(toric.brane_algebra(W, critical)),
                                      length, id=f"{kind} n={n} point {k}"))
    cases.append(pytest.param(orders_3_and_4_category(), 3, id="orders 3 and 4"))
    cases.append(pytest.param(dga_category(), 4, id="dga"))
    return cases


def orders_3_and_4_category():
    """Two objects whose constants lie in Q(zeta_3) and Q(i), each ranked in
    its own field (phi 2), though the lcm of their orders is 12."""
    algebras = []
    for n in (2, 3):
        W = toric.PotentialFunction.clifford_torus(n)
        algebras.append(toric.brane_algebra(W, toric.critical_points(W)[1]))
    return FlatCategory(tuple(algebras))


@pytest.mark.parametrize("cat, length", brane_categories())
def test_coefficient_field_ranks_match_the_novikov_ranks(cat, length, monkeypatch):
    assert all(alg.q_weights() is not None for alg in cat.algebras)
    exact = hochschild_homology_dims(cat, length)
    # without weights, the same category is ranked over the Novikov scalars
    monkeypatch.setattr(AInftyAlgebra, "q_weights", lambda self: None)
    novikov = hochschild_homology_dims(cat, length)
    assert not exact.cutoff_limited and not novikov.cutoff_limited
    assert exact.per_length == novikov.per_length
    assert exact.dims == novikov.dims
    assert exact.stable == novikov.stable


def integer_row_cases():
    """(category, length) at every critical point of projective n <= 3 and
    exceptional n <= 3 at two eps, up to length 4, and the orders 3 and 4
    category."""
    families = [(f"pn n={n}", toric.PotentialFunction.clifford_torus(n)) for n in (1, 2, 3)]
    families += [(f"exc{eps} n={n}", toric.PotentialFunction.exceptional(n, eps))
                 for eps in (F(1, 10), F(1, 3)) for n in (2, 3)]
    cases = [pytest.param(FlatCategory.single(toric.brane_algebra(W, critical)), 4, id=f"{name} point {k}")
             for name, W in families for k, critical in enumerate(toric.critical_points(W))]
    cases.append(pytest.param(orders_3_and_4_category(), 3, id="orders 3 and 4"))
    return cases


@pytest.mark.parametrize("cat, length", integer_row_cases())
def test_integer_rows_match_the_realified_boundary(cat, length):
    # oracle: the boundary over the coefficient category, each constant c q^x
    # replaced by c q^0 with c in the field of the lcm of the orders of its
    # object's irrational c, and each entry v realified by field products,
    # den * (zeta^k v) at the object's order
    def coefficient_tensors(alg):
        coefficients = [v.terms[0][1] for store in alg.tensors.values()
                        for vec in store.values() for v in vec.values()]
        field = math.lcm(1, *(c.order for c in coefficients if not c.is_rational()))
        return {d: {key: {o: N.from_cyclotomic(v.terms[0][1].to_order(field))
                          for o, v in vec.items()}
                    for key, vec in store.items()} for d, store in alg.tensors.items()}

    coefficient = FlatCategory(tuple(
        AInftyAlgebra(alg.basis, alg.degrees, coefficient_tensors(alg), unit=alg.unit,
                      n_grading=alg.n_grading) for alg in cat.algebras))
    # a column for every chain but those with the unit in a non-final slot
    keys = [key for n in range(1, length + 1) for key in chain_basis(cat, n)
            if cat.algebras[key[0]].unit not in key[1][:-1]]
    column = {key: i for i, key in enumerate(keys)}.get
    for obj, alg in enumerate(cat.algebras):
        constants = [v.terms[0][1] for store in coefficient.algebras[obj].tensors.values()
                     for vec in store.values() for v in vec.values()]
        order = math.lcm(*(v.order for v in constants))
        den = math.lcm(*(v.den for v in constants))
        tables_order, phi, tables, tables_den, _ = ainfty.coefficient_tensors(alg)
        assert (tables_order, phi, tables_den) == (order, euler_phi(order), den)
        for key in keys:
            if key[0] != obj:
                continue
            expected = {}
            for target, v in hochschild_boundary_basis(coefficient, key).items():
                if column(target) is not None:
                    multiples = [(C.root_of_unity(order, k) * v.specialize_q_to_one()).to_order(order)
                                 for k in range(phi)]
                    expected[column(target)] = tuple(n * (den // w.den) for w in multiples
                                                     for n in w.num)
            assert hochschild._integer_row(tables, cat, key, column) == expected, key


def field_operations(monkeypatch, call):
    """The ``CyclotomicNumber`` additions, negations, products and embeddings
    that ``call()`` makes, counted by name, and its result."""
    calls = Counter()
    for name in ("__add__", "__neg__", "__mul__", "to_order"):
        def counted(*args, name=name, method=getattr(C, name)):
            calls[name] += 1
            return method(*args)
        monkeypatch.setattr(C, name, counted)
    try:
        return calls, call()
    finally:
        monkeypatch.undo()


def test_the_field_path_does_no_scalar_arithmetic_per_chain(monkeypatch):
    # the constants are converted once per algebra, so the count of field
    # operations is the same at length 3 (456 chains) and 4 (3,200)
    W = toric.PotentialFunction.clifford_torus(3)
    cat = FlatCategory.single(toric.brane_algebra(W, toric.critical_points(W)[1]))

    def operations(length):
        calls, report = field_operations(monkeypatch, lambda: hochschild_homology_dims(cat, length))
        assert report.dims == {0: 0, 1: 1}
        return calls

    assert operations(3) == operations(4)


def test_the_relation_check_does_no_scalar_arithmetic_per_term(monkeypatch):
    # the relation sums of a rank-8 algebra at order 4 have 2,928 terms, and
    # they are taken on the integer tables: the check makes the field
    # operations of building those tables and no others
    W = toric.PotentialFunction.clifford_torus(3)
    alg = toric.brane_algebra(W, toric.critical_points(W)[1])
    tables, _ = field_operations(monkeypatch, lambda: ainfty.coefficient_tensors(alg))
    checked, violations = field_operations(monkeypatch, lambda: ainfty.check_ainfty(alg))
    assert violations == []
    assert checked == tables
    assert tables["__mul__"] > 0  # realify's multiples of zeta_4


def bound_cases():
    """(category, length) at critical points 0 and 1 (exceptional n = 2 has
    only 0) of projective n <= 3 and exceptional n = 2, 3, for every length
    up to 4."""
    families = [(f"pn n={n}", toric.PotentialFunction.clifford_torus(n)) for n in (1, 2, 3)]
    families += [(f"exc n={n}", toric.PotentialFunction.exceptional(n, F(1, 10))) for n in (2, 3)]
    return [pytest.param(FlatCategory.single(toric.brane_algebra(W, critical)),
                         length, id=f"{name} point {k} length {length}")
            for name, W in families for k, critical in enumerate(toric.critical_points(W)[:2])
            for length in (2, 3, 4)]


def unbounded_ranks(monkeypatch):
    """Make every ``integer_rank`` build all its rows and take no bound."""
    integer_rank = linalg.integer_rank
    monkeypatch.setattr(linalg, "integer_rank", lambda rows, phi, bound=None:
                        integer_rank(list(rows), phi))


@pytest.mark.parametrize("cat, length", bound_cases())
def test_bounded_ranks_match_the_ranks_of_every_row(cat, length, monkeypatch):
    bounded = hochschild_homology_dims(cat, length)
    unbounded_ranks(monkeypatch)
    every_row = hochschild_homology_dims(cat, length)
    assert bounded.dims == every_row.dims
    assert bounded.per_length == every_row.per_length
    assert bounded.stable == every_row.stable


def test_the_kernel_bound_builds_fewer_than_half_of_the_rows(monkeypatch):
    # P^3's brane algebra at its first critical point has 456 chains up to
    # length 3; the blocks of lengths 2 and 3 have ranks 24 and 25 and stop
    # building rows once they reach them
    W = toric.PotentialFunction.clifford_torus(3)
    cat = FlatCategory.single(toric.brane_algebra(W, toric.critical_points(W)[0]))
    built = Counter()
    integer_row = hochschild._integer_row

    def counted(*args):
        built["rows"] += 1
        return integer_row(*args)

    monkeypatch.setattr(hochschild, "_integer_row", counted)
    assert hochschild_homology_dims(cat, 3).dims == {0: 0, 1: 1}
    bounded = built.pop("rows")
    unbounded_ranks(monkeypatch)
    assert hochschild_homology_dims(cat, 3).dims == {0: 0, 1: 1}
    assert built["rows"] == 456
    assert bounded < 456 / 2


def test_the_weights_of_each_object_are_solved_once(monkeypatch):
    # the relation check and the ranks share one set of integer tables
    calls = Counter()
    q_weights = AInftyAlgebra.q_weights

    def counted(self):
        calls[id(self)] += 1
        return q_weights(self)

    monkeypatch.setattr(AInftyAlgebra, "q_weights", counted)
    for cat in (clifford_category(3), orders_3_and_4_category()):
        calls.clear()
        hochschild_homology_dims(cat, 3)
        assert sorted(calls) == sorted(id(alg) for alg in cat.algebras)
        assert set(calls.values()) == {1}


def mixed_category():
    """Cl(q^4), which has weights, beside Cl(q^4 + q^5), which has none."""
    from qhsplit.toric import clifford_algebra
    return FlatCategory((clifford_algebra([[N.q_power(4)]]),
                         clifford_algebra([[N.q_power(4) + N.q_power(5)]])))


def test_an_object_with_weights_is_ranked_exactly_beside_one_without():
    # the first object takes the integer path and keeps its one class; the
    # second takes the truncated scalars, whose cutoff-limited ranks show
    exact, inexact = mixed_category().algebras
    assert hochschild_homology_dims(FlatCategory.single(exact), 4).dims == {0: 0, 1: 1}
    assert hochschild_homology_dims(FlatCategory.single(inexact), 4).dims == {0: 3, 1: 3}
    report = hochschild_homology_dims(mixed_category(), 4)
    assert report.cutoff_limited and report.rank_cutoff == 3
    assert report.dims == {0: 3, 1: 4}


def direct_sum_cases():
    """(category, length) for every multi-object category here."""
    cliffords = FlatCategory(clifford_category(1).algebras + clifford_category(2).algebras)
    return [pytest.param(orders_3_and_4_category(), 3, id="orders 3 and 4 length 3"),
            pytest.param(orders_3_and_4_category(), 4, id="orders 3 and 4 length 4"),
            pytest.param(cliffords, 4, id="clifford ranks 2 and 4"),
            pytest.param(mixed_category(), 4, id="with and without weights")]


@pytest.mark.parametrize("cat, length", direct_sum_cases())
def test_a_category_is_the_direct_sum_of_its_objects(cat, length):
    # chains never mix objects, so each object's report is its summand
    whole = hochschild_homology_dims(cat, length)
    parts = [hochschild_homology_dims(FlatCategory.single(alg), length) for alg in cat.algebras]
    assert whole.dims == {p: sum(part.dims[p] for part in parts) for p in (0, 1)}
    assert whole.per_length == {n: {p: sum(part.per_length[n][p] for part in parts)
                                    for p in (0, 1)} for n in range(1, length)}
    assert whole.stable == all(part.stable for part in parts)
    assert whole.cutoff_limited == any(part.cutoff_limited for part in parts)


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
        quotient_dim = alg.rank - linalg.row_reduce(rows)[0]
        assert quotient_dim == 1
        report = hochschild_homology_dims(cat, 4)
        assert sum(report.per_length[1].values()) == quotient_dim
