import contextlib
import io
import json
import random
from fractions import Fraction as F

import pytest

from qhsplit import toric
from qhsplit.cli import EXIT_FAILURE, main
from qhsplit.ainfty import AInftyAlgebra, Violation, check_ainfty
from qhsplit.novikov import CyclotomicNumber, NovikovElement as N, euler_phi


def clifford_pn(n, k=0):
    W = toric.PotentialFunction.clifford_torus(n)
    critical = toric.critical_points(W)[k]
    return toric.brane_algebra(W, critical), W, critical


def curved_rank2(curvature=None):
    one = N.one
    c = N.q_power(F(1, 3))
    tensors = {2: {(0, 0): {0: one()}, (0, 1): {1: one()},
                   (1, 0): {1: -one()}, (1, 1): {0: -c}}}
    if curvature is not None:
        tensors[0] = {(): {0: curvature}}
    return AInftyAlgebra(["1", "e"], [0, 1], tensors, unit=0)


# --- relation checking ------------------------------------------------------

def test_clifford_algebras_pass():
    for n in (1, 2, 3):
        alg, _, _ = clifford_pn(n)
        assert check_ainfty(alg) == []
        assert alg.unit_violations() == []
        assert alg.degree_violations() == []


def test_perturbed_structure_constant_reports_violation():
    alg, _, _ = clifford_pn(2)
    tensors = {d: {k: dict(v) for k, v in entries.items()}
               for d, entries in alg.tensors.items()}
    e1, e2 = alg.basis.index("e1"), alg.basis.index("e2")
    bad = dict(tensors[2][(e1, e2)])
    bad[alg.unit] = bad.get(alg.unit, N.zero()) + N.q_power(1)
    tensors[2][(e1, e2)] = bad
    broken = AInftyAlgebra(alg.basis, alg.degrees, tensors, unit=alg.unit)
    violations = check_ainfty(broken)
    assert violations
    assert isinstance(violations[0], Violation)
    names = violations[0].inputs
    assert "e1" in names or "e2" in names


def unit_violations_oracle(alg):
    """The strict-unit check written out: each m_2 with the unit minus its
    expected vector, and every other stored insertion of the unit."""
    bad = []
    e = alg.unit
    for i in range(alg.rank):
        for key, want, what in (((e, i), N.one(), "left unit"),
                                ((i, e), N.from_rational((-1) ** alg.degrees[i]), "right unit")):
            diff = alg.m_basis(key)
            diff[i] = diff.get(i, N.zero()) - want
            if any(not v.is_zero() for v in diff.values()):
                bad.append((2, key, what))
    for d, entries in alg.tensors.items():
        for key, vec in entries.items():
            if d != 2 and e in key and any(not v.is_zero() for v in vec.values()):
                bad.append((d, key, "unit insertion"))
    return sorted(bad, key=repr)


def test_unit_violations_match_the_written_out_check():
    alg, _, _ = clifford_pn(2)
    e1, e12 = alg.basis.index("e1"), alg.basis.index("e12")

    def edited(*entries):
        tensors = {d: {k: dict(v) for k, v in store.items()} for d, store in alg.tensors.items()}
        for key, vec in entries:
            tensors.setdefault(len(key), {})[key] = vec
        return AInftyAlgebra(alg.basis, alg.degrees, tensors, unit=alg.unit)

    q = N.q_power(1)
    cases = {
        "clean": alg,
        "left_scaled": edited(((0, e1), {e1: q})),
        "left_extra_output": edited(((0, e12), {e12: N.one(), 0: q})),
        "left_missing": edited(((0, e1), {})),
        "right_sign_flipped": edited(((e1, 0), {e1: N.one()})),
        "m3_with_unit": edited(((e1, 0, e1), {e1: q}), ((e1, e1, e1), {e1: q})),
        "curved": curved_rank2(N.q_power(F(1, 2))),
        "unit_not_a_unit": AInftyAlgebra(alg.basis, alg.degrees, alg.tensors, unit=e1),
    }
    for name, case in cases.items():
        assert case.unit_violations() == unit_violations_oracle(case), name
    assert cases["clean"].unit_violations() == []
    assert all(cases[name].unit_violations() for name in cases if name not in ("clean", "curved"))


def test_curvature_multiple_of_unit_passes():
    alg = curved_rank2(N.monomial(F(1, 2), 3))
    assert check_ainfty(alg) == []


def m4_only():
    # m_4(x,x,x,x) = y and m_4(y,x,x,x) = x: every relation of arity up to 6
    # is empty, and m_4 nested in m_4 breaks the relation of arity 7
    one = N.one()
    return AInftyAlgebra(["x", "y"], [1, 0],
                         {4: {(0, 0, 0, 0): {1: one}, (1, 0, 0, 0): {0: one}}})


def test_relations_are_checked_at_every_arity_the_tensors_reach():
    violations = check_ainfty(m4_only())
    assert len(violations) == 8
    assert {v.arity for v in violations} == {7}
    assert violations[0].inputs == ("x",) * 7 and violations[0].output == "x"
    assert violations == sorted(violations, key=lambda v: (v.inputs, v.output))


def test_ainfty_verify_reports_an_arity_7_violation(tmp_path):
    path = tmp_path / "m4.json"
    path.write_text(json.dumps(m4_only().to_json_dict()), encoding="utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["ainfty", "verify", str(path)])
    payload = json.loads(out.getvalue())
    assert code == EXIT_FAILURE
    assert payload["ok"] is False
    assert [v["arity"] for v in payload["relation_violations"]] == [7] * 8


# --- q-homogeneous weights ----------------------------------------------------

def brane_algebras_with_weights():
    """All 32 brane algebras: projective n=1..4 and exceptional n=2..4 at
    three eps, at every critical point."""
    potentials = [toric.PotentialFunction.clifford_torus(n) for n in range(1, 5)]
    potentials += [toric.PotentialFunction.exceptional(n, eps)
                   for eps in (F(1, 10), F(1, 3), F(2, 5)) for n in range(2, 5)]
    for W in potentials:
        for critical in toric.critical_points(W):
            yield W, critical, toric.brane_algebra(W, critical)


def test_brane_algebras_are_q_homogeneous():
    count = 0
    for W, critical, alg in brane_algebras_with_weights():
        count += 1
        w = alg.q_weights()
        assert w is not None
        # every stored entry is c q^(sum of input weights - output weight)
        for store in alg.tensors.values():
            for key, vec in store.items():
                for o, value in vec.items():
                    assert value.is_monomial()
                    assert value.val_q() == sum(w[i] for i in key) - w[o]
        # e_S is the product of its generators, and e_a e_b + e_b e_a = 2 Q_ab
        # with Q = -H/2, so w(e_a) + w(e_b) is the valuation of H_ab
        gens = [alg.basis.index(f"e{a + 1}") for a in range(W.n)]
        assert w[alg.unit] == 0
        for i, name in enumerate(alg.basis[1:], 1):
            assert w[i] == sum(w[gens[int(a) - 1]] for a in name[1:])
        for a, row in enumerate(critical.hessian):
            for b, entry in enumerate(row):
                if not entry.is_zero():
                    assert w[gens[a]] + w[gens[b]] == entry.val_q()
    assert count == 32


def test_q_weights_reject_a_two_term_entry():
    alg = toric.clifford_algebra([[N.q_power(1) + N.q_power(2)]])
    assert alg.q_weights() is None


def test_q_weights_reject_a_finite_cutoff():
    # c q^x + O(q^3) is not one exact term
    alg = toric.clifford_algebra([[N.q_power(1, cutoff=3)]])
    assert alg.q_weights() is None
    exact = toric.clifford_algebra([[N.q_power(1)]])
    assert exact.q_weights() == (0, F(1, 2))
    declared = AInftyAlgebra(exact.basis, exact.degrees, exact.tensors,
                             unit=exact.unit, cutoff=3)
    assert declared.q_weights() is None


def test_least_cutoff_counts_the_declared_cutoff_and_every_constant():
    exact = toric.clifford_algebra([[N.q_power(4)]])
    assert exact.least_cutoff is None

    def rebuilt(value, cutoff=None):
        # e1 e1 replaced by value, which the constructor drops when it is 0
        tensors = {2: exact.tensors[2] | {(1, 1): {0: value}}}
        return AInftyAlgebra(exact.basis, exact.degrees, tensors, unit=exact.unit, cutoff=cutoff)

    # 0 + O(q^3) is dropped from the tensors, but not known past q^3
    zero = rebuilt(N.zero(cutoff=3))
    assert (1, 1) not in zero.tensors[2]
    assert zero.least_cutoff == 3 and zero.q_weights() is None
    assert rebuilt(N.q_power(4, cutoff=5), cutoff=2).least_cutoff == 2
    assert rebuilt(N.q_power(1, cutoff=2), cutoff=5).least_cutoff == 2
    assert rebuilt(N.q_power(4), cutoff=F(1, 2)).least_cutoff == F(1, 2)
    # exact constants declare no cutoff
    field = AInftyAlgebra(["1"], [0], {2: {(0, 0): {0: N.one()}}}, unit=0)
    assert field.least_cutoff is None


def test_a_constant_that_is_not_a_novikov_element_is_refused():
    # a bare coefficient has no q-exponents, which the unit, relation and
    # JSON checks all read
    with pytest.raises(TypeError, match=r"m_2\(0, 0\) output 0: CyclotomicNumber"):
        AInftyAlgebra(["1"], [0], {2: {(0, 0): {0: CyclotomicNumber.one()}}}, unit=0)


def test_q_weights_reject_inconsistent_exponents():
    # e1 e1 = q forces w(e1) = 1/2, while e2 e1 = 2 - e1 e2 has a q-free unit
    # term, forcing w(e1) + w(e2) = 0 = w(e2)
    one = N.one()
    alg = toric.clifford_algebra([[N.q_power(1), one], [one, one]])
    assert alg.q_weights() is None


# --- relations over the coefficient field -----------------------------------------

def with_flipped_signs(alg, seed, flips=3):
    """The algebra with the signs of ``flips`` seeded entries flipped (all of
    them if it has fewer); each entry keeps its q-exponent, so the algebra
    stays q-homogeneous."""
    tensors = {d: {k: dict(v) for k, v in entries.items()}
               for d, entries in alg.tensors.items()}
    entries = sorted((d, key) for d, store in tensors.items() for key in store)
    for d, key in random.Random(seed).sample(entries, min(flips, len(entries))):
        tensors[d][key] = {o: -value for o, value in tensors[d][key].items()}
    return AInftyAlgebra(alg.basis, alg.degrees, tensors, unit=alg.unit)


def brane(kind, n, point):
    if kind == "projective":
        W = toric.PotentialFunction.clifford_torus(n)
    else:
        W = toric.PotentialFunction.exceptional(n, F(1, 10))
    return toric.brane_algebra(W, toric.critical_points(W)[point])


# irrational coefficients (orders 3 and 4) at point 1 of P^2 and P^3,
# rational ones at point 0 of P^3 and of the exceptional n=3 model
@pytest.mark.parametrize("kind, n, point", [("projective", 2, 1), ("projective", 3, 1),
                                            ("projective", 3, 0), ("exceptional", 3, 0)])
@pytest.mark.parametrize("seed", [None, 0, 1, 2])
def test_coefficient_field_violations_match_the_novikov_violations(kind, n, point, seed,
                                                                   monkeypatch):
    alg = brane(kind, n, point)
    if seed is not None:
        alg = with_flipped_signs(alg, seed)
    assert alg.q_weights() is not None
    exact = check_ainfty(alg)
    assert bool(exact) == (seed is not None)
    # without weights, the same algebra is checked over the Novikov scalars
    monkeypatch.setattr(AInftyAlgebra, "q_weights", lambda self: None)
    novikov = check_ainfty(alg)
    assert exact == novikov
    assert repr(exact) == repr(novikov)


def test_a_violation_is_printed_in_the_field_of_the_lcm_order(monkeypatch):
    # x and y do not interact; m_2(x, x) = z3 x and m_2(y, y) = z4 y break
    # associativity by 2 z3^2 x and 2 z4^2 y = -2 y.  Over the coefficient
    # field every constant lives at order 12, and so does the first value;
    # the Novikov arithmetic keeps it at order 3.  The values are equal.
    z3, z4 = CyclotomicNumber.root_of_unity(3), CyclotomicNumber.root_of_unity(4)
    alg = AInftyAlgebra(["x", "y"], [1, 1], {2: {(0, 0): {0: N.from_cyclotomic(z3)},
                                                 (1, 1): {1: N.from_cyclotomic(z4)}}})
    violations = check_ainfty(alg)
    assert [(v.inputs, v.output) for v in violations] == [(("x",) * 3, "x"), (("y",) * 3, "y")]
    assert violations[0].value == N.from_cyclotomic(z3 * z3 * CyclotomicNumber.from_rational(2))
    assert violations[0].value.leading()[1].order == 12
    assert violations[1].value == N.from_rational(-2)
    monkeypatch.setattr(AInftyAlgebra, "q_weights", lambda self: None)
    novikov = check_ainfty(alg)
    assert novikov == violations
    assert novikov[0].value.leading()[1].order == 3
    assert repr(novikov[0]) != repr(violations[0])


# --- random algebras on both paths ----------------------------------------------

# the orders of the irrational constants of one algebra; each lcm has phi <= 4
ORDER_MIXES = [(1,), (3,), (4,), (5,), (8,), (12,), (3, 4), (4, 8), (1, 3, 4, 12)]


def random_coefficient(rng, orders):
    """A nonzero constant of one of ``orders``, with denominators up to 6."""
    order = rng.choice(orders)
    while True:
        coeffs = [F(rng.randint(-3, 3), rng.choice((1, 2, 3, 6))) for _ in range(euler_phi(order))]
        if any(coeffs):
            return CyclotomicNumber(order, coeffs)


def random_algebra(rng, orders):
    """A sparse algebra with entries of arities 1 to 3, q-homogeneous for
    random weights."""
    rank = rng.randint(2, 4)
    weights = [F(rng.randint(-4, 4), rng.choice((1, 2, 3))) for _ in range(rank)]
    tensors = {}
    for _ in range(rng.randint(4, 12)):
        key = tuple(rng.randrange(rank) for _ in range(rng.randint(1, 3)))
        o = rng.randrange(rank)
        tensors.setdefault(len(key), {}).setdefault(key, {})[o] = N.monomial(
            sum(weights[i] for i in key) - weights[o], random_coefficient(rng, orders))
    return AInftyAlgebra([f"x{i}" for i in range(rank)], [rng.randrange(2) for _ in range(rank)],
                         tensors)


def rescaled_brane(rng, orders):
    """The brane algebra at point 0 of the exceptional n=2 model, whose
    constants are rational and stored at order 1, in the basis
    ``e'_a = lambda_a q^(s_a) e_a``, random ``lambda_a`` of ``orders`` and
    ``s_a``: an isomorphic algebra, so its relations hold."""
    alg = brane("exceptional", 2, 0)
    scale = [N.monomial(F(rng.randint(-2, 2), 3), random_coefficient(rng, orders))
             for _ in range(alg.rank)]
    inverse = [N.monomial(-s.val_q(), s.leading()[1].inverse()) for s in scale]
    tensors = {}
    for d, store in alg.tensors.items():
        for key, vec in store.items():
            factor = N.one()
            for i in key:
                factor = factor * scale[i]
            tensors.setdefault(d, {})[key] = {o: value * factor * inverse[o]
                                              for o, value in vec.items()}
    return AInftyAlgebra(alg.basis, alg.degrees, tensors, unit=alg.unit)


@pytest.mark.parametrize("orders", ORDER_MIXES, ids=str)
@pytest.mark.parametrize("seed", range(4))
def test_random_algebras_give_the_same_violations_on_both_paths(orders, seed, monkeypatch):
    rng = random.Random(f"{orders} {seed}")
    algebras = [random_algebra(rng, orders), rescaled_brane(rng, orders)]
    algebras += [with_flipped_signs(alg, rng.randrange(1000)) for alg in algebras]
    assert all(alg.q_weights() is not None for alg in algebras)
    exact = [check_ainfty(alg) for alg in algebras]
    assert exact[1] == [] and exact[3] != []
    monkeypatch.setattr(AInftyAlgebra, "q_weights", lambda self: None)
    novikov = [check_ainfty(alg) for alg in algebras]
    assert exact == novikov
    if len(set(orders) - {1}) <= 1:  # one field on both paths
        assert repr(exact) == repr(novikov)
