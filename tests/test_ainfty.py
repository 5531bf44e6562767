import contextlib
import io
import json
from fractions import Fraction as F

from qhsplit import toric
from qhsplit.cli import EXIT_FAILURE, main
from qhsplit.ainfty import AInftyAlgebra, Brane, Violation, check_ainfty, spectral_decompose
from qhsplit.novikov import NovikovElement as N


def clifford_pn(n, k=0):
    W = toric.PotentialFunction.clifford_torus(n)
    y = toric.critical_points(W)[k]
    return toric.brane_algebra(W, y), W, y


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


def test_curvature_multiple_of_unit_passes():
    alg = curved_rank2(N.q_power(F(1, 2)) * 3)
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


# --- spectral decomposition -----------------------------------------------------

def test_spectral_decomposition_projective_plane():
    W = toric.PotentialFunction.clifford_torus(2)
    branes = []
    for k, y in enumerate(toric.critical_points(W)):
        alg = toric.brane_algebra(W, y)
        branes.append(Brane(alg, local_system=y, potential_value=W.evaluate(y),
                            name=f"pt{k}"))
    groups = spectral_decompose(branes)
    assert len(groups) == 3
    assert all(len(members) == 1 for members in groups.values())


def test_spectral_decomposition_equal_values_merge():
    alg = curved_rank2(N.q_power(1))
    w = N.q_power(1)
    b1 = Brane(alg, potential_value=w, name="a")
    b2 = Brane(alg, potential_value=w, name="b")
    groups = spectral_decompose([b1, b2])
    assert len(groups) == 1
    assert len(next(iter(groups.values()))) == 2
    assert len(spectral_decompose([b1])) == 1


# --- q-homogeneous weights ----------------------------------------------------

def brane_algebras_with_weights():
    """All 32 brane algebras: projective n=1..4 and exceptional n=2..4 at
    three eps, at every critical point."""
    potentials = [toric.PotentialFunction.clifford_torus(n) for n in range(1, 5)]
    potentials += [toric.PotentialFunction.exceptional(n, eps)
                   for eps in (F(1, 10), F(1, 3), F(2, 5)) for n in range(2, 5)]
    for W in potentials:
        for y in toric.critical_points(W):
            yield W, y, toric.brane_algebra(W, y)


def test_brane_algebras_are_q_homogeneous():
    count = 0
    for W, y, alg in brane_algebras_with_weights():
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
        for a, row in enumerate(toric.hessian(W, y)):
            for b, entry in enumerate(row):
                if not entry.is_zero():
                    assert w[gens[a]] + w[gens[b]] == entry.val_q()
    assert count == 32


def test_q_weights_reject_a_two_term_entry():
    alg = toric.clifford_algebra([[N.q_power(1) + N.q_power(2)]], 1)
    assert alg.q_weights() is None


def test_q_weights_reject_a_finite_cutoff():
    # c q^x + O(q^3) is not one exact term
    alg = toric.clifford_algebra([[N.q_power(1, cutoff=3)]], 1)
    assert alg.q_weights() is None
    exact = toric.clifford_algebra([[N.q_power(1)]], 1)
    assert exact.q_weights() == (0, F(1, 2))
    declared = AInftyAlgebra(exact.basis, exact.degrees, exact.tensors,
                             unit=exact.unit, cutoff=3)
    assert declared.q_weights() is None


def test_q_weights_reject_inconsistent_exponents():
    # e1 e1 = q forces w(e1) = 1/2, while e2 e1 = 2 - e1 e2 has a q-free unit
    # term, forcing w(e1) + w(e2) = 0 = w(e2)
    one = N.one()
    alg = toric.clifford_algebra([[N.q_power(1), one], [one, one]], 2)
    assert alg.q_weights() is None
