from fractions import Fraction as F

from qhsplit import toric
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
    e1, e2 = alg.index_of("e1"), alg.index_of("e2")
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
