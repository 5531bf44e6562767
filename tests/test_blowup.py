import random
from fractions import Fraction as F

import pytest

from qhsplit import blowup, openclosed
from qhsplit.novikov import NovikovElement as N


# --- correspondences --------------------------------------------------------

def test_index_correspondence_values():
    assert blowup.index_correspondence(4, 2, 1) == 2
    assert blowup.index_correspondence(6, 3, 0) == 6


def test_area_correspondence_values():
    area, flagged = blowup.area_correspondence(1, F(1, 10), 1)
    assert area == F(9, 10) and not flagged
    area, flagged = blowup.area_correspondence(F(1, 10), F(1, 10), 2)
    assert area == -F(1, 10) and flagged
    assert blowup.area_correspondence(F(5), F(1, 3), 0) == (F(5), False)


def test_local_model_consistency():
    rng = random.Random(99)
    for _ in range(100):
        n = rng.randint(2, 5)
        eps = F(rng.randint(1, 9), 10)
        model = blowup.BlowupLocalModel(n, eps)
        up = model.upstairs_class(tuple(rng.randint(0, 3) for _ in range(n + 1)))
        down = model.project(up)
        d = model.e_intersection(up)
        assert blowup.index_correspondence(down.index, n, d) == up.index
        area, _ = blowup.area_correspondence(down.area, eps, d)
        assert area == up.area


def test_weight_accounting_matches_area_shift():
    # q^{A(down)} * (q^{-eps})^d = q^{A(up)}
    model = blowup.BlowupLocalModel(3, F(1, 5))
    up = model.upstairs_class((1, 0, 2, 2))
    down = model.project(up)
    d = model.e_intersection(up)
    lhs = N.q_power(down.area) * (N.q_power(-model.eps) ** d)
    assert lhs == N.q_power(up.area)


# --- sphere obstruction ---------------------------------------------------------

def test_obstruction_examples():
    assert blowup.exceptional_sphere_obstruction(3, 1, 1)
    assert blowup.exceptional_sphere_obstruction(2, 0, 1)


def test_obstruction_whole_grid():
    for n in range(2, 7):
        for k in range(0, 11):
            for m in range(1, 6):
                assert blowup.exceptional_sphere_obstruction(n, k, m)


def test_obstruction_preconditions():
    with pytest.raises(ValueError):
        blowup.exceptional_sphere_obstruction(2, 0, 0)


# --- splitting ----------------------------------------------------------------

def test_qh_split_dimensions():
    assert blowup.qh_split(blowup.BlowupModel(2, F(1, 10)))["total_dim"] == 4
    report = blowup.qh_split(blowup.BlowupModel(3, F(1, 10)))
    assert report["total_dim"] == 6
    assert report["summands"] == ["base", "point", "point"]


def test_no_blowup_model_in_dimension_one():
    with pytest.raises(ValueError):
        blowup.BlowupModel(1, F(1, 10))


def test_generation_for_p2_blowup():
    report = blowup.split_report(2, F(1, 10))
    assert report["generation"] == blowup.GENERATES
    assert report["status"] == blowup.GENERATES
    assert report["min_extra_valuation"] == F(9, 10)
    assert report["cross_gram_zero"]


def test_generation_negative_control():
    model = blowup.BlowupModel(2, F(1, 10))
    matrix, _ = openclosed.bulk_shift_perturbation(2, F(1, 10))
    old_cols = [{("base", b): matrix.entry(b, a) for b in range(3)}
                for a in range(3)]
    zero_cols = [{("exc", 1): N.zero()}]
    check = blowup.generation_check(old_cols, zero_cols, model.pairing, 4)
    assert check["generation"] == blowup.FAILS


def test_large_shift_reports_cutoff_limited():
    report = blowup.split_report(2, F(1))
    assert report["status"] == blowup.CUTOFF_LIMITED


def test_split_grid():
    for n in (2, 3, 4, 5):
        for eps in (F(1, 10), F(1, 3), F(9, 10)):
            report = blowup.split_report(n, eps)
            assert report["total_dim"] == 2 * n
            assert report["generation"] == blowup.GENERATES
            assert report["bound_holds"]


def test_pairing_blocks():
    model = blowup.BlowupModel(3, F(1, 10))
    assert model.pairing(("base", 0), ("base", 3)) == N.one()
    assert model.pairing(("base", 1), ("exc", 2)).is_zero()
    assert model.pairing(("exc", 1), ("exc", 2)) == -N.one()
    assert model.pairing(("exc", 1), ("exc", 1)).is_zero()
