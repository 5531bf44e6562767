import random
from fractions import Fraction as F

import pytest

from qhsplit import blowup, openclosed
from qhsplit.novikov import NovikovElement as N
from qhsplit.toric import ToricModel


# --- correspondences under the blowdown of the cut simplex ---------------------

def blow_down(n: int, cut: ToricModel, k: tuple) -> tuple:
    """The simplex class of ``k``: the exceptional degree moves onto the vertex
    facets with the coordinates of the cut normal."""
    d = k[-1]
    return tuple(a + d * c for a, c in zip(k, cut.normals[-1])) + (k[n],)


def test_index_correspondence_values():
    cut = ToricModel.simplex(2).blowup(F(1, 10))
    assert cut.index((0, 0, 0, 1)) == 2
    assert ToricModel.simplex(2).index(blow_down(2, cut, (0, 0, 0, 1))) == 4
    assert cut.index((1, 1, 1, 0)) == 6


def test_area_correspondence_values():
    base, cut = ToricModel.simplex(2), ToricModel.simplex(2).blowup(F(1, 10))
    assert cut.area((0, 0, 0, 1)) == F(2, 3) - F(1, 10)
    assert base.area(blow_down(2, cut, (0, 0, 0, 1))) == F(2, 3)
    assert cut.area((0, 0, 5, 0)) == base.area((0, 0, 5)) == F(5, 3)


def test_local_model_consistency():
    rng = random.Random(99)
    for _ in range(100):
        n = rng.randint(2, 5)
        eps = F(rng.randint(1, 9), 10 * (n + 1))
        base = ToricModel.simplex(n)
        cut = base.blowup(eps)
        up = tuple(rng.randint(0, 3) for _ in range(n + 2))
        down, d = blow_down(n, cut, up), up[-1]
        assert cut.index(up) == base.index(down) - 2 * (n - 1) * d
        assert cut.area(up) == base.area(down) - eps * d


def test_weight_accounting_matches_area_shift():
    # q^{A(down)} * (q^{-eps})^d = q^{A(up)}
    eps = F(1, 5)
    base, cut = ToricModel.simplex(3), ToricModel.simplex(3).blowup(eps)
    up = (1, 0, 2, 0, 2)
    down, d = blow_down(3, cut, up), up[-1]
    lhs = N.q_power(base.area(down)) * (N.q_power(-eps) ** d)
    assert lhs == N.q_power(cut.area(up))


# --- splitting ----------------------------------------------------------------

def test_split_report_dimensions():
    assert blowup.split_report(2, F(1, 10))["total_dim"] == 4
    report = blowup.split_report(3, F(1, 10))
    assert report["total_dim"] == 6
    assert report["summands"] == ["base", "point", "point"]


def test_no_split_report_in_dimension_one():
    with pytest.raises(ValueError, match="no exceptional branes below dimension two"):
        blowup.split_report(1, F(1, 10))


def test_generation_for_p2_blowup():
    report = blowup.split_report(2, F(1, 10))
    assert report["generation"] == blowup.GENERATES
    assert report["status"] == blowup.GENERATES
    assert report["min_extra_valuation"] == F(9, 10)
    assert report["cross_gram_zero"]


def test_generation_negative_control():
    matrix = openclosed.oc_matrix(2, openclosed.PROJECTIVE)
    old_cols = [{("base", b): matrix.entry(b, a) for b in range(3)}
                for a in range(3)]
    zero_cols = [{("exc", 1): N.zero()}]
    check = blowup.generation_check(old_cols, zero_cols, blowup._pairing(2))
    assert check["generation"] == blowup.FAILS


def test_generation_below_the_cutoff_is_cutoff_limited():
    # the exceptional column is q^5, at or above the default cutoff 3, so its
    # rank is unknown rather than short
    matrix = openclosed.oc_matrix(2, openclosed.PROJECTIVE)
    old_cols = [{("base", b): matrix.entry(b, a) for b in range(3)}
                for a in range(3)]
    high_cols = [{("exc", 1): N.q_power(5)}]
    check = blowup.generation_check(old_cols, high_cols, blowup._pairing(2))
    assert check["exceptional_block_rank"] == 0
    assert check["generation"] == blowup.CUTOFF_LIMITED


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
    pairing = blowup._pairing(3)
    assert pairing(("base", 0), ("base", 3)) == N.one()
    assert pairing(("base", 1), ("exc", 2)).is_zero()
    assert pairing(("exc", 1), ("exc", 2)) == -N.one()
    assert pairing(("exc", 1), ("exc", 1)).is_zero()
