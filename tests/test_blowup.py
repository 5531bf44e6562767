import json
import random
from fractions import Fraction as F

import pytest

from qhsplit import blowup, linalg, openclosed
from qhsplit.cli import EXIT_FAILURE, EXIT_OK, main
from qhsplit.novikov import CyclotomicNumber as C
from qhsplit.novikov import NovikovElement as N
from qhsplit.toric import ToricModel
from test_openclosed import determinant_verdict

# the eps values at which criterion 11 and the benchmark's splitting jobs
# report a split; criterion 11's 9/10 is refused (test_split_grid)
EPS_GRID = tuple(F(e) for e in ("1/10", "1/3", "1/7", "1/5", "2/9", "1/4", "3/10", "2/5"))


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


def _projective_cols(n):
    matrix = openclosed.oc_matrix(n, openclosed.PROJECTIVE)
    return [{("base", b): matrix.entry(b, a) for b in range(n + 1)} for a in range(n + 1)]


def test_generation_negative_control():
    zero_cols = [{("exc", 1): N.zero()}]
    check = blowup.generation_check(_projective_cols(2), zero_cols, blowup._pairing(2))
    assert check["generation"] == blowup.FAILS


def test_an_exact_column_above_the_cutoff_has_full_rank():
    # the exceptional column is the exact monomial q^5: scaled by the unit
    # q^-5 it is 1, so its rank is 1 whatever the default cutoff
    check = blowup.generation_check(_projective_cols(2), [{("exc", 1): N.q_power(5)}],
                                    blowup._pairing(2))
    assert (check["old_block_rank"], check["exceptional_block_rank"]) == (3, 1)
    assert check["generation"] == blowup.GENERATES


def test_a_truncated_column_is_cutoff_limited():
    # 1 + O(q^2) has full rank, but the rank does not see past its cutoff
    check = blowup.generation_check(_projective_cols(2), [{("exc", 1): N.one(cutoff=2)}],
                                    blowup._pairing(2))
    assert check["exceptional_block_rank"] == 1
    assert check["generation"] == blowup.CUTOFF_LIMITED


def test_a_repeated_column_fails_one_rank_short():
    matrix = openclosed.oc_matrix(3, openclosed.EXCEPTIONAL, F(1, 10))
    column = {("exc", b + 1): matrix.entry(b, 0) for b in range(2)}
    check = blowup.generation_check(_projective_cols(3), [column, dict(column)],
                                    blowup._pairing(3))
    assert check["cross_gram_zero"]
    assert check["exceptional_block_rank"] == 1
    assert check["generation"] == blowup.FAILS


@pytest.mark.parametrize("exc_cols", [
    [{("exc", 1): N.one() + N.q_power(1)}],
    [{("exc", 1): N.one()}, {("exc", 1): N.q_power(1)}],
], ids=["not-a-monomial", "two-valuations-under-one-label"])
def test_a_column_that_is_not_row_scaled_monomials_is_refused(exc_cols):
    with pytest.raises(ValueError, match="not monomials of one valuation"):
        blowup.generation_check(_projective_cols(2), exc_cols, blowup._pairing(2))


@pytest.mark.parametrize("n", range(2, 7))
def test_block_ranks_and_surjectivity_agree_with_elimination_and_determinant(n):
    # the Novikov elimination, at a cutoff above every entry, and the
    # determinant route are the oracles of the exact integer rank
    for eps in EPS_GRID:
        report = blowup.split_report(n, eps)
        for matrix, block in ((openclosed.oc_matrix(n, openclosed.PROJECTIVE), "old_block"),
                              (openclosed.oc_matrix(n, openclosed.EXCEPTIONAL, eps),
                               "exceptional_block")):
            size = len(matrix.cols)
            cols = [{b: matrix.entry(b, a) for b in range(size)} for a in range(size)]
            cutoff = max(v.val_q() for col in cols for v in col.values()) + 1
            assert report[f"{block}_rank"] == linalg.row_reduce(cols, cutoff)[0]
            assert report[f"{block}_surjectivity"] == determinant_verdict(matrix.entries)


def test_block_rank_agrees_with_elimination_on_deficient_blocks():
    # random square blocks of row-scaled roots of unity, some columns
    # repeated or zeroed, so that many are deficient
    rng = random.Random(36)
    deficient = 0
    for _ in range(60):
        size, order = rng.randint(1, 4), rng.choice((1, 2, 3, 4, 5, 6, 8, 12))
        vals = [F(rng.randint(0, 12), rng.choice((1, 2, 3, 5))) for _ in range(size)]
        pool = [{b: N.monomial(vals[b], C.root_of_unity(order, rng.randrange(order))
                               * C.from_rational(rng.choice((1, -2, F(1, 3)))))
                 for b in range(size) if rng.random() < 0.8} for _ in range(size)]
        cols = [rng.choice(pool) for _ in range(size)]
        rank = blowup._block_rank(cols)
        cutoff = max((v.val_q() for col in cols for v in col.values()), default=0) + 1
        assert rank == linalg.row_reduce(cols, cutoff)[0]
        matrix = [[col.get(b, N.zero()) for col in cols] for b in range(size)]
        verdict = determinant_verdict(matrix)
        assert verdict == (openclosed.SURJECTIVE if rank == size else openclosed.DEFICIENT)
        deficient += rank < size
    assert deficient >= 10


def test_determinant_route_agrees_with_elimination_on_mixed_valuation_blocks():
    # random blocks q^(r_b + s_a) A_ba, some columns of A repeated or zeroed:
    # each row mixes valuations, so _block_rank refuses them; every
    # intermediate of the elimination is a monomial q^(r_b + s_a) A'_ba, so
    # at a cutoff above max r + max s it is exact and is the oracle
    rng = random.Random(37)
    deficient = 0
    for _ in range(60):
        size, order = rng.randint(2, 4), rng.choice((1, 2, 3, 4, 6))
        r = [F(rng.randint(0, 6), rng.choice((1, 2, 3))) for _ in range(size)]
        s = rng.sample(range(5), size)
        pool = [[C.root_of_unity(order, rng.randrange(order))
                 * C.from_rational(rng.choice((1, -2, F(1, 3))))
                 if rng.random() < 0.8 else None for _ in range(size)] for _ in range(size)]
        coeffs = [rng.choice(pool) if rng.random() < 0.3 else col for col in pool]
        matrix = [[N.zero() if coeffs[a][b] is None else N.monomial(r[b] + s[a], coeffs[a][b])
                   for a in range(size)] for b in range(size)]
        cols = [{b: row[a] for b, row in enumerate(matrix) if not row[a].is_zero()}
                for a in range(size)]
        if any(len({v.val_q() for v in row if not v.is_zero()}) > 1 for row in matrix):
            with pytest.raises(ValueError, match="not monomials of one valuation"):
                blowup._block_rank(cols)
        rank, _, limited = linalg.row_reduce(cols, max(r) + max(s) + 1)
        assert not limited
        verdict = determinant_verdict(matrix)
        assert verdict == (openclosed.SURJECTIVE if rank == size else openclosed.DEFICIENT)
        deficient += rank < size
    assert 20 <= deficient <= 40


@pytest.mark.parametrize("matrix, verdict", [
    ([[N.one(), N.one()], [N.one(), N.one() + N.q_power(3)]], openclosed.SURJECTIVE),
    ([[N.q_power(3)] * 2] * 2, openclosed.DEFICIENT),
    ([[N.one(cutoff=2)] * 2] * 2, openclosed.CUTOFF_LIMITED),
], ids=["exact-determinant-q3", "exact-zero-determinant", "truncated-zero-determinant"])
def test_determinant_route_pins_against_elimination(matrix, verdict):
    # the elimination, at a cutoff above every entry and the determinant,
    # gives full rank exactly for the surjective block, and is cutoff-limited
    # exactly for the cutoff-limited one
    rank, _, limited = linalg.row_reduce(
        [{b: row[a] for b, row in enumerate(matrix)} for a in range(2)], 4)
    assert determinant_verdict(matrix) == verdict
    assert (rank == 2) == (verdict == openclosed.SURJECTIVE)
    assert limited == (verdict == openclosed.CUTOFF_LIMITED)


def test_a_repeated_exceptional_column_makes_the_report_deficient(monkeypatch):
    oc_matrix = openclosed.oc_matrix

    def repeated(n, kind, eps=None):
        matrix = oc_matrix(n, kind, eps)
        if kind != openclosed.EXCEPTIONAL:
            return matrix
        entries = tuple((row[0],) + row[:-1] for row in matrix.entries)
        return openclosed.OCMatrix(matrix.rows, matrix.cols, entries, matrix.order)

    monkeypatch.setattr(openclosed, "oc_matrix", repeated)
    report = blowup.split_report(3, F(1, 10))
    assert (report["old_block_rank"], report["exceptional_block_rank"]) == (4, 1)
    assert report["old_block_surjectivity"] == openclosed.SURJECTIVE
    assert report["exceptional_block_surjectivity"] == openclosed.DEFICIENT
    assert report["generation"] == report["status"] == blowup.FAILS


def test_split_report_ranks_without_elimination_or_determinants(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("split_report must not eliminate or expand a determinant")

    monkeypatch.setattr(linalg, "row_reduce", refuse)
    monkeypatch.setattr(linalg, "determinant", refuse)
    for n in range(2, 6):
        assert blowup.split_report(n, F(1, 10))["status"] == blowup.GENERATES
    assert main(["blowup", "split", "--n", "3", "--eps", "1/7"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["report"]["status"] == blowup.GENERATES


def test_large_shift_is_refused_by_the_blowup(capsys):
    # the cut simplex exists only for eps < n/(n+1): 2/3 is refused, which
    # the report once called generates
    with pytest.raises(ValueError, match="inside the polytope only for eps below 2/3"):
        blowup.split_report(2, F(1))
    assert main(["blowup", "split", "--n", "2", "--eps", "2/3"]) == EXIT_FAILURE
    out, err = capsys.readouterr()
    assert out == ""
    assert json.loads(err) == {
        "error": "value error",
        "message": "the fiber lies inside the polytope only for eps below 2/3"}
    assert blowup.split_report(2, F(2, 3) - F(1, 100))["status"] == blowup.GENERATES


def test_split_grid():
    # criterion 11's grid: a split where the cut simplex exists, and the
    # refusal at eps = 9/10, above n/(n+1) for every n
    for n in (2, 3, 4, 5):
        for eps in (F(1, 10), F(1, 3)):
            report = blowup.split_report(n, eps)
            assert report["total_dim"] == 2 * n
            assert report["generation"] == blowup.GENERATES
            assert report["bound_holds"]
        with pytest.raises(ValueError, match=f"eps below {n}/{n + 1}$"):
            blowup.split_report(n, F(9, 10))


def test_pairing_blocks():
    pairing = blowup._pairing(3)
    assert pairing(("base", 0), ("base", 3)) == N.one()
    assert pairing(("base", 1), ("exc", 2)).is_zero()
    assert pairing(("exc", 1), ("exc", 2)) == -N.one()
    assert pairing(("exc", 1), ("exc", 1)).is_zero()
