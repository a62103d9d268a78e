import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from countstrat import (
    Bin,
    BinStats,
    CountRecord,
    LikelihoodKind,
    ParseError,
    Partition,
    PredictionRecord,
    ValidationError,
    assign_bins,
    evaluate,
    parse_predictions,
    pool,
    render_report,
)
from countstrat.evaluate import report_json_dict


def make_partition(bounds):
    return Partition(tuple(Bin(lo, hi) for lo, hi in bounds), 0.0, 0.5, LikelihoodKind.MULTINOMIAL)


def two_pass_mean_std(values):
    # deliberately plain reference implementation
    n = len(values)
    mean = sum(values) / n
    var = sum((v - mean) ** 2 for v in values) / n
    return mean, math.sqrt(var)


class TestParsePredictions:
    def test_good(self):
        recs = parse_predictions("id,count_true,count_pred\na,3,3.5\nb,0,0.25")
        assert [(r.id, r.y, r.y_hat) for r in recs] == [("a", 3, 3.5), ("b", 0, 0.25)]

    def test_bad_header(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_predictions("id,count\na,1")

    def test_malformed_row(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_predictions("id,count_true,count_pred\na,x,1.0")

    def test_truth_above_count_limit(self):
        with pytest.raises(ParseError, match="line 3: ground-truth count 1000001 exceeds the limit 1000000"):
            parse_predictions("id,count_true,count_pred\na,1000000,1.0\nb,1000001,1.0")

    def test_negative_truth(self):
        with pytest.raises(ValidationError):
            parse_predictions("id,count_true,count_pred\na,-1,1.0")

    @pytest.mark.parametrize("raw", ["nan", "inf", "-1e101", "1e300"])
    def test_prediction_beyond_limit(self, raw):
        # squared errors of a larger prediction overflow the std
        with pytest.raises(ParseError, match=f"line 3: prediction '{raw}' is not finite or exceeds 1e\\+100"):
            parse_predictions(f"id,count_true,count_pred\na,1,-1e100\nb,2,{raw}")
        with pytest.raises(ValidationError, match="exceeds 1e\\+100"):
            PredictionRecord("b", 2, float(raw))

    def test_empty_ok(self):
        assert parse_predictions("id,count_true,count_pred\n") == []

    @pytest.mark.parametrize("y", [10.5, 10.0, np.float64(4.0), True])
    def test_non_integer_truth_rejected(self, y):
        # evaluate's int64 truth column would truncate 10.5 to 10: an MAE of
        # 2.0 for 12.0, in the bin [0, 10]
        with pytest.raises(ValidationError, match="integer"):
            PredictionRecord("a", y, 12.0)


class TestPerBinStats:
    def test_two_point_bin(self):
        part = make_partition([(0, 9)])
        preds = [PredictionRecord("a", 4, 5.0), PredictionRecord("b", 4, 7.0)]
        (s,) = evaluate(preds, part).per_bin
        assert (s.n, s.mae, s.std) == (2, 2.0, 1.0)

    def test_single_record_bin_std_zero(self):
        part = make_partition([(0, 9)])
        (s,) = evaluate([PredictionRecord("a", 4, 6.5)], part).per_bin
        assert s.n == 1 and s.std == 0.0

    def test_empty_bin_flagged(self):
        part = make_partition([(0, 4), (5, 9)])
        stats = evaluate([PredictionRecord("a", 7, 7.0)], part).per_bin
        assert stats[0] == BinStats(Bin(0, 4), 0, None, None)
        assert stats[1].n == 1

    def test_routing_matches_assign_bins(self):
        part = make_partition([(0, 4), (5, 20), (21, 50)])
        rng = np.random.default_rng(0)
        ys = [int(y) for y in rng.integers(0, 70, size=40)]  # some clamped
        preds = [PredictionRecord(f"r{i}", y, y + 1.0) for i, y in enumerate(ys)]
        recs = [CountRecord(f"r{i}", y) for i, y in enumerate(ys)]
        stats = evaluate(preds, part).per_bin
        asg = assign_bins(recs, part)
        assert [s.n for s in stats] == [len(ids) for ids in asg.by_bin]


class TestPool:
    def test_single_bin_identity(self):
        mu, sigma = pool([BinStats(Bin(0, 9), 5, 3.25, 1.5)])
        assert (mu, sigma) == (3.25, 1.5)

    def test_between_bin_dispersion_ignored(self):
        stats = [BinStats(Bin(0, 4), 2, 1.0, 0.0), BinStats(Bin(5, 9), 2, 3.0, 0.0)]
        mu, sigma = pool(stats)
        assert mu == 2.0 and sigma == 0.0

    def test_weighted_substitution(self):
        stats = [BinStats(Bin(0, 4), 1, 0.0, 0.0), BinStats(Bin(5, 9), 3, 4.0, 2.0)]
        mu, sigma = pool(stats)
        assert mu == pytest.approx(3.0, abs=1e-15)
        assert sigma == pytest.approx(math.sqrt(3.0), abs=1e-15)

    def test_empty_bins_excluded(self):
        stats = [BinStats(Bin(0, 4), 0, None, None), BinStats(Bin(5, 9), 2, 1.0, 0.5)]
        assert pool(stats) == (1.0, 0.5)

    def test_all_empty_rejected(self):
        with pytest.raises(ValidationError):
            pool([BinStats(Bin(0, 4), 0, None, None)])


def global_mae_std(preds):
    """evaluate's global (MAE, std); truths above 9 clamp into the last bin."""
    rep = evaluate(preds, make_partition([(0, 4), (5, 9)]))
    return rep.global_mae, rep.global_std


class TestGlobalStats:
    def test_two_errors(self):
        preds = [PredictionRecord("a", 4, 5.0), PredictionRecord("b", 4, 7.0)]
        assert global_mae_std(preds) == (2.0, 1.0)

    def test_perfect_predictions(self):
        preds = [PredictionRecord("a", 4, 4.0), PredictionRecord("b", 9, 9.0)]
        assert global_mae_std(preds) == (0.0, 0.0)

    def test_matches_two_pass_reference(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(1, 100))
            preds = [
                PredictionRecord(f"r{i}", int(rng.integers(0, 50)), float(rng.normal(20, 15)))
                for i in range(n)
            ]
            want = two_pass_mean_std([abs(p.y - p.y_hat) for p in preds])
            got = global_mae_std(preds)
            assert got[0] == pytest.approx(want[0], abs=1e-12)
            assert got[1] == pytest.approx(want[1], abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            evaluate([], make_partition([(0, 9)]))


@st.composite
def partitions_and_predictions(draw):
    """Up to 7 bins over [0, 80]; truths up to 100, so some are clamped."""
    edges = sorted(draw(st.sets(st.integers(0, 79), max_size=6)))
    bounds = list(zip([0] + [e + 1 for e in edges], edges + [80]))
    pairs = draw(
        st.lists(st.tuples(st.integers(0, 100), st.floats(-50, 150)), min_size=1, max_size=120)
    )
    preds = [PredictionRecord(f"r{i}", y, y_hat) for i, (y, y_hat) in enumerate(pairs)]
    return make_partition(bounds), preds


class TestEvaluateIdentities:
    @given(partitions_and_predictions())
    def test_pooled_mae_equals_global_mae(self, case):
        # exact in math; both sides round, by at most 4 ulps on 20,000
        # seeded cases, so 16 ulps leaves room without hiding a real error
        part, preds = case
        rep = evaluate(preds, part)
        assert abs(rep.pooled_mae - rep.global_mae) <= 16 * math.ulp(rep.global_mae)

    @given(partitions_and_predictions())
    def test_pooled_std_never_exceeds_global(self, case):
        # law of total variance; the slack is rounding at the errors' scale
        part, preds = case
        rep = evaluate(preds, part)
        assert rep.pooled_std <= rep.global_std + 16 * math.ulp(rep.global_mae)


class TestRenderReport:
    def fixture_report(self):
        part = make_partition([(0, 4), (5, 9)])
        preds = [
            PredictionRecord("a", 2, 3.0),
            PredictionRecord("b", 2, 5.0),
            PredictionRecord("c", 7, 7.0),
        ]
        return evaluate(preds, part), part

    def test_structure(self):
        report, part = self.fixture_report()
        lines = render_report(report, part).splitlines()
        assert lines[0] == "bin_lo,bin_hi,n,mae,std"
        assert len(lines) == 1 + 2 + 2
        assert lines[-2].startswith("pooled,,3,")
        assert lines[-1].startswith("global,,3,")

    def test_empty_bin_row(self):
        part = make_partition([(0, 4), (5, 9)])
        report = evaluate([PredictionRecord("c", 7, 8.0)], part)
        lines = render_report(report, part).splitlines()
        assert lines[1] == "0,4,0,,"

    def test_mismatched_partition_rejected(self):
        report, _ = self.fixture_report()
        with pytest.raises(ValidationError):
            render_report(report, make_partition([(0, 9)]))

    def test_json_dict_nulls_for_empty_bins(self):
        part = make_partition([(0, 4), (5, 9)])
        report = evaluate([PredictionRecord("c", 7, 8.0)], part)
        doc = report_json_dict(report)
        assert doc["per_bin"][0]["mae"] is None
        assert doc["per_bin"][1]["n"] == 1
        assert doc["n_total"] == 1
