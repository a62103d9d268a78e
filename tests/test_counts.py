import numpy as np
import pytest

from countstrat import (
    CountHistogram,
    CountRecord,
    ParseError,
    ValidationError,
    build_histogram,
    ingest_counts,
    parse_predictions,
    smooth,
)
from countstrat.counts import MAX_COUNT, count_histogram


class TestIngest:
    def test_basic_parse(self):
        recs = ingest_counts("id,count\na,0\nb,45")
        assert [(r.id, r.count) for r in recs] == [("a", 0), ("b", 45)]

    def test_header_only(self):
        assert ingest_counts("id,count") == []
        assert ingest_counts("id,count\n") == []

    def test_negative_count_rejected(self):
        with pytest.raises(ValidationError, match="negative"):
            ingest_counts("id,count\na,-3")

    def test_crlf(self):
        recs = ingest_counts("id,count\r\na,1\r\nb,2\r\n")
        assert [(r.id, r.count) for r in recs] == [("a", 1), ("b", 2)]

    def test_duplicate_id(self):
        with pytest.raises(ValidationError, match="duplicate"):
            ingest_counts("id,count\na,1\na,2")

    def test_malformed_row_names_line(self):
        with pytest.raises(ParseError, match="line 3"):
            ingest_counts("id,count\na,1\nb,xyz")
        with pytest.raises(ParseError, match="line 2"):
            ingest_counts("id,count\nonlyonefield")

    def test_bad_header(self):
        with pytest.raises(ParseError, match="line 1"):
            ingest_counts("sample,people\na,1")

    def test_empty_id(self):
        with pytest.raises(ParseError, match="empty id"):
            ingest_counts("id,count\n,1")

    def test_order_preserved(self):
        recs = ingest_counts("id,count\nz,5\na,3\nm,5")
        assert [r.id for r in recs] == ["z", "a", "m"]

    def test_count_limit(self):
        recs = ingest_counts(f"id,count\na,{MAX_COUNT}")
        assert recs[0].count == MAX_COUNT
        with pytest.raises(ParseError, match=f"line 3: count {MAX_COUNT + 1} exceeds the limit"):
            ingest_counts(f"id,count\na,1\nb,{MAX_COUNT + 1}")

    def test_record_above_count_limit_rejected(self):
        # the histogram of this record would hold 3,000,001 cells
        with pytest.raises(ValidationError, match=f"count must be an integer in \\[0, {MAX_COUNT}\\], got 3000000"):
            build_histogram([CountRecord("a", 3_000_000)])

    @pytest.mark.parametrize("counts", [[-1, 2], [4, MAX_COUNT + 1]])
    def test_count_column_out_of_range_rejected(self, counts):
        with pytest.raises(ValidationError, match=f"counts must lie in \\[0, {MAX_COUNT}\\]"):
            count_histogram(np.array(counts))


@pytest.mark.parametrize(
    "parse, header, row",
    [(ingest_counts, "id,count", "a,3"), (parse_predictions, "id,count_true,count_pred", "a,3,2.5")],
)
class TestSharedCsvChecks:
    def test_missing_header(self, parse, header, row):
        with pytest.raises(ParseError, match=f"^line 1: missing header '{header}'$"):
            parse("")

    def test_wrong_field_count(self, parse, header, row):
        with pytest.raises(ParseError, match=f"^line 3: expected {header.count(',') + 1} fields, got 4$"):
            parse(f"{header}\n{row}\nb,1,2,3\n")

    def test_empty_id(self, parse, header, row):
        with pytest.raises(ParseError, match="^line 2: empty id$"):
            parse(f"{header}\n{row[1:]}\n")

    def test_bom_and_blank_rows_accepted(self, parse, header, row):
        recs = parse(f"\ufeff{header}\n\n{row}\n")
        assert [r.id for r in recs] == ["a"]


class TestBuildHistogram:
    def test_counting(self):
        h = build_histogram([CountRecord("a", 0), CountRecord("b", 2), CountRecord("c", 2)])
        assert h.max_count == 2
        assert h.freqs == (1, 0, 2)

    def test_single_sample(self):
        h = build_histogram([CountRecord("a", 5)])
        assert h.max_count == 5
        assert h.freqs == (0, 0, 0, 0, 0, 1)

    def test_needs_records_or_override(self):
        with pytest.raises(ValidationError):
            build_histogram([])

    def test_total_equals_record_count(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(1, 60))
            recs = [CountRecord(f"r{i}", int(rng.integers(0, 30))) for i in range(n)]
            assert build_histogram(recs).total == n


class TestSmooth:
    def test_add_one_everywhere(self):
        h = CountHistogram(2, (2, 0, 1))
        s = smooth(h, 1)
        assert s.freqs == (3, 1, 2)
        assert s.smoothing_beta == 1
        assert s.total == h.total + 3

    def test_beta_zero_identity(self):
        h = CountHistogram(2, (2, 0, 1))
        assert smooth(h, 0) == h

    def test_default_beta_is_one(self):
        h = CountHistogram(1, (1, 0))
        assert smooth(h).freqs == (2, 1)

    def test_negative_beta_rejected(self):
        with pytest.raises(ValidationError):
            smooth(CountHistogram(0, (1,)), -1)

    @pytest.mark.parametrize("beta", [True, 2.0, 0.5])
    def test_non_integer_beta_rejected(self, beta):
        with pytest.raises(ValidationError, match="beta must be an integer"):
            smooth(CountHistogram(0, (1,)), beta)

    def test_composition(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            freqs = tuple(int(x) for x in rng.integers(0, 9, size=rng.integers(1, 10)))
            h = CountHistogram(len(freqs) - 1, freqs)
            a, b = int(rng.integers(0, 4)), int(rng.integers(0, 4))
            assert smooth(smooth(h, a), b) == smooth(h, a + b)

    def test_preserves_range(self):
        h = CountHistogram(4, (1, 0, 0, 0, 2))
        assert smooth(h, 2).max_count == 4


class TestHistogramType:
    def test_invariants(self):
        with pytest.raises(ValidationError):
            CountHistogram(2, (1, 2))  # wrong length
        with pytest.raises(ValidationError):
            CountHistogram(1, (1, -1))
        with pytest.raises(ValidationError):
            CountHistogram(1, (0, 1), smoothing_beta=1)  # cell below beta

    def test_support(self):
        h = CountHistogram(4, (1, 0, 3, 0, 2))
        assert h.support == (0, 2, 4)

    def test_record_rejects_negative(self):
        with pytest.raises(ValidationError):
            CountRecord("a", -1)

    @pytest.mark.parametrize("count", [10.5, 3.0, np.float64(2.0), "3", True])
    def test_record_rejects_non_integer(self, count):
        # the histogram and the array locate would truncate a fractional count
        with pytest.raises(ValidationError, match="integer"):
            CountRecord("a", count)

    @pytest.mark.parametrize("freqs", [(1.5, 0.5, 3), (1.0, 0, 1), (1, None, 1)])
    def test_histogram_rejects_non_integer_frequencies(self, freqs):
        # the DP would read truncated frequencies and map_score the given ones
        with pytest.raises(ValidationError, match="integers"):
            CountHistogram(2, freqs)

    def test_numpy_integers_accepted(self):
        h = build_histogram([CountRecord("a", np.int64(2)), CountRecord("b", 0)])
        assert h == CountHistogram(2, (1, 0, 1))
        assert CountHistogram(1, (np.int32(1), 2)).total == 3
