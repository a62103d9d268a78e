import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from countstrat import (
    BinningConfig,
    CountRecord,
    GridSpec,
    LikelihoodKind,
    ValidationError,
    brute_force_partition,
    build_histogram,
    held_out_log_likelihood,
    locate_bin,
    optimal_bins,
    optimal_partition,
    select_gamma,
    smooth,
    split_records,
)
from countstrat import jsonfmt, stratify, tuning
from countstrat.counts import MAX_COUNT
from countstrat.stratify import MAX_MASS, PriorConfig, partition_to_json_dict
from countstrat.tuning import (
    DEFAULT_GAMMAS,
    DEFAULT_N_SEEDS,
    DEFAULT_RATIOS,
    MAX_N_SEEDS,
    MAX_SEARCH_CELLS,
    descending_rank_indices,
    select_gamma_columns,
    tuning_report_json_dict,
)


def make_records(counts):
    return [CountRecord(f"r{i}", c) for i, c in enumerate(counts)]


class TestSplitRecords:
    def test_sizes(self):
        train, test = split_records(make_records(range(10)), 0.2, seed=0)
        assert len(train) == 8 and len(test) == 2

    def test_deterministic(self):
        recs = make_records([3, 1, 4, 1, 5, 9, 2, 6])
        a = split_records(recs, 0.25, seed=7)
        b = split_records(recs, 0.25, seed=7)
        assert a == b

    def test_different_seeds_differ(self):
        recs = make_records(range(40))
        a = split_records(recs, 0.25, seed=0)
        b = split_records(recs, 0.25, seed=1)
        assert a != b

    def test_partition_of_input(self):
        recs = make_records([5, 2, 8, 1, 9, 0, 3])
        train, test = split_records(recs, 0.3, seed=3)
        assert sorted(r.id for r in train + test) == sorted(r.id for r in recs)

    def test_empty_side_rejected(self):
        with pytest.raises(ValidationError):
            split_records(make_records([1]), 0.5, seed=0)
        with pytest.raises(ValidationError):
            split_records([], 0.5, seed=0)
        with pytest.raises(ValidationError):
            split_records(make_records([1, 2]), 1.5, seed=0)


class TestHeldOutLogLikelihood:
    def test_uniform_one_bin(self):
        # train smoothed freqs (2,2): one bin over both cells at gamma=0.3
        train = make_records([0, 1])
        test = make_records([0, 0])
        spec = GridSpec(gammas=(0.3,), beta=1)
        (got,) = held_out_log_likelihood(train, test, spec)
        assert got == pytest.approx(2 * math.log(0.5), abs=1e-12)

    def test_two_singleton_bins(self):
        # unsmoothed train masses (3,1): two bins at gamma=0.5, one at 0.01;
        # the test count sits in bin 0
        train = make_records([0, 0, 0, 1])
        spec = GridSpec(gammas=(0.5, 0.01), beta=0)
        hist = build_histogram(train)
        part = optimal_partition(hist, PriorConfig(0.5), spec.likelihood_kind)
        assert part.n_bins == 2  # sanity for the scenario
        got = held_out_log_likelihood(train, make_records([0]), spec)
        assert got == pytest.approx((math.log(3 / 4), math.log(1 / 2)), abs=1e-12)

    def test_clamps_beyond_train_range(self):
        train = make_records([0, 1, 2, 3])
        test = [CountRecord("big", 50)]
        spec = GridSpec(gammas=(0.5,), beta=1)
        (got,) = held_out_log_likelihood(train, test, spec)
        assert math.isfinite(got)

    def test_finite_for_any_test_count(self):
        rng = np.random.default_rng(0)
        train = make_records(int(c) for c in rng.integers(0, 12, size=30))
        spec = GridSpec(beta=1)
        for _ in range(20):
            test = make_records(int(c) for c in rng.integers(0, 40, size=5))
            got = held_out_log_likelihood(train, test, spec)
            assert len(got) == len(spec.gammas) and all(math.isfinite(v) for v in got)

    def test_matches_per_gamma_fits(self):
        # each value equals fitting that gamma alone and summing the located
        # per-cell log-probabilities record by record, bit for bit
        rng = np.random.default_rng(3)
        train = make_records(int(c) for c in np.rint(rng.lognormal(3, 0.8, size=300)))
        test = make_records(int(c) for c in np.rint(rng.lognormal(3, 0.8, size=80)))
        for kind in LikelihoodKind:
            spec = GridSpec(likelihood_kind=kind)
            hist = smooth(build_histogram(train), spec.beta)
            want = []
            for gamma in spec.gammas:
                bins = optimal_partition(hist, PriorConfig(gamma), kind).bins
                total = 0.0
                for rec in test:
                    b = bins[locate_bin(bins, rec.count)[0]]
                    total += math.log(sum(hist.freqs[b.lo : b.hi + 1])) - math.log(hist.total) - math.log(b.width)
                want.append(total)
            assert held_out_log_likelihood(train, test, spec) == tuple(want)

    def test_empty_sides_rejected(self):
        with pytest.raises(ValidationError):
            held_out_log_likelihood([], make_records([1]), GridSpec())
        with pytest.raises(ValidationError):
            held_out_log_likelihood(make_records([1]), [], GridSpec())


class TestRankIndices:
    def test_spec_scenario_tie(self):
        # means r1: (-10, -12), r2: (-11, -9) -> indices (0,1) and (1,0)
        gammas = (0.3, 0.5)
        assert descending_rank_indices([-10.0, -12.0], gammas) == [0, 1]
        assert descending_rank_indices([-11.0, -9.0], gammas) == [1, 0]

    def test_spec_scenario_clear_winner(self):
        gammas = (0.3, 0.5)
        assert descending_rank_indices([-10.0, -12.0], gammas) == [0, 1]
        assert descending_rank_indices([-9.0, -11.0], gammas) == [0, 1]

    def test_tie_prefers_smaller_gamma(self):
        assert descending_rank_indices([-5.0, -5.0, -4.0], (0.2, 0.4, 0.6)) == [1, 2, 0]


class TestSelectGamma:
    def test_spec_tie_example_end_to_end(self):
        # emulate the documented rule on a synthetic mean table
        gammas = (0.3, 0.5)
        sums = [0, 0]
        for means in ([-10.0, -12.0], [-11.0, -9.0]):
            pos = descending_rank_indices(means, gammas)
            sums = [a + b for a, b in zip(sums, pos)]
        assert sums == [1, 1]
        best = min(range(2), key=lambda i: (sums[i], gammas[i]))
        assert gammas[best] == 0.3

    def test_singleton_grid(self):
        recs = make_records([0, 1, 1, 2, 3, 5, 8, 13, 21, 34])
        sel = select_gamma(recs, GridSpec(gammas=(0.4,), ratios=(0.2,), n_seeds=2))
        assert sel.gamma_best == 0.4

    def test_deterministic_and_table_order(self):
        recs = make_records([0, 0, 1, 2, 2, 3, 8, 9, 20, 21, 22, 40])
        spec = GridSpec(gammas=(0.2, 0.5, 0.8), ratios=(0.2, 0.25), n_seeds=3)
        a = select_gamma(recs, spec)
        b = select_gamma(recs, spec)
        assert a == b
        assert [(g, r) for g, r, _ in a.table] == [
            (g, r) for g in spec.gammas for r in spec.ratios
        ]

    def test_index_sum_conservation(self):
        recs = make_records([0, 0, 1, 1, 2, 3, 5, 9, 15, 30, 31, 60])
        spec = GridSpec(gammas=(0.2, 0.5, 0.8), ratios=(0.2, 0.25), n_seeds=2)
        sel = select_gamma(recs, spec)
        total = sum(s for _, s in sel.index_sums)
        n_g, n_r = len(spec.gammas), len(spec.ratios)
        assert total == n_r * (n_g - 1) * n_g // 2

    def test_gamma_best_in_grid(self):
        recs = make_records([0, 1, 2, 3, 4, 10, 20, 40])
        spec = GridSpec(gammas=(0.25, 0.75), ratios=(0.25,), n_seeds=2)
        assert select_gamma(recs, spec).gamma_best in spec.gammas

    def test_mass_limit_checked_once_for_the_input(self):
        # the search's log tables are sized by the whole smoothed input
        with pytest.raises(ValidationError, match="histogram mass 20000002 exceeds the limit"):
            select_gamma(make_records([0, 1]), GridSpec(beta=MAX_MASS))

    def test_report_json_shape(self):
        recs = make_records([0, 1, 2, 3, 4, 10, 20, 40])
        spec = GridSpec(gammas=(0.25, 0.75), ratios=(0.25,), n_seeds=2)
        doc = tuning_report_json_dict(select_gamma(recs, spec))
        assert set(doc) == {"gamma_best", "table", "index_sums"}
        assert len(doc["table"]) == 2
        assert set(doc["index_sums"]) == {"0.25", "0.75"}


def sha256(doc: dict) -> str:
    return hashlib.sha256(jsonfmt.dumps(doc).encode("utf-8")).hexdigest()


class TestSelectGammaPinned:
    @staticmethod
    def records():
        rng = np.random.default_rng(20240)
        return make_records(int(c) for c in np.rint(rng.lognormal(4.5, 0.6, size=2000)))

    # sha256 of the report written by the earlier one-fit-per-gamma grid
    # search; at C = 714 over 285 cells the DP prunes most starts
    @pytest.mark.parametrize(
        "kind, digest",
        [
            (LikelihoodKind.MULTINOMIAL, "79dde67e44e090681320ea00106fa04d633efde8367aa3d8af7e1ce426688ab5"),
            (LikelihoodKind.POISSON, "a1fa40af206fddf1dd688b175fa300387df76ed93904342d888af638a203eea4"),
        ],
    )
    def test_report_digest(self, kind, digest):
        sel = select_gamma(self.records(), GridSpec(n_seeds=1, likelihood_kind=kind))
        assert sha256(tuning_report_json_dict(sel)) == digest

    # sha256 of the tune report and the bin partition written by the
    # per-record split, histogram and scoring path; beta = 0 leaves the
    # train histograms unsmoothed, so log tables end at C + 1 or the mass
    @pytest.mark.parametrize(
        "kind, report_digest, partition_digest",
        [
            (
                LikelihoodKind.MULTINOMIAL,
                "563ebf5e55fe7a3d0fc19d950b191dfb2b09745a0003116f897d4fadbb174c92",
                "093192904a6c7d9ce20999ffa2014b5ddcc228b066e2672613f51448960241bb",
            ),
            (
                LikelihoodKind.POISSON,
                "a6b1220eaa9d5023bf742f59c9df71c9af6aec611a67a31b15d7ee525857b337",
                "ac951ba0b2ef71a01ddfa0dec176fc7249ca821d50222b2c9cffb23f4b167007",
            ),
        ],
    )
    def test_unsmoothed_digests(self, kind, report_digest, partition_digest):
        spec = GridSpec(n_seeds=3, beta=0, likelihood_kind=kind)
        assert sha256(tuning_report_json_dict(select_gamma(self.records(), spec))) == report_digest
        assert sha256(partition_to_json_dict(optimal_bins(self.records(), spec), spec.beta)) == partition_digest


def reference_selection(records, spec):
    """(gamma_best, table) of select_gamma from the record-list pieces only:
    split_records, one optimal_partition per gamma, a scalar locate_bin sum
    in test order, then the documented mean and rank-sum rules."""
    n_g = len(spec.gammas)
    loglik = {}
    for ri, ratio in enumerate(spec.ratios):
        for seed in range(spec.n_seeds):
            train, test = split_records(records, ratio, seed)
            hist = smooth(build_histogram(train), spec.beta)
            row = []
            for gamma in spec.gammas:
                bins = optimal_partition(hist, PriorConfig(gamma), spec.likelihood_kind).bins
                total = 0.0
                for rec in test:
                    b = bins[locate_bin(bins, rec.count)[0]]
                    total += math.log(sum(hist.freqs[b.lo : b.hi + 1])) - math.log(hist.total) - math.log(b.width)
                row.append(total)
            loglik[ri, seed] = row
    means, table = {}, []
    for gi, gamma in enumerate(spec.gammas):
        for ri, ratio in enumerate(spec.ratios):
            acc = 0.0
            for seed in range(spec.n_seeds):
                acc += loglik[ri, seed][gi]
            means[gi, ri] = acc / spec.n_seeds
            table.append((gamma, ratio, means[gi, ri]))
    sums = [0] * n_g
    for ri in range(len(spec.ratios)):
        order = sorted(range(n_g), key=lambda gi: (-means[gi, ri], spec.gammas[gi]))
        for rank, gi in enumerate(order):
            sums[gi] += rank
    best = min(range(n_g), key=lambda gi: (sums[gi], spec.gammas[gi]))
    return spec.gammas[best], tuple(table)


@settings(max_examples=60)
@given(
    counts=st.lists(st.integers(0, 300), min_size=2, max_size=200),
    gammas=st.lists(st.sampled_from(DEFAULT_GAMMAS), min_size=1, max_size=3, unique=True),
    ratios=st.lists(st.sampled_from((0.1, 0.2, 0.25, 0.4)), min_size=1, max_size=2, unique=True),
    n_seeds=st.integers(1, 2),
    beta=st.sampled_from((0, 1)),
    kind=st.sampled_from(tuple(LikelihoodKind)),
)
# [0, 300] holds out 300 above the train maximum 0 (clamped); [300, 0, 7]
# trains on 300 and one other count, a beta = 0 mass of 2 below C + 1 = 301
@example(counts=[0, 300], gammas=[0.5], ratios=[0.25], n_seeds=1, beta=0, kind=LikelihoodKind.MULTINOMIAL)
@example(counts=[300, 0, 7], gammas=[0.1, 0.9], ratios=[0.25], n_seeds=2, beta=0, kind=LikelihoodKind.POISSON)
# the unique maximum 300 is held out by seed 0 only, so the ratio's train
# sides fall into two edge groups, one of two histograms
@example(counts=[*range(20), 300], gammas=[0.1, 0.5, 0.9], ratios=[0.25], n_seeds=3, beta=1, kind=LikelihoodKind.MULTINOMIAL)
# unsmoothed train sides of three different supports: one pass each
@example(counts=[0, 0, 3, 3, 7, 9, 9, 12, 20, 20, 21], gammas=[0.2, 0.5], ratios=[0.25], n_seeds=3, beta=0, kind=LikelihoodKind.POISSON)
def test_select_gamma_equals_reference(counts, gammas, ratios, n_seeds, beta, kind):
    recs = make_records(counts)
    spec = GridSpec(tuple(gammas), tuple(ratios), n_seeds, beta, kind)
    sel = select_gamma(recs, spec)
    assert (sel.gamma_best, sel.table) == reference_selection(recs, spec)


def test_one_dp_pass_per_search(monkeypatch):
    # 13 copies of the maximum 40 and at most 5 held out: every train side
    # ends at 40, so with beta = 1 all the search's train histograms share
    # edges
    passes = []
    real_dp = stratify._dp

    def counting_dp(cells, gammas, kind):
        passes.append(cells.n_hists)
        return real_dp(cells, gammas, kind)

    monkeypatch.setattr(stratify, "_dp", counting_dp)
    spec = GridSpec(beta=1)
    select_gamma(make_records([0, 1, 2, 5, 8, 9, 11] + [40] * 13), spec)
    assert passes == [spec.n_seeds * len(spec.ratios)]


def test_capped_fit_makes_no_dp_call(monkeypatch):
    # the capped pass is its own loop; an uncapped fit is one _dp pass
    passes = []
    real_dp = stratify._dp

    def counting_dp(cells, gammas, kind):
        passes.append(len(gammas))
        return real_dp(cells, gammas, kind)

    monkeypatch.setattr(stratify, "_dp", counting_dp)
    hist = smooth(build_histogram(make_records([0, 1, 2, 5, 8, 9, 11] + [40] * 13)), 1)
    kind = LikelihoodKind.MULTINOMIAL
    assert optimal_partition(hist, BinningConfig(gamma=0.5, alpha=3), kind).n_bins <= 3
    assert passes == []
    optimal_partition(hist, BinningConfig(gamma=0.5), kind)
    assert passes == [1]


class TestOptimalBins:
    def test_degenerate_grid_equals_direct_fit(self):
        recs = make_records([0, 0, 1, 2, 2, 3, 9, 9, 10, 25])
        spec = GridSpec(gammas=(0.5,), ratios=(0.2,), n_seeds=2)
        got = optimal_bins(recs, spec)
        hist = smooth(build_histogram(recs), spec.beta)
        want = optimal_partition(hist, PriorConfig(0.5), spec.likelihood_kind)
        assert got == want
        assert got.gamma_used == 0.5

    def test_deterministic_across_runs(self):
        recs = make_records([0, 1, 1, 4, 4, 4, 9, 16, 25, 36])
        spec = GridSpec(gammas=(0.3, 0.6), ratios=(0.25,), n_seeds=3)
        assert optimal_bins(recs, spec) == optimal_bins(recs, spec)

    def test_matches_oracle_at_selected_gamma(self):
        recs = make_records([0, 0, 0, 0, 1, 1, 1, 1, 3])
        spec = GridSpec(gammas=(0.2, 0.5), ratios=(0.25,), n_seeds=3)
        sel = select_gamma(recs, spec)
        got = optimal_bins(recs, spec)
        hist = smooth(build_histogram(recs), spec.beta)
        oracle = brute_force_partition(hist, PriorConfig(sel.gamma_best), spec.likelihood_kind)
        assert got.bins == oracle.bins


class TestCountBound:
    """The search bounds its counts by MAX_COUNT as the CSV reader does."""

    def test_record_over_int64_rejected(self):
        with pytest.raises(ValidationError, match="count must be an integer in"):
            select_gamma([CountRecord("a", 2**70)], GridSpec(n_seeds=1))

    def test_negative_count_in_a_column_rejected(self):
        with pytest.raises(ValidationError, match="counts must lie in"):
            select_gamma_columns(np.array([-1, 5, 3, 2]), GridSpec(n_seeds=1))

    def test_empty_column_rejected(self):
        with pytest.raises(ValidationError, match="records must be non-empty"):
            select_gamma_columns(np.array([], dtype=np.int64), GridSpec())


class TestSearchCells:
    """The train histograms of one search hold at most MAX_SEARCH_CELLS
    (cell, gamma) pairs, fewer gammas than the default's counted as many,
    checked before any split is drawn."""

    @pytest.fixture(autouse=True)
    def no_split(self, monkeypatch):
        def shuffle(n, seed):
            raise AssertionError("a split was drawn")

        monkeypatch.setattr(tuning, "_shuffle", shuffle)

    @pytest.mark.parametrize(
        "spec",
        [
            GridSpec(n_seeds=DEFAULT_N_SEEDS + 1),
            GridSpec(ratios=(*DEFAULT_RATIOS, 0.5)),
            GridSpec(gammas=(*DEFAULT_GAMMAS, 0.95)),
            GridSpec(gammas=(0.5,), n_seeds=DEFAULT_N_SEEDS + 1),
        ],
    )
    def test_over_the_default_grid_at_max_count_rejected(self, spec):
        with pytest.raises(ValidationError, match=f"must be <= {MAX_SEARCH_CELLS}, got"):
            select_gamma_columns(np.array([0, MAX_COUNT]), spec)

    def test_default_grid_at_max_count_admitted(self):
        assert MAX_SEARCH_CELLS == len(DEFAULT_RATIOS) * DEFAULT_N_SEEDS * (MAX_COUNT + 1) * len(DEFAULT_GAMMAS)
        with pytest.raises(AssertionError, match="a split was drawn"):
            select_gamma_columns(np.array([0, MAX_COUNT]), GridSpec())


class TestGridSpec:
    def test_validation(self):
        with pytest.raises(ValidationError):
            GridSpec(gammas=())
        with pytest.raises(ValidationError):
            GridSpec(gammas=(1.2,))
        with pytest.raises(ValidationError):
            GridSpec(ratios=(0.0,))
        with pytest.raises(ValidationError):
            GridSpec(n_seeds=0)
        with pytest.raises(ValidationError, match="n_seeds must be <= 1000, got 1001"):
            GridSpec(n_seeds=MAX_N_SEEDS + 1)
        assert GridSpec(n_seeds=MAX_N_SEEDS).n_seeds == MAX_N_SEEDS
        with pytest.raises(ValidationError):
            GridSpec(beta=-1)

    @pytest.mark.parametrize("field, value", [("beta", 0.5), ("beta", True), ("beta", 1.0), ("n_seeds", 2.5), ("n_seeds", True)])
    def test_integer_fields_reject_other_types(self, field, value):
        with pytest.raises(ValidationError, match=f"{field} must be an integer"):
            GridSpec(**{field: value})

    def test_numpy_integer_fields_accepted(self):
        assert GridSpec(n_seeds=np.int64(2), beta=np.int32(0)).n_seeds == 2

    @pytest.mark.parametrize("field", ["gammas", "ratios"])
    def test_duplicate_values_rejected(self, field):
        # a repeated gamma would be scored twice and share one report key
        with pytest.raises(ValidationError, match=f"{field} must not repeat a value"):
            GridSpec(**{field: (0.5, 0.2, 0.5)})

    def test_likelihood_kind_flows_through(self):
        recs = make_records([0, 0, 1, 2, 4, 4, 9, 9])
        spec = GridSpec(gammas=(0.5,), ratios=(0.25,), n_seeds=2, likelihood_kind=LikelihoodKind.POISSON)
        assert optimal_bins(recs, spec).likelihood_kind is LikelihoodKind.POISSON
