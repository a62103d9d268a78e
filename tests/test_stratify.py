import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from countstrat import (
    Bin,
    BinningConfig,
    CountHistogram,
    LikelihoodKind,
    Partition,
    PriorConfig,
    RangeError,
    ValidationError,
    bin_log_likelihood,
    brute_force_partition,
    locate_bin,
    optimal_bins_per_gamma,
    optimal_partition,
    partition_from_json_dict,
    partition_log_score,
    partition_to_json_dict,
    prior_log_prob,
)
from countstrat.stratify import MAX_MASS

MULTI = LikelihoodKind.MULTINOMIAL
POIS = LikelihoodKind.POISSON


def random_histogram(rng, max_cells=12, max_freq=50):
    length = int(rng.integers(1, max_cells + 1))
    freqs = rng.integers(0, max_freq + 1, size=length)
    if freqs.sum() == 0:
        freqs[int(rng.integers(length))] = int(rng.integers(1, max_freq + 1))
    return CountHistogram(length - 1, tuple(int(f) for f in freqs))


class TestPrior:
    def test_substitution_examples(self):
        cfg = PriorConfig(0.5, 2)
        assert prior_log_prob(1, cfg) == pytest.approx(math.log(1 / 3), abs=1e-12)
        assert prior_log_prob(2, cfg) == pytest.approx(math.log(1 / 6), abs=1e-12)
        assert prior_log_prob(3, cfg) == float("-inf")

    def test_needs_resolved_alpha(self):
        with pytest.raises(ValidationError, match="alpha"):
            prior_log_prob(1, PriorConfig(0.5))

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            PriorConfig(0.0)
        with pytest.raises(ValidationError):
            PriorConfig(1.0)
        with pytest.raises(ValidationError):
            PriorConfig(0.5, 0)

    def test_resolved(self):
        assert PriorConfig(0.5).resolved(7).alpha == 7
        assert PriorConfig(0.5, 3).resolved(7).alpha == 3


class TestBinLogLikelihood:
    def test_single_cell_is_exactly_zero(self):
        for x in (1, 2, 17, 400):
            h = CountHistogram(0, (x,))
            assert bin_log_likelihood(h, 0, 0, MULTI) == 0.0

    def test_two_even_cells(self):
        h = CountHistogram(1, (1, 1))
        assert bin_log_likelihood(h, 0, 1, MULTI) == pytest.approx(-math.log(2), abs=1e-12)

    def test_two_skewed_cells(self):
        h = CountHistogram(1, (2, 0))
        assert bin_log_likelihood(h, 0, 1, MULTI) == pytest.approx(-2 * math.log(2), abs=1e-12)

    def test_zero_mass_bin(self):
        h = CountHistogram(3, (1, 0, 0, 1))
        assert bin_log_likelihood(h, 1, 2, MULTI) == 0.0
        assert bin_log_likelihood(h, 1, 2, POIS) == 0.0

    def test_bounds_checked(self):
        h = CountHistogram(2, (1, 1, 1))
        with pytest.raises(RangeError):
            bin_log_likelihood(h, 0, 3, MULTI)
        with pytest.raises(RangeError):
            bin_log_likelihood(h, -1, 1, MULTI)
        with pytest.raises(RangeError):
            bin_log_likelihood(h, 2, 1, MULTI)

    def test_poisson_matches_per_cell_sum(self):
        # shared-rate Poisson: sum over cells of x*ln(lam) - lam - ln(x!)
        h = CountHistogram(1, (2, 4))
        lam = 6 / 2
        expected = sum(
            x * math.log(lam) - lam - math.lgamma(x + 1) for x in (2, 4)
        )
        assert bin_log_likelihood(h, 0, 1, POIS) == pytest.approx(expected, abs=1e-12)

    def test_poisson_single_cell(self):
        h = CountHistogram(0, (3,))
        expected = 3 * math.log(3.0) - 3 - math.lgamma(4)
        assert bin_log_likelihood(h, 0, 0, POIS) == pytest.approx(expected, abs=1e-12)

    def test_multinomial_matches_direct_pmf(self):
        # independent recomputation: log[ X! / prod x_j! * prod (1/m)^x_j ]
        h = CountHistogram(2, (3, 1, 2))
        expected = math.log(
            math.factorial(6)
            / (math.factorial(3) * math.factorial(1) * math.factorial(2))
            * (1 / 3) ** 6
        )
        assert bin_log_likelihood(h, 0, 2, MULTI) == pytest.approx(expected, abs=1e-12)


class TestPartitionScore:
    def test_one_bin_sum(self):
        h = CountHistogram(1, (1, 1))
        p = Partition((Bin(0, 1),), 0.0, 0.5, MULTI)
        got = partition_log_score(h, p, PriorConfig(0.5, 2), MULTI)
        assert got == pytest.approx(-math.log(2) + math.log(1 / 3), abs=1e-12)

    def test_outside_prior_support(self):
        h = CountHistogram(1, (1, 1))
        p = Partition((Bin(0, 0), Bin(1, 1)), 0.0, 0.5, MULTI)
        assert partition_log_score(h, p, PriorConfig(0.5, 1), MULTI) == float("-inf")

    def test_two_singleton_bins(self):
        h = CountHistogram(1, (1, 1))
        p = Partition((Bin(0, 0), Bin(1, 1)), 0.0, 0.5, MULTI)
        got = partition_log_score(h, p, PriorConfig(0.5, 2), MULTI)
        assert got == pytest.approx(math.log(1 / 6), abs=1e-12)

    def test_range_mismatch_rejected(self):
        h = CountHistogram(2, (1, 1, 1))
        p = Partition((Bin(0, 1),), 0.0, 0.5, MULTI)
        with pytest.raises(ValidationError):
            partition_log_score(h, p, PriorConfig(0.5), MULTI)


class TestPartitionType:
    def test_contiguity_enforced(self):
        with pytest.raises(ValidationError):
            Partition((Bin(0, 1), Bin(3, 4)), 0.0, 0.5, MULTI)
        with pytest.raises(ValidationError):
            Partition((Bin(1, 2),), 0.0, 0.5, MULTI)
        with pytest.raises(ValidationError):
            Partition((), 0.0, 0.5, MULTI)

    def test_bin_bounds(self):
        with pytest.raises(ValidationError):
            Bin(3, 2)
        with pytest.raises(ValidationError):
            Bin(-1, 2)

    def test_locate_bin(self):
        bins = (Bin(0, 10), Bin(11, 99))
        assert locate_bin(bins, 5) == (0, False)
        assert locate_bin(bins, 10) == (0, False)
        assert locate_bin(bins, 11) == (1, False)
        assert locate_bin(bins, 120) == (1, True)
        with pytest.raises(RangeError):
            locate_bin(bins, -1)

    def test_json_round_trip(self):
        p = Partition((Bin(0, 4), Bin(5, 9)), -12.5, 0.3, POIS, 10)
        doc = partition_to_json_dict(p, beta=1)
        assert doc["alpha"] == 10 and doc["beta"] == 1
        assert partition_from_json_dict(doc) == p
        with pytest.raises(ValidationError, match="beta"):
            partition_from_json_dict({k: v for k, v in doc.items() if k != "beta"})
        with pytest.raises(ValidationError, match="alpha"):
            partition_to_json_dict(Partition(p.bins, -12.5, 0.3, POIS), beta=1)

    def test_fit_records_resolved_alpha(self):
        h = CountHistogram(4, (3, 0, 1, 0, 2))
        assert optimal_partition(h, PriorConfig(0.5), MULTI).alpha == 3  # cells with mass
        assert optimal_partition(h, PriorConfig(0.5, 2), MULTI).alpha == 2
        assert brute_force_partition(h, PriorConfig(0.5), MULTI).alpha == 3

    def test_bad_json_rejected(self):
        with pytest.raises(ValidationError):
            partition_from_json_dict({"bins": []})


class TestOptimalPartition:
    def test_single_cell(self):
        h = CountHistogram(0, (9,))
        p = optimal_partition(h, PriorConfig(0.5), MULTI)
        assert p.bins == (Bin(0, 0),)

    def test_toy_matches_oracle(self):
        h = CountHistogram(3, (5, 5, 1, 1))
        cfg = PriorConfig(0.5, 4)
        dp = optimal_partition(h, cfg, MULTI)
        bf = brute_force_partition(h, cfg, MULTI)
        assert dp.bins == bf.bins
        assert dp.map_score == pytest.approx(bf.map_score, abs=1e-9)

    def test_oracle_sweep_all_gammas(self):
        rng = np.random.default_rng(42)
        for _ in range(60):
            h = random_histogram(rng)
            for gamma in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9):
                for kind in (MULTI, POIS):
                    cfg = PriorConfig(gamma)
                    dp = optimal_partition(h, cfg, kind)
                    bf = brute_force_partition(h, cfg, kind)
                    assert dp.bins == bf.bins, (h.freqs, gamma, kind)
                    assert abs(dp.map_score - bf.map_score) <= 1e-9

    def test_exact_tie_matches_oracle(self):
        # mirror-symmetric frequencies create mathematically tied partitions
        for freqs in ((3, 7, 3), (1, 1), (5, 2, 5), (4, 4, 4, 4)):
            h = CountHistogram(len(freqs) - 1, freqs)
            for gamma in (0.3, 0.5, 0.7):
                dp = optimal_partition(h, PriorConfig(gamma), MULTI)
                bf = brute_force_partition(h, PriorConfig(gamma), MULTI)
                assert dp.bins == bf.bins

    def test_sparse_support_covers_range(self):
        h = CountHistogram(9, (4, 0, 0, 7, 0, 2, 0, 0, 0, 1))
        p = optimal_partition(h, PriorConfig(0.4), MULTI)
        assert p.bins[0].lo == 0
        assert p.bins[-1].hi == 9
        for a, b in zip(p.bins, p.bins[1:]):
            assert b.lo == a.hi + 1

    def test_map_score_is_rescoring_exactly(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            h = random_histogram(rng)
            cfg = PriorConfig(0.35)
            for kind in (MULTI, POIS):
                p = optimal_partition(h, cfg, kind)
                assert p.map_score == partition_log_score(h, p, cfg, kind)

    def test_deterministic(self):
        h = CountHistogram(5, (9, 1, 4, 4, 1, 9))
        a = optimal_partition(h, PriorConfig(0.5), MULTI)
        b = optimal_partition(h, PriorConfig(0.5), MULTI)
        assert a == b

    def test_alpha_cap_respected(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            h = random_histogram(rng, max_cells=10)
            for alpha in (1, 2, 3):
                p = optimal_partition(h, PriorConfig(0.6, alpha), MULTI)
                assert p.n_bins <= alpha

    def test_alpha_one_single_bin(self):
        h = CountHistogram(4, (1, 5, 1, 5, 1))
        p = optimal_partition(h, PriorConfig(0.5, 1), MULTI)
        assert p.bins == (Bin(0, 4),)

    def test_capped_matches_oracle(self):
        rng = np.random.default_rng(1234)
        for _ in range(40):
            length = int(rng.integers(2, 11))
            freqs = tuple(int(f) for f in rng.integers(1, 51, size=length))
            h = CountHistogram(length - 1, freqs)
            for alpha in (1, 2, 3):
                for kind in (MULTI, POIS):
                    cfg = PriorConfig(0.37, alpha)
                    dp = optimal_partition(h, cfg, kind)
                    bf = brute_force_partition(h, cfg, kind)
                    assert dp.bins == bf.bins, (freqs, alpha, kind)

    def test_nbins_monotone_in_gamma(self):
        # smaller gamma never yields more bins (checked against the oracle)
        rng = np.random.default_rng(5)
        for _ in range(25):
            h = random_histogram(rng, max_cells=8)
            n_prev = None
            for gamma in (0.9, 0.7, 0.5, 0.3, 0.1):
                n = brute_force_partition(h, PriorConfig(gamma), MULTI).n_bins
                if n_prev is not None:
                    assert n <= n_prev
                n_prev = n

    def test_empty_histogram_rejected(self):
        h = CountHistogram(1, (0, 0))
        for fit in (optimal_partition, brute_force_partition):
            with pytest.raises(ValidationError, match="positive total mass"):
                fit(h, PriorConfig(0.5), MULTI)
        with pytest.raises(ValidationError, match="positive total mass"):
            optimal_bins_per_gamma(h, (0.5,), MULTI)

    def test_mass_limit(self):
        h = CountHistogram(1, (MAX_MASS, 1))
        with pytest.raises(ValidationError, match="exceeds the limit"):
            optimal_partition(h, PriorConfig(0.5), MULTI)
        with pytest.raises(ValidationError, match="exceeds the limit"):
            optimal_bins_per_gamma(h, (0.5,), MULTI)

    def test_large_dense_histogram_runs(self):
        rng = np.random.default_rng(9)
        freqs = tuple(int(f) + 1 for f in rng.integers(0, 40, size=1200))
        h = CountHistogram(1199, freqs)
        p = optimal_partition(h, PriorConfig(0.2), MULTI)
        assert p.bins[0].lo == 0 and p.bins[-1].hi == 1199


@pytest.mark.parametrize("fit", [optimal_partition, brute_force_partition])
class TestTieRule:
    """The documented tie rule, pinned by hand so it does not rest on the
    oracle agreeing with the DP (both share one resolver)."""

    def test_exact_tie_goes_to_fewer_bins(self, fit):
        # one bin and two unit bins score exactly the same at gamma = 0.5
        h = CountHistogram(1, (1, 1))
        assert fit(h, PriorConfig(0.5), MULTI).bins == (Bin(0, 1),)

    def test_capped_tie_goes_to_fewer_bins(self, fit):
        # merging two unit cells is neutral at gamma = 0.5: 3, 4 and 5 bins tie
        h = CountHistogram(4, (1, 1, 40, 1, 1))
        assert fit(h, PriorConfig(0.5, 4), MULTI).bins == (Bin(0, 1), Bin(2, 2), Bin(3, 4))

    def test_mirror_tie_goes_to_earlier_split(self, fit):
        h = CountHistogram(2, (3, 7, 3))
        assert fit(h, PriorConfig(0.5, 2), MULTI).bins == (Bin(0, 0), Bin(1, 2))


@settings(max_examples=200)
@given(
    freqs=st.lists(st.integers(0, 30), min_size=1, max_size=10).filter(any),
    gamma=st.sampled_from((0.1, 0.3, 0.5, 0.7, 0.9)),
    alpha=st.sampled_from((None, 1, 2, 3)),
    kind=st.sampled_from((MULTI, POIS)),
)
def test_dp_equals_oracle(freqs, gamma, alpha, kind):
    h = CountHistogram(len(freqs) - 1, tuple(freqs))
    cfg = PriorConfig(gamma, alpha)
    dp = optimal_partition(h, cfg, kind)
    bf = brute_force_partition(h, cfg, kind)
    assert dp.bins == bf.bins
    assert dp.map_score == bf.map_score


@settings(max_examples=200)
@given(
    freqs=st.lists(st.integers(0, 30), min_size=1, max_size=10).filter(any),
    others=st.lists(st.floats(0.01, 0.99), max_size=4),
    at=st.integers(0, 4),
    kind=st.sampled_from((MULTI, POIS)),
)
def test_multi_gamma_dp_equals_single_and_oracle(freqs, others, at, kind):
    # 0.5 makes merging two equal cells an exact tie
    gammas = tuple(others[:at]) + (0.5,) + tuple(others[at:])
    h = CountHistogram(len(freqs) - 1, tuple(freqs))
    got = list(optimal_bins_per_gamma(h, gammas, kind))
    assert len(got) == len(gammas)
    for gamma, bins in zip(gammas, got):
        assert bins == optimal_partition(h, PriorConfig(gamma), kind).bins
        assert bins == brute_force_partition(h, PriorConfig(gamma), kind).bins


@settings(max_examples=200)
@given(
    freqs=st.lists(st.integers(0, 30), min_size=1, max_size=64).filter(any),
    gamma=st.sampled_from((0.1, 0.3, 0.5, 0.7, 0.9)),
    extra=st.integers(0, 4),
    kind=st.sampled_from((MULTI, POIS)),
)
def test_loose_cap_keeps_uncapped_bins(freqs, gamma, extra, kind):
    # a cap at or above the uncapped bin count only rescales the prior
    h = CountHistogram(len(freqs) - 1, tuple(freqs))
    uncapped = optimal_partition(h, PriorConfig(gamma), kind)
    capped = optimal_partition(h, PriorConfig(gamma, uncapped.n_bins + extra), kind)
    assert capped.bins == uncapped.bins


def pinned_histograms():
    rng = np.random.default_rng(5)
    yield rng.integers(1, 40, size=300)
    sparse = np.zeros(700, dtype=np.int64)
    sparse[rng.choice(700, size=120, replace=False)] = rng.integers(1, 9, size=120)
    sparse[0] = max(sparse[0], 1)
    yield sparse
    lognormal = np.rint(rng.lognormal(5.0, 0.6, size=3000)).astype(np.int64)
    yield np.bincount(np.minimum(lognormal, 699), minlength=700) + 1
    yield np.full(100, 3)
    yield np.tile([1, 6], 60)


def test_capped_fits_pinned():
    # sha256 of the bins and map scores written by the earlier per-layer
    # capped DP: random, sparse, lognormal, all-equal and alternating
    # histograms of 100 to 700 count values
    lines = []
    for freqs in pinned_histograms():
        h = CountHistogram(len(freqs) - 1, tuple(int(f) for f in freqs))
        for kind in LikelihoodKind:
            for alpha in (2, 6, 17):
                for gamma in (0.1, 0.5, 0.9):
                    p = optimal_partition(h, PriorConfig(gamma, alpha), kind)
                    bins = ",".join(f"{b.lo}-{b.hi}" for b in p.bins)
                    lines.append(f"{bins} {p.map_score.hex()}")
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "28b5ed0b9bd48815c67df7c9c91745319b8ad5aa741189483d338657886e61c7"


class TestBruteForce:
    def test_refuses_large_instances(self):
        h = CountHistogram(20, tuple([1] * 21))
        with pytest.raises(ValidationError, match="refuses"):
            brute_force_partition(h, PriorConfig(0.5), MULTI)

    def test_single_cell(self):
        h = CountHistogram(0, (4,))
        assert brute_force_partition(h, PriorConfig(0.5), MULTI).bins == (Bin(0, 0),)

    def test_two_cells_is_direct_argmax(self):
        h = CountHistogram(1, (6, 2))
        cfg = PriorConfig(0.4, 2)
        candidates = [
            Partition((Bin(0, 1),), 0.0, 0.4, MULTI),
            Partition((Bin(0, 0), Bin(1, 1)), 0.0, 0.4, MULTI),
        ]
        scores = [partition_log_score(h, p, cfg, MULTI) for p in candidates]
        best = candidates[scores.index(max(scores))]
        assert brute_force_partition(h, cfg, MULTI).bins == best.bins

    def test_at_least_one_bin_score(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            h = random_histogram(rng, max_cells=7)
            cfg = PriorConfig(0.5)
            bf = brute_force_partition(h, cfg, MULTI)
            one_bin = Partition((Bin(0, h.max_count),), 0.0, 0.5, MULTI)
            assert bf.map_score >= partition_log_score(h, one_bin, cfg, MULTI) - 1e-12


class TestBinningConfig:
    def test_defaults(self):
        cfg = BinningConfig()
        assert cfg.gamma == 0.5 and cfg.alpha is None and cfg.beta == 1
        assert cfg.likelihood_kind is MULTI

    def test_validation(self):
        with pytest.raises(ValidationError):
            BinningConfig(gamma=2.0)
        with pytest.raises(ValidationError):
            BinningConfig(beta=-1)
