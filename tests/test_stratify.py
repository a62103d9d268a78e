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
    optimal_partition,
    partition_from_json_dict,
    partition_log_score,
    partition_to_json_dict,
    prior_log_prob,
)
from countstrat import stratify
from countstrat.stratify import (
    _CAPPED_BLOCK,
    _SPLIT_STRIDE,
    _TIE_REL_WINDOW,
    MAX_MASS,
    _CellData,
    _capped_starts,
    _dp,
    _pick,
    _PrefixKeys,
    _starts_from,
    fit_partition_columns,
    log_tables,
    optimal_blocks_per_gamma,
)

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


@settings(max_examples=100)
@given(
    row=st.lists(st.integers(0, 3) | st.integers(0, 5000), min_size=1, max_size=60).filter(any),
    kind=st.sampled_from((MULTI, POIS)),
)
def test_direct_scorer_and_dp_score_every_block_alike(row, kind):
    # bin_log_likelihood sums math.lgamma per count and calls math.log; the
    # passes feed block_scores per-cell lgamma sums and log_tables lookups.
    # Zero counts make cells that span gaps.
    h = CountHistogram(len(row) - 1, tuple(row))
    cells = _CellData(h.freqs)
    acc = np.zeros((1, cells.n_cells))
    for r in range(cells.n_cells):
        acc[:, : r + 1] += cells.cell_lg[:, r, None]  # the left-to-right cell_lg sum from each start
        got = cells.block_scores(r, slice(0, r + 1), acc[:, : r + 1], kind)[0]
        hi = int(cells.edges[r + 1]) - 1
        want = [bin_log_likelihood(h, int(lo), hi, kind) for lo in cells.edges[: r + 1]]
        assert [x.hex() for x in got.tolist()] == [x.hex() for x in want]


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
            optimal_blocks_per_gamma([h.freqs], (0.5,), MULTI)

    def test_mass_limit(self):
        h = CountHistogram(1, (MAX_MASS, 1))
        with pytest.raises(ValidationError, match="exceeds the limit"):
            optimal_partition(h, PriorConfig(0.5), MULTI)
        with pytest.raises(ValidationError, match="exceeds the limit"):
            optimal_blocks_per_gamma([h.freqs], (0.5,), MULTI)

    @pytest.mark.parametrize(
        "freqs, top",
        [
            ((3, 1, 4, 1, 5, 9, 2, 6), 31),  # top = total 31 > C + 1 = 8
            ((1,) + (0,) * 40 + (2,), 42),  # top = C + 1 = 42 > total 3
        ],
    )
    def test_shared_log_tables_slice_bit_equal(self, freqs, top):
        # a search slices one pair of tables sized by its whole input; every
        # fit must see the arrays it would have built on its own
        h = CountHistogram(len(freqs) - 1, freqs)
        own = _CellData(h.freqs)
        shared = _CellData(h.freqs, log_tables(h.total + 500, h.max_count + 300))
        assert len(own.ln_tab) == top + 1 and len(own.ln_fact) == h.total + 1
        assert own.ln_tab[1:].tolist() == [math.log(k) for k in range(1, top + 1)]
        assert own.ln_fact.tolist() == [math.lgamma(k + 1) for k in range(h.total + 1)]
        for name in ("ln_tab", "ln_fact", "cell_lg"):
            a, b = getattr(own, name), getattr(shared, name)
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
        with pytest.raises(ValidationError, match="too short"):
            _CellData(h.freqs, log_tables(h.total - 1, h.max_count))

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


def test_pick_applies_the_tie_rule():
    # on floats a near tie that misses the top exactly loses; exact ties go
    # to fewer bins, then to the lower index
    scores = np.array([2.0, 2.0 - 1e-14, 2.0, 2.0, 1.0])
    n_bins = np.array([3, 1, 2, 2, 1])
    assert _pick(scores, n_bins) == 2
    # an exact key ranks the whole near set, whatever the float order
    assert _pick(scores, n_bins, lambda k: [0, 1, 0, 0][k]) == 1
    assert _pick(scores, n_bins, lambda k: 0) == 1
    assert _pick(np.array([-np.inf, 0.5]), np.array([1, 2])) == 1


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
    ((_, got),) = optimal_blocks_per_gamma([h.freqs], gammas, kind)
    assert len(got) == len(gammas)
    for gamma, (his, masses) in zip(gammas, got):
        assert his.dtype == masses.dtype == np.int64
        bins = optimal_partition(h, PriorConfig(gamma), kind).bins
        assert his.tolist() == [b.hi for b in bins]
        assert masses.tolist() == [sum(h.freqs[b.lo : b.hi + 1]) for b in bins]
        assert bins == brute_force_partition(h, PriorConfig(gamma), kind).bins


@st.composite
def shared_edge_rows(draw):
    """1-4 frequency rows of one length whose cells share their edges: all
    positive (beta 1), or zero at the same counts (beta 0) except that each
    row's first nonzero count may move within the first cell."""
    n_rows = draw(st.integers(1, 4))
    length = draw(st.integers(1, 80))
    freq = st.integers(1, 30)
    if draw(st.booleans()):
        return [draw(st.lists(freq, min_size=length, max_size=length)) for _ in range(n_rows)]
    support = sorted(draw(st.sets(st.integers(0, length - 1), min_size=1)))
    first_cell_end = support[1] if len(support) > 1 else length
    rows = []
    for _ in range(n_rows):
        row = [0] * length
        for c in [draw(st.integers(0, first_cell_end - 1)), *support[1:]]:
            row[c] = draw(freq)
        rows.append(row)
    return rows


@settings(max_examples=150)
@given(
    rows=shared_edge_rows(),
    others=st.lists(st.floats(0.01, 0.99), max_size=3),
    at=st.integers(0, 3),
    kind=st.sampled_from((MULTI, POIS)),
)
def test_stacked_pass_equals_separate_fits(rows, others, at, kind):
    # 0.5 makes merging two equal cells an exact tie; up to 64 cells (and
    # mass 2,400) ties are re-ranked exactly, per histogram
    gammas = tuple(others[:at]) + (0.5,) + tuple(others[at:])
    got = dict(optimal_blocks_per_gamma([np.array(row) for row in rows], gammas, kind))
    assert sorted(got) == list(range(len(rows)))
    for g, row in enumerate(rows):
        h = CountHistogram(len(row) - 1, tuple(row))
        for gamma, (his, masses) in zip(gammas, got[g], strict=True):
            bins = optimal_partition(h, PriorConfig(gamma), kind).bins
            assert his.tolist() == [b.hi for b in bins]
            assert masses.tolist() == [sum(row[b.lo : b.hi + 1]) for b in bins]
            if len(h.support) <= 12:
                assert bins == brute_force_partition(h, PriorConfig(gamma), kind).bins


def test_stack_must_share_edges():
    with pytest.raises(ValidationError, match="share their cell edges"):
        _CellData(np.array([[1, 0, 2], [1, 2, 0]]))


@settings(max_examples=100)
@given(
    n_rows=st.integers(1, 3),
    length=st.sampled_from((_SPLIT_STRIDE - 1, _SPLIT_STRIDE, _SPLIT_STRIDE + 1)) | st.integers(1, 64),
    data=st.data(),
    others=st.lists(st.floats(0.01, 0.99), max_size=5, unique=True),
    at=st.integers(0, 5),
    stride=st.sampled_from((1, 3, _SPLIT_STRIDE)),
    cost=st.sampled_from((0, math.inf)),
    kind=st.sampled_from((MULTI, POIS)),
)
def test_grouped_pass_rows_equal_one_row_passes(n_rows, length, data, others, at, stride, cost, kind):
    # cost 0 splits a group of several rows at every check, inf never; up
    # to 64 cells (mass 1,920) near ties are re-ranked exactly, and 0.5
    # makes merging two equal cells an exact tie
    rows = [data.draw(st.lists(st.integers(1, 30), min_size=length, max_size=length)) for _ in range(n_rows)]
    gammas = tuple(others[:at]) + (0.5,) + tuple(others[at:])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(stratify, "_SPLIT_STRIDE", stride)
        mp.setattr(stratify, "_GROUP_STEP_COST", cost)
        last = _dp(_CellData(rows), gammas, kind)
    assert last.shape == (n_rows, len(gammas), length)
    for g, row in enumerate(rows):
        for k, gamma in enumerate(gammas):
            assert last[g, k].tolist() == _dp(_CellData([row]), (gamma,), kind)[0, 0].tolist()


@settings(max_examples=60)
@given(
    freqs=st.lists(st.integers(0, 30), min_size=1, max_size=64).filter(any),
    gammas=st.lists(st.floats(0.01, 0.99), min_size=1, max_size=3),
    shift=st.sampled_from((0, 1)),
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from((MULTI, POIS)),
)
def test_prefix_keys_equal_exact_key(freqs, gammas, shift, seed, kind):
    # a random winning-start table: row k's last block over cells 0..r
    # starts at or before r, and with shift 1 (the capped pass, row k holds
    # k-bin partitions) at or after k - 1, so row k - 1 fills the prefix
    cells = _CellData(freqs)
    m, rng = cells.n_cells, np.random.default_rng(seed)
    if shift:
        gammas = gammas[:1] * (min(len(gammas), m) + 1)
    last = np.zeros((len(gammas), m), dtype=np.int64)
    for k in range(shift, len(gammas)):
        for r in range(shift * (k - 1), m):
            last[k, r] = rng.integers(shift * (k - 1), r + 1)
    table = last.tolist()
    keys = _PrefixKeys(cells, last, shift, gammas, kind)
    for k in range(shift, len(gammas)):
        for r in range(shift * (k - 1), m):
            want = cells.exact_key(_starts_from(table, shift, k, r), r, kind, gammas[k])
            assert keys.prefix(k, r) == want
            s = int(rng.integers(shift * (k - 1), r + 1))
            want = cells.exact_key(_starts_from(table, shift, k - shift, s - 1) + [s], r, kind, gammas[k])
            assert keys.candidate(k, s, r) == want


def test_pass_table_limit_splits_a_group_into_passes(monkeypatch):
    # five train-like rows over one set of cells; a limit of two rows' worth
    # of winning starts fits them in passes of 2, 2 and 1 histograms
    rng = np.random.default_rng(11)
    freqs = [rng.integers(1, 40, size=90) for _ in range(5)]
    gammas = (0.1, 0.5, 0.9)
    for kind in LikelihoodKind:
        whole = list(optimal_blocks_per_gamma(freqs, gammas, kind))
        passes = []
        real_dp = stratify._dp

        def counting_dp(cells, gammas, kind):
            passes.append(cells.n_hists)
            return real_dp(cells, gammas, kind)

        with monkeypatch.context() as mp:
            mp.setattr(stratify, "_dp", counting_dp)
            mp.setattr(stratify, "_MAX_PASS_ENTRIES", 2 * len(gammas) * 90 + 1)
            chunked = list(optimal_blocks_per_gamma(freqs, gammas, kind))
        assert passes == [2, 2, 1]
        assert [g for g, _ in chunked] == [g for g, _ in whole] == list(range(5))
        for (_, got), (_, want) in zip(chunked, whole):
            assert [(h.tolist(), w.tolist()) for h, w in got] == [(h.tolist(), w.tolist()) for h, w in want]


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


def capped_starts_reference(cells, gamma, alpha, kind):
    """_capped_starts with one DP step per cell, as the capped rows of the
    forward pass ran before the blocked pass: row b of ``best`` holds the
    best b-bin score before each start (row 0 the empty partition), and the
    ties of each cell go through the float tie rule, then _pick with exact
    keys for every row whose window holds more than one candidate."""
    m = cells.n_cells
    total = int(cells.mass_cum[0, -1])
    bound = (
        2.0 * math.lgamma(total + 1)
        + total * (math.log(total) + math.log(cells.edges[-1]) + 1.0)
        + m * abs(math.log(gamma))
        + 1.0
    )
    near = -2.0 * _TIE_REL_WINDOW * bound
    last = np.zeros((alpha + 1, m), dtype=np.int64)
    best = np.full((alpha + 1, m), -np.inf)
    best[0, 0] = 0.0
    nbins = np.zeros((alpha + 1, m), dtype=np.int64)
    top, top_nbins = np.full(alpha, -np.inf), np.zeros(alpha, dtype=np.int64)
    acc = np.zeros((1, m))
    rows = np.arange(alpha)
    for r in range(m):
        best[1:, r], nbins[1:, r] = top, top_nbins
        acc[:, : r + 1] += cells.cell_lg[:, r, None]
        scores = cells.block_scores(r, slice(0, r + 1), acc[:, : r + 1], kind)[0]
        src, src_nbins = best[:alpha, : r + 1], nbins[:alpha, : r + 1]
        cand = src + scores
        cand += 0.0
        picks = cand.argmax(axis=1)
        top = cand[rows, picks]
        tied = cand == top[:, None]
        if np.count_nonzero(tied) > alpha:
            picks = np.where(tied, src_nbins, m).argmin(axis=1)
        if cells.exact_ties():
            # a row with no partition yet (fewer cells than bins) is all
            # -inf; no partition reads what it stores, so it is skipped
            close = cand >= (top + near)[:, None]
            for k in np.flatnonzero((close.sum(axis=1) > 1) & (top > -np.inf)):
                key = lambda j, k=k, r=r: cells.exact_key(_starts_from(last, 1, k, j - 1) + [j], r, kind, gamma)
                picks[k] = _pick(cand[k], src_nbins[k], key)
        last[1:, r] = picks
        top_nbins = src_nbins[rows, picks] + 1
    n_bins = np.arange(1, alpha + 1)
    key = None
    if cells.exact_ties():
        key = lambda b: cells.exact_key(_starts_from(last, 1, b + 1, m - 1), m - 1, kind, gamma)
    b = _pick(top + n_bins * math.log(gamma), n_bins, key) + 1
    return _starts_from(last, 1, b, m - 1)


@st.composite
def capped_rows(draw):
    """A frequency row of 2-200 counts: random (zeros included), all equal or
    alternating. Near ties are re-ranked exactly in rows of at most 64 cells
    and mass 10,000. All-equal and alternating rows tie at every split, which
    is slow to re-rank, so from 18 to 64 counts they get frequencies of 600
    or more and break their ties on floats, as they do past 64 cells."""
    shape = draw(st.sampled_from(("random", "equal", "alternating")))
    edge = st.sampled_from((_CAPPED_BLOCK - 1, _CAPPED_BLOCK, _CAPPED_BLOCK + 1, 2 * _CAPPED_BLOCK + 1))
    length = draw(edge | st.integers(2, 64) | st.integers(2, 200))
    freq = st.integers(600, 2000) if 17 < length <= 64 else st.integers(1, 30)
    if shape == "equal":
        row = [draw(freq)] * length
    elif shape == "alternating":
        row = (draw(st.lists(freq, min_size=2, max_size=2)) * length)[:length]
    else:
        row = draw(st.lists(st.integers(0, 30), min_size=length, max_size=length))
    row[0] = max(row[0], 1)
    row[-1] = max(row[-1], 1)  # at least two cells
    return row


@settings(max_examples=150)
@given(
    row=capped_rows(),
    gamma=st.sampled_from((0.1, 0.5, 0.9)) | st.floats(0.01, 0.99),
    at=st.floats(0.0, 1.0),
    kind=st.sampled_from((MULTI, POIS)),
)
def test_blocked_capped_pass_equals_per_cell_reference(row, gamma, at, kind):
    h = CountHistogram(len(row) - 1, tuple(row))
    cells = _CellData(h.freqs)
    # every alpha below the cell count: the ends, and one drawn anywhere between
    m = cells.n_cells
    for alpha in sorted({1, m - 1, 1 + int(at * (m - 2))}):
        want = capped_starts_reference(cells, gamma, alpha, kind)
        assert _capped_starts(cells, gamma, alpha, kind) == want
        got = optimal_partition(h, PriorConfig(gamma, alpha), kind)
        assert [b.hi for b in got.bins] == cells.blocks(want)[0].tolist()
        assert got.map_score.hex() == partition_log_score(h, got, PriorConfig(gamma, alpha), kind).hex()


@pytest.mark.parametrize("lead", [(2, 3), (3,), ()], ids=["synth-batch", "synth-epoch", "held-out"])
def test_numpy_cumsum_sums_left_to_right(lead):
    # the last entry of np.cumsum along the last axis is the scalar loop's
    # left-to-right sum: synth._train's batch gradients (axis 2 of a
    # (2, jobs, bs + 1) array, sliced to the batch) and epoch losses (axis 1
    # of a (jobs, n + 1) array), each behind a column of 0.0, and
    # tuning._held_out's 1-D sum. Pairwise summation (np.sum) rounds these
    # values differently.
    values = [0.0, 1.0] + [1e-16] * 1000 + [3.0, 0.1] * 50
    seq, running = [], 0.0
    for x in values:
        running += x
        seq.append(running)
    assert float(np.sum(values)) != seq[-1]
    block = np.zeros((*lead, len(values) + 5))
    block[..., : len(values)] = values
    got = np.cumsum(block[..., : len(values)], axis=len(lead))
    for row in got.reshape(-1, len(values)):
        assert row.tolist() == seq


def test_numpy_argmax_takes_the_first_of_equal_maxima():
    # the capped pass breaks float ties by the lowest start: argmax's first
    # index, also in rows that hold -inf and in rows all -inf
    rng = np.random.default_rng(3)
    rows = np.full((6, 1000), -np.inf)
    rows[0, [5, 17, 999]] = 2.0
    rows[1, 1:] = 0.0
    rows[2] = rng.integers(-3, 4, size=1000).astype(float)
    rows[2, :400] = -np.inf
    rows[3, [0, 64, 65]] = -1.0
    rows[4, ::7] = np.inf
    want = [5, 1, 400 + int(np.flatnonzero(rows[2, 400:] == 3.0)[0]), 0, 0, 0]
    assert rows.argmax(axis=1).tolist() == want


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
        assert isinstance(cfg, PriorConfig)
        assert cfg.gamma == 0.5 and cfg.alpha is None and cfg.beta == 1
        assert cfg.likelihood_kind is MULTI

    def test_validation(self):
        with pytest.raises(ValidationError):
            BinningConfig(gamma=2.0)
        with pytest.raises(ValidationError):
            BinningConfig(beta=-1)

    @pytest.mark.parametrize("field, value", [("alpha", 2.5), ("alpha", True), ("alpha", 3.0), ("beta", 0.5), ("beta", True)])
    def test_integer_fields_reject_other_types(self, field, value):
        with pytest.raises(ValidationError, match=f"{field} must be an integer"):
            BinningConfig(gamma=0.5, **{field: value})

    def test_negative_count_column_rejected(self):
        with pytest.raises(ValidationError, match="counts must lie in"):
            fit_partition_columns(np.array([-1, 2]), BinningConfig(gamma=0.5))

    def test_prior_alpha_must_be_an_integer(self):
        with pytest.raises(ValidationError, match="alpha must be an integer"):
            PriorConfig(0.5, 2.5)
        assert PriorConfig(0.5, np.int64(2)).alpha == 2
