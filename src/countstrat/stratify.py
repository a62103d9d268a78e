"""MAP-optimal partitioning of a count histogram into contiguous bins.

The objective is a Bayesian score: a per-bin likelihood (multinomial with
uniform within-bin cell probabilities, or Poisson with a shared within-bin
rate) summed over bins, plus a truncated geometric prior over the number of
bins. The maximizer over all contiguous partitions is found by dynamic
programming over histogram cells; a brute-force enumerator over the same
candidate space serves as a verification oracle for small inputs.

Split points fall on cell edges, so a run of identical counts is never
split across bins. With c_0 < ... < c_{M-1} the counts of nonzero
frequency and C the histogram's max count, the edges are
[0, c_1, ..., c_{M-1}, C + 1] and cell j covers the counts edges[j] ..
edges[j+1] - 1. A bin is a run of cells s..r and covers the counts
edges[s] .. edges[r+1] - 1, so the first bin starts at count 0 and the
last ends at C.

Determinism is handled at two levels. The direct scoring path and both
DP passes score a block with one function, _block_score, fed per-cell
log-gamma terms summed left to right and values from ``math.log``/
``math.lgamma`` (the passes read tables of them), so every block scores
alike bit for bit and partition scores agree to within a few ulps. On
top of that, candidates within a tiny relative window of the float
optimum are re-ranked in exact rational arithmetic, because
mathematically tied partitions (symmetric frequency patterns, or gamma
values whose log cancels a likelihood difference) are generally not
float ties. Either way ties resolve by one rule, _pick's: fewer bins,
then the earlier split.

The uncapped fit (_dp) is one forward pass with one row per gamma, every
gamma at once, for each of a stack of histograms that share their cell
edges (the train sides of a grid search's splits; one histogram
otherwise). A row extends its own earlier cells, so the pass steps one
cell at a time. The rows step in groups of consecutive gammas, and a
start that can no longer win in any row of a group leaves that group's
live set; a group splits in two when its rows' live sets differ enough to
pay for the extra step. A capped fit (_capped_starts) has one row per bin
count, and row b reads only row b - 1, so it scores _CAPPED_BLOCK cells
at a time against every start and then takes one add and one argmax per
row and block. It prunes nothing and costs O(alpha * M^2) over M cells,
so optimal_partition refuses more than MAX_CAPPED_WORK candidates. Near
ties of small histograms are re-ranked by exact keys, which both passes
build from memoized prefix keys (_PrefixKeys).
"""

from __future__ import annotations

import enum
import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .counts import MAX_COUNT, CountHistogram, check_integer, count_histogram, smooth
from .errors import RangeError, ValidationError

BRUTE_FORCE_MAX_CELLS = 20
# The DP's log/lgamma tables span the whole histogram mass (records plus
# beta per cell after smoothing): refuse a larger mass before building them.
MAX_MASS = 10_000_000

# Score ties that are mathematically exact (e.g. merging two unit cells at
# gamma = 0.5) are not float ties: libm's lgamma and log disagree by a few
# ulps on values that coincide algebraically. Candidates within this
# relative window of the float optimum are therefore re-ranked in exact
# rational arithmetic, in the DP and the brute-force oracle alike, so true
# ties resolve by the documented rule on every platform. The window is
# ~1000x the worst accumulated rounding drift and far below any genuine
# score gap. Exact re-ranking is skipped for instances too large to ever
# meet the oracle (the float order is still deterministic there).
_TIE_REL_WINDOW = 1e-12
_EXACT_TIE_CELL_LIMIT = 64
_EXACT_TIE_MASS_LIMIT = 10_000

# A capped fit scores every (start, end cell, bin count) candidate:
# alpha * M(M + 1) / 2 of them over M cells. Refuse more than this before
# building any table, so time and memory stay bounded (a fit at the limit
# takes seconds); synth's default fits score about 10^7 each.
MAX_CAPPED_WORK = 2_000_000_000
# Cells per block of the capped pass. Its cell_lg buffer and each block's
# score arrays hold about this many times M entries.
_CAPPED_BLOCK = 16
# The uncapped pass steps its gamma rows in groups with their own live sets
# (_dp). Every _SPLIT_STRIDE cells a group of several rows may split in two;
# it does when that saves at least _GROUP_STEP_COST candidates (one per
# histogram, row and live start) per cell. That is about the cost of one
# more group step: some 25 numpy calls whatever their size. On the
# tune-wide benchmark's search pass (30 train histograms, 2,001 cells) the
# multinomial rows split once, at cell 799 between gammas 0.2 and 0.3, and
# score 24 M candidates instead of 65 M in one group; the Poisson rows
# split twice and score 153 M instead of 233 M.
_SPLIT_STRIDE = 32
_GROUP_STEP_COST = 12_000
# A pass's winning-start table holds one small integer per (histogram,
# gamma, cell). _blocks_by_group fits a group of histograms in as many
# passes as keep each table at or below this many entries; one histogram's
# gammas always share a pass (its blocks hold as many edges), so a histogram
# whose gammas x cells exceed it is rejected. A default-grid pass of ten
# histograms over MAX_COUNT + 1 cells needs 9.0 * 10^7.
_MAX_PASS_ENTRIES = 90_000_000


class LikelihoodKind(enum.Enum):
    MULTINOMIAL = "multinomial"
    POISSON = "poisson"


@dataclass(frozen=True)
class Bin:
    """Closed count interval [lo, hi]."""

    lo: int
    hi: int

    def __post_init__(self):
        if not 0 <= self.lo <= self.hi:
            raise ValidationError(f"invalid bin bounds [{self.lo}, {self.hi}]")

    def contains(self, value: float) -> bool:
        return self.lo <= value <= self.hi

    @property
    def width(self) -> int:
        return self.hi - self.lo + 1


@dataclass(frozen=True)
class PriorConfig:
    """Truncated geometric prior over the number of bins.

    ``alpha`` of None means "number of cells", which makes the cap vacuous;
    it is resolved against a concrete histogram before scoring.
    """

    gamma: float
    alpha: int | None = None

    def __post_init__(self):
        if not 0.0 < self.gamma < 1.0:
            raise ValidationError(f"gamma must lie in (0, 1), got {self.gamma}")
        if self.alpha is not None:
            check_integer("alpha", self.alpha, 1)

    def resolved(self, n_cells: int) -> "PriorConfig":
        if self.alpha is not None:
            return self
        return PriorConfig(self.gamma, n_cells)


@dataclass(frozen=True)
class BinningConfig(PriorConfig):
    """Everything needed to fit bins directly: a PriorConfig (gamma, cap)
    plus the smoothing beta and the likelihood."""

    gamma: float = 0.5
    beta: int = 1
    likelihood_kind: LikelihoodKind = LikelihoodKind.MULTINOMIAL

    def __post_init__(self):
        super().__post_init__()
        check_integer("beta", self.beta, 0)


@dataclass(frozen=True)
class Partition:
    """Ordered, contiguous, exhaustive bins over [0, C] with their MAP score and
    the resolved bin-count cap ``alpha`` it was scored under (None if not fit)."""

    bins: tuple[Bin, ...]
    map_score: float
    gamma_used: float
    likelihood_kind: LikelihoodKind
    alpha: int | None = None

    def __post_init__(self):
        if not self.bins:
            raise ValidationError("partition needs at least one bin")
        if self.bins[0].lo != 0:
            raise ValidationError("first bin must start at count 0")
        for prev, cur in zip(self.bins, self.bins[1:]):
            if cur.lo != prev.hi + 1:
                raise ValidationError(
                    f"bins not contiguous: [{prev.lo},{prev.hi}] then [{cur.lo},{cur.hi}]"
                )

    @property
    def n_bins(self) -> int:
        return len(self.bins)

    @property
    def max_count(self) -> int:
        return self.bins[-1].hi


def locate_bin(bins: tuple[Bin, ...], count: float) -> tuple[int, bool]:
    """locate_bins of one count: (bin index, clamped_above flag)."""
    idx, clamped = locate_bins(bins, [count])
    return int(idx[0]), bool(clamped[0])


def locate_bins(bins: tuple[Bin, ...], counts) -> tuple[np.ndarray, np.ndarray]:
    """Return (bin indices, clamped mask) of a sequence of counts: each
    count's index is that of the first bin with hi >= count, from one
    searchsorted over the bins' upper edges.

    Counts above the partition range map to the last bin with the mask set;
    a NaN count or one below the range raises RangeError.
    """
    counts = np.asarray(counts)
    if counts.dtype.kind == "f" and np.isnan(counts).any():  # integer columns hold no NaN
        raise RangeError("count nan is not a number")
    if counts.size and counts.min() < bins[0].lo:
        raise RangeError(f"count {counts.min()} below partition range start {bins[0].lo}")
    idx = np.searchsorted(np.array([b.hi for b in bins], dtype=np.int64), counts)
    clamped = idx == len(bins)
    return np.minimum(idx, len(bins) - 1), clamped


def prior_log_prob(n_bins: int, cfg: PriorConfig) -> float:
    """Log of the truncated geometric prior; -inf outside support [1, alpha]."""
    if n_bins < 1:
        raise ValidationError("n_bins must be >= 1")
    if cfg.alpha is None:
        raise ValidationError("alpha unresolved; call cfg.resolved(n_cells) first")
    if n_bins > cfg.alpha:
        return float("-inf")
    g = cfg.gamma
    log_p0 = math.log((1.0 - g) / (1.0 - g**cfg.alpha))
    return log_p0 + n_bins * math.log(g)


def _block_score(kind: LikelihoodKind, mass, ln_width, lgamma_sum, ln_fact, ln):
    """Float log-likelihood of blocks of positive mass, the one formula of
    every scoring path: scalars with ln_fact(k) = math.lgamma(k + 1) and ln =
    math.log (bin_log_likelihood), or arrays with lookups into the log tables
    (the passes). lgamma_sum is the block's left-to-right sum of log(f!)."""
    if kind is LikelihoodKind.MULTINOMIAL:
        return (ln_fact(mass) - lgamma_sum) - mass * ln_width
    return (mass * (ln(mass) - ln_width) - mass) - lgamma_sum


def bin_log_likelihood(hist: CountHistogram, lo: int, hi: int, kind: LikelihoodKind) -> float:
    """Log-likelihood of one bin [lo, hi] of the histogram.

    Multinomial: cell probabilities are uniform within the bin (1/width).
    Poisson: one shared rate mass/width across the bin's cells. Both reduce
    to 0 for a zero-mass bin.
    """
    if not 0 <= lo <= hi <= hist.max_count:
        raise RangeError(
            f"bin [{lo}, {hi}] outside histogram range [0, {hist.max_count}]"
        )
    mass = 0
    lgamma_sum = 0.0
    for c in range(lo, hi + 1):
        f = hist.freqs[c]
        mass += f
        lgamma_sum += math.lgamma(f + 1)
    if mass == 0:
        return 0.0
    return _block_score(kind, mass, math.log(hi - lo + 1), lgamma_sum, lambda k: math.lgamma(k + 1), math.log)


def partition_log_score(
    hist: CountHistogram, partition: Partition, cfg: PriorConfig, kind: LikelihoodKind
) -> float:
    """Sum of bin log-likelihoods plus the bin-count prior."""
    if partition.bins[-1].hi != hist.max_count:
        raise ValidationError(
            f"partition ends at {partition.bins[-1].hi}, histogram at {hist.max_count}"
        )
    score = 0.0
    for b in partition.bins:
        score += bin_log_likelihood(hist, b.lo, b.hi, kind)
    return score + prior_log_prob(partition.n_bins, cfg.resolved(len(hist.support)))


def log_tables(mass: int, max_count: int) -> tuple[np.ndarray, np.ndarray]:
    """(ln_tab, ln_fact) for every histogram of at most this mass over at
    most [0, max_count]: ln_tab[k] = log(k) for k up to max(mass,
    max_count + 1), index 0 a never-used guard (pole at 0), and ln_fact[k] =
    lgamma(k + 1) = log(k!) for k up to mass. Entries come one by one from
    math.log/math.lgamma, so a prefix of a larger table is bit-identical to
    a smaller one. Both are read-only, since fits share them."""
    if mass > MAX_MASS:
        raise ValidationError(f"histogram mass {mass} exceeds the limit {MAX_MASS} (records plus beta per count cell)")
    top = max(mass, max_count + 1)
    ln_tab = np.fromiter(itertools.chain((np.nan,), map(math.log, range(1, top + 1))), float, top + 1)
    ln_fact = np.fromiter(map(math.lgamma, range(1, mass + 2)), float, mass + 1)
    ln_tab.flags.writeable = ln_fact.flags.writeable = False
    return ln_tab, ln_fact


def _cell_edges(freqs: np.ndarray) -> np.ndarray:
    """Cell edges [0, c_1, ..., c_{M-1}, C + 1] of a frequency row over [0, C]
    whose nonzero counts are c_0 < ... < c_{M-1}."""
    support = np.flatnonzero(freqs)
    if not len(support):
        raise ValidationError("histogram must have positive total mass")
    return np.concatenate(([0], support[1:], [len(freqs)]))


class _CellData:
    """Arrays shared by the DP paths and the oracle for a stack of G
    frequency rows over [0, C] with one set of cells: cell j covers the
    counts edges[j] .. edges[j+1] - 1 in every row, and row g of mass_cum
    and cell_lg belongs to histogram g. The log tables cover the
    largest mass and are prefixes of ``tables`` (from log_tables) when given."""

    def __init__(self, freqs, tables: tuple[np.ndarray, np.ndarray] | None = None):
        freqs = np.atleast_2d(np.asarray(freqs, dtype=np.int64))
        edges = [_cell_edges(row) for row in freqs]
        if any(not np.array_equal(e, edges[0]) for e in edges[1:]):
            raise ValidationError("stacked histograms must share their cell edges")
        self.edges = edges[0]
        masses = np.add.reduceat(freqs, self.edges[:-1], axis=1)
        self.mass_cum = np.concatenate((np.zeros((len(freqs), 1), np.int64), np.cumsum(masses, axis=1)), axis=1)
        total, max_count = int(self.mass_cum[:, -1].max()), freqs.shape[1] - 1
        ln_tab, ln_fact = tables or log_tables(total, max_count)
        top = max(total, max_count + 1)
        if len(ln_tab) <= top or len(ln_fact) <= total:
            raise ValidationError(f"log tables too short for histogram mass {total} over [0, {max_count}]")
        self.ln_tab, self.ln_fact = ln_tab[: top + 1], ln_fact[: total + 1]
        self.cell_lg = self.ln_fact[masses]

    @property
    def n_hists(self) -> int:
        return len(self.mass_cum)

    @property
    def n_cells(self) -> int:
        return len(self.edges) - 1

    def exact_ties(self, g: int = 0) -> bool:
        """Whether near ties of histogram g are re-ranked exactly."""
        return self.n_cells <= _EXACT_TIE_CELL_LIMIT and int(self.mass_cum[g, -1]) <= _EXACT_TIE_MASS_LIMIT

    def blocks(self, starts: list[int], g: int = 0) -> tuple[np.ndarray, np.ndarray]:
        """Upper edges and histogram g's masses of the blocks given by the
        cell indices starting each block (starts[0] == 0)."""
        bounds = np.append(starts, self.n_cells)
        return self.edges[bounds[1:]] - 1, np.diff(self.mass_cum[g, bounds])

    def block_scores(self, r: int, starts, lgamma_acc: np.ndarray, kind: LikelihoodKind) -> np.ndarray:
        """Scores of the blocks from each of the given start cells to cell r,
        one row per histogram; lgamma_acc holds the left-to-right sums of
        cell_lg over each block."""
        bmass = self.mass_cum[:, r + 1, None] - self.mass_cum[:, starts]
        ln_width = self.ln_tab[self.edges[r + 1] - self.edges[starts]]
        return _block_score(kind, bmass, ln_width, lgamma_acc, self.ln_fact.take, self.ln_tab.take)

    def block_factor(self, s: int, r: int, kind: LikelihoodKind, g: int = 0) -> Fraction:
        """Exact likelihood factor of histogram g's block of cells s..r in
        exact_key."""
        mass = int(self.mass_cum[g, r + 1] - self.mass_cum[g, s])
        width = int(self.edges[r + 1] - self.edges[s])
        if kind is LikelihoodKind.MULTINOMIAL:
            return Fraction(math.factorial(mass), width**mass)
        return Fraction(mass**mass, width**mass)

    def exact_key(self, starts: list[int], r: int, kind: LikelihoodKind, gamma: float, g: int = 0) -> Fraction:
        """Exact rational ranking key of the partition of histogram g's cells
        0..r given by the block start indices, with the prior factor gamma
        per bin.

        Partition-constant factors (the per-cell factorials and, for Poisson,
        exp(-total)) are dropped, so keys are only comparable for the same
        histogram prefix.
        """
        key = Fraction(1)
        for start, nxt in zip(starts, starts[1:] + [r + 1]):
            key *= self.block_factor(start, nxt - 1, kind, g)
        return key * Fraction(gamma) ** len(starts)


class _PrefixKeys:
    """exact_key of the partitions a pass stores for histogram g, memoized.

    Row k's stored partition of cells 0..r ends in the block last[k][r]..r
    after row k - shift's stored partition of the cells before it, so its key
    is that prefix's key times the block's factor and the row's gamma
    (gammas[k]); exact rationals make the product equal to exact_key's. Each
    prefix key and block factor is computed once.
    """

    def __init__(self, cells: _CellData, last: np.ndarray, shift: int, gammas, kind: LikelihoodKind, g: int = 0):
        self.cells, self.last, self.shift, self.kind, self.g = cells, last, shift, kind, g
        self.gammas = [Fraction(x) for x in gammas]
        self.prefixes: dict[tuple[int, int], Fraction] = {}
        self.factors: dict[tuple[int, int], Fraction] = {}

    def candidate(self, k: int, s: int, r: int) -> Fraction:
        """Key of row k's candidate for cells 0..r whose last block starts
        at cell s."""
        factor = self.factors.get((s, r))
        if factor is None:
            factor = self.factors[s, r] = self.cells.block_factor(s, r, self.kind, self.g)
        return self.prefix(k - self.shift, s - 1) * factor * self.gammas[k]

    def prefix(self, k: int, r: int) -> Fraction:
        """Key of row k's stored partition of cells 0..r (1 for r < 0)."""
        if r < 0:
            return Fraction(1)
        key = self.prefixes.get((k, r))
        if key is None:
            key = self.prefixes[k, r] = self.candidate(k, self.last.item(k, r), r)
        return key


def _bins(his: np.ndarray) -> tuple[Bin, ...]:
    """Contiguous bins from count 0 with the given upper edges."""
    his = his.tolist()
    return tuple(map(Bin, [0, *(hi + 1 for hi in his[:-1])], his))


def _pick(scores: np.ndarray, n_bins: np.ndarray, exact_key=None) -> int:
    """Index of the winning candidate, by the one rule for every tie in this
    module: candidates within the relative window _TIE_REL_WINDOW of the top
    score are ranked by ``exact_key`` when given (exact re-ranking), else by
    whether they hit the top exactly; the remaining ties go to the fewest
    ``n_bins``, then to the lowest index.
    """
    top = scores.max()
    near = np.flatnonzero(scores >= top - _TIE_REL_WINDOW * max(1.0, abs(top)))
    if len(near) > 1:
        if exact_key is None:
            near = near[scores[near] == top]
        else:
            keys = np.array([exact_key(k) for k in near.tolist()])
            near = near[keys == max(keys)]
    return int(near[n_bins[near].argmin()])


def _starts_from(last, shift: int, k: int, r: int) -> list[int]:
    """Block starts of the partition that row k of the pass stores for cells
    0..r (empty for r < 0); the prefix before each block is shift rows up.
    The pass's winning-start table is read as last[k][r]: nested lists
    (from ndarray.tolist) where a backtrack takes thousands of steps, else
    the ndarray itself, whose starts come back as NumPy integers."""
    starts = []
    while r >= 0:
        starts.append(last[k][r])
        r, k = starts[-1] - 1, k - shift
    return starts[::-1]


class _Group:
    """A run of a _dp pass's rows, ascending in gamma, stepped with its own
    live set. ``rows`` indexes the pass's rows, ``add`` holds their prior
    terms and ``cut`` their pruning thresholds; ``top`` and ``top_nbins`` are
    each (histogram, row)'s optimum over the cells so far. The first n
    entries of ``live`` are the group's live starts, ascending, and ``acc``,
    ``best`` and ``nbins`` hold, aligned with them, the left-to-right sum of
    cell_lg from each start to the current cell and each row's best score
    and bin count before it; all four keep room for 64 more."""

    def __init__(self, rows, add, cut, top, top_nbins, live, acc, best, nbins):
        self.rows, self.add, self.cut, self.top, self.top_nbins = rows, add, cut, top, top_nbins
        self.hists, self.cols = np.ogrid[: top.shape[0], : top.shape[1]]
        self.n, self.live, self.acc, self.best, self.nbins = len(live), live, acc, best, nbins
        self.grow()

    def grow(self):
        """Room for 64 more live starts."""
        self.live = np.pad(self.live, (0, 64))
        self.acc = np.pad(self.acc, ((0, 0), (0, 64)))
        self.best = np.pad(self.best, ((0, 0), (0, 0), (0, 64)))
        self.nbins = np.pad(self.nbins, ((0, 0), (0, 0), (0, 64)))

    def part(self, rows: slice, keep: np.ndarray) -> "_Group":
        """A group of the given slice of this group's rows, with the live
        starts where keep is set."""
        n = self.n
        return _Group(
            self.rows[rows], self.add[rows], self.cut[rows], self.top[:, rows], self.top_nbins[:, rows],
            self.live[:n][keep], self.acc[:, :n][:, keep], self.best[:, rows, :n][..., keep],
            self.nbins[:, rows, :n][..., keep],
        )


def _split_point(keep: np.ndarray, n_hists: int) -> int:
    """Where a group of rows splits in two: keep[i] marks the live starts
    that the group's row i keeps. Returns the p that puts rows [:p] and [p:]
    into groups of their own with the fewest candidates per cell, when that
    saves at least _GROUP_STEP_COST candidates per cell over the group as it
    is, else 0."""
    n_rows = len(keep)
    # the starts that some row of [:i + 1], and of [i:], keeps
    below = np.logical_or.accumulate(keep).sum(axis=1)
    above = np.logical_or.accumulate(keep[::-1]).sum(axis=1)[::-1]
    sizes = np.arange(1, n_rows)
    cost = below[:-1] * sizes + above[1:] * sizes[::-1]
    p = int(cost.argmin())
    if n_hists * (int(below[-1]) * n_rows - int(cost[p])) >= _GROUP_STEP_COST:
        return p + 1
    return 0


def _dp(cells: _CellData, gammas: tuple[float, ...], kind: LikelihoodKind) -> np.ndarray:
    """Uncapped forward DP over cells with one row per (histogram g, entry k
    of ``gammas``); returns the winning-start table ``last``.

    Row (g, k) extends its own optimum over cells 0..s-1 by the block s..r
    and the block's prior term ln(gammas[k]); last[g, k, r] is the winning
    s. gammas[k] is row k's prior factor in exact keys.

    Every prefix resolves its ties by _pick's rule, which matches comparing
    full partitions by (score, n_bins, reversed split sequence): float ties
    are resolved for all rows of a step at once, and rows of a histogram
    small enough for exact keys re-rank their near ties through _pick
    itself, with keys from _PrefixKeys. Merging blocks never raises the
    likelihood, so a start whose candidate at cell r is below the row's best
    over cells 0..r plus the prior term loses to the start r + 1 at every
    later cell (PELT with K = 0).

    The rows are stepped in groups (_Group) of consecutive gammas, each with
    its own live set: every cell up to r enters it as a start, and a start
    leaves it once it is below by more than ``slack`` in every row of the
    group, which keeps it out of every later tie window of those rows. The
    pass starts with one group of all rows, sorted by gamma. Every
    _SPLIT_STRIDE cells a group of several rows reads its rows' own keep
    masks and splits in two (_split_point) when that saves enough candidates
    per cell: low gammas keep far more starts than high ones. Groups never
    merge. Each row still sees every start its own test keeps, so the
    winning starts do not depend on the grouping.
    """
    m, n_hists = cells.n_cells, cells.n_hists
    # bound >= |score| of any partition of any prefix of any histogram, and
    # of every term summed into one: block log(mass!), cell log(f!) sums,
    # mass*log(mass), mass*log(width), the Poisson mass term, and the prior
    total = int(cells.mass_cum[:, -1].max())
    bound = (
        2.0 * math.lgamma(total + 1)
        + total * (math.log(total) + math.log(cells.edges[-1]) + 1.0)
        + m * max(abs(math.log(x)) for x in gammas)
        + 1.0
    )
    # a float score sums at most m + 16 terms, each off by a few ulps of bound
    slack = (_TIE_REL_WINDOW + 8.0 * (m + 16) * np.finfo(float).eps) * bound
    # every member of _pick's near set lies at or above this below the top
    near = -2.0 * _TIE_REL_WINDOW * bound
    # bin counts and starts are at most m
    small = np.int16 if m < 2**15 else np.int32
    last = np.zeros((n_hists, len(gammas), m), dtype=small)
    keys = {g: _PrefixKeys(cells, last[g], 0, gammas, kind, g) for g in range(n_hists) if cells.exact_ties(g)}
    order = np.argsort(gammas, kind="stable")
    add = np.array([math.log(x) for x in gammas])[order, None]
    # the rows' optimum over the empty prefix; no start is live yet
    shape = (n_hists, len(gammas))
    groups = [
        _Group(order, add, add - slack, np.zeros(shape), np.zeros(shape, small), np.zeros(0, np.int64),
               np.zeros((n_hists, 0)), np.zeros((*shape, 0)), np.zeros((*shape, 0), small))
    ]
    for r in range(m):
        check = (r + 1) % _SPLIT_STRIDE == 0
        stepped = []
        for grp in groups:
            if grp.n == len(grp.live):
                grp.grow()
            n, live, acc, best, nbins = grp.n, grp.live, grp.acc, grp.best, grp.nbins
            live[n], acc[:, n], best[:, :, n], nbins[:, :, n] = r, 0.0, grp.top, grp.top_nbins
            n = grp.n = n + 1
            starts, lg_sum = live[:n], acc[:, :n]
            src, src_nbins = best[:, :, :n], nbins[:, :, :n]
            lg_sum += cells.cell_lg[:, r, None]
            # a slice while nothing is pruned: views, not gathers
            scores = cells.block_scores(r, slice(0, n) if n == r + 1 else starts, lg_sum, kind)
            cand = src + scores[:, None]
            cand += grp.add
            picks = cand.argmax(axis=2)
            # store the float maximum as the next best, so chain error stays at ulp scale
            top = grp.top = cand[grp.hists, grp.cols, picks]
            # the top exactly, then fewer bins, then the lowest index: starts
            # ascend, so that is the earlier split
            tied = cand == top[..., None]
            if np.count_nonzero(tied) > top.size:
                picks = np.where(tied, src_nbins, m).argmin(axis=2)
            for g, prefix_keys in keys.items():
                close = cand[g] >= (top[g] + near)[:, None]
                for i in np.flatnonzero(close.sum(axis=1) > 1).tolist():
                    key = lambda j, k=grp.rows.item(i), s=starts, r=r: prefix_keys.candidate(k, s.item(j), r)
                    picks[g, i] = _pick(cand[g, i], src_nbins[g, i], key)
            last[:, grp.rows, r] = starts[picks]
            grp.top_nbins = src_nbins[grp.hists, grp.cols, picks] + 1
            keep = cand >= top[..., None] + grp.cut
            if check and len(grp.rows) > 1:
                keep = keep.any(axis=0)
                p = _split_point(keep, n_hists)
                if p:
                    stepped += [grp.part(slice(None, p), keep[:p].any(axis=0))]
                    stepped += [grp.part(slice(p, None), keep[p:].any(axis=0))]
                    continue
                keep = keep.any(axis=0)
            else:
                keep = keep.any(axis=(0, 1))
            n_keep = np.count_nonzero(keep)
            if n_keep < n:
                live[:n_keep], acc[:, :n_keep] = starts[keep], lg_sum[:, keep]
                best[:, :, :n_keep], nbins[:, :, :n_keep] = src[..., keep], src_nbins[..., keep]
                grp.n = n_keep
            stepped.append(grp)
        groups = stepped
    return last


def _uncapped_blocks(cells: _CellData, gammas: tuple[float, ...], kind: LikelihoodKind) -> Iterator[list]:
    """cells.blocks of the uncapped MAP partition for each gamma, one list
    per histogram in order, from one pass; each list is built as it is
    consumed, from one row of the table at a time read as a list."""
    last = _dp(cells, gammas, kind)
    m = cells.n_cells
    for g, table in enumerate(last):
        yield [cells.blocks(_starts_from([row.tolist()], 0, 0, m - 1), g) for row in table]


def _capped_starts(cells: _CellData, gamma: float, alpha: int, kind: LikelihoodKind) -> list[int]:
    """Block starts of histogram 0's MAP partition with at most alpha bins.

    Row b of ``best`` holds the best b-bin scores of the prefixes: best[b, j]
    over cells 0..j-1 (row 0 is the empty partition), and last[b, r] the
    start of the last block of the best b-bin partition of cells 0..r. Row
    b reads only row b - 1, so the pass scores a block of _CAPPED_BLOCK
    cells r0..r1-1 against every start 0..r1-1 at once (-inf where the start
    is past the cell), and then each row b is one add of row b - 1 and one
    argmax per block: row b - 1 of the block is final when row b reads it.
    Row 1 needs no argmax, since its one finite candidate is the block from
    cell 0, and row alpha is scored at the last cell only, the one cell
    that the final pick and the backtrack read. The float maximum is stored
    as the next best, as in _dp. _pick then picks a row under the prior.

    The scores are _dp's bit for bit, from the one scorer _block_score: each
    start's left-to-right cell_lg sum is carried across blocks and continued
    one cell row at a time (zeros before a start's first cell, since 0.0 + x
    == x; row by row, as numpy's cumsum along the first axis is several
    times slower), and ties follow _pick's rule: every finite candidate of
    row b has b - 1 bins before its block, so a float tie goes to the lowest
    start (argmax's first index), and a histogram small enough for exact
    keys re-ranks every near set of more than one member through _pick.
    """
    m, w = cells.n_cells, _CAPPED_BLOCK
    edges, mass_cum, cell_lg = cells.edges, cells.mass_cum[0], cells.cell_lg[0]
    best = np.full((alpha + 1, m + 1), -np.inf)
    best[0, 0] = 0.0
    last = np.zeros((alpha + 1, m), dtype=np.int16 if m < 2**15 else np.int32)
    keys = _PrefixKeys(cells, last, 1, (gamma,) * (alpha + 1), kind) if cells.exact_ties() else None
    # one flat buffer, viewed as one contiguous (n + 1, r1) array per block:
    # row 0 (lg_buf[:r1]) carries each start's cell_lg sum before the block
    # and row 1 + i holds its sum to cell r0 + i
    lg_buf = np.zeros((w + 1) * m)
    past = np.triu(np.ones((w, w), dtype=bool), 1)  # the start is past the cell
    cols = np.arange(w)
    for r0 in range(0, m, w):
        r1 = min(r0 + w, m)
        n = r1 - r0
        lg = lg_buf[: (n + 1) * r1].reshape(n + 1, r1)
        lg[0, r0:] = 0.0
        lg[1:] = cell_lg[r0:r1, None]
        np.copyto(lg[1:, r0:], 0.0, where=past[:n, :n])
        for i in range(1, n + 1):
            np.add(lg[i - 1], lg[i], out=lg[i])
        acc = lg[1:]
        # widths and masses clamped past the cell (only starts from r0 on
        # can be), so every lookup is finite before the -inf
        width = edges[r0 + 1 : r1 + 1, None] - edges[:r1]
        mass = mass_cum[r0 + 1 : r1 + 1, None] - mass_cum[:r1]
        np.maximum(width[:, r0:], 1, out=width[:, r0:])
        np.maximum(mass[:, r0:], 1, out=mass[:, r0:])
        sv = _block_score(kind, mass, cells.ln_tab.take(width), acc, cells.ln_fact.take, cells.ln_tab.take)
        np.copyto(sv[:, r0:], -np.inf, where=past[:n, :n])
        lg[0] = acc[-1]
        # row 1's only finite candidate is the block from cell 0 (last stays 0)
        best[1, r0 + 1 : r1 + 1] = sv[:, 0] + best[0, 0]
        # row alpha is read only at the last cell, by the final pick and the backtrack
        for b in range(2, min(alpha, r1) + 1):
            if b == alpha and r1 < m:
                break
            rows = slice(n - 1, n) if b == alpha else slice(0, n)
            cand = sv[rows] + best[b - 1, :r1]
            picks = cand.argmax(axis=1)
            top = best[b, r0 + 1 : r1 + 1][rows] = cand[cols[: len(cand)], picks]
            if keys is not None:
                near = (cand >= (top - _TIE_REL_WINDOW * np.maximum(1.0, np.abs(top)))[:, None]).sum(axis=1)
                for i in np.flatnonzero((near > 1) & (top > -np.inf)).tolist():
                    r = r0 + rows.start + i
                    key = lambda j, b=b, r=r: keys.candidate(b, j, r)
                    picks[i] = _pick(cand[i, : r + 1], np.full(r + 1, b - 1), key)
            last[b, r0:r1][rows] = picks
    n_bins = np.arange(1, alpha + 1)
    key = None
    if keys is not None:
        key = lambda b: keys.prefix(b + 1, m - 1)
    b = _pick(best[1:, m] + n_bins * math.log(gamma), n_bins, key) + 1
    return _starts_from(last, 1, b, m - 1)


def _scored(hist: CountHistogram, his: np.ndarray, cfg: PriorConfig, kind: LikelihoodKind) -> Partition:
    """The partition with the given bin upper edges, with map_score
    recomputed by partition_log_score so it matches direct rescoring bit for
    bit."""
    partition = Partition(_bins(his), 0.0, cfg.gamma, kind, cfg.alpha)
    return replace(partition, map_score=partition_log_score(hist, partition, cfg, kind))


def optimal_partition(hist: CountHistogram, cfg: PriorConfig, kind: LikelihoodKind, tables=None) -> Partition:
    """MAP partition over all contiguous cell-boundary partitions.

    Deterministic: score ties prefer fewer bins, then the earlier last
    split. The returned map_score is recomputed with partition_log_score so
    it matches direct rescoring bit for bit. ``tables`` (from log_tables,
    large enough for hist) saves rebuilding them; results do not change.
    """
    if cfg.alpha is not None:
        n_cells = np.count_nonzero(hist.freqs)
        work = cfg.alpha * n_cells * (n_cells + 1) // 2
        if cfg.alpha < n_cells and work > MAX_CAPPED_WORK:
            raise ValidationError(
                f"a fit capped at alpha {cfg.alpha} over {n_cells} cells scores {work} candidates "
                f"(alpha * M(M + 1) / 2), above the limit {MAX_CAPPED_WORK}"
            )
    cells = _CellData(hist.freqs, tables)
    rcfg = cfg.resolved(cells.n_cells)
    if rcfg.alpha >= cells.n_cells:
        his = next(_uncapped_blocks(cells, (cfg.gamma,), kind))[0][0]
    else:
        his = cells.blocks(_capped_starts(cells, cfg.gamma, rcfg.alpha, kind))[0]
    return _scored(hist, his, rcfg, kind)


def optimal_blocks_per_gamma(
    freqs, gammas: tuple[float, ...], kind: LikelihoodKind, tables=None
) -> Iterator[tuple[int, list[tuple[np.ndarray, np.ndarray]]]]:
    """Yield (g, blocks) for each frequency row g of ``freqs`` (a sequence of
    int64 arrays, row g over [0, C_g]): blocks holds, for each gamma in
    order, the (upper edges, masses) of the uncapped MAP partition's bins as
    int64 arrays; the edges are those of optimal_partition(CountHistogram(C_g,
    row), PriorConfig(gamma), kind).bins. Rows with the same cell edges are
    fit together, in one DP pass per distinct edges, and yielded in the order
    of their group's first row, each group after its pass. ``tables`` as in
    optimal_partition, large enough for every row; the inputs (each row's
    gammas x cells at most _MAX_PASS_ENTRIES) are checked before this returns."""
    for gamma in gammas:
        PriorConfig(gamma)
    groups: dict[bytes, list[int]] = {}
    for g, row in enumerate(freqs):
        edges = _cell_edges(row)
        if len(gammas) * (len(edges) - 1) > _MAX_PASS_ENTRIES:
            raise ValidationError(f"gammas x cells of a histogram must be <= {_MAX_PASS_ENTRIES}, got {len(gammas)} x {len(edges) - 1}")
        groups.setdefault(edges.tobytes(), []).append(g)
    tables = tables or log_tables(max(int(np.sum(row)) for row in freqs), max(len(row) for row in freqs) - 1)
    return _blocks_by_group(freqs, groups.values(), tuple(gammas), kind, tables)


def _blocks_by_group(freqs, groups, gammas, kind, tables):
    """optimal_blocks_per_gamma's (g, blocks) pairs, one pass per group of
    row indices, or per run of a group's rows when one pass would hold more
    than _MAX_PASS_ENTRIES winning starts."""
    for members in groups:
        size = max(1, _MAX_PASS_ENTRIES // (len(gammas) * np.count_nonzero(freqs[members[0]])))
        for i in range(0, len(members), size):
            chunk = members[i : i + size]
            cells = _CellData(np.stack([freqs[g] for g in chunk]), tables)
            yield from zip(chunk, _uncapped_blocks(cells, gammas, kind))


def brute_force_partition(hist: CountHistogram, cfg: PriorConfig, kind: LikelihoodKind) -> Partition:
    """Exhaustive maximizer over all 2^(M-1) contiguous partitions.

    Verification oracle for optimal_partition; refuses more than
    BRUTE_FORCE_MAX_CELLS cells. Blocks are scored independently of the DP
    with bin_log_likelihood; ties resolve by the same rule: fewer bins
    first, then the lexicographically smallest reversed split sequence
    (i.e. earlier last split).
    """
    m = len(hist.support)
    if m > BRUTE_FORCE_MAX_CELLS:
        raise ValidationError(
            f"brute force refuses {m} cells (limit {BRUTE_FORCE_MAX_CELLS}): 2^(M-1) partitions"
        )
    cells = _CellData(hist.freqs)
    rcfg = cfg.resolved(m)
    ln_gamma = math.log(cfg.gamma)
    table = {}
    for i in range(m):
        for j in range(i, m):
            table[(i, j)] = bin_log_likelihood(hist, int(cells.edges[i]), int(cells.edges[j + 1]) - 1, kind)

    cands, ranks = [], []
    for mask in range(1 << (m - 1)):
        starts = [0] + [t + 1 for t in range(m - 1) if mask >> t & 1]
        if len(starts) > rcfg.alpha:
            continue
        rank = 0.0
        for st, nxt in zip(starts, starts[1:] + [m]):
            rank = (rank + table[(st, nxt - 1)]) + ln_gamma
        cands.append(starts)
        ranks.append(rank)
    ranks = np.array(ranks)
    # fewer bins, then the lower index, i.e. the smaller mask: among equal
    # bin counts, the lexicographically smaller reversed split sequence
    n_bins = np.array([len(c) for c in cands])
    key = None
    if cells.exact_ties():
        key = lambda k: cells.exact_key(cands[k], m - 1, kind, cfg.gamma)
    pick = _pick(ranks, n_bins, key)
    return _scored(hist, cells.blocks(cands[pick])[0], rcfg, kind)


def fit_partition_columns(counts: np.ndarray, cfg: BinningConfig) -> Partition:
    """Smooth the histogram of an int64 count column and fit the MAP
    partition directly (no gamma grid search)."""
    hist = smooth(count_histogram(counts), cfg.beta)
    return optimal_partition(hist, cfg, cfg.likelihood_kind)


def partition_to_json_dict(partition: Partition, beta: int) -> dict:
    if partition.alpha is None:
        raise ValidationError("partition has no resolved alpha; only fitted partitions can be exported")
    return {
        "gamma": partition.gamma_used,
        "alpha": partition.alpha,
        "beta": beta,
        "likelihood": partition.likelihood_kind.value,
        "map_score": partition.map_score,
        "bins": [{"lo": b.lo, "hi": b.hi} for b in partition.bins],
    }


def _json_int(doc: dict, key: str) -> int:
    if type(doc[key]) is not int:  # rejects 2.4, "2" and true (bool subclasses int)
        raise TypeError(f"{key!r} must be an integer, got {doc[key]!r}")
    return doc[key]


def _json_number(doc: dict, key: str) -> float:
    if type(doc[key]) not in (int, float):  # rejects "0.5" and true
        raise TypeError(f"{key!r} must be a number, got {doc[key]!r}")
    return float(doc[key])


def partition_from_json_dict(obj: dict) -> Partition:
    """Parse the partition export schema. ``alpha``, ``beta`` and the bin
    edges must be JSON integers, the edges within [0, MAX_COUNT], ``alpha``
    at least 1; ``gamma`` and ``map_score`` must be JSON numbers, ``gamma``
    in (0, 1) and ``map_score`` finite. ``beta`` is not carried by the
    Partition."""
    try:
        partition = Partition(
            tuple(Bin(_json_int(b, "lo"), _json_int(b, "hi")) for b in obj["bins"]),
            _json_number(obj, "map_score"),
            _json_number(obj, "gamma"),
            LikelihoodKind(obj["likelihood"]),
            _json_int(obj, "alpha"),
        )
        _json_int(obj, "beta")
        PriorConfig(partition.gamma_used, partition.alpha)
        if not math.isfinite(partition.map_score):
            raise ValueError(f"'map_score' must be finite, got {partition.map_score!r}")
        if partition.max_count > MAX_COUNT:
            raise ValueError(f"bin edge {partition.max_count} exceeds the limit {MAX_COUNT}")
        return partition
    except (KeyError, TypeError, ValueError, OverflowError, ValidationError) as exc:
        raise ValidationError(f"bad partition document: {exc}") from None
