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

Determinism is handled at two levels. The dynamic program and the direct
scoring path share one float convention (per-cell log-gamma terms summed
left to right, values always from ``math.log``/``math.lgamma``) so their
scores agree to within a few ulps. On top of that, candidates within a
tiny relative window of the float optimum are re-ranked in exact rational
arithmetic, because mathematically tied partitions (symmetric frequency
patterns, or gamma values whose log cancels a likelihood difference) are
generally not float ties.

One forward pass (_dp) serves both fits, with one row per gamma (uncapped,
every gamma at once) or per bin count (capped). Each cell's block scores are
computed once for all rows, and starts that can no longer win are pruned.
"""

from __future__ import annotations

import enum
import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .counts import MAX_COUNT, CountHistogram, build_histogram, smooth
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
        if self.alpha is not None and self.alpha < 1:
            raise ValidationError(f"alpha must be >= 1, got {self.alpha}")

    def resolved(self, n_cells: int) -> "PriorConfig":
        if self.alpha is not None:
            return self
        return PriorConfig(self.gamma, n_cells)


@dataclass(frozen=True)
class BinningConfig:
    """Everything needed to fit bins directly: prior, cap, smoothing, likelihood."""

    gamma: float = 0.5
    alpha: int | None = None
    beta: int = 1
    likelihood_kind: LikelihoodKind = LikelihoodKind.MULTINOMIAL

    def __post_init__(self):
        PriorConfig(self.gamma, self.alpha)
        if self.beta < 0:
            raise ValidationError("beta must be >= 0")

    @property
    def prior(self) -> PriorConfig:
        return PriorConfig(self.gamma, self.alpha)


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
    """Return (bin index containing count, clamped_above flag).

    Counts above the partition range map to the last bin with the flag set.
    """
    if count < bins[0].lo:
        raise RangeError(f"count {count} below partition range start {bins[0].lo}")
    if count > bins[-1].hi:
        return len(bins) - 1, True
    lo_idx, hi_idx = 0, len(bins) - 1
    while lo_idx < hi_idx:
        mid = (lo_idx + hi_idx) // 2
        if count > bins[mid].hi:
            lo_idx = mid + 1
        else:
            hi_idx = mid
    return lo_idx, False


def locate_bins(bins: tuple[Bin, ...], counts) -> tuple[np.ndarray, np.ndarray]:
    """locate_bin over a sequence of integer counts: (bin indices, clamped
    mask), from one searchsorted over the bins' upper edges."""
    counts = np.asarray(counts, dtype=np.int64)
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


def _multinomial_block(mass: int, lgamma_sum: float, width: int) -> float:
    # Canonical op order; the vectorized DP mirrors it exactly.
    return (math.lgamma(mass + 1) - lgamma_sum) - mass * math.log(width)


def _poisson_block(mass: int, lgamma_sum: float, width: int) -> float:
    if mass == 0:
        return 0.0
    return (mass * (math.log(mass) - math.log(width)) - mass) - lgamma_sum


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
    if kind is LikelihoodKind.MULTINOMIAL:
        if mass == 0:
            return 0.0
        return _multinomial_block(mass, lgamma_sum, hi - lo + 1)
    return _poisson_block(mass, lgamma_sum, hi - lo + 1)


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


class _CellData:
    """Per-histogram arrays shared by the DP paths and the oracle. Cell j
    covers the counts edges[j] .. edges[j+1] - 1; the log tables are
    prefixes of ``tables`` (from log_tables) when given."""

    def __init__(self, hist: CountHistogram, tables: tuple[np.ndarray, np.ndarray] | None = None):
        total = hist.total
        ln_tab, ln_fact = tables or log_tables(total, hist.max_count)
        top = max(total, hist.max_count + 1)
        if len(ln_tab) <= top or len(ln_fact) <= total:
            raise ValidationError(f"log tables too short for histogram mass {total} over [0, {hist.max_count}]")
        freqs = np.array(hist.freqs, dtype=np.int64)
        support = np.flatnonzero(freqs)
        if not len(support):
            raise ValidationError("histogram must have positive total mass")
        self.edges = np.concatenate(([0], support[1:], [len(freqs)]))
        self.masses = freqs[support]
        self.mass_cum = np.concatenate(([0], np.cumsum(self.masses)))
        self.ln_tab, self.ln_fact = ln_tab[: top + 1], ln_fact[: total + 1]
        self.cell_lg = self.ln_fact[self.masses]

    @property
    def n_cells(self) -> int:
        return len(self.masses)

    @property
    def exact_ties_enabled(self) -> bool:
        return self.n_cells <= _EXACT_TIE_CELL_LIMIT and int(self.mass_cum[-1]) <= _EXACT_TIE_MASS_LIMIT

    def blocks(self, starts: list[int]) -> tuple[np.ndarray, np.ndarray]:
        """Upper edges and masses of the blocks given by the cell indices
        starting each block (starts[0] == 0)."""
        bounds = np.append(starts, self.n_cells)
        return self.edges[bounds[1:]] - 1, np.diff(self.mass_cum[bounds])

    def block_scores(self, r: int, starts, lgamma_acc: np.ndarray, kind: LikelihoodKind) -> np.ndarray:
        """Scores of the blocks from each of the given start cells to cell r;
        lgamma_acc holds the left-to-right sums of cell_lg over each block."""
        bmass = self.mass_cum[r + 1] - self.mass_cum[starts]
        widths = self.edges[r + 1] - self.edges[starts]
        if kind is LikelihoodKind.MULTINOMIAL:
            return (self.ln_fact[bmass] - lgamma_acc) - bmass * self.ln_tab[widths]
        return (bmass * (self.ln_tab[bmass] - self.ln_tab[widths]) - bmass) - lgamma_acc

    def exact_key(self, starts: list[int], r: int, kind: LikelihoodKind, gamma: float) -> Fraction:
        """Exact rational ranking key of the partition of cells 0..r given by
        the block start indices, with the prior factor gamma per bin.

        Partition-constant factors (the per-cell factorials and, for Poisson,
        exp(-total)) are dropped, so keys are only comparable for the same
        histogram prefix.
        """
        key = Fraction(1)
        for start, nxt in zip(starts, starts[1:] + [r + 1]):
            mass = int(self.mass_cum[nxt] - self.mass_cum[start])
            width = int(self.edges[nxt] - self.edges[start])
            if kind is LikelihoodKind.MULTINOMIAL:
                key *= Fraction(math.factorial(mass), width**mass)
            else:
                key *= Fraction(mass**mass, width**mass)
        return key * Fraction(gamma) ** len(starts)


def _bins(his: np.ndarray) -> tuple[Bin, ...]:
    """Contiguous bins from count 0 with the given upper edges."""
    his = his.tolist()
    return tuple(map(Bin, [0, *(hi + 1 for hi in his[:-1])], his))


def _pick(scores: np.ndarray, top: float, tiebreak, exact_key=None) -> int:
    """Index of the winning candidate; ``top`` is ``scores.max()``.

    The one rule for every tie in this module: candidates within the
    relative window _TIE_REL_WINDOW of ``top`` are ranked by ``exact_key``
    when given (exact re-ranking), else by whether they hit ``top``
    exactly, and the remaining ties go to the largest ``tiebreak`` (which
    maps an array of candidate indices to their keys), then to the lowest
    index.
    """
    near = np.flatnonzero(scores >= top - _TIE_REL_WINDOW * max(1.0, abs(top)))
    if len(near) > 1:
        if exact_key is None:
            near = near[scores[near] == top]
        else:
            keys = np.array([exact_key(k) for k in near.tolist()])
            near = near[keys == max(keys)]
    return int(near[0] if len(near) == 1 else near[tiebreak(near).argmax()])


def _starts_from(last: np.ndarray, shift: int, k: int, r: int) -> list[int]:
    """Block starts of the partition that row k of the pass stores for cells
    0..r (empty for r < 0); the prefix before each block is shift rows up."""
    starts = []
    while r >= 0:
        starts.append(int(last[k, r]))
        r, k = starts[-1] - 1, k - shift
    return starts[::-1]


def _dp(
    cells: _CellData, gammas: tuple[float, ...], add: np.ndarray, shift: int, kind: LikelihoodKind
) -> tuple[np.ndarray, np.ndarray]:
    """Forward DP over cells, one row per entry of ``add``; returns (best, last).

    Column r + 1 of a row is the best score over cells 0..r, column 0 the
    empty prefix. Row k + shift extends row k's optimum over cells 0..s-1 by
    the block s..r plus add[k]; last[k + shift, r] is the winning s. The
    first ``shift`` rows hold the empty partition (0, then -inf); with shift
    0 each row extends itself. Shift 0 with add ln(gamma) is the uncapped DP
    per gamma, shift 1 with add 0 puts the best b-bin partitions in row b.
    gammas[k] is row k's prior factor in exact keys.

    Ties resolve to fewer bins, then the earlier split, at every prefix,
    which matches comparing full partitions by (score, n_bins, reversed
    split sequence); near ties are re-ranked exactly (see _TIE_REL_WINDOW)
    on small instances. Block scores are computed once per cell for all
    rows. Merging blocks never raises the likelihood, so a start whose
    candidate at cell r is below best[k](r + 1) + add[k] loses to the start
    r + 1 at every later cell (PELT with K = 0); it leaves the live set once
    it is below by more than ``slack`` in every row, which keeps it out of
    every later tie window. Capped rows never prune: row 0 is -inf past
    column 0, so row 1 keeps every start.
    """
    m, n_rows = cells.n_cells, len(add)
    # bound >= |score| of any partition of any prefix, and of every term
    # summed into one: block log(mass!), cell log(f!) sums, mass*log(mass),
    # mass*log(width), the Poisson mass term, and the prior
    total = int(cells.mass_cum[-1])
    bound = (
        2.0 * math.lgamma(total + 1)
        + total * (math.log(total) + math.log(cells.edges[-1]) + 1.0)
        + m * max(abs(math.log(x)) for x in gammas)
        + 1.0
    )
    # a float score sums at most m + 16 terms, each off by a few ulps of bound
    slack = (_TIE_REL_WINDOW + 8.0 * (m + 16) * np.finfo(float).eps) * bound
    add = add[:, None]
    cut = add - slack
    # every member of _pick's near set lies at or above this below the top
    near = -2.0 * _TIE_REL_WINDOW * bound
    best = np.full((shift + n_rows, m + 1), -np.inf)
    best[: shift or n_rows, 0] = 0.0
    nbins = np.zeros((shift + n_rows, m + 1), dtype=np.int64)
    last = np.zeros((shift + n_rows, m), dtype=np.int64)
    best_src = best[:n_rows]
    rows = np.arange(n_rows)
    live = np.arange(m)  # the first n entries are the live starts, ascending
    acc = np.zeros(m)  # left-to-right sum of cell_lg from each live start to r
    n = 0
    for r in range(m):
        live[n], acc[n] = r, 0.0
        n += 1
        starts, lg_sum = live[:n], acc[:n]
        # a slice while nothing is pruned: views, not gathers
        cols = slice(0, n) if n == r + 1 else starts
        lg_sum += cells.cell_lg[r]
        scores = cells.block_scores(r, cols, lg_sum, kind)
        cand = best_src[:, cols] + scores
        cand += add
        picks = cand.argmax(axis=1)
        top = cand[rows, picks]
        # every row has its top in the near set; a row with no partition yet
        # (fewer cells than bins) is all -inf and resolves harmlessly
        close = cand >= (top + near)[:, None]
        if np.count_nonzero(close) > n_rows:
            for k in np.flatnonzero(close.sum(axis=1) > 1):
                # starts ascend, so _pick's lowest-index rule takes the earlier split
                fewer_bins = lambda j, nb=nbins[k], s=starts: -nb[s[j]]
                key = None
                if cells.exact_ties_enabled:
                    key = lambda j, k=k, s=starts, r=r: cells.exact_key(
                        _starts_from(last, shift, k, int(s[j]) - 1) + [int(s[j])], r, kind, gammas[k]
                    )
                picks[k] = _pick(cand[k], top[k], fewer_bins, key)
        # store the float group maximum so chain error stays at ulp scale
        best[shift:, r + 1] = top
        last[shift:, r] = won = starts[picks]
        nbins[shift:, r + 1] = nbins[rows, won] + 1
        keep = (cand >= best_src[:, r + 1, None] + cut).any(axis=0)
        n_keep = np.count_nonzero(keep)
        if n_keep < n:
            live[:n_keep], acc[:n_keep] = starts[keep], lg_sum[keep]
            n = n_keep
    return best, last


def _uncapped_starts(cells: _CellData, gammas: tuple[float, ...], kind: LikelihoodKind) -> list[list[int]]:
    """Block starts of the uncapped MAP partition for each gamma, from one pass."""
    _, last = _dp(cells, gammas, np.array([math.log(x) for x in gammas]), 0, kind)
    return [_starts_from(last, 0, k, cells.n_cells - 1) for k in range(len(gammas))]


def _capped_starts(cells: _CellData, gamma: float, alpha: int, kind: LikelihoodKind) -> list[int]:
    """Block starts of the MAP partition with at most alpha bins: row b of
    the pass holds the best b-bin partitions, and the prior picks a row,
    fewer bins on ties."""
    m = cells.n_cells
    best, last = _dp(cells, (gamma,) * alpha, np.zeros(alpha), 1, kind)
    finals = best[1:, m] + np.arange(1, alpha + 1) * math.log(gamma)
    key = None
    if cells.exact_ties_enabled:
        key = lambda b: cells.exact_key(_starts_from(last, 1, b + 1, m - 1), m - 1, kind, gamma)
    b = _pick(finals, float(finals.max()), np.negative, key) + 1
    return _starts_from(last, 1, b, m - 1)


def _scored(
    hist: CountHistogram, cells: _CellData, starts: list[int], cfg: PriorConfig, kind: LikelihoodKind
) -> Partition:
    """The partition given by the block starts, with map_score recomputed
    by partition_log_score so it matches direct rescoring bit for bit."""
    partition = Partition(_bins(cells.blocks(starts)[0]), 0.0, cfg.gamma, kind, cfg.alpha)
    return replace(partition, map_score=partition_log_score(hist, partition, cfg, kind))


def optimal_partition(hist: CountHistogram, cfg: PriorConfig, kind: LikelihoodKind, tables=None) -> Partition:
    """MAP partition over all contiguous cell-boundary partitions.

    Deterministic: score ties prefer fewer bins, then the earlier last
    split. The returned map_score is recomputed with partition_log_score so
    it matches direct rescoring bit for bit. ``tables`` (from log_tables,
    large enough for hist) saves rebuilding them; results do not change.
    """
    cells = _CellData(hist, tables)
    rcfg = cfg.resolved(cells.n_cells)
    if rcfg.alpha >= cells.n_cells:
        starts = _uncapped_starts(cells, (cfg.gamma,), kind)[0]
    else:
        starts = _capped_starts(cells, cfg.gamma, rcfg.alpha, kind)
    return _scored(hist, cells, starts, rcfg, kind)


def optimal_blocks_per_gamma(
    hist: CountHistogram, gammas: tuple[float, ...], kind: LikelihoodKind, tables=None
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(upper edges, masses) of the uncapped MAP partition's bins for each
    gamma in order, as int64 arrays from one DP pass over the cells; the
    edges are those of optimal_partition(hist, PriorConfig(gamma),
    kind).bins. The DP runs before this returns. ``tables`` as in
    optimal_partition."""
    for gamma in gammas:
        PriorConfig(gamma)
    cells = _CellData(hist, tables)
    return (cells.blocks(starts) for starts in _uncapped_starts(cells, tuple(gammas), kind))


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
    cells = _CellData(hist)
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
    if cells.exact_ties_enabled:
        key = lambda k: cells.exact_key(cands[k], m - 1, kind, cfg.gamma)
    pick = _pick(ranks, float(ranks.max()), lambda k: -n_bins[k], key)
    return _scored(hist, cells, cands[pick], rcfg, kind)


def fit_partition(records, cfg: BinningConfig) -> Partition:
    """Smooth the records' histogram and fit the MAP partition directly
    (no gamma grid search)."""
    hist = smooth(build_histogram(records), cfg.beta)
    return optimal_partition(hist, cfg.prior, cfg.likelihood_kind)


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
