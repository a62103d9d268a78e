"""Cross-validated grid search for the bin-count prior parameter gamma.

For every held-out ratio the data is split with a run of seeds; bins are
fit on every split's train side for every gamma, and each held-out side is
scored under the piecewise-constant density each gamma's bins define. Per
ratio, gammas are ranked by descending mean held-out log-likelihood; the
gamma with the lowest rank-index sum across ratios wins.

The search works on columns: it takes the counts as one int64 array
(select_gamma_columns and optimal_bins_columns; the record forms
select_gamma and optimal_bins read the records into one), each (ratio,
seed) split is a pair of index arrays into it (the seeded permutation
split_records uses), and only the train side's histogram (one bincount
plus beta) and the test count column are kept. Every split is drawn
first, seed by seed; then the train histograms of all ratios that share
their cell edges (with beta >= 1, those with the same maximum) are stacked
and fit in one DP pass, with one row per (histogram, gamma), and each split
is scored from its blocks in test order as they arrive, into one (seed,
ratio, gamma) array of held-out log-likelihoods. The mean table, the
per-ratio ranks and the index sums all come from that array; each mean
sums its seeds left to right. The log tables of every fit are slices of
one pair built per search and sized by the whole input. optimal_bins
fits the smoothed histogram of all the counts as one more row of the
same pass (with beta >= 1 it shares the edges of every train side that
kept the maximum) and keeps its bins at the selected gamma, so a tuned
fit makes one pass where the search does.
split_records and held_out_log_likelihood are the record-list forms of
the same split and scorer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .counts import MAX_COUNT, CountRecord, check_integer, count_histogram, counts_in_range, record_counts, smooth
from .errors import ValidationError
from .jsonfmt import format_float
from .stratify import LikelihoodKind, Partition, PriorConfig, _scored, log_tables, optimal_blocks_per_gamma

DEFAULT_GAMMAS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
DEFAULT_RATIOS = (0.1, 0.2, 0.25)
DEFAULT_N_SEEDS = 10
MAX_N_SEEDS = 1_000  # 100 times the default; synth's --seeds shares it
# the default grid's (train histogram cell, gamma) pairs at MAX_COUNT, fewer
# gammas counted as nine: every default search that the CSV reader admits fits
MAX_SEARCH_CELLS = len(DEFAULT_RATIOS) * DEFAULT_N_SEEDS * (MAX_COUNT + 1) * len(DEFAULT_GAMMAS)


@dataclass(frozen=True)
class GridSpec:
    """Grid-search configuration; defaults follow the tuned recipe."""

    gammas: tuple[float, ...] = DEFAULT_GAMMAS
    ratios: tuple[float, ...] = DEFAULT_RATIOS
    n_seeds: int = DEFAULT_N_SEEDS
    beta: int = 1
    likelihood_kind: LikelihoodKind = LikelihoodKind.MULTINOMIAL

    def __post_init__(self):
        for name, values in (("gammas", self.gammas), ("ratios", self.ratios)):
            if not values or not all(0.0 < v < 1.0 for v in values):
                raise ValidationError(f"{name} must be a non-empty list of values in (0, 1)")
            # a repeat would be scored twice and share one key in the report
            if len(set(values)) < len(values):
                raise ValidationError(f"{name} must not repeat a value, got {', '.join(map(str, values))}")
        check_integer("n_seeds", self.n_seeds, 1, MAX_N_SEEDS)
        check_integer("beta", self.beta, 0)


@dataclass(frozen=True)
class GammaSelection:
    """Grid-search outcome: the winning gamma plus the full evidence table."""

    gamma_best: float
    table: tuple[tuple[float, float, float], ...]  # (gamma, ratio, mean held-out loglik)
    index_sums: tuple[tuple[float, int], ...] = ()


def _shuffle(n: int, seed: int) -> np.ndarray:
    """range(n) in a seeded shuffle (PCG64)."""
    return np.random.Generator(np.random.PCG64(seed)).permutation(n)


def _split_shuffle(perm: np.ndarray, ratio: float) -> tuple[np.ndarray, np.ndarray]:
    """Train and test parts of a shuffle: the last ceil(ratio*n) positions held out."""
    n = len(perm)
    if not 0.0 < ratio < 1.0:
        raise ValidationError(f"ratio must lie in (0, 1), got {ratio}")
    n_test = math.ceil(ratio * n)
    if n_test >= n:
        raise ValidationError(f"ratio {ratio} leaves an empty train side for n={n}")
    return perm[: n - n_test], perm[n - n_test :]


def _index_split(n: int, ratio: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Train and test index arrays into n records: a seeded shuffle (PCG64)
    of range(n), then the last ceil(ratio*n) positions held out."""
    return _split_shuffle(_shuffle(n, seed), ratio)


def split_records(records: list[CountRecord], ratio: float, seed: int) -> tuple[list[CountRecord], list[CountRecord]]:
    """Seeded shuffle (PCG64), then the last ceil(ratio*n) records held out."""
    if not records:
        raise ValidationError("records must be non-empty")
    train, test = _index_split(len(records), ratio, seed)
    return [records[i] for i in train.tolist()], [records[i] for i in test.tolist()]


def held_out_log_likelihood(
    train: list[CountRecord], test: list[CountRecord], spec: GridSpec
) -> tuple[float, ...]:
    """Log-likelihood of the test counts under bins fit on the train counts,
    one value per gamma of ``spec.gammas``.

    Each bin carries its train mass share, spread uniformly over the bin's
    cells; test counts above the train range score as the last bin's
    per-cell probability. The multinomial coefficient is omitted (constant
    for a fixed test multiset, so rankings are unaffected). Per-record
    values are summed left to right in test order.
    """
    if not train or not test:
        raise ValidationError("train and test must both be non-empty")
    freqs = np.bincount(record_counts(train)) + spec.beta
    tables = log_tables(int(freqs.sum()), len(freqs) - 1)
    ((_, blocks),) = optimal_blocks_per_gamma([freqs], spec.gammas, spec.likelihood_kind, tables)
    return _held_out(record_counts(test), blocks, tables[0])


def _held_out(test: np.ndarray, blocks, ln_tab: np.ndarray) -> tuple[float, ...]:
    """held_out_log_likelihood of an int64 test count column under each
    gamma's (upper edges, masses) in ``blocks``, fit on one smoothed train
    frequency row over [0, C]; every gamma's bins cover the row, so its
    mass is the masses' sum and C the last upper edge. ``ln_tab`` is a log
    table from log_tables, large enough for that row."""
    his, masses = blocks[0]
    log_n = ln_tab[masses.sum()]  # ln_tab[k] is math.log(k), bit for bit
    clamped = np.minimum(test, his[-1])
    values = []
    for his, masses in blocks:
        widths = np.diff(his, prepend=-1)
        cell_logp = (ln_tab[masses] - log_n) - ln_tab[widths]
        # value -> its bin's per-cell log-probability, over [0, C]
        per_value = np.repeat(cell_logp, widths)
        # cumsum adds sequentially, unlike the pairwise np.sum
        values.append(float(np.cumsum(per_value[clamped])[-1]))
    return tuple(values)


def descending_rank_indices(means: list[float], gammas: tuple[float, ...]) -> list[int]:
    """0-based rank of each gamma under descending mean likelihood.

    Ties rank the smaller gamma first.
    """
    order = sorted(range(len(means)), key=lambda k: (-means[k], gammas[k]))
    pos = [0] * len(means)
    for rank, k in enumerate(order):
        pos[k] = rank
    return pos


def _search(counts: np.ndarray, spec: GridSpec, fit_all: bool = False):
    """The grid search of select_gamma_columns over an int64 count column;
    returns (selection, blocks). With fit_all, the smoothed histogram of
    all the counts is fit as one more row of the search's pass, and blocks
    holds its (upper edges, masses) per gamma; else blocks is None.
    """
    if not len(counts):
        raise ValidationError("records must be non-empty")
    if not counts_in_range(counts):
        raise ValidationError(f"counts must lie in [0, {MAX_COUNT}], got {counts.min()} to {counts.max()}")
    c_max = int(counts.max())
    n_ratios, n_gammas = len(spec.ratios), len(spec.gammas)
    if n_ratios * spec.n_seeds * (c_max + 1) * max(n_gammas, len(DEFAULT_GAMMAS)) > MAX_SEARCH_CELLS:
        raise ValidationError(f"ratios x n_seeds x (max count + 1) x max(gammas, {len(DEFAULT_GAMMAS)}) must be <= {MAX_SEARCH_CELLS}, got {n_ratios} x {spec.n_seeds} x {c_max + 1} x {n_gammas}")
    tables = log_tables(len(counts) + spec.beta * (c_max + 1), c_max)
    # split i is (seed i // n_ratios, ratio i % n_ratios); one shuffle per seed serves every ratio
    trains, tests = [], []
    for seed in range(spec.n_seeds):
        perm = _shuffle(len(counts), seed)
        for ratio in spec.ratios:
            train, test = _split_shuffle(perm, ratio)
            trains.append(np.bincount(counts[train]) + spec.beta)
            tests.append(counts[test])
    if fit_all:
        trains.append(np.bincount(counts) + spec.beta)
    scores = np.empty((spec.n_seeds, n_ratios, n_gammas))  # held-out log-likelihoods
    full = None
    for i, blocks in optimal_blocks_per_gamma(trains, spec.gammas, spec.likelihood_kind, tables):
        if i == len(tests):
            full = blocks
        else:
            scores[divmod(i, n_ratios)] = _held_out(tests[i], blocks, tables[0])
    # cumsum adds the seeds left to right, as a scalar loop would
    means = (np.cumsum(scores, axis=0)[-1] / spec.n_seeds).tolist()  # [ratio][gamma]
    sums = np.sum([descending_rank_indices(row, spec.gammas) for row in means], axis=0).tolist()
    best_gi = min(range(n_gammas), key=lambda gi: (sums[gi], spec.gammas[gi]))
    selection = GammaSelection(
        gamma_best=spec.gammas[best_gi],
        table=tuple((g, r, means[ri][gi]) for gi, g in enumerate(spec.gammas) for ri, r in enumerate(spec.ratios)),
        index_sums=tuple(zip(spec.gammas, sums)),
    )
    return selection, full


def select_gamma(records: list[CountRecord], spec: GridSpec) -> GammaSelection:
    """select_gamma_columns of the records' counts."""
    return select_gamma_columns(record_counts(records), spec)


def select_gamma_columns(counts: np.ndarray, spec: GridSpec) -> GammaSelection:
    """Full grid evaluation over an int64 count column; deterministic for
    fixed counts and spec.

    Each (seed, ratio) split is drawn and scored once for every gamma into
    one (seed, ratio, gamma) score array; each (gamma, ratio) mean then sums
    its seeds left to right, so results do not depend on the evaluation
    schedule.
    """
    return _search(counts, spec)[0]


def optimal_bins(records: list[CountRecord], spec: GridSpec) -> Partition:
    """optimal_bins_columns of the records' counts."""
    return optimal_bins_columns(record_counts(records), spec)


def optimal_bins_columns(counts: np.ndarray, spec: GridSpec) -> Partition:
    """Grid-search gamma and fit uncapped bins on all the counts in the
    search's pass; equal to fit_partition_columns at the selected gamma."""
    selection, blocks = _search(counts, spec, fit_all=True)
    hist = smooth(count_histogram(counts), spec.beta)
    his = blocks[spec.gammas.index(selection.gamma_best)][0]
    cfg = PriorConfig(selection.gamma_best, int(np.count_nonzero(hist.freqs)))  # alpha resolved as in optimal_partition
    return _scored(hist, his, cfg, spec.likelihood_kind)


def tuning_report_json_dict(selection: GammaSelection) -> dict:
    return {
        "gamma_best": selection.gamma_best,
        "table": [
            {"gamma": g, "ratio": r, "mean_loglik": v} for g, r, v in selection.table
        ],
        "index_sums": {format_float(g): s for g, s in selection.index_sums},
    }
