"""Cross-validated grid search for the bin-count prior parameter gamma.

For every held-out ratio the data is split with a run of seeds; on each
split, bins are fit on the train side for every gamma at once (one DP pass
over one histogram), and the held-out side is scored under the
piecewise-constant density each gamma's bins define. Per ratio, gammas are
ranked by descending mean held-out log-likelihood; the gamma with the
lowest rank-index sum across ratios wins.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .counts import CountRecord, build_histogram, smooth
from .errors import ValidationError
from .stratify import BinningConfig, LikelihoodKind, Partition, fit_partition, optimal_blocks_per_gamma

DEFAULT_GAMMAS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
DEFAULT_RATIOS = (0.1, 0.2, 0.25)
DEFAULT_N_SEEDS = 10


@dataclass(frozen=True)
class GridSpec:
    """Grid-search configuration; defaults follow the tuned recipe."""

    gammas: tuple[float, ...] = DEFAULT_GAMMAS
    ratios: tuple[float, ...] = DEFAULT_RATIOS
    n_seeds: int = DEFAULT_N_SEEDS
    beta: int = 1
    likelihood_kind: LikelihoodKind = LikelihoodKind.MULTINOMIAL

    def __post_init__(self):
        if not self.gammas or not all(0.0 < g < 1.0 for g in self.gammas):
            raise ValidationError("gammas must be a non-empty list of values in (0, 1)")
        if not self.ratios or not all(0.0 < r < 1.0 for r in self.ratios):
            raise ValidationError("ratios must be a non-empty list of values in (0, 1)")
        if self.n_seeds < 1:
            raise ValidationError("n_seeds must be >= 1")
        if self.beta < 0:
            raise ValidationError("beta must be >= 0")


@dataclass(frozen=True)
class GammaSelection:
    """Grid-search outcome: the winning gamma plus the full evidence table."""

    gamma_best: float
    table: tuple[tuple[float, float, float], ...]  # (gamma, ratio, mean held-out loglik)
    index_sums: tuple[tuple[float, int], ...] = ()


def split_records(records: list[CountRecord], ratio: float, seed: int) -> tuple[list[CountRecord], list[CountRecord]]:
    """Seeded shuffle (PCG64), then the last ceil(ratio*n) records held out."""
    if not records:
        raise ValidationError("records must be non-empty")
    if not 0.0 < ratio < 1.0:
        raise ValidationError(f"ratio must lie in (0, 1), got {ratio}")
    n = len(records)
    n_test = math.ceil(ratio * n)
    if n_test >= n:
        raise ValidationError(f"ratio {ratio} leaves an empty train side for n={n}")
    perm = np.random.Generator(np.random.PCG64(seed)).permutation(n)
    shuffled = [records[i] for i in perm]
    return shuffled[: n - n_test], shuffled[n - n_test :]


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
    hist = smooth(build_histogram(train), spec.beta)
    log_n = math.log(hist.total)
    counts = np.array([rec.count for rec in test], dtype=np.int64)
    values = []
    for his, masses in optimal_blocks_per_gamma(hist, spec.gammas, spec.likelihood_kind):
        widths = np.diff(his, prepend=-1)
        cell_logp = np.array(
            [math.log(m) - log_n - math.log(w) for m, w in zip(masses.tolist(), widths.tolist())]
        )
        idx = np.searchsorted(his, counts)
        # cumsum adds sequentially, unlike the pairwise np.sum
        values.append(float(np.cumsum(cell_logp[np.minimum(idx, len(his) - 1)])[-1]))
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


def select_gamma(records: list[CountRecord], spec: GridSpec) -> GammaSelection:
    """Full grid evaluation; deterministic for fixed records and spec.

    Each (ratio, seed) split is drawn and scored once for every gamma; the
    means are then reduced in canonical (gamma, ratio, seed) order, so
    results do not depend on the evaluation schedule.
    """
    if not records:
        raise ValidationError("records must be non-empty")
    loglik = {}
    for ri, ratio in enumerate(spec.ratios):
        for seed in range(spec.n_seeds):
            train, test = split_records(records, ratio, seed)
            loglik[ri, seed] = held_out_log_likelihood(train, test, spec)
    means: dict[tuple[int, int], float] = {}
    table = []
    for gi, gamma in enumerate(spec.gammas):
        for ri, ratio in enumerate(spec.ratios):
            acc = 0.0
            for seed in range(spec.n_seeds):
                acc += loglik[ri, seed][gi]
            mean = acc / spec.n_seeds
            means[(gi, ri)] = mean
            table.append((gamma, ratio, mean))
    sums = [0] * len(spec.gammas)
    for ri in range(len(spec.ratios)):
        pos = descending_rank_indices([means[(gi, ri)] for gi in range(len(spec.gammas))], spec.gammas)
        for gi, p in enumerate(pos):
            sums[gi] += p
    best_gi = min(range(len(spec.gammas)), key=lambda gi: (sums[gi], spec.gammas[gi]))
    return GammaSelection(
        gamma_best=spec.gammas[best_gi],
        table=tuple(table),
        index_sums=tuple(zip(spec.gammas, sums)),
    )


def optimal_bins(records: list[CountRecord], spec: GridSpec) -> Partition:
    """Grid-search gamma, then fit uncapped bins on all the records."""
    gamma = select_gamma(records, spec).gamma_best
    return fit_partition(records, BinningConfig(gamma, None, spec.beta, spec.likelihood_kind))


def tuning_report_json_dict(selection: GammaSelection) -> dict:
    from .jsonfmt import format_float

    return {
        "gamma_best": selection.gamma_best,
        "table": [
            {"gamma": g, "ratio": r, "mean_loglik": v} for g, r, v in selection.table
        ],
        "index_sums": {format_float(g): s for g, s in selection.index_sums},
    }
