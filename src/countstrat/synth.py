"""Synthetic heavy-tailed count benchmark with a toy trainable predictor.

Counts come from a discretized, capped log-normal; each sample carries one
scalar feature z = y*(1+eps) so a two-parameter linear probe is learnable.
The comparison harness trains that probe three ways on identical data:
plain shuffled minibatches with an absolute-error loss, and round-robin or
random-bin balanced plans with the combined (model + bin) loss, then
evaluates all three on one held-out split. The probe is deliberately tiny
so runs take seconds and differences are attributable to the sampling and
loss choices rather than model capacity. It all runs on columns: int64
counts, float64 features, and index arrays (splits, plans) into them, and
every (seed, scheme) probe of a run trains in one lockstep pass (_train).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import NamedTuple, Sequence

import numpy as np

from .counts import MAX_COUNT, check_integer
from .errors import ValidationError
from .evaluate import MAX_PREDICTION, EvalReport, evaluate_columns, report_json_dict
from .loss import LossConfig, interval_loss_subgradients, interval_losses, routed_edges
from .sampling import SamplingScheme, assign_columns, plan_epoch
from .stratify import BinningConfig, Partition, fit_partition_columns
from .tuning import MAX_N_SEEDS, _index_split

SCHEMES = ("none", "rr", "rs")

# Binning used by the benchmark unless overridden: six wide strata. The cap
# sets the number: on the train sides of seeds 0-2 at the default spec, the
# uncapped multinomial fit at gamma 0.1 gives 74, 68 and 68 bins, and the
# default grid search picks gamma 0.1 on all three; alpha=6 makes it 6.
DEFAULT_SYNTH_BINNING = BinningConfig(gamma=0.1, alpha=6)

# offset keeping per-epoch plan seeds disjoint across runs, so it bounds epochs
_EPOCH_SEED_STRIDE = 100003
# run_comparison trains as many seeds at once as keep jobs * n_samples at or
# below this, and at least one. _train takes about 120 bytes per (job,
# sample) entry, so this caps it near 60 MB; the defaults train in one chunk
# of 18,000 entries (30 jobs of 600 training samples).
_MAX_TRAIN_ENTRIES = 500_000
# one dataset's size: one seed at this size took 48 s and 480 MB on a 2-vCPU VM
MAX_N_SAMPLES = 1_000_000


@dataclass(frozen=True)
class SynthSpec:
    """Generator settings for one synthetic dataset."""

    n_samples: int = 800
    log_mean: float = 3.0
    log_sigma: float = 1.4
    max_count: int = 2000
    noise_spread: float = 0.15
    noise_bias: float = 0.0
    seed: int = 0

    def __post_init__(self):
        check_integer("n_samples", self.n_samples, 1, MAX_N_SAMPLES)
        check_integer("max_count", self.max_count, 1, MAX_COUNT)
        check_integer("seed", self.seed, 0)
        for name in ("log_mean", "log_sigma", "noise_spread", "noise_bias"):
            if not math.isfinite(getattr(self, name)):
                raise ValidationError(f"{name} must be finite, got {getattr(self, name)}")
        for name in ("noise_spread", "log_sigma"):
            if getattr(self, name) < 0:
                raise ValidationError(f"{name} must be >= 0")


@dataclass(frozen=True)
class TrainerConfig:
    epochs: int = 20
    learning_rate: float = 0.5
    batch_size: int = 32
    loss: LossConfig = LossConfig()
    holdout_ratio: float = 0.25

    def __post_init__(self):
        check_integer("epochs", self.epochs, 1, _EPOCH_SEED_STRIDE)
        check_integer("batch_size", self.batch_size, 1)
        if not 0 < self.learning_rate < math.inf:
            raise ValidationError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if not 0.0 < self.holdout_ratio < 1.0:
            raise ValidationError("holdout_ratio must lie in (0, 1)")


@dataclass(frozen=True)
class ToyFit:
    """Fitted probe y_hat = weight * (z / scale) + offset, with its training curve."""

    weight: float
    offset: float
    scale: float
    epoch_losses: tuple[float, ...]

    def predict(self, z):  # a feature, or elementwise over a feature array
        return self.weight * (z / self.scale) + self.offset


@dataclass(frozen=True)
class ComparisonReport:
    """Held-out evaluation of the three schemes plus per-seed win counts."""

    reports: tuple[tuple[str, EvalReport], ...]  # first seed, one entry per scheme
    seeds: tuple[int, ...]
    pooled_std_by_seed: tuple[tuple[str, tuple[float, ...]], ...]
    win_counts: tuple[tuple[str, int], ...]  # seeds where rr/rs beat the baseline


def generate_dataset(spec: SynthSpec) -> tuple[np.ndarray, np.ndarray]:
    """Seeded dataset: capped, rounded log-normal counts (int64) and their
    noisy features (float64), one entry per sample. Noise settings that make
    a feature, or the features' mean magnitude (the probe's scale),
    overflow are rejected."""
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    raw = rng.lognormal(mean=spec.log_mean, sigma=spec.log_sigma, size=spec.n_samples)
    # capped before the int cast, so an overflowing draw (inf) lands on the cap
    counts = np.rint(np.minimum(raw, spec.max_count)).astype(np.int64)
    with np.errstate(over="ignore", invalid="ignore"):
        eps = spec.noise_bias + spec.noise_spread * rng.standard_normal(spec.n_samples)
        z = counts * (1.0 + eps)
        if not (np.isfinite(z).all() and math.isfinite(np.abs(z).mean())):
            raise ValidationError(f"noise_spread {spec.noise_spread} and noise_bias {spec.noise_bias} make the features or their mean magnitude overflow")
    return counts, z


def _epoch_batches_shuffled(n: int, batch_size: int, seed: int) -> list[list[int]]:
    order = np.random.Generator(np.random.PCG64(seed)).permutation(n).tolist()
    return [order[i : i + batch_size] for i in range(0, n, batch_size)]


class _Job(NamedTuple):
    """One probe to train: training counts, their features, the bins, the
    scheme, and the seed of its epoch plans."""

    counts: np.ndarray
    z: np.ndarray
    partition: Partition
    scheme: str
    seed: int


def _train(jobs: list[_Job], cfg: TrainerConfig) -> tuple[list[ToyFit], list[int | None]]:
    """Train every job's probe at once, in lockstep; returns each job's fit
    and the first epoch whose weight, offset or loss is not finite (None
    when every epoch's are finite).

    All jobs share n, so every epoch's batches share their bounds: each
    job's epoch order comes from its own plan (or shuffle), and batch k is
    columns [k * batch_size, (k + 1) * batch_size) of the (jobs, n) arrays
    gathered in that order. One numpy step advances every job by one batch.
    Rows keep the jobs' order; one boolean mask picks the bin-loss rows
    ("rr" and "rs"), whose batches come from a balanced plan, not a shuffle.

    The result is the scalar per-sample loop's bit for bit: elementwise
    operations are IEEE-identical in numpy and Python and keep its order,
    the batch gradients and the epoch loss are left-to-right sums (cumsum
    over a column of 0.0 and the terms), and the bin loss takes math.log1p
    per in-bin element (interval_losses). A job that diverges keeps
    stepping on inf and NaN, silently, and its fit is only good for the
    error it raises.
    """
    n = len(jobs[0].counts)
    if not n:
        raise ValidationError("need at least one training sample")
    for job in jobs:
        if job.scheme not in SCHEMES:
            raise ValidationError(f"scheme must be one of {SCHEMES}, got {job.scheme!r}")
        if len(job.z) != len(job.counts):
            raise ValidationError(f"need one feature per count, got {len(job.z)} features for {len(job.counts)} counts")
        if len(job.counts) != n:
            raise ValidationError(f"jobs trained in lockstep need one size, got {len(job.counts)} and {n} counts")
    binned = np.array([job.scheme != "none" for job in jobs])  # the bin-loss rows
    y = np.array([job.counts for job in jobs], dtype=float)
    with np.errstate(over="ignore"):  # a non-finite feature makes its job's scale inf or NaN too
        scales = [max(float(np.abs(job.z).mean()), 1e-9) for job in jobs]
    if not all(map(math.isfinite, scales)):
        raise ValidationError("features must be finite, and so must their mean magnitude (the probe's scale)")
    u = np.array([job.z / scale for job, scale in zip(jobs, scales)])
    # plans hold positions into the columns; edges are each sample's (clamped) bin, one row per bin-loss job
    assignments = [assign_columns(range(n), job.counts, job.partition) if b else None for job, b in zip(jobs, binned)]
    lo, hi = np.zeros((2, int(binned.sum()), n))
    for i, j in enumerate(np.flatnonzero(binned)):
        _, lo[i], hi[i] = routed_edges(jobs[j].partition.bins, jobs[j].counts)
    lam1, lam2, bs = cfg.loss.lambda1, cfg.loss.lambda2, cfg.batch_size

    # rows 0 and 1: every job's weight and offset, stepped as one array
    params = np.zeros((2, len(jobs)))
    losses = np.zeros((len(jobs), cfg.epochs))
    failed = np.full(len(jobs), -1)
    pred = np.empty((len(jobs), n))
    row_starts = np.arange(len(jobs))[:, None] * n
    # column 0 stays 0.0, where the sequential sums start; no batch outgrows n
    batch_sums = np.zeros((2, len(jobs), min(bs, n) + 1))
    epoch_terms = np.zeros((len(jobs), n + 1))
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(cfg.epochs):
            lr = cfg.learning_rate / (1.0 + epoch)
            orders = []
            for job, assignment in zip(jobs, assignments):
                plan_seed = job.seed * _EPOCH_SEED_STRIDE + epoch
                if assignment is None:
                    batches = _epoch_batches_shuffled(n, bs, plan_seed)
                else:
                    batches = plan_epoch(assignment, bs, plan_seed, SamplingScheme(job.scheme)).batches
                orders.append(itertools.chain.from_iterable(batches))
            order = np.fromiter(itertools.chain.from_iterable(orders), np.intp, len(jobs) * n).reshape(len(jobs), n)
            los, his = np.take_along_axis(lo, order[binned], axis=1), np.take_along_axis(hi, order[binned], axis=1)
            order += row_starts  # flat positions: row j's order plus j * n
            ys, us = y.take(order), u.take(order)
            for k in range(0, n, bs):
                cols, m = slice(k, k + bs), min(bs, n - k)
                uk, yk, pk = us[:, cols], ys[:, cols], pred[:, cols]
                np.multiply(params[0, :, None], uk, out=pk)
                pk += params[1, :, None]
                err = pk - yk
                grad = np.copysign(1.0, err)
                grad[err == 0.0] = 0.0
                if binned.any():
                    grad[binned] += lam2 * interval_loss_subgradients(yk[binned], pk[binned], los[:, cols], his[:, cols], lam1)
                np.multiply(grad, uk, out=batch_sums[0, :, 1 : m + 1])
                batch_sums[1, :, 1 : m + 1] = grad
                params -= lr * np.cumsum(batch_sums[:, :, : m + 1], axis=2)[:, :, -1] / m
            terms = epoch_terms[:, 1:]
            np.abs(pred - ys, out=terms)
            if binned.any():
                terms[binned] += lam2 * interval_losses(ys[binned], pred[binned], los, his, lam1)
            losses[:, epoch] = np.cumsum(epoch_terms, axis=1)[:, -1] / n
            finite = np.isfinite(params).all(axis=0) & np.isfinite(losses[:, epoch])
            failed[~finite & (failed < 0)] = epoch
            if (failed >= 0).all():
                break
    fits = [ToyFit(w, c, scale, tuple(row)) for w, c, scale, row in zip(*params.tolist(), scales, losses.tolist())]
    return fits, [k if k >= 0 else None for k in failed.tolist()]


def _finished(fit: ToyFit, failed: int | None, scheme: str) -> ToyFit:
    if failed is not None:
        raise ValidationError(f"training diverged in epoch {failed} under scheme {scheme!r}: weight, offset or loss is not finite")
    return fit


def fit_toy_regressor(
    counts: np.ndarray,
    z: np.ndarray,
    partition: Partition,
    cfg: TrainerConfig,
    scheme: str,
    seed: int,
) -> ToyFit:
    """Subgradient-descent fit of the linear probe to training counts and
    their features (z[i] is the feature of counts[i]) under one scheme.

    scheme "none" trains on seeded shuffled batches with the plain
    absolute-error loss and never consults the bin structure; "rr"/"rs" use
    the corresponding balanced plan and the combined loss. This is the
    lockstep trainer (_train) on one job.
    """
    fits, failed = _train([_Job(counts, z, partition, scheme, seed)], cfg)
    return _finished(fits[0], failed[0], scheme)


def _compare_seeds(
    spec: SynthSpec, binning: BinningConfig, trainer: TrainerConfig, seeds: tuple[int, ...]
) -> list[dict[str, EvalReport]]:
    """Held-out reports of every scheme per seed, all trained in one _train
    call. Errors come in the order of training and evaluating one seed and
    scheme after another: a seed's dataset or partition error is raised
    after the errors of the seeds before it."""
    jobs, held_out, error = [], [], None
    for seed in seeds:
        try:
            counts, z = generate_dataset(replace(spec, seed=seed))
            train, test = _index_split(len(counts), trainer.holdout_ratio, seed)
            partition = fit_partition_columns(counts[train], binning)
        except Exception as exc:
            error = exc
            break
        jobs += [_Job(counts[train], z[train], partition, scheme, seed) for scheme in SCHEMES]
        held_out.append((counts[test], z[test], partition))
    fits, failed = _train(jobs, trainer) if jobs else ([], [])
    reports = []
    for k, (test_counts, test_z, partition) in enumerate(held_out):
        reports.append({})
        for i, scheme in enumerate(SCHEMES, start=k * len(SCHEMES)):
            y_hat = _finished(fits[i], failed[i], scheme).predict(test_z)
            bad = y_hat[~(np.abs(y_hat) <= MAX_PREDICTION)]  # the eval reader's bound on count_pred
            if bad.size:
                raise ValidationError(f"prediction {float(bad[0])} under scheme {scheme!r} is not finite or exceeds {MAX_PREDICTION:g} in magnitude")
            reports[-1][scheme] = evaluate_columns(test_counts, y_hat, partition)
    if error is not None:
        raise error
    return reports


def run_comparison(
    spec: SynthSpec,
    binning: BinningConfig = DEFAULT_SYNTH_BINNING,
    trainer: TrainerConfig = TrainerConfig(),
    seeds: Sequence[int] = range(10),
) -> ComparisonReport:
    """Train and evaluate all three schemes per seed.

    Every scheme within a seed shares the dataset, train/test split and
    partition; win counts tally the seeds where a balanced scheme's pooled
    error std lands below the baseline's. Seeds train in chunks of at most
    _MAX_TRAIN_ENTRIES (job, sample) entries, at least one seed each.
    """
    if not 1 <= len(seeds) <= MAX_N_SEEDS:
        raise ValidationError(f"need 1 to {MAX_N_SEEDS} seeds, got {len(seeds)}")
    per_chunk = max(1, _MAX_TRAIN_ENTRIES // (len(SCHEMES) * spec.n_samples))
    by_seed = []
    for at in range(0, len(seeds), per_chunk):
        by_seed += _compare_seeds(spec, binning, trainer, tuple(seeds[at : at + per_chunk]))
    stds = {s: tuple(reports[s].pooled_std for reports in by_seed) for s in SCHEMES}
    return ComparisonReport(
        reports=tuple((s, by_seed[0][s]) for s in SCHEMES),
        seeds=tuple(seeds),
        pooled_std_by_seed=tuple(stds.items()),
        win_counts=tuple((s, sum(a < b for a, b in zip(stds[s], stds["none"]))) for s in ("rr", "rs")),
    )


def comparison_json_dict(report: ComparisonReport) -> dict:
    return {
        "seeds": list(report.seeds),
        "win_counts": {s: w for s, w in report.win_counts},
        "pooled_std_by_seed": {s: list(v) for s, v in report.pooled_std_by_seed},
        "first_seed_reports": {s: report_json_dict(r) for s, r in report.reports},
    }
