"""Synthetic heavy-tailed count benchmark with a toy trainable predictor.

Counts come from a discretized, capped log-normal; each sample carries one
scalar feature z = y*(1+eps) so a two-parameter linear probe is learnable.
The comparison harness trains that probe three ways on identical data:
plain shuffled minibatches with an absolute-error loss, and round-robin or
random-bin balanced plans with the combined (model + bin) loss, then
evaluates all three on one held-out split. The probe is deliberately tiny
so runs take seconds and differences are attributable to the sampling and
loss choices rather than model capacity. It all runs on columns: int64
counts, float64 features, and index arrays (splits, plans) into them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .counts import MAX_COUNT, check_integer
from .errors import ValidationError
from .evaluate import MAX_PREDICTION, EvalReport, evaluate_columns, report_json_dict
from .loss import LossConfig, interval_loss, interval_loss_subgradient
from .sampling import SamplingScheme, assign_columns, plan_epoch
from .stratify import BinningConfig, Partition, fit_partition_columns, locate_bins
from .tuning import _index_split

SCHEMES = ("none", "rr", "rs")

# Binning used by the benchmark unless overridden: six wide strata. The cap
# sets the number: on the train sides of seeds 0-2 at the default spec, the
# uncapped multinomial fit at gamma 0.1 gives 74, 68 and 68 bins, and the
# default grid search picks gamma 0.1 on all three; alpha=6 makes it 6.
DEFAULT_SYNTH_BINNING = BinningConfig(gamma=0.1, alpha=6)

# offset keeping per-epoch plan seeds disjoint across runs, so it bounds epochs
_EPOCH_SEED_STRIDE = 100003


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
        check_integer("n_samples", self.n_samples, 1)
        check_integer("max_count", self.max_count, 1)
        check_integer("seed", self.seed, 0)
        for name in ("log_mean", "log_sigma", "noise_spread", "noise_bias"):
            if not math.isfinite(getattr(self, name)):
                raise ValidationError(f"{name} must be finite, got {getattr(self, name)}")
        if self.noise_spread < 0:
            raise ValidationError("noise_spread must be >= 0")
        if not 1 <= self.max_count <= MAX_COUNT:
            raise ValidationError(f"max_count must lie in [1, {MAX_COUNT}], got {self.max_count}")
        if self.log_sigma < 0:
            raise ValidationError("log_sigma must be >= 0")


@dataclass(frozen=True)
class TrainerConfig:
    epochs: int = 20
    learning_rate: float = 0.5
    batch_size: int = 32
    loss: LossConfig = LossConfig()
    holdout_ratio: float = 0.25

    def __post_init__(self):
        check_integer("epochs", self.epochs, 1)
        check_integer("batch_size", self.batch_size, 1)
        if self.epochs > _EPOCH_SEED_STRIDE:
            raise ValidationError(f"epochs must be <= {_EPOCH_SEED_STRIDE}, got {self.epochs}")
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
    noisy features (float64), one entry per sample."""
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    raw = rng.lognormal(mean=spec.log_mean, sigma=spec.log_sigma, size=spec.n_samples)
    # capped before the int cast, so an overflowing draw (inf) lands on the cap
    counts = np.rint(np.minimum(raw, spec.max_count)).astype(np.int64)
    eps = spec.noise_bias + spec.noise_spread * rng.standard_normal(spec.n_samples)
    return counts, counts * (1.0 + eps)


def _epoch_batches_shuffled(n: int, batch_size: int, seed: int) -> list[list[int]]:
    order = np.random.Generator(np.random.PCG64(seed)).permutation(n).tolist()
    return [order[i : i + batch_size] for i in range(0, n, batch_size)]


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
    the corresponding balanced plan and the combined loss.
    """
    if scheme not in SCHEMES:
        raise ValidationError(f"scheme must be one of {SCHEMES}, got {scheme!r}")
    n = len(counts)
    if len(z) != n:
        raise ValidationError(f"need one feature per count, got {len(z)} features for {n} counts")
    # plans, batches and the lists below hold positions into the columns
    y = counts.astype(float).tolist()
    scale = max(float(np.abs(z).mean()), 1e-9)
    u = (z / scale).tolist()
    if scheme != "none":
        assignment = assign_columns(range(n), counts, partition)
        bounds = [(b.lo, b.hi) for b in partition.bins]
        # each sample's (clamped) bin, located once per fit
        edges = [bounds[k] for k in locate_bins(partition.bins, counts)[0].tolist()]
    lam1, lam2 = cfg.loss.lambda1, cfg.loss.lambda2

    weight, offset = 0.0, 0.0
    epoch_losses = []
    for epoch in range(cfg.epochs):
        lr = cfg.learning_rate / (1.0 + epoch)
        plan_seed = seed * _EPOCH_SEED_STRIDE + epoch
        if scheme == "none":
            batches = _epoch_batches_shuffled(n, cfg.batch_size, plan_seed)
        else:
            batches = plan_epoch(assignment, cfg.batch_size, plan_seed, SamplingScheme(scheme)).batches
        loss_sum = 0.0
        for batch in batches:
            g_w = 0.0
            g_c = 0.0
            for i in batch:
                yi = y[i]
                ui = u[i]
                pred = weight * ui + offset
                err = pred - yi
                sign = 0.0 if err == 0.0 else math.copysign(1.0, err)
                loss = abs(err)
                grad = sign
                if scheme != "none":
                    lo, hi = edges[i]
                    loss += lam2 * interval_loss(yi, pred, lo, hi, lam1)
                    grad += lam2 * interval_loss_subgradient(yi, pred, lo, hi, lam1)
                loss_sum += loss
                g_w += grad * ui
                g_c += grad
            weight -= lr * g_w / len(batch)
            offset -= lr * g_c / len(batch)
        epoch_losses.append(loss_sum / n)
        if not (math.isfinite(weight) and math.isfinite(offset) and math.isfinite(epoch_losses[-1])):
            raise ValidationError(f"training diverged in epoch {epoch} under scheme {scheme!r}: weight, offset or loss is not finite")
    return ToyFit(weight, offset, scale, tuple(epoch_losses))


def run_comparison(
    spec: SynthSpec,
    binning: BinningConfig = DEFAULT_SYNTH_BINNING,
    trainer: TrainerConfig = TrainerConfig(),
    seeds: tuple[int, ...] = tuple(range(10)),
) -> ComparisonReport:
    """Train and evaluate all three schemes per seed.

    Every scheme within a seed shares the dataset, train/test split and
    partition; win counts tally the seeds where a balanced scheme's pooled
    error std lands below the baseline's.
    """
    if not seeds:
        raise ValidationError("need at least one seed")
    pooled_std = {s: [] for s in SCHEMES}
    first_reports: dict[str, EvalReport] = {}
    for run_index, seed in enumerate(seeds):
        counts, z = generate_dataset(replace(spec, seed=seed))
        train, test = _index_split(len(counts), trainer.holdout_ratio, seed)
        train_counts, train_z = counts[train], z[train]
        partition = fit_partition_columns(train_counts, binning)
        for scheme in SCHEMES:
            fit = fit_toy_regressor(train_counts, train_z, partition, trainer, scheme, seed)
            y_hat = fit.predict(z[test])
            bad = y_hat[~(np.abs(y_hat) <= MAX_PREDICTION)]  # the eval reader's bound on count_pred
            if bad.size:
                raise ValidationError(f"prediction {float(bad[0])} under scheme {scheme!r} is not finite or exceeds {MAX_PREDICTION:g} in magnitude")
            report = evaluate_columns(counts[test], y_hat, partition)
            pooled_std[scheme].append(report.pooled_std)
            if run_index == 0:
                first_reports[scheme] = report
    wins = {
        scheme: sum(
            1
            for k in range(len(seeds))
            if pooled_std[scheme][k] < pooled_std["none"][k]
        )
        for scheme in ("rr", "rs")
    }
    return ComparisonReport(
        reports=tuple((s, first_reports[s]) for s in SCHEMES),
        seeds=tuple(seeds),
        pooled_std_by_seed=tuple((s, tuple(pooled_std[s])) for s in SCHEMES),
        win_counts=tuple((s, wins[s]) for s in ("rr", "rs")),
    )


def comparison_json_dict(report: ComparisonReport) -> dict:
    return {
        "seeds": list(report.seeds),
        "win_counts": {s: w for s, w in report.win_counts},
        "pooled_std_by_seed": {s: list(v) for s, v in report.pooled_std_by_seed},
        "first_seed_reports": {s: report_json_dict(r) for s, r in report.reports},
    }
