"""Per-bin and pooled error statistics for count predictions.

Absolute errors |y - y_hat| are grouped by the bin containing the ground
truth. Each bin reports its sample count, MAE and the population standard
deviation of its absolute errors; bins aggregate into pooled mean/std by
sample-count weighting. The conventional global MAE/std (no binning) is
reported alongside.

Predictions are read as columns: prediction_columns parses the CSV with
counts.read_columns into a list of ids, an int64 ground-truth array and a
float64 prediction array, and evaluate_columns reports on the two arrays.
The record-list forms (parse_predictions, evaluate) convert to or from
the same arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .counts import MAX_COUNT, counts_in_range, csv_rows, is_integer, read_columns
from .errors import ParseError, ValidationError
from .jsonfmt import format_float
from .stratify import Bin, Partition, locate_bins

PRED_CSV_HEADER = ("id", "count_true", "count_pred")
# bound on |count_pred|: squared errors and their sums stay finite
MAX_PREDICTION = 1e100


@dataclass(frozen=True)
class PredictionRecord:
    id: str
    y: int
    y_hat: float

    def __post_init__(self):
        if not is_integer(self.y) or not 0 <= self.y <= MAX_COUNT:
            raise ValidationError(f"ground-truth count must be an integer in [0, {MAX_COUNT}], got {self.y} for id {self.id!r}")
        if not abs(self.y_hat) <= MAX_PREDICTION:
            raise ValidationError(f"prediction {self.y_hat} for id {self.id!r} is not finite or exceeds {MAX_PREDICTION:g} in magnitude")


@dataclass(frozen=True)
class BinStats:
    """Error statistics of one bin; mae/std are None for an empty bin."""

    bin: Bin
    n: int
    mae: float | None
    std: float | None


@dataclass(frozen=True)
class EvalReport:
    per_bin: tuple[BinStats, ...]
    pooled_mae: float
    pooled_std: float
    global_mae: float
    global_std: float
    n_total: int


def prediction_columns(text: str) -> tuple[list[str], np.ndarray, np.ndarray]:
    """Parse CSV with header ``id,count_true,count_pred`` into (ids, int64
    ground truths, float64 predictions); read_columns says how."""
    return read_columns(text, PRED_CSV_HEADER, (int, float), _valid_predictions, _prediction_rows)


def parse_predictions(text: str) -> list[PredictionRecord]:
    """prediction_columns as a list of prediction records."""
    ids, ys, y_hats = prediction_columns(text)
    return list(map(PredictionRecord, ids, ys.tolist(), y_hats.tolist()))


def _valid_predictions(ids: list[str], ys: np.ndarray, y_hats: np.ndarray) -> bool:
    return counts_in_range(ys) and bool((np.abs(y_hats) <= MAX_PREDICTION).all())


def _prediction_rows(text: str) -> tuple[list[str], np.ndarray, np.ndarray]:
    ids, ys, y_hats = [], [], []
    for lineno, row in csv_rows(text, PRED_CSV_HEADER):
        try:
            y = int(row[1].strip())
            y_hat = float(row[2].strip())
        except ValueError:
            raise ParseError(f"line {lineno}: malformed numeric fields {row[1]!r}, {row[2]!r}") from None
        if not abs(y_hat) <= MAX_PREDICTION:
            raise ParseError(f"line {lineno}: prediction {row[2]!r} is not finite or exceeds {MAX_PREDICTION:g} in magnitude")
        if y > MAX_COUNT:
            raise ParseError(f"line {lineno}: ground-truth count {y} exceeds the limit {MAX_COUNT}")
        if y < 0:
            raise ValidationError(f"line {lineno}: negative ground-truth count {y}")
        ids.append(row[0])
        ys.append(y)
        y_hats.append(y_hat)
    return ids, np.array(ys, dtype=np.int64), np.array(y_hats, dtype=np.float64)


def _per_bin(ys: np.ndarray, errs: np.ndarray, partition: Partition) -> list[BinStats]:
    """Group absolute errors by the ground truth's bin (clamping above the
    range into the last bin) and report n/MAE/population std per bin."""
    idx, _ = locate_bins(partition.bins, ys)
    # a stable sort keeps each bin's errors in input order, so every slice
    # holds the same array, and gives the same mean/std, as a per-bin list
    grouped = errs[np.argsort(idx, kind="stable")]
    ends = np.cumsum(np.bincount(idx, minlength=len(partition.bins))).tolist()
    return [
        BinStats(b, end - start, float(grouped[start:end].mean()), float(grouped[start:end].std()))
        if end > start
        else BinStats(b, 0, None, None)
        for b, start, end in zip(partition.bins, [0, *ends], ends)
    ]


def pool(stats: list[BinStats]) -> tuple[float, float]:
    """Sample-count-weighted pooled (mean, std) over non-empty bins.

    The pooled variance is the weighted average of per-bin variances; the
    between-bin dispersion of means is deliberately not part of it.
    """
    n_total = sum(s.n for s in stats)
    if n_total == 0:
        raise ValidationError("cannot pool: every bin is empty")
    mu = sum(s.n * s.mae for s in stats if s.n) / n_total
    var = sum(s.n * s.std**2 for s in stats if s.n) / n_total
    return mu, math.sqrt(var)


def evaluate(preds: list[PredictionRecord], partition: Partition) -> EvalReport:
    """evaluate_columns of the records' truths (int64) and predictions (float64)."""
    ys = np.fromiter((r.y for r in preds), np.int64, len(preds))
    return evaluate_columns(ys, np.fromiter((r.y_hat for r in preds), float, len(preds)), partition)


def evaluate_columns(ys: np.ndarray, y_hats: np.ndarray, partition: Partition) -> EvalReport:
    """The EvalReport of int64 ground truths ``ys`` against float64
    predictions ``y_hats`` (prediction_columns' arrays). The global MAE/std
    are those of all absolute errors, ignoring bins; an empty set fails in
    pool."""
    errs = np.abs(ys - y_hats)
    stats = _per_bin(ys, errs, partition)
    mu_pool, sigma_pool = pool(stats)
    return EvalReport(tuple(stats), mu_pool, sigma_pool, float(errs.mean()), float(errs.std()), len(ys))


def report_json_dict(report: EvalReport) -> dict:
    return {
        "n_total": report.n_total,
        "pooled_mae": report.pooled_mae,
        "pooled_std": report.pooled_std,
        "global_mae": report.global_mae,
        "global_std": report.global_std,
        "per_bin": [
            {"lo": s.bin.lo, "hi": s.bin.hi, "n": s.n, "mae": s.mae, "std": s.std}
            for s in report.per_bin
        ],
    }


def render_report(report: EvalReport, partition: Partition) -> str:
    """Plot-ready CSV: one row per bin plus pooled and global trailer rows.

    Empty bins keep their row with n=0 and blank mae/std fields.
    """
    if len(report.per_bin) != len(partition.bins):
        raise ValidationError("report and partition disagree on the number of bins")
    lines = ["bin_lo,bin_hi,n,mae,std"]
    for s in report.per_bin:
        mae = format_float(s.mae) if s.mae is not None else ""
        std = format_float(s.std) if s.std is not None else ""
        lines.append(f"{s.bin.lo},{s.bin.hi},{s.n},{mae},{std}")
    lines.append(
        f"pooled,,{report.n_total},{format_float(report.pooled_mae)},{format_float(report.pooled_std)}"
    )
    lines.append(
        f"global,,{report.n_total},{format_float(report.global_mae)},{format_float(report.global_std)}"
    )
    return "\n".join(lines) + "\n"
