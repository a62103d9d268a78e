"""Strata-aware loss: logarithmic inside the ground truth's bin, linear outside.

A prediction landing in the same bin as the ground truth incurs a damped
log(1 + error) penalty; a prediction outside the bin pays the full absolute
error. The loss is meant as an additive companion to a model's own loss.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .stratify import Bin, locate_bins


@dataclass(frozen=True)
class LossConfig:
    lambda1: float = 1.0  # weight of the in-bin logarithmic branch
    lambda2: float = 1.0  # weight of the whole term when added to a model loss

    def __post_init__(self):
        if not (0 <= self.lambda1 < math.inf and 0 <= self.lambda2 < math.inf):
            raise ValidationError("lambda1 and lambda2 must be finite and >= 0")


def interval_losses(ys, y_hats, los, his, lambda1: float) -> np.ndarray:
    """The bin loss of each ground truth ys[i] routed to the bin [los[i],
    his[i]], unchecked, as float64 arrays.

    Every operation is the scalar one applied elementwise, so each value is
    what Python floats give: |y - y_hat| off the bin, lambda1 * log1p of it
    inside (the bin's edges included). The in-bin log1p is math.log1p per
    element, since numpy's differs from it in the last bit on some inputs.
    Overflow gives inf silently, as with Python floats.
    """
    ys, y_hats = np.asarray(ys, dtype=float), np.asarray(y_hats, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.abs(ys - y_hats)
        inside = (los <= y_hats) & (y_hats <= his)
        errs = out[inside].tolist()
        out[inside] = lambda1 * np.fromiter(map(math.log1p, errs), float, len(errs))
    return out


def interval_loss_subgradients(ys, y_hats, los, his, lambda1: float) -> np.ndarray:
    """d(interval_losses)/d(y_hats) elementwise: 0 where y_hat == y, the
    inside branch lambda1 * sign / (1 + |y - y_hat|) on the bin and its
    edges, and the sign (-1 when y_hat is NaN) off it."""
    ys, y_hats = np.asarray(ys, dtype=float), np.asarray(y_hats, dtype=float)
    sign = np.where(y_hats > ys, 1.0, -1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        inside = (los <= y_hats) & (y_hats <= his)
        out = np.where(inside, (lambda1 * sign) / (1.0 + np.abs(ys - y_hats)), sign)
    out[y_hats == ys] = 0.0
    return out


def bin_loss(y: float, y_hat: float, bin_: Bin, lambda1: float = 1.0) -> float:
    """Piecewise penalty for a ground truth y known to lie in bin_."""
    if not bin_.contains(y):
        raise ValidationError(f"ground truth {y} outside its bin [{bin_.lo}, {bin_.hi}]")
    return interval_losses([y], [y_hat], bin_.lo, bin_.hi, lambda1).item()


def combined_loss(model_loss: float, y: float, y_hat: float, bin_: Bin, cfg: LossConfig) -> float:
    """Model loss plus the weighted bin penalty."""
    if not math.isfinite(model_loss):
        raise ValidationError(f"model_loss must be finite, got {model_loss}")
    return model_loss + cfg.lambda2 * bin_loss(y, y_hat, bin_, cfg.lambda1)


def bin_loss_subgradient(y: float, y_hat: float, bin_: Bin, lambda1: float = 1.0) -> float:
    """d(bin_loss)/d(y_hat); 0 at y_hat == y, inside-branch value on bin edges."""
    if not bin_.contains(y):
        raise ValidationError(f"ground truth {y} outside its bin [{bin_.lo}, {bin_.hi}]")
    return interval_loss_subgradients([y], [y_hat], bin_.lo, bin_.hi, lambda1).item()


def routed_bin_loss(y: float, y_hat: float, bins: tuple[Bin, ...], lambda1: float = 1.0) -> tuple[float, Bin]:
    """Locate the ground truth's bin (a count above the range clamps into
    the last bin) and evaluate the loss there: (loss, bin used)."""
    idx, los, his = routed_edges(bins, [y])
    return interval_losses([y], [y_hat], los, his, lambda1).item(), bins[idx.item()]


def routed_bin_loss_subgradient(y: float, y_hat: float, bins: tuple[Bin, ...], lambda1: float = 1.0) -> float:
    """bin_loss_subgradient at the bin routed_bin_loss uses."""
    _, los, his = routed_edges(bins, [y])
    return interval_loss_subgradients([y], [y_hat], los, his, lambda1).item()


def routed_edges(bins: tuple[Bin, ...], ys) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each ground truth's bin index (counts above the range clamp into the
    last bin) and that bin's lower and upper edges, as int64 arrays."""
    idx, _ = locate_bins(bins, ys)
    los, his = np.array([(b.lo, b.hi) for b in bins], dtype=np.int64).T
    return idx, los[idx], his[idx]
