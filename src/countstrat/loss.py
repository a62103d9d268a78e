"""Strata-aware loss: logarithmic inside the ground truth's bin, linear outside.

A prediction landing in the same bin as the ground truth incurs a damped
log(1 + error) penalty; a prediction outside the bin pays the full absolute
error. The loss is meant as an additive companion to a model's own loss.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ValidationError
from .stratify import Bin, locate_bin, locate_bins


@dataclass(frozen=True)
class LossConfig:
    lambda1: float = 1.0  # weight of the in-bin logarithmic branch
    lambda2: float = 1.0  # weight of the whole term when added to a model loss

    def __post_init__(self):
        if not (0 <= self.lambda1 < math.inf and 0 <= self.lambda2 < math.inf):
            raise ValidationError("lambda1 and lambda2 must be finite and >= 0")


def interval_loss(y: float, y_hat: float, lo: float, hi: float, lambda1: float) -> float:
    """The bin loss for a ground truth routed to the bin [lo, hi], unchecked."""
    err = abs(y - y_hat)
    if lo <= y_hat <= hi:
        return lambda1 * math.log1p(err)
    return err


def interval_loss_subgradient(y: float, y_hat: float, lo: float, hi: float, lambda1: float) -> float:
    """d(interval_loss)/d(y_hat), as bin_loss_subgradient."""
    if y_hat == y:
        return 0.0
    sign = 1.0 if y_hat > y else -1.0
    # bin edges take the inside branch, matching the loss itself
    if lo <= y_hat <= hi:
        return lambda1 * sign / (1.0 + abs(y - y_hat))
    return sign


def bin_loss(y: float, y_hat: float, bin_: Bin, lambda1: float = 1.0) -> float:
    """Piecewise penalty for a ground truth y known to lie in bin_."""
    if not bin_.contains(y):
        raise ValidationError(f"ground truth {y} outside its bin [{bin_.lo}, {bin_.hi}]")
    return interval_loss(y, y_hat, bin_.lo, bin_.hi, lambda1)


def combined_loss(model_loss: float, y: float, y_hat: float, bin_: Bin, cfg: LossConfig) -> float:
    """Model loss plus the weighted bin penalty."""
    if not math.isfinite(model_loss):
        raise ValidationError(f"model_loss must be finite, got {model_loss}")
    return model_loss + cfg.lambda2 * bin_loss(y, y_hat, bin_, cfg.lambda1)


def bin_loss_subgradient(y: float, y_hat: float, bin_: Bin, lambda1: float = 1.0) -> float:
    """d(bin_loss)/d(y_hat); 0 at y_hat == y, inside-branch value on bin edges."""
    if not bin_.contains(y):
        raise ValidationError(f"ground truth {y} outside its bin [{bin_.lo}, {bin_.hi}]")
    return interval_loss_subgradient(y, y_hat, bin_.lo, bin_.hi, lambda1)


def routed_bin_loss(y: float, y_hat: float, bins: tuple[Bin, ...], lambda1: float = 1.0) -> tuple[float, Bin]:
    """routed_bin_losses of one pair: (loss, bin used)."""
    return routed_bin_losses([y], [y_hat], bins, lambda1)[0]


def routed_bin_loss_subgradient(y: float, y_hat: float, bins: tuple[Bin, ...], lambda1: float = 1.0) -> float:
    idx, _ = locate_bin(bins, y)
    b = bins[idx]
    return interval_loss_subgradient(y, y_hat, b.lo, b.hi, lambda1)


def routed_bin_losses(
    ys: list[float], y_hats: list[float], bins: tuple[Bin, ...], lambda1: float = 1.0
) -> list[tuple[float, Bin]]:
    """Locate each ground truth's bin (clamping counts above the range into
    the last bin), all at once, and evaluate the loss there. Returns one
    (loss, bin used) per (y, y_hat) pair."""
    idx, _ = locate_bins(bins, ys)
    return [
        (interval_loss(y, y_hat, bins[k].lo, bins[k].hi, lambda1), bins[k])
        for y, y_hat, k in zip(ys, y_hats, idx.tolist())
    ]
