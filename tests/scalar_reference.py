"""Scalar references: the bin loss and the probe's trainer written with one
Python float operation per sample, as countstrat computed them before its
array forms. The array forms must match these bit for bit."""

import math

import numpy as np

from countstrat import ValidationError
from countstrat.sampling import SamplingScheme, assign_columns, plan_epoch
from countstrat.stratify import locate_bins
from countstrat.synth import _EPOCH_SEED_STRIDE, ToyFit, _epoch_batches_shuffled


def scalar_interval_loss(y, y_hat, lo, hi, lambda1):
    err = abs(y - y_hat)
    if lo <= y_hat <= hi:
        return lambda1 * math.log1p(err)
    return err


def scalar_interval_loss_subgradient(y, y_hat, lo, hi, lambda1):
    if y_hat == y:
        return 0.0
    sign = 1.0 if y_hat > y else -1.0
    if lo <= y_hat <= hi:
        return lambda1 * sign / (1.0 + abs(y - y_hat))
    return sign


def reference_fit(counts, z, partition, cfg, scheme, seed):
    """The scalar trainer: one Python step per sample, on Python floats. The
    lockstep trainer must match it bit for bit; this raises where that
    trainer records divergence."""
    n = len(counts)
    y = counts.astype(float).tolist()
    scale = max(float(np.abs(z).mean()), 1e-9)
    u = (z / scale).tolist()
    if scheme != "none":
        assignment = assign_columns(range(n), counts, partition)
        bounds = [(b.lo, b.hi) for b in partition.bins]
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
                    loss += lam2 * scalar_interval_loss(yi, pred, lo, hi, lam1)
                    grad += lam2 * scalar_interval_loss_subgradient(yi, pred, lo, hi, lam1)
                loss_sum += loss
                g_w += grad * ui
                g_c += grad
            weight -= lr * g_w / len(batch)
            offset -= lr * g_c / len(batch)
        epoch_losses.append(loss_sum / n)
        if not (math.isfinite(weight) and math.isfinite(offset) and math.isfinite(epoch_losses[-1])):
            raise ValidationError(f"training diverged in epoch {epoch} under scheme {scheme!r}: weight, offset or loss is not finite")
    return ToyFit(weight, offset, scale, tuple(epoch_losses))
