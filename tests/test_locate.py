"""The array locate (one searchsorted) and its users agree with scalar
locate_bin reference loops, including clamped counts, empty bins and
one-bin partitions."""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from countstrat import (
    Bin,
    BinStats,
    CountRecord,
    LikelihoodKind,
    Partition,
    PredictionRecord,
    assign_bins,
    locate_bin,
    per_bin_stats,
    routed_bin_loss,
)
from countstrat.loss import routed_bin_losses
from countstrat.stratify import locate_bins


@st.composite
def cases(draw):
    """Up to 9 bins over [0, top]; truths up to top + 20, so some clamp."""
    top = draw(st.integers(0, 60))
    edges = sorted(draw(st.sets(st.integers(0, max(top - 1, 0)), max_size=8))) if top else []
    bins = tuple(Bin(lo, hi) for lo, hi in zip([0] + [e + 1 for e in edges], edges + [top]))
    ys = draw(st.lists(st.integers(0, top + 20), max_size=80))
    y_hats = draw(st.lists(st.floats(-10, top + 30), min_size=len(ys), max_size=len(ys)))
    return Partition(bins, 0.0, 0.5, LikelihoodKind.MULTINOMIAL), ys, y_hats


@given(cases(), st.floats(0, 5))
def test_array_locate_matches_scalar(case, lambda1):
    part, ys, y_hats = case
    bins = part.bins
    want = [locate_bin(bins, y) for y in ys]

    idx, clamped = locate_bins(bins, np.array(ys, dtype=np.int64))
    assert list(zip(idx.tolist(), clamped.tolist())) == want

    buckets = [[] for _ in bins]
    for i, (k, _) in enumerate(want):
        buckets[k].append(f"r{i}")
    asg = assign_bins([CountRecord(f"r{i}", y) for i, y in enumerate(ys)], part)
    assert asg.by_bin == tuple(tuple(b) for b in buckets)
    assert asg.clamped_ids == tuple(f"r{i}" for i, (_, c) in enumerate(want) if c)

    errors = [[] for _ in bins]
    for (k, _), y, y_hat in zip(want, ys, y_hats):
        errors[k].append(abs(y - y_hat))
    preds = [PredictionRecord(f"r{i}", y, h) for i, (y, h) in enumerate(zip(ys, y_hats))]
    assert per_bin_stats(preds, part) == [
        BinStats(b, len(e), float(np.asarray(e).mean()), float(np.asarray(e).std()))
        if e
        else BinStats(b, 0, None, None)
        for b, e in zip(bins, errors)
    ]

    assert routed_bin_losses(ys, y_hats, bins, lambda1) == [
        routed_bin_loss(y, y_hat, bins, lambda1) for y, y_hat in zip(ys, y_hats)
    ]
