"""The locate (one searchsorted) and its users agree with a linear-scan
reference, including clamped counts, empty bins and one-bin partitions."""

import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from countstrat import (
    Bin,
    BinStats,
    CountRecord,
    LikelihoodKind,
    Partition,
    RangeError,
    assign_bins,
    locate_bin,
    routed_bin_loss,
)
from countstrat.evaluate import _per_bin
from countstrat.loss import interval_losses, routed_edges
from countstrat.stratify import locate_bins
from scalar_reference import scalar_interval_loss


@st.composite
def bin_tuples(draw):
    """Up to 9 bins over [0, top], top at most 60."""
    top = draw(st.integers(0, 60))
    edges = sorted(draw(st.sets(st.integers(0, max(top - 1, 0)), max_size=8))) if top else []
    return tuple(Bin(lo, hi) for lo, hi in zip([0] + [e + 1 for e in edges], edges + [top]))


@st.composite
def cases(draw, fractional=False):
    """bin_tuples; truths up to top + 20, so some clamp, integers unless
    fractional."""
    bins = draw(bin_tuples())
    top = bins[-1].hi
    ys = draw(st.lists(st.floats(0, top + 20) if fractional else st.integers(0, top + 20), max_size=80))
    y_hats = draw(st.lists(st.floats(-10, top + 30), min_size=len(ys), max_size=len(ys)))
    return Partition(bins, 0.0, 0.5, LikelihoodKind.MULTINOMIAL), ys, y_hats


def scan(bins, count):
    """Reference locate: the first bin with count <= hi, else the last bin
    flagged as clamped; None below the range."""
    if count < bins[0].lo:
        return None
    return next(((k, False) for k, b in enumerate(bins) if count <= b.hi), (len(bins) - 1, True))


def scanned_losses(ys, y_hats, bins, lambda1):
    """(scalar_interval_loss, bin) of each pair at scan's bin."""
    out = []
    for y, y_hat in zip(ys, y_hats):
        b = bins[scan(bins, y)[0]]
        out.append((scalar_interval_loss(y, y_hat, b.lo, b.hi, lambda1), b))
    return out


def array_routed_losses(ys, y_hats, bins, lambda1):
    """(loss, bin) of each pair from routed_edges and interval_losses."""
    idx, los, his = routed_edges(bins, ys)
    losses = interval_losses(ys, y_hats, los, his, lambda1)
    return list(zip(losses.tolist(), [bins[k] for k in idx.tolist()]))


@given(cases(), st.floats(0, 5))
def test_array_locate_matches_scan(case, lambda1):
    part, ys, y_hats = case
    bins = part.bins
    want = [scan(bins, y) for y in ys]

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
    # evaluate rejects the generated lists whose bins are all empty
    ys_col = np.array(ys, dtype=np.int64)
    assert _per_bin(ys_col, np.abs(ys_col - np.array(y_hats, dtype=float)), part) == [
        BinStats(b, len(e), float(np.asarray(e).mean()), float(np.asarray(e).std()))
        if e
        else BinStats(b, 0, None, None)
        for b, e in zip(bins, errors)
    ]

    losses = scanned_losses(ys, y_hats, bins, lambda1)
    assert array_routed_losses(ys, y_hats, bins, lambda1) == losses
    assert [routed_bin_loss(y, y_hat, bins, lambda1) for y, y_hat in zip(ys, y_hats)] == losses


@example((Bin(0, 10), Bin(11, 20)), 10.5)
@example((Bin(0, 10), Bin(11, 20)), 20.5)
@example((Bin(0, 10), Bin(11, 20)), -0.5)
@given(bin_tuples(), st.one_of(st.integers(-5, 90), st.floats(-5, 90)))
def test_locate_bin_matches_linear_scan(bins, count):
    want = scan(bins, count)
    if want is None:
        with pytest.raises(RangeError):
            locate_bin(bins, count)
    else:
        assert locate_bin(bins, count) == want


@example((Partition((Bin(0, 10), Bin(11, 20)), 0.0, 0.5, LikelihoodKind.MULTINOMIAL), [10.5], [12.0]), 1.0)
@given(cases(fractional=True), st.floats(0, 5))
def test_fractional_truths_route_alike(case, lambda1):
    # fractional truths (e.g. density-map sums) reach the loss routes, which
    # must not truncate them
    part, ys, y_hats = case
    bins = part.bins
    want = [scan(bins, y) for y in ys]
    idx, clamped = locate_bins(bins, ys)
    assert list(zip(idx.tolist(), clamped.tolist())) == want
    assert [locate_bin(bins, y) for y in ys] == want
    losses = scanned_losses(ys, y_hats, bins, lambda1)
    assert array_routed_losses(ys, y_hats, bins, lambda1) == losses
    assert [routed_bin_loss(y, y_hat, bins, lambda1) for y, y_hat in zip(ys, y_hats)] == losses


def test_fractional_truth_routes_above_lower_bin():
    bins = (Bin(0, 10), Bin(11, 20))
    want = (math.log1p(1.5), Bin(11, 20))  # 10.5 lies above [0, 10]
    assert routed_bin_loss(10.5, 12.0, bins) == want
    assert array_routed_losses([10.5], [12.0], bins, 1.0) == [want]


@pytest.mark.parametrize("ys", [[math.nan], [3, math.nan], np.array([1.0, math.nan])])
def test_nan_truth_rejected_by_every_route(ys):
    # the scalar and array locates must not route a NaN truth to different bins
    bins = (Bin(0, 10), Bin(11, 20))
    with pytest.raises(RangeError, match="count nan is not a number"):
        locate_bins(bins, ys)
    with pytest.raises(RangeError, match="count nan is not a number"):
        routed_edges(bins, ys)
    with pytest.raises(RangeError, match="count nan is not a number"):
        locate_bin(bins, math.nan)
    with pytest.raises(RangeError, match="count nan is not a number"):
        routed_bin_loss(math.nan, 1.0, bins)
