"""Balanced, seeded minibatch plans over bin-assigned training samples.

Both schemes draw without replacement until the whole training set is
consumed, so one plan is exactly one epoch. Round-robin (RR) cycles the
bins in order, drawing one random unused sample per visit; random-bin (RS)
picks a non-exhausted bin uniformly at each step. Randomness comes from
NumPy's PCG64 generator seeded explicitly, so plans are reproducible.

An RS plan does not call ``Generator.integers`` per step: it reads the raw
PCG64 outputs itself and repeats what ``integers(b)`` does with them, so
its stream depends on two numpy internals. One is PCG64's 32-bit order:
each 64-bit output gives its low half, then its high half. The other is
Lemire's bounded method, which ``Generator.integers`` uses for bounds up to
2**32. The reader's property test against ``integers`` and the pinned plan
digests in the tests catch a change to either.
"""

from __future__ import annotations

import enum
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .counts import CountRecord, record_counts
from .errors import ValidationError
from .stratify import Partition, locate_bins


class SamplingScheme(enum.Enum):
    RR = "rr"
    RS = "rs"


@dataclass(frozen=True)
class BinAssignment:
    """Training ids grouped by the bin containing their count."""

    by_bin: tuple[tuple[str, ...], ...]
    clamped_ids: tuple[str, ...] = ()

    @property
    def total(self) -> int:
        return sum(len(ids) for ids in self.by_bin)


@dataclass(frozen=True)
class BatchPlan:
    """One epoch of minibatches; concatenated batches cover every id once."""

    batches: tuple[tuple[str, ...], ...]
    batch_size: int
    seed: int
    scheme: SamplingScheme


def assign_bins(records: list[CountRecord], partition: Partition) -> BinAssignment:
    """assign_columns of the records' ids and counts."""
    return assign_columns([rec.id for rec in records], record_counts(records), partition)


def assign_columns(ids: list[str], counts: np.ndarray, partition: Partition) -> BinAssignment:
    """Route each id into the bin containing its count (counts[i] is the
    count of ids[i]).

    Counts above the partition range land in the last bin and are reported
    through clamped_ids.
    """
    idx, clamped = locate_bins(partition.bins, counts)
    order = np.argsort(idx, kind="stable")  # keeps input order within a bin
    grouped = [ids[i] for i in order.tolist()]
    ends = np.cumsum(np.bincount(idx, minlength=len(partition.bins))).tolist()
    by_bin = tuple(tuple(grouped[a:b]) for a, b in zip([0, *ends], ends))
    return BinAssignment(by_bin, tuple(ids[i] for i in np.flatnonzero(clamped).tolist()))


def _validated(assignment: BinAssignment, batch_size: int) -> None:
    if batch_size < 1:
        raise ValidationError(f"batch_size must be >= 1, got {batch_size}")
    if assignment.total < 1:
        raise ValidationError("assignment holds no samples")


_MAX_BOUND = 1 << 32  # the 32-bit Lemire path of Generator.integers
_REFILL = 1024  # raw outputs per refill, so a refill's list stays small


def _bounded_draws(seed: int, bound: int) -> Callable[[int], int]:
    """Return draw(b) for 1 <= b <= bound: called again and again, it returns
    what int(rng.integers(b)) returns call after call for
    rng = Generator(PCG64(seed)). The generator is private, so reading
    _REFILL raw outputs ahead changes no value it returns.
    """
    if bound > _MAX_BOUND:
        raise ValidationError(f"uniform draws need a bound of at most 2**32, got {bound}")
    bitgen = np.random.PCG64(seed)
    take = iter(()).__next__

    def draw(b: int) -> int:
        nonlocal take
        if b == 1:
            return 0  # numpy draws nothing for a one-value range
        while True:
            try:
                m = take() * b
            except StopIteration:
                # little-endian halves of each raw output: low first, as next_uint32
                take = iter(bitgen.random_raw(_REFILL).astype("<u8").view("<u4").tolist()).__next__
                continue
            low = m & 0xFFFFFFFF
            # Lemire: reject low < (2**32 - b) % b, which is below b
            if low >= b or low >= (_MAX_BOUND - b) % b:
                return m >> 32

    return draw


def _draw(bucket: list[str], j: int) -> str:
    # swap-pop: uniform over remaining when j is, O(1)
    bucket[j], bucket[-1] = bucket[-1], bucket[j]
    return bucket.pop()


def _as_plan(draws: list[str], batch_size: int, seed: int, scheme: SamplingScheme) -> BatchPlan:
    batches = tuple(
        tuple(draws[i : i + batch_size]) for i in range(0, len(draws), batch_size)
    )
    return BatchPlan(batches, batch_size, seed, scheme)


def plan_epoch_rr(assignment: BinAssignment, batch_size: int, seed: int) -> BatchPlan:
    """Round-robin epoch plan: one draw per bin visit, exhausted bins skipped."""
    _validated(assignment, batch_size)
    sizes = np.array([len(ids) for ids in assignment.by_bin])
    # visit v is bin k's r-th draw; visits run round by round, bins ascending,
    # so each draw's bound (the bucket size then) is known before any draw
    k = np.repeat(np.arange(len(sizes)), sizes)
    r = np.arange(len(k)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    visits = np.argsort(r, kind="stable")
    bins, highs = k[visits], (sizes[k] - r)[visits]
    rng = np.random.Generator(np.random.PCG64(seed))
    # one bulk draw gives the same PCG64 stream as a scalar draw per visit
    picks = rng.integers(0, highs)
    remaining = [list(ids) for ids in assignment.by_bin]
    draws = [_draw(remaining[b], j) for b, j in zip(bins.tolist(), picks.tolist())]
    return _as_plan(draws, batch_size, seed, SamplingScheme.RR)


def plan_epoch_rs(assignment: BinAssignment, batch_size: int, seed: int) -> BatchPlan:
    """Random-bin epoch plan: uniform over non-exhausted bins at every step."""
    _validated(assignment, batch_size)
    total = assignment.total
    draw = _bounded_draws(seed, total)  # no bound exceeds total
    remaining = [list(ids) for ids in assignment.by_bin]
    nonempty = [i for i, bucket in enumerate(remaining) if bucket]  # ascending
    draws: list[str] = []
    for _ in range(total):
        at = draw(len(nonempty))
        bucket = remaining[nonempty[at]]
        draws.append(_draw(bucket, draw(len(bucket))))
        if not bucket:
            del nonempty[at]  # O(B), once per bin
    return _as_plan(draws, batch_size, seed, SamplingScheme.RS)


def plan_epoch(assignment: BinAssignment, batch_size: int, seed: int, scheme: SamplingScheme) -> BatchPlan:
    if scheme is SamplingScheme.RR:
        return plan_epoch_rr(assignment, batch_size, seed)
    if scheme is SamplingScheme.RS:
        return plan_epoch_rs(assignment, batch_size, seed)
    raise ValidationError(f"unknown scheme {scheme!r}")


def plan_to_json_dict(plan: BatchPlan) -> dict:
    return {
        "scheme": plan.scheme.value,
        "batch_size": plan.batch_size,
        "seed": plan.seed,
        "batches": [list(b) for b in plan.batches],
    }
