"""Count annotations and count histograms.

Ingests per-sample ground-truth people counts from CSV and aggregates them
into frequency histograms over the closed count range [0, C], with optional
additive smoothing to densify sparse tails.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

from .errors import ParseError, ValidationError

CSV_HEADER = ("id", "count")


@dataclass(frozen=True)
class CountRecord:
    """One annotated sample: an opaque id and its ground-truth count."""

    id: str
    count: int

    def __post_init__(self):
        if self.count < 0:
            raise ValidationError(f"count must be >= 0, got {self.count} for id {self.id!r}")


@dataclass(frozen=True)
class CountHistogram:
    """Frequencies of integer counts over [0, max_count].

    ``freqs[c]`` is the number of samples with count ``c`` plus any additive
    smoothing already applied (recorded in ``smoothing_beta``).
    """

    max_count: int
    freqs: tuple[int, ...]
    smoothing_beta: int = 0

    def __post_init__(self):
        if self.max_count < 0:
            raise ValidationError("max_count must be >= 0")
        if len(self.freqs) != self.max_count + 1:
            raise ValidationError(
                f"freqs must have length max_count+1 = {self.max_count + 1}, got {len(self.freqs)}"
            )
        if any(f < 0 for f in self.freqs):
            raise ValidationError("frequencies must be non-negative")
        if self.smoothing_beta < 0:
            raise ValidationError("smoothing_beta must be >= 0")
        if self.smoothing_beta > 0 and any(f < self.smoothing_beta for f in self.freqs):
            raise ValidationError("smoothed histogram must have every cell >= smoothing_beta")

    @property
    def total(self) -> int:
        return sum(self.freqs)

    @property
    def support(self) -> tuple[int, ...]:
        """Counts with nonzero frequency, ascending. These are the cells the
        partitioner may place split points between."""
        return tuple(c for c, f in enumerate(self.freqs) if f > 0)


def ingest_counts(text: str) -> list[CountRecord]:
    """Parse CSV content with header ``id,count`` into count records.

    Raises ParseError on malformed rows (naming the line number) and
    ValidationError on duplicate ids or negative counts.
    """
    reader = csv.reader(io.StringIO(text.lstrip("﻿")))
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError("line 1: missing header 'id,count'") from None
    if tuple(h.strip() for h in header) != CSV_HEADER:
        raise ParseError(f"line 1: expected header 'id,count', got {','.join(header)!r}")

    records: list[CountRecord] = []
    seen: set[str] = set()
    for row in reader:
        lineno = reader.line_num
        if not row:
            continue
        if len(row) != 2:
            raise ParseError(f"line {lineno}: expected 2 fields, got {len(row)}")
        sample_id, raw = row[0], row[1].strip()
        if not sample_id:
            raise ParseError(f"line {lineno}: empty id")
        try:
            count = int(raw)
        except ValueError:
            raise ParseError(f"line {lineno}: count {raw!r} is not an integer") from None
        if count < 0:
            raise ValidationError(f"line {lineno}: negative count {count} for id {sample_id!r}")
        if sample_id in seen:
            raise ValidationError(f"line {lineno}: duplicate id {sample_id!r}")
        seen.add(sample_id)
        records.append(CountRecord(sample_id, count))
    return records


def build_histogram(records: list[CountRecord], max_count_override: int | None = None) -> CountHistogram:
    """Aggregate records into an unsmoothed histogram over [0, C].

    C is the maximum observed count, or ``max_count_override`` when that is
    given and at least as large (so validation/test data can be binned
    against a training-range histogram).
    """
    if not records and max_count_override is None:
        raise ValidationError("need at least one record or an explicit max_count_override")
    observed_max = max((r.count for r in records), default=0)
    if max_count_override is not None:
        if records and max_count_override < observed_max:
            raise ValidationError(
                f"max_count_override {max_count_override} is below the max observed count {observed_max}"
            )
        max_count = max_count_override
    else:
        max_count = observed_max
    freqs = [0] * (max_count + 1)
    for r in records:
        freqs[r.count] += 1
    return CountHistogram(max_count, tuple(freqs), smoothing_beta=0)


def smooth(hist: CountHistogram, beta: int = 1) -> CountHistogram:
    """Additively smooth: add ``beta`` to every cell across [0, C]."""
    if beta < 0:
        raise ValidationError("beta must be >= 0")
    if beta == 0:
        return hist
    return CountHistogram(
        hist.max_count,
        tuple(f + beta for f in hist.freqs),
        smoothing_beta=hist.smoothing_beta + beta,
    )
