"""Count annotations and count histograms.

Ingests per-sample ground-truth people counts from CSV and aggregates them
into frequency histograms over the closed count range [0, C], with optional
additive smoothing to densify sparse tails.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

from .errors import ParseError, ValidationError

CSV_HEADER = ("id", "count")

MAX_COUNT = 1_000_000  # histograms are dense over [0, C]: reject a huge count, never allocate it


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


def csv_rows(text: str, header: tuple[str, ...]):
    """Yield (line number, row) for every non-blank data row of CSV text after
    the shared checks: optional leading BOM, exact header, field count and a
    non-empty first-field id. Raises ParseError naming the line."""
    reader = csv.reader(io.StringIO(text.lstrip("﻿")))
    rows = _checked(reader)
    expected = ",".join(header)
    try:
        first = next(rows)
    except StopIteration:
        raise ParseError(f"line 1: missing header '{expected}'") from None
    if tuple(h.strip() for h in first) != header:
        raise ParseError(f"line 1: expected header '{expected}', got {','.join(first)!r}")
    n_fields = len(header)
    for row in rows:
        if not row:
            continue
        if len(row) != n_fields:
            raise ParseError(f"line {reader.line_num}: expected {n_fields} fields, got {len(row)}")
        if not row[0]:
            raise ParseError(f"line {reader.line_num}: empty id")
        yield reader.line_num, row


def _checked(reader):
    try:  # csv.Error: e.g. a field over the csv module's size limit
        yield from reader
    except csv.Error as exc:
        raise ParseError(f"line {reader.line_num}: {exc}") from None


def ingest_counts(text: str) -> list[CountRecord]:
    """Parse CSV content with header ``id,count`` into count records.

    Raises ParseError on malformed rows or counts above MAX_COUNT (naming
    the line number) and ValidationError on duplicate ids or negative counts.
    """
    records: list[CountRecord] = []
    seen: set[str] = set()
    for lineno, row in csv_rows(text, CSV_HEADER):
        sample_id, raw = row[0], row[1].strip()
        try:
            count = int(raw)
        except ValueError:
            raise ParseError(f"line {lineno}: count {raw!r} is not an integer") from None
        if count > MAX_COUNT:
            raise ParseError(f"line {lineno}: count {count} exceeds the limit {MAX_COUNT}")
        if count < 0:
            raise ValidationError(f"line {lineno}: negative count {count} for id {sample_id!r}")
        if sample_id in seen:
            raise ValidationError(f"line {lineno}: duplicate id {sample_id!r}")
        seen.add(sample_id)
        records.append(CountRecord(sample_id, count))
    return records


def build_histogram(records: list[CountRecord]) -> CountHistogram:
    """Aggregate records into an unsmoothed histogram over [0, C], where C
    is the maximum observed count."""
    if not records:
        raise ValidationError("need at least one record")
    freqs = np.bincount(np.fromiter((r.count for r in records), np.int64, len(records)))
    return CountHistogram(len(freqs) - 1, tuple(freqs.tolist()), smoothing_beta=0)


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
