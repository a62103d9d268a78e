"""Count annotations and count histograms.

Ingests per-sample ground-truth people counts from CSV and aggregates them
into frequency histograms over the closed count range [0, C], with optional
additive smoothing to densify sparse tails.

CSV inputs are read as columns: a list of ids plus one int64 or float64
array per numeric field. count_columns, and prediction_columns in evaluate,
first try _plain_columns: plain text, with no quote, carriage return or NUL
and no line over the csv module's field size limit, is split with str
methods and its fields converted by the same int/float calls the row loop
makes. Any other text, and any text that fails a check on the way, is read
again by the format's csv_rows loop, which is the only parser of quoted or
CR input and the only source of error messages. Record lists
(ingest_counts) are built from the columns.
"""

from __future__ import annotations

import csv
import io
import itertools
from dataclasses import dataclass

import numpy as np

from .errors import ParseError, ValidationError

CSV_HEADER = ("id", "count")

MAX_COUNT = 1_000_000  # histograms are dense over [0, C]: reject a huge count, never allocate it


def is_integer(value) -> bool:
    """Whether value is an int or a numpy integer (not a float, not a bool)."""
    return type(value) is int or isinstance(value, np.integer)


def check_integer(name: str, value, least: int, most: int | None = None) -> None:
    """Raise ValidationError naming ``name`` unless value is an integer
    (is_integer) of at least ``least`` and, if given, at most ``most``."""
    if not is_integer(value):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValidationError(f"{name} must be >= {least}, got {value}")
    if most is not None and value > most:
        raise ValidationError(f"{name} must be <= {most}, got {value}")


@dataclass(frozen=True)
class CountRecord:
    """One annotated sample: an opaque id and its ground-truth count."""

    id: str
    count: int

    def __post_init__(self):
        if not is_integer(self.count) or not 0 <= self.count <= MAX_COUNT:
            raise ValidationError(f"count must be an integer in [0, {MAX_COUNT}], got {self.count} for id {self.id!r}")


@dataclass(frozen=True)
class CountHistogram:
    """Integer frequencies of integer counts over [0, max_count].

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
        if not all(is_integer(f) and f >= 0 for f in self.freqs):
            raise ValidationError("frequencies must be non-negative integers")
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
    reader = csv.reader(io.StringIO(text.lstrip("\ufeff")))
    expected = ",".join(header)
    try:
        first = next(reader, None)
        if first is None:
            raise ParseError(f"line 1: missing header '{expected}'")
        if tuple(h.strip() for h in first) != header:
            raise ParseError(f"line 1: expected header '{expected}', got {','.join(first)!r}")
        n_fields = len(header)
        for row in reader:
            if not row:
                continue
            if len(row) != n_fields:
                raise ParseError(f"line {reader.line_num}: expected {n_fields} fields, got {len(row)}")
            if not row[0]:
                raise ParseError(f"line {reader.line_num}: empty id")
            yield reader.line_num, row
    except csv.Error as exc:  # e.g. a field over the csv module's size limit
        raise ParseError(f"line {reader.line_num}: {exc}") from None


_DTYPES = {int: np.int64, float: np.float64}


def _plain_columns(text: str, header: tuple[str, ...], kinds: tuple[type, ...]) -> tuple | None:
    """(ids, one array per field after the id, converted by ``kinds``) of
    plain CSV text with ``header``, or None where csv_rows must read it."""
    # without a quote, CR or NUL a csv row is its line split at commas, and
    # csv_rows skips only empty lines; no per-row list or tuple is built
    if '"' in text or "\r" in text or "\0" in text:
        return None
    lines = text.lstrip("\ufeff").split("\n")
    if max(map(len, lines)) >= csv.field_size_limit():
        return None
    if tuple(h.strip() for h in lines[0].split(",")) != header:
        return None
    body = [line for line in lines[1:] if line]
    k = len(header)
    if not body or set(map(str.count, body, itertools.repeat(","))) != {k - 1}:
        return None
    fields = ",".join(body).split(",")
    ids = fields[0::k]
    if "" in ids:
        return None
    try:
        arrays = [np.fromiter(map(kind, fields[j::k]), _DTYPES[kind], len(body)) for j, kind in enumerate(kinds, 1)]
    except (ValueError, OverflowError):
        return None
    return (ids, *arrays)


def counts_in_range(counts: np.ndarray) -> bool:
    """Whether every count of a non-empty column lies in [0, MAX_COUNT]."""
    return bool(0 <= counts.min() and counts.max() <= MAX_COUNT)


def count_columns(text: str) -> tuple[list[str], np.ndarray]:
    """Parse CSV content with header ``id,count`` into (ids, int64 counts).

    Raises ParseError on malformed rows or counts above MAX_COUNT (naming
    the line number) and ValidationError on duplicate ids or negative counts.
    """
    columns = _plain_columns(text, CSV_HEADER, (int,))
    if columns is not None and counts_in_range(columns[1]) and len(set(columns[0])) == len(columns[0]):
        return columns
    return _count_rows(text)


def ingest_counts(text: str) -> list[CountRecord]:
    """count_columns as a list of count records."""
    ids, counts = count_columns(text)
    return list(map(CountRecord, ids, counts.tolist()))


def _count_rows(text: str) -> tuple[list[str], np.ndarray]:
    ids: list[str] = []
    counts: list[int] = []
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
        ids.append(sample_id)
        counts.append(count)
    return ids, np.array(counts, dtype=np.int64)


def record_counts(records: list[CountRecord]) -> np.ndarray:
    """The records' counts as one int64 column, in record order."""
    return np.fromiter((r.count for r in records), np.int64, len(records))


def count_histogram(counts: np.ndarray) -> CountHistogram:
    """Unsmoothed histogram over [0, C] of an int64 count column, where C is
    its maximum, from one bincount."""
    if not len(counts):
        raise ValidationError("need at least one record")
    if not counts_in_range(counts):
        raise ValidationError(f"counts must lie in [0, {MAX_COUNT}], got {counts.min()} to {counts.max()}")
    freqs = np.bincount(counts)
    return CountHistogram(len(freqs) - 1, tuple(freqs.tolist()), smoothing_beta=0)


def build_histogram(records: list[CountRecord]) -> CountHistogram:
    """Aggregate records into an unsmoothed histogram over [0, C], where C
    is the maximum observed count."""
    return count_histogram(record_counts(records))


def smooth(hist: CountHistogram, beta: int = 1) -> CountHistogram:
    """Additively smooth: add ``beta`` to every cell across [0, C]."""
    check_integer("beta", beta, 0)
    if beta == 0:
        return hist
    return CountHistogram(
        hist.max_count,
        tuple(f + beta for f in hist.freqs),
        smoothing_beta=hist.smoothing_beta + beta,
    )
