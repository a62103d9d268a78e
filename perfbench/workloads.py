"""Seeded inputs and CLI call sequences of the four benchmark workloads.

Every workload is a fixed sequence of ``countstrat`` subcommands over files
generated from the workload seed. The program under test only ever sees the
generated files; the benchmark never passes it the seed except where the
subcommand itself takes one (``plan --seed``, ``synth --seed``).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Distinct stream per workload, so inputs of one workload do not depend on
# which other workloads exist.
_STREAM = {"tune-wide": 1, "tune-tall": 2, "epoch": 3, "train": 4}

BATCH_SIZE = 32


@dataclass(frozen=True)
class Sizes:
    """Input sizes; FULL is the benchmark, TINY the smoke test."""

    wide_n: int
    wide_cap: int
    tall_n: int
    tall_cap: int
    epoch_n: int
    epoch_fit_n: int
    cv_seeds: int
    synth_seeds: int
    synth_samples: int
    synth_epochs: int


FULL = Sizes(
    wide_n=5_000,
    wide_cap=2_000,
    tall_n=50_000,
    tall_cap=300,
    epoch_n=100_000,
    epoch_fit_n=5_000,
    cv_seeds=10,
    synth_seeds=10,
    synth_samples=800,
    synth_epochs=20,
)

TINY = Sizes(
    wide_n=300,
    wide_cap=200,
    tall_n=2_000,
    tall_cap=40,
    epoch_n=2_000,
    epoch_fit_n=300,
    cv_seeds=2,
    synth_seeds=2,
    synth_samples=120,
    synth_epochs=2,
)


@dataclass(frozen=True)
class Call:
    """One CLI invocation: its metric name, argv after ``countstrat``, and
    the output files it writes (relative to the work directory)."""

    name: str
    argv: tuple[str, ...]
    outputs: tuple[str, ...]


def lognormal_counts(rng: np.random.Generator, n: int, mu: float, sigma: float, cap: int) -> np.ndarray:
    """round(lognormal(mu, sigma)) clamped at cap."""
    return np.minimum(np.rint(rng.lognormal(mu, sigma, size=n)).astype(np.int64), cap)


def _ids(n: int) -> list[str]:
    return [f"r{i:06d}" for i in range(n)]


def write_counts(path: Path, ids: list[str], counts: np.ndarray) -> None:
    rows = "".join(f"{i},{c}\n" for i, c in zip(ids, counts.tolist()))
    path.write_text("id,count\n" + rows, encoding="utf-8")


def write_preds(path: Path, ids: list[str], y: np.ndarray, y_hat: np.ndarray) -> None:
    rows = "".join(f"{i},{a},{b!r}\n" for i, a, b in zip(ids, y.tolist(), y_hat.tolist()))
    path.write_text("id,count_true,count_pred\n" + rows, encoding="utf-8")


def generate(workload: str, seed: int, sizes: Sizes, work: Path) -> tuple[Call, ...]:
    """Write the workload's input files into ``work`` and return its fit-free
    call sequence. For ``epoch`` the fixed partition is fitted separately,
    see ``setup_calls``."""
    rng = np.random.default_rng([seed, _STREAM[workload]])
    if workload in ("tune-wide", "tune-tall"):
        if workload == "tune-wide":
            counts = lognormal_counts(rng, sizes.wide_n, 5.0, 1.2, sizes.wide_cap)
        else:
            counts = lognormal_counts(rng, sizes.tall_n, 3.0, 1.0, sizes.tall_cap)
        write_counts(work / "counts.csv", _ids(len(counts)), counts)
        argv = ("bin", "counts.csv", "--cv-seeds", str(sizes.cv_seeds), "-o", "partition.json")
        return (Call("bin", argv, ("partition.json",)),)
    if workload == "epoch":
        y = lognormal_counts(rng, sizes.epoch_n, 5.0, 1.2, sizes.wide_cap)
        y_hat = y * (1.0 + 0.15 * rng.standard_normal(sizes.epoch_n))
        ids = _ids(sizes.epoch_n)
        write_counts(work / "counts.csv", ids, y)
        write_counts(work / "fit.csv", ids[: sizes.epoch_fit_n], y[: sizes.epoch_fit_n])
        write_preds(work / "preds.csv", ids, y, y_hat)
        plan = ("counts.csv", "partition.json", "--batch-size", str(BATCH_SIZE), "--seed", str(seed))
        return (
            Call("plan_rr", ("plan",) + plan + ("--scheme", "rr", "-o", "plan_rr.json"), ("plan_rr.json",)),
            Call("plan_rs", ("plan",) + plan + ("--scheme", "rs", "-o", "plan_rs.json"), ("plan_rs.json",)),
            Call("loss", ("loss", "preds.csv", "partition.json", "-o", "loss.csv"), ("loss.csv",)),
            Call(
                "eval",
                ("eval", "preds.csv", "partition.json", "-o", "report.json", "--plot-csv", "plot.csv"),
                ("report.json", "plot.csv"),
            ),
        )
    if workload == "train":
        argv = ("synth", "--seed", str(seed), "--seeds", str(sizes.synth_seeds))
        argv += ("--n-samples", str(sizes.synth_samples), "--epochs", str(sizes.synth_epochs), "-o", "synth.json")
        return (Call("synth", argv, ("synth.json",)),)
    raise ValueError(f"unknown workload {workload!r}")


def setup_calls(workload: str) -> tuple[Call, ...]:
    """CLI calls that belong to set-up rather than to the measured sequence."""
    if workload == "epoch":
        return (Call("fit", ("bin", "fit.csv", "--no-tune", "--gamma", "0.1", "-o", "partition.json"), ("partition.json",)),)
    return ()


WORKLOADS = tuple(_STREAM)
