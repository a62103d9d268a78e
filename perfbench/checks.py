"""Independent checks of every output the workloads produce.

Each check returns a list of problems (empty when the output is correct).
Bin membership is recomputed with ``np.searchsorted`` on the bins' upper
edges rather than through the library's ``locate_bin``; the partition score
is recomputed with the library's ``partition_log_score`` so it must match
the written ``map_score`` exactly.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

REL_TOL = 1e-9


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b)) + 1e-12


def read_ids_counts(path: Path) -> tuple[list[str], np.ndarray]:
    lines = path.read_text(encoding="utf-8").splitlines()[1:]
    ids, counts = zip(*(line.split(",") for line in lines))
    return list(ids), np.array(counts, dtype=np.int64)


def read_preds(path: Path) -> tuple[list[str], np.ndarray, np.ndarray]:
    lines = path.read_text(encoding="utf-8").splitlines()[1:]
    ids, y, y_hat = zip(*(line.split(",") for line in lines))
    return list(ids), np.array(y, dtype=np.int64), np.array(y_hat, dtype=np.float64)


def bin_edges(doc: dict) -> tuple[np.ndarray, np.ndarray]:
    return (
        np.array([b["lo"] for b in doc["bins"]], dtype=np.int64),
        np.array([b["hi"] for b in doc["bins"]], dtype=np.int64),
    )


def bin_index(his: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Bin of each value; values above the range clamp into the last bin."""
    return np.minimum(np.searchsorted(his, values, side="left"), len(his) - 1)


def check_partition(path: Path, counts: np.ndarray, gammas: tuple[float, ...] | None) -> list[str]:
    """Bins contiguous over [0, max count]; gamma on the grid when tuned;
    map_score equal to the library's score of the smoothed histogram."""
    from countstrat import Bin, CountHistogram, LikelihoodKind, Partition, PriorConfig, partition_log_score

    doc = json.loads(path.read_text(encoding="utf-8"))
    problems = []
    los, his = bin_edges(doc)
    top = int(counts.max())
    if len(los) == 0 or los[0] != 0 or his[-1] != top or np.any(los[1:] != his[:-1] + 1) or np.any(his < los):
        problems.append(f"{path.name}: bins are not contiguous over [0, {top}]")
        return problems
    if gammas is not None and doc["gamma"] not in gammas:
        problems.append(f"{path.name}: gamma {doc['gamma']} is not on the grid")
    freqs = np.bincount(counts, minlength=top + 1) + doc["beta"]
    if doc["alpha"] != int(np.count_nonzero(freqs)):
        problems.append(f"{path.name}: alpha {doc['alpha']} is not the smoothed cell count")
    hist = CountHistogram(top, tuple(int(f) for f in freqs), doc["beta"])
    kind = LikelihoodKind(doc["likelihood"])
    part = Partition(tuple(Bin(int(a), int(b)) for a, b in zip(los, his)), doc["map_score"], doc["gamma"], kind)
    score = partition_log_score(hist, part, PriorConfig(doc["gamma"], doc["alpha"]), kind)
    if score != doc["map_score"]:
        problems.append(f"{path.name}: map_score {doc['map_score']!r} != recomputed {score!r}")
    return problems


def _round_robin_ok(draw_bins: np.ndarray, occupancy: np.ndarray) -> bool:
    """Draws visit the non-exhausted bins in index order, round after round."""
    remaining = occupancy.copy()
    active = [b for b in range(len(remaining)) if remaining[b]]
    pos = 0
    seq = draw_bins.tolist()
    while active:
        still = []
        for b in active:
            if seq[pos] != b:
                return False
            pos += 1
            remaining[b] -= 1
            if remaining[b]:
                still.append(b)
        active = still
    return pos == len(seq)


def check_plan(
    path: Path, ids: list[str], counts: np.ndarray, partition: dict, scheme: str, batch_size: int, seed: int
) -> list[str]:
    """Every id exactly once, full batches but the last, and for rr the
    round-robin bin order."""
    doc = json.loads(path.read_text(encoding="utf-8"))
    problems = []
    if (doc["scheme"], doc["batch_size"], doc["seed"]) != (scheme, batch_size, seed):
        problems.append(f"{path.name}: header {doc['scheme']}/{doc['batch_size']}/{doc['seed']} is wrong")
    sizes = [len(b) for b in doc["batches"]]
    if not sizes or any(s != batch_size for s in sizes[:-1]) or not 1 <= sizes[-1] <= batch_size:
        problems.append(f"{path.name}: batch sizes are wrong")
    drawn = [i for batch in doc["batches"] for i in batch]
    if len(drawn) != len(ids) or set(drawn) != set(ids):
        problems.append(f"{path.name}: ids are not each drawn exactly once")
        return problems
    if scheme == "rr":
        _, his = bin_edges(partition)
        count_of = dict(zip(ids, counts.tolist()))
        draw_bins = bin_index(his, np.array([count_of[i] for i in drawn]))
        occupancy = np.bincount(bin_index(his, counts), minlength=len(his))
        if not _round_robin_ok(draw_bins, occupancy):
            problems.append(f"{path.name}: draws do not follow round-robin over non-exhausted bins")
    return problems


def check_loss(path: Path, preds: tuple, partition: dict) -> list[str]:
    """One row per prediction, in order, with its bin and its loss."""
    ids, y, y_hat = preds
    lines = path.read_text(encoding="utf-8").splitlines()
    if lines[0] != "id,y,y_hat,bin_lo,bin_hi,bin_loss" or len(lines) != len(ids) + 1:
        return [f"{path.name}: header or row count is wrong"]
    rows = [line.split(",") for line in lines[1:]]
    got_ids, got_y, got_hat, got_lo, got_hi, got_loss = zip(*rows)
    los, his = bin_edges(partition)
    idx = bin_index(his, y)
    lo, hi = los[idx], his[idx]
    err = np.abs(y - y_hat)
    want = np.where((lo <= y_hat) & (y_hat <= hi), np.log1p(err), err)
    got = np.array(got_loss, dtype=np.float64)
    problems = []
    if list(got_ids) != ids or np.any(np.array(got_y, dtype=np.int64) != y):
        problems.append(f"{path.name}: ids or ground truths differ from the input")
    if np.any(np.array(got_hat, dtype=np.float64) != y_hat):
        problems.append(f"{path.name}: predictions do not round-trip")
    if np.any(np.array(got_lo, dtype=np.int64) != lo) or np.any(np.array(got_hi, dtype=np.int64) != hi):
        problems.append(f"{path.name}: bin bounds differ from searchsorted")
    bad = np.abs(got - want) > REL_TOL * np.maximum(np.abs(got), np.abs(want)) + 1e-12
    if np.any(bad):
        problems.append(f"{path.name}: {int(bad.sum())} loss values differ by more than {REL_TOL} relative")
    return problems


def _per_bin(y: np.ndarray, y_hat: np.ndarray, his: np.ndarray) -> list[tuple[int, float | None, float | None]]:
    idx = bin_index(his, y)
    err = np.abs(y - y_hat)
    order = np.argsort(idx, kind="stable")
    n = np.bincount(idx, minlength=len(his))
    out = []
    start = 0
    for k in n.tolist():
        chunk = err[order[start : start + k]]
        start += k
        out.append((k, float(chunk.mean()), float(chunk.std())) if k else (0, None, None))
    return out


def check_eval(report_path: Path, plot_path: Path, preds: tuple, partition: dict) -> list[str]:
    """Per-bin n/MAE/std, pooled and global statistics, in JSON and CSV."""
    _, y, y_hat = preds
    doc = json.loads(report_path.read_text(encoding="utf-8"))
    los, his = bin_edges(partition)
    stats = _per_bin(y, y_hat, his)
    err = np.abs(y - y_hat)
    n_total = len(y)
    pooled_mae = sum(k * m for k, m, _ in stats if k) / n_total
    pooled_std = math.sqrt(sum(k * s * s for k, _, s in stats if k) / n_total)
    want = {
        "n_total": n_total,
        "pooled_mae": pooled_mae,
        "pooled_std": pooled_std,
        "global_mae": float(err.mean()),
        "global_std": float(err.std()),
    }
    problems = []
    for key, value in want.items():
        if not _close(doc[key], value):
            problems.append(f"{report_path.name}: {key} {doc[key]!r} != {value!r}")
    rows = [(int(lo), int(hi)) + s for lo, hi, s in zip(los, his, stats)]
    got = [(b["lo"], b["hi"], b["n"], b["mae"], b["std"]) for b in doc["per_bin"]]
    plot = [line.split(",") for line in plot_path.read_text(encoding="utf-8").splitlines()[1:]]
    plot_bins = [
        (int(lo), int(hi), int(k), float(m) if m else None, float(s) if s else None)
        for lo, hi, k, m, s in plot[:-2]
    ]
    for name, table in ((report_path.name, got), (plot_path.name, plot_bins)):
        if len(table) != len(rows) or any(not _row_ok(a, b) for a, b in zip(table, rows)):
            problems.append(f"{name}: per-bin rows differ from the recomputation")
    trailer = [(r[0], int(r[2]), float(r[3]), float(r[4])) for r in plot[-2:]]
    want_trailer = [("pooled", n_total, pooled_mae, pooled_std), ("global", n_total, want["global_mae"], want["global_std"])]
    if any(t[:2] != w[:2] or not (_close(t[2], w[2]) and _close(t[3], w[3])) for t, w in zip(trailer, want_trailer)):
        problems.append(f"{plot_path.name}: pooled/global rows differ from the recomputation")
    return problems


def _row_ok(got: tuple, want: tuple) -> bool:
    if got[:3] != want[:3]:
        return False
    if want[2] == 0:
        return got[3] is None and got[4] is None
    return _close(got[3], want[3]) and _close(got[4], want[4])


def check_synth(path: Path, seed: int, n_seeds: int, n_test: int) -> list[str]:
    """Seed list, win counts, per-seed pooled stds, and first-seed reports
    whose pooled statistics agree with their own per-bin rows."""
    doc = json.loads(path.read_text(encoding="utf-8"))
    problems = []
    if doc["seeds"] != list(range(seed, seed + n_seeds)):
        problems.append(f"{path.name}: seed list is wrong")
    if sorted(doc["win_counts"]) != ["rr", "rs"] or not all(0 <= w <= n_seeds for w in doc["win_counts"].values()):
        problems.append(f"{path.name}: win counts are wrong")
    for scheme, values in doc["pooled_std_by_seed"].items():
        if len(values) != n_seeds or not all(math.isfinite(v) and v >= 0 for v in values):
            problems.append(f"{path.name}: pooled stds of {scheme} are wrong")
    if sorted(doc["first_seed_reports"]) != ["none", "rr", "rs"]:
        problems.append(f"{path.name}: first-seed reports are missing")
        return problems
    for scheme, rep in doc["first_seed_reports"].items():
        full = [b for b in rep["per_bin"] if b["n"]]
        n = sum(b["n"] for b in full)
        if rep["n_total"] != n_test or n != n_test:
            problems.append(f"{path.name}: {scheme} report counts {n} of {rep['n_total']}, want {n_test}")
            continue
        mae = sum(b["n"] * b["mae"] for b in full) / n
        std = math.sqrt(sum(b["n"] * b["std"] ** 2 for b in full) / n)
        if not (_close(rep["pooled_mae"], mae) and _close(rep["pooled_std"], std)):
            problems.append(f"{path.name}: {scheme} pooled statistics disagree with its bins")
        if doc["pooled_std_by_seed"][scheme][0] != rep["pooled_std"]:
            problems.append(f"{path.name}: {scheme} first pooled std disagrees with its report")
    return problems
