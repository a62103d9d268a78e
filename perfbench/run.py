"""Benchmark of the countstrat command line, end to end and per module.

    python3 perfbench/run.py --workload tune-wide --seed 0 --seconds 10 --trace 0

One process drives the CLI as a closed loop: one child at a time, the next
call only after the previous one ended, no threads. Set-up writes the
workload's seeded inputs (and, for ``epoch``, fits the fixed partition),
then the workload's call sequence repeats for ``--seconds`` (at least once;
a repeat starts only if it should end within that time). Every output is checked; for the default seed 0 at full
size the sha256 of every output must also match ``digests.json``.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` instead runs the
sequence once through the CLI, once in-process untraced and once in-process
with countstrat's public functions wrapped (see ``tracing.py``), and reports
the per-module metrics; the spans are written to
``perfbench/_work/<workload>/trace.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
print the same figures for people, plus the per-call times and error rate.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checks
from workloads import BATCH_SIZE, FULL, TINY, WORKLOADS, Call, generate, setup_calls

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
DIGESTS = HERE / "digests.json"

# Set-up repeats at least SETUP_REPEATS times and SETUP_MIN_S seconds, and
# its median is reported, so that one slow moment of a shared machine does
# not read as a regression (short set-ups get more samples).
SETUP_REPEATS = 3
SETUP_MIN_S = 2.0
IMPORT_REPEATS = 3
DEFAULT_GAMMAS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)


class SetupError(Exception):
    pass


def machine_info() -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def run_cli(argv: tuple[str, ...], cwd: Path) -> tuple[float, int, float, str]:
    """Run ``python -m countstrat argv`` in cwd; return (wall seconds, exit
    code, the child's own peak RSS in MB, stderr). The child is reaped with
    os.wait4 so its rusage is its own, not the maximum over all children."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    err_path = cwd / "stderr.txt"
    with open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "countstrat", *argv], cwd=cwd, env=env, stdout=subprocess.DEVNULL, stderr=err
        )
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0, err_path.read_text(errors="replace")


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Run:
    """One workload at one seed and size: its inputs, checks and counters."""

    def __init__(self, workload: str, seed: int, size: str):
        self.workload = workload
        self.seed = seed
        self.sizes = FULL if size == "full" else TINY
        self.work = WORK / workload
        self.reference = json.loads(DIGESTS.read_text())[workload] if size == "full" and seed == 0 else None
        self.calls: tuple[Call, ...] = ()
        self.first_digests: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0

    def set_up(self) -> None:
        """Write inputs, run the set-up calls and warm the CLI (byte-code
        compilation and the file cache belong to set-up, not to the first
        measured call)."""
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.calls = generate(self.workload, self.seed, self.sizes, self.work)
        for call in setup_calls(self.workload) + (Call("warm-up", ("--help",), ()),):
            _, code, _, err = run_cli(call.argv, self.work)
            if code:
                raise SetupError(f"set-up call {' '.join(call.argv)} exited {code}: {err.strip()}")

    def load_inputs(self) -> None:
        """Read back what the checks need (outside any timed region)."""
        w = self.work
        if self.workload.startswith("tune"):
            self.ids, self.counts = checks.read_ids_counts(w / "counts.csv")
        elif self.workload == "epoch":
            self.ids, self.counts = checks.read_ids_counts(w / "counts.csv")
            self.preds = checks.read_preds(w / "preds.csv")
            _, fit_counts = checks.read_ids_counts(w / "fit.csv")
            problems = checks.check_partition(w / "partition.json", fit_counts, (0.1,))
            problems += self._digest_problems(("partition.json",))
            if problems:
                raise SetupError("; ".join(problems))
            self.partition = json.loads((w / "partition.json").read_text())

    def check(self, call: Call) -> list[str]:
        w, name = self.work, call.name
        if name == "bin":
            return checks.check_partition(w / "partition.json", self.counts, DEFAULT_GAMMAS)
        if name in ("plan_rr", "plan_rs"):
            scheme = name[-2:]
            return checks.check_plan(w / f"plan_{scheme}.json", self.ids, self.counts, self.partition, scheme, BATCH_SIZE, self.seed)
        if name == "loss":
            return checks.check_loss(w / "loss.csv", self.preds, self.partition)
        if name == "eval":
            return checks.check_eval(w / "report.json", w / "plot.csv", self.preds, self.partition)
        if name == "synth":
            n_test = math.ceil(0.25 * self.sizes.synth_samples)
            return checks.check_synth(w / "synth.json", self.seed, self.sizes.synth_seeds, n_test)
        raise ValueError(name)

    def _digest_problems(self, outputs: tuple[str, ...]) -> list[str]:
        if self.reference is None:
            return []
        return [
            f"{out}: sha256 {sha256(self.work / out)} != recorded {self.reference.get(out)}"
            for out in outputs
            if sha256(self.work / out) != self.reference.get(out)
        ]

    def _output_problems(self, call: Call) -> list[str]:
        """Full check of the first output; later repeats must repeat its bytes."""
        digest = "".join(sha256(self.work / o) for o in call.outputs)
        if call.name in self.first_digests:
            return [] if digest == self.first_digests[call.name] else ["output bytes differ from the first repeat"]
        problems = self.check(call) + self._digest_problems(call.outputs)
        if not problems:
            self.first_digests[call.name] = digest
        return problems

    def verify(self, call: Call, code: int, err: str) -> None:
        """Count the call, and count it failed on a non-zero exit, a failed
        output check, or output bytes that differ from the first repeat."""
        self.attempted += 1
        if code:
            problems = [f"exit {code}: {err.strip()}"]
        else:
            try:
                problems = self._output_problems(call)
            except Exception as exc:  # a missing or malformed output is a failed call, not a crash
                problems = [f"output check raised {exc!r}"]
        if problems:
            self.failed += 1
            for p in problems:
                print(f"FAILED {call.name}: {p}", file=sys.stderr)


def measure(run: Run, seconds: float) -> dict[str, float]:
    """End-to-end metrics, tracing off."""
    setup: list[float] = []
    while len(setup) < SETUP_REPEATS or sum(setup) < SETUP_MIN_S:
        t0 = time.perf_counter()
        run.set_up()
        setup.append(time.perf_counter() - t0)
    run.load_inputs()
    per_call: dict[str, list[float]] = {c.name: [] for c in run.calls}
    totals, peak_rss = [], 0.0
    start = time.perf_counter()
    # start another repeat only if it should end within the time budget
    while not totals or time.perf_counter() - start + totals[-1] <= seconds:
        total = 0.0
        for call in run.calls:
            wall, code, rss, err = run_cli(call.argv, run.work)
            run.verify(call, code, err)
            per_call[call.name].append(wall)
            total += wall
            peak_rss = max(peak_rss, rss)
        totals.append(total)
    medians = {name: statistics.median(v) for name, v in per_call.items()}
    for name, value in medians.items():
        v = per_call[name]
        print(f"{name}_s {value:.4f} s  (median of {len(v)}; min {min(v):.4f} max {max(v):.4f})")
    return {
        "setup_s": statistics.median(setup),
        "total_s": statistics.median(totals),
        "slowest_call_s": max(medians.values()),
        "fastest_call_s": min(medians.values()),
        "peak_rss_mb": peak_rss,
    }


def _in_process(run: Run, tracer=None) -> dict[str, float]:
    """Run the call sequence through cli.main in this process; wall per call."""
    from countstrat import cli

    times = {}
    cwd = os.getcwd()
    os.chdir(run.work)
    try:
        for call in run.calls:
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    code = cli.main(list(call.argv))
                else:
                    with tracer.span(f"call.{call.name}"):
                        code = cli.main(list(call.argv))
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception as exc:  # counted as a failed call, like a traceback from the CLI
                code = 1
                print(f"{call.name} raised {exc!r}", file=sys.stderr)
            times[call.name] = time.perf_counter() - t0
            run.verify(call, code, "")
    finally:
        os.chdir(cwd)
    return times


def _output_sentinels(run: Run) -> dict[str, float]:
    """Tuning and bin sentinels read from the workload's outputs."""
    w = run.work
    gamma, edge = 0.0, 0
    if run.workload.startswith("tune"):
        doc = json.loads((w / "partition.json").read_text())
        gamma = doc["gamma"]
        edge = int(gamma in (min(DEFAULT_GAMMAS), max(DEFAULT_GAMMAS)))
        _, his = checks.bin_edges(doc)
        n = np.bincount(checks.bin_index(his, run.counts), minlength=len(his)).tolist()
    elif run.workload == "epoch":
        n = [b["n"] for b in json.loads((w / "report.json").read_text())["per_bin"]]
    else:
        n = [b["n"] for b in json.loads((w / "synth.json").read_text())["first_seed_reports"]["rr"]["per_bin"]]
    return {
        "tuning.gamma_best": gamma,
        "tuning.gamma_at_edge": edge,
        "stratify.bins_final": len(n),
        "stratify.occupancy_min": min(n),
        "stratify.occupancy_p50": float(statistics.median(n)),
    }


def trace(run: Run) -> dict[str, float]:
    """Per-module metrics from one traced in-process run of the sequence."""
    from tracing import Tracer

    run.set_up()
    run.load_inputs()
    imports = []
    for _ in range(IMPORT_REPEATS):
        wall, code, _, err = run_cli(("--help",), run.work)
        if code:
            raise SetupError(f"--help exited {code}: {err.strip()}")
        imports.append(wall)
    cli_wall = {}
    for call in run.calls:
        wall, code, _, err = run_cli(call.argv, run.work)
        run.verify(call, code, err)
        cli_wall[call.name] = wall
    untraced = _in_process(run)
    tracer = Tracer(run.workload)
    tracer.install()
    try:
        traced = _in_process(run, tracer)
    finally:
        tracer.uninstall()

    t = tracer
    fits = t.named("stratify.optimal_partition")
    fit_ms = [s.dur * 1e3 for s in fits]
    cells = [s.attrs["cells"] for s in fits]
    plans = t.named("sampling.plan_epoch_rr") + t.named("sampling.plan_epoch_rs")
    locate_calls, locate_s = t.agg("stratify.locate_bin")
    loss_calls = t.agg("loss.routed_bin_loss")[0] + t.agg("loss.routed_bin_loss_subgradient")[0]
    loss_s = t.agg("loss.routed_bin_loss")[1] + t.agg("loss.routed_bin_loss_subgradient")[1]
    metrics = {
        "counts.ingest_s": t.total("counts.ingest_counts"),
        "counts.records": sum(s.attrs["records"] for s in t.named("counts.ingest_counts")),
        "counts.histogram_s": t.total("counts.build_histogram") + t.total("counts.smooth"),
        "counts.histogram_calls": len(t.named("counts.build_histogram")),
        "tuning.select_s": t.total("tuning.select_gamma"),
        "tuning.split_s": t.total("tuning.split_records"),
        "tuning.splits": len(t.named("tuning.split_records")),
        "tuning.heldout_self_s": t.self_time("tuning.held_out_log_likelihood"),
        "stratify.fit_s": t.total("stratify.optimal_partition"),
        "stratify.fits": len(fits),
        "stratify.fit_p50_ms": float(np.percentile(fit_ms, 50)) if fit_ms else 0.0,
        "stratify.fit_p95_ms": float(np.percentile(fit_ms, 95)) if fit_ms else 0.0,
        "stratify.cells": sum(cells),
        "stratify.cell_pairs": sum(m * (m + 1) // 2 for m in cells),
        "stratify.mass": sum(s.attrs["mass"] for s in fits),
        "stratify.locate_s": locate_s,
        "stratify.locate_calls": locate_calls,
        "sampling.assign_s": t.total("sampling.assign_bins"),
        "sampling.plan_rr_s": t.total("sampling.plan_epoch_rr"),
        "sampling.plan_rs_s": t.total("sampling.plan_epoch_rs"),
        "sampling.plan_calls": len(plans),
        "sampling.draws": sum(s.attrs["draws"] for s in plans),
        "sampling.bins": sum(s.attrs["bins"] for s in plans),
        "loss.routed_s": loss_s,
        "loss.calls": loss_calls,
        "evaluate.parse_s": t.total("evaluate.parse_predictions"),
        "evaluate.evaluate_s": t.total("evaluate.evaluate"),
        "jsonfmt.dumps_s": t.total("jsonfmt.dumps"),
        "jsonfmt.loads_s": t.total("jsonfmt.loads"),
        "jsonfmt.bytes_out": sum(s.attrs["bytes"] for s in t.named("jsonfmt.dumps")),
        "cli.import_s": statistics.median(imports),
        "cli.overhead_s": sum(cli_wall[c] - untraced[c] for c in cli_wall),
        "synth.train_s": t.total("synth.fit_toy_regressor"),
        "synth.fit_toy_calls": len(t.named("synth.fit_toy_regressor")),
        "trace.overhead_pct": 100.0 * (sum(traced.values()) / sum(untraced.values()) - 1.0),
    }
    metrics.update(_output_sentinels(run))
    doc = {"workload": run.workload, "seed": run.seed, "machine": machine_info(), "metrics": metrics}
    doc.update(t.to_json())
    (run.work / "trace.json").write_text(json.dumps(doc))
    for name, value in sorted(untraced.items()):
        print(f"in-process {name}_s {value:.4f} s  (traced {traced[name]:.4f} s, CLI {cli_wall[name]:.4f} s)")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full", help="tiny is for the smoke test")
    args = parser.parse_args(argv)
    if not (SRC / "countstrat" / "__init__.py").is_file():
        print(f"error: no countstrat sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    units = {m["name"]: m["unit"] for key in ("end_to_end", "per_layer") for m in json.loads((ROOT / "BENCHMARK.json").read_text())[key]}

    run = Run(args.workload, args.seed, args.size)
    print(f"workload={args.workload} seed={args.seed} size={args.size} machine={json.dumps(machine_info())}")
    try:
        metrics = trace(run) if args.trace else measure(run, args.seconds)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"error_rate {run.failed / run.attempted:.4f} ratio  ({run.failed} of {run.attempted} calls failed)")
    for name, value in metrics.items():
        print(f"{name} {value} {units[name]}")
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
