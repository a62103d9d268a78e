"""The subcommands behind ``cli``: each reads its files, calls the library
and serializes the result with the deterministic JSON/CSV writers.

``cli.main`` imports this module once the arguments are valid. It imports
the whole library, so every subcommand loads the same modules: perfbench's
tracer looks each traced module up in ``sys.modules`` after one in-process
run of any subcommand.
"""

from __future__ import annotations

import os
import re
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import jsonfmt
from .counts import count_columns
from .errors import ParseError, ValidationError
from .evaluate import evaluate_columns, prediction_columns, render_report, report_json_dict
from .loss import LossConfig, interval_losses, routed_edges
from .sampling import SamplingScheme, assign_columns, plan_epoch, plan_to_json_dict
from .stratify import (
    BinningConfig,
    LikelihoodKind,
    fit_partition_columns,
    partition_from_json_dict,
    partition_to_json_dict,
)
from .synth import DEFAULT_SYNTH_BINNING, SynthSpec, TrainerConfig, comparison_json_dict, run_comparison
from .tuning import GridSpec, optimal_bins_columns, select_gamma_columns, tuning_report_json_dict

# characters that make csv.writer (QUOTE_MINIMAL) quote a field
_CSV_QUOTED = re.compile('[,"\r\n]')


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        line = exc.object[: exc.start].count(b"\n") + 1
        raise ParseError(f"{path}: line {line}: not UTF-8 text ({exc.reason})") from None


def _write_output(text: str, path: str | None) -> None:
    """Write to stdout, or to path. A new or regular file, reached through
    ordinary symlinks, is replaced atomically (a temp file beside it, then
    os.replace), so a failed run never leaves a truncated output behind. A
    FIFO, a device or a link under /proc (an open file, not a path; /dev/stdout
    is this process's descriptor 1, written through) is appended to in place."""
    if path is None:
        sys.stdout.write(text)
        return
    target, parent = os.path.abspath(path), None
    for _ in range(40):  # the kernel's bound on a link chain; past it, open fails
        if not os.path.islink(target) or (parent := os.path.realpath(os.path.dirname(target))).startswith("/proc/"):
            break
        target = os.path.join(parent, os.readlink(target))
    own = parent == f"/proc/{os.getpid()}/fd"
    if own or os.path.islink(target) or os.path.exists(target) and not os.path.isfile(target):
        with open(int(os.path.basename(target)) if own else target, "a", encoding="utf-8", closefd=not own) as out:
            out.write(text)
        return
    tmp = Path(os.path.dirname(target), f".{os.path.basename(target)}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, target)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _given(args, *names: str) -> dict:
    """The named flags that the command line set; a flag whose default is
    argparse.SUPPRESS is absent from args unless given."""
    return {name: getattr(args, name) for name in names if hasattr(args, name)}


def _grid_spec(args) -> GridSpec:
    return GridSpec(
        **_given(args, "gammas", "ratios"),
        n_seeds=args.cv_seeds,
        beta=args.beta,
        likelihood_kind=LikelihoodKind(args.likelihood),
    )


def _cmd_bin(args) -> int:
    _, counts = count_columns(_read_text(args.counts_csv))
    if args.no_tune:
        cfg = BinningConfig(args.gamma, args.alpha, args.beta, LikelihoodKind(args.likelihood))
        partition = fit_partition_columns(counts, cfg)
    else:
        partition = optimal_bins_columns(counts, _grid_spec(args))
    _write_output(jsonfmt.dumps(partition_to_json_dict(partition, args.beta)), args.output)
    return 0


def _cmd_tune(args) -> int:
    _, counts = count_columns(_read_text(args.counts_csv))
    selection = select_gamma_columns(counts, _grid_spec(args))
    _write_output(jsonfmt.dumps(tuning_report_json_dict(selection)), args.output)
    return 0


def _cmd_plan(args) -> int:
    ids, counts = count_columns(_read_text(args.counts_csv))
    partition = partition_from_json_dict(jsonfmt.loads(_read_text(args.partition_json)))
    assignment = assign_columns(ids, counts, partition)
    plan = plan_epoch(assignment, args.batch_size, args.seed, SamplingScheme(args.scheme))
    _write_output(jsonfmt.dumps(plan_to_json_dict(plan)), args.output)
    return 0


def _cmd_loss(args) -> int:
    cfg = LossConfig(args.lambda1, args.lambda2)
    ids, ys, y_hats = prediction_columns(_read_text(args.preds_csv))
    partition = partition_from_json_dict(jsonfmt.loads(_read_text(args.partition_json)))
    lines = ["id,y,y_hat,bin_lo,bin_hi,bin_loss"]
    _, los, his = routed_edges(partition.bins, ys)
    with np.errstate(over="ignore"):  # an overflow is the error below
        losses = cfg.lambda2 * interval_losses(ys, y_hats, los, his, cfg.lambda1)
    if not np.isfinite(losses).all():
        raise ValidationError("a bin loss times --lambda2 exceeds the largest float; lower --lambda2 or --lambda1")
    if _CSV_QUOTED.search("".join(ids)):  # one check, so plain ids cost nothing
        # quoted and with doubled quotes, as csv.writer's QUOTE_MINIMAL writes them
        ids = ['"%s"' % i.replace('"', '""') if _CSV_QUOTED.search(i) else i for i in ids]
    # '%.17g' is format_float once the value is finite; the reader bounds every prediction
    columns = (ys.tolist(), y_hats.tolist(), los.tolist(), his.tolist(), losses.tolist())
    lines += map("%s,%s,%.17g,%s,%s,%.17g".__mod__, zip(ids, *columns))
    _write_output("\n".join(lines) + "\n", args.output)
    return 0


def _cmd_eval(args) -> int:
    _, ys, y_hats = prediction_columns(_read_text(args.preds_csv))
    partition = partition_from_json_dict(jsonfmt.loads(_read_text(args.partition_json)))
    report = evaluate_columns(ys, y_hats, partition)
    _write_output(jsonfmt.dumps(report_json_dict(report)), args.output)
    if args.plot_csv:
        _write_output(render_report(report, partition), args.plot_csv)
    return 0


def _cmd_synth(args) -> int:
    spec = SynthSpec(**_given(args, "n_samples", "log_mean", "log_sigma", "max_count", "noise_spread", "noise_bias", "seed"))
    trainer = TrainerConfig(
        **_given(args, "epochs", "learning_rate", "batch_size", "holdout_ratio"),
        loss=LossConfig(**_given(args, "lambda1", "lambda2")),
    )
    binning = replace(DEFAULT_SYNTH_BINNING, **_given(args, "gamma", "alpha", "beta"))
    if hasattr(args, "likelihood"):
        binning = replace(binning, likelihood_kind=LikelihoodKind(args.likelihood))
    report = run_comparison(spec, binning, trainer, range(spec.seed, spec.seed + args.seeds))
    _write_output(jsonfmt.dumps(comparison_json_dict(report)), args.output)
    return 0


COMMANDS = {
    "bin": _cmd_bin,
    "tune": _cmd_tune,
    "plan": _cmd_plan,
    "loss": _cmd_loss,
    "eval": _cmd_eval,
    "synth": _cmd_synth,
}
