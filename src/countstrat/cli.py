"""Command-line pipeline: bin / tune / plan / loss / eval / synth.

Every subcommand is a thin wrapper over the library: it reads files, calls
the corresponding function and serializes the result with the deterministic
JSON/CSV writers. All randomness comes from explicit --seed style flags, so
repeated invocations are byte-identical.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
from pathlib import Path

from . import jsonfmt
from .counts import count_columns
from .errors import ParseError, StratError, ValidationError
from .evaluate import evaluate_columns, prediction_columns, render_report, report_json_dict
from .loss import LossConfig, routed_bin_losses
from .sampling import SamplingScheme, assign_columns, plan_epoch, plan_to_json_dict
from .stratify import (
    BinningConfig,
    LikelihoodKind,
    fit_partition_columns,
    partition_from_json_dict,
    partition_to_json_dict,
)
from .synth import (
    DEFAULT_SYNTH_BINNING,
    SynthSpec,
    TrainerConfig,
    comparison_json_dict,
    run_comparison,
)
from .tuning import (
    DEFAULT_GAMMAS,
    DEFAULT_N_SEEDS,
    DEFAULT_RATIOS,
    GridSpec,
    optimal_bins_columns,
    select_gamma_columns,
    tuning_report_json_dict,
)


# characters that make csv.writer (QUOTE_MINIMAL) quote a field
_CSV_QUOTED = re.compile('[,"\r\n]')


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        line = exc.object[: exc.start].count(b"\n") + 1
        raise ParseError(f"{path}: line {line}: not UTF-8 text ({exc.reason})") from None


def _write_output(text: str, path: str | None) -> None:
    """Write to stdout, or atomically to path: a temp file beside it, then
    os.replace, so a failed run never leaves a truncated output behind."""
    if path is None:
        sys.stdout.write(text)
        return
    target = Path(path)
    tmp = target.parent / f".{target.name}.{os.getpid()}.tmp"
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, target)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _float_list(raw: str) -> tuple[float, ...]:
    try:
        return tuple(float(tok) for tok in raw.split(",") if tok.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {raw!r}") from None


def _non_negative_int(raw: str) -> int:
    value = int(raw)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {raw!r}")
    return value


class _GridFlag(argparse.Action):
    """Store a grid flag's value and note the flag in ``args.grid_flags``, so
    ``bin --no-tune`` can reject it even when it repeats the default."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        namespace.grid_flags = (*namespace.grid_flags, option_string)


def _grid_spec(args) -> GridSpec:
    return GridSpec(
        gammas=args.gammas,
        ratios=args.ratios,
        n_seeds=args.cv_seeds,
        beta=args.beta,
        likelihood_kind=LikelihoodKind(args.likelihood),
    )


def _binning(args) -> BinningConfig:
    return BinningConfig(args.gamma, args.alpha, args.beta, LikelihoodKind(args.likelihood))


def _add_grid_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--gammas", type=_float_list, default=DEFAULT_GAMMAS, action=_GridFlag,
        help="comma-separated gamma grid (default 0.1..0.9)",
    )
    p.add_argument(
        "--ratios", type=_float_list, default=DEFAULT_RATIOS, action=_GridFlag,
        help="comma-separated held-out ratios (default 0.1,0.2,0.25)",
    )
    p.add_argument("--cv-seeds", type=int, default=DEFAULT_N_SEEDS, action=_GridFlag, help="cross-validation repeats")
    p.set_defaults(grid_flags=())
    p.add_argument("--beta", type=int, default=1, help="additive smoothing (default 1)")
    p.add_argument(
        "--likelihood",
        choices=[k.value for k in LikelihoodKind],
        default=LikelihoodKind.MULTINOMIAL.value,
    )


def _cmd_bin(args) -> int:
    _, counts = count_columns(_read_text(args.counts_csv))
    if args.no_tune:
        if args.gamma is None:
            raise _Usage("--no-tune requires --gamma")
        if args.grid_flags:
            raise _Usage(f"{args.grid_flags[0]} is only honored without --no-tune")
        partition = fit_partition_columns(counts, _binning(args))
    elif args.gamma is not None or args.alpha is not None:
        raise _Usage("--gamma and --alpha are only honored together with --no-tune")
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
    ys, y_hats = ys.tolist(), y_hats.tolist()
    rows = routed_bin_losses(ys, y_hats, partition.bins, cfg.lambda1)
    losses = [cfg.lambda2 * value for value, _ in rows]
    if not all(map(math.isfinite, losses)):
        raise ValidationError("a bin loss times --lambda2 exceeds the largest float; lower --lambda2 or --lambda1")
    if _CSV_QUOTED.search("".join(ids)):  # one check, so plain ids cost nothing
        # quoted and with doubled quotes, as csv.writer's QUOTE_MINIMAL writes them
        ids = ['"%s"' % i.replace('"', '""') if _CSV_QUOTED.search(i) else i for i in ids]
    # '%.17g' is format_float once the value is finite; the reader bounds every prediction
    for sample_id, y, y_hat, (_, b), loss in zip(ids, ys, y_hats, rows, losses):
        lines.append("%s,%s,%.17g,%s,%s,%.17g" % (sample_id, y, y_hat, b.lo, b.hi, loss))
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
    spec = SynthSpec(
        n_samples=args.n_samples,
        log_mean=args.log_mean,
        log_sigma=args.log_sigma,
        max_count=args.max_count,
        noise_spread=args.noise_spread,
        noise_bias=args.noise_bias,
        seed=args.seed,
    )
    trainer = TrainerConfig(
        epochs=args.epochs,
        learning_rate=args.learning_rate,
        batch_size=args.batch_size,
        loss=LossConfig(args.lambda1, args.lambda2),
        holdout_ratio=args.holdout_ratio,
    )
    seeds = tuple(args.seed + k for k in range(args.seeds))
    report = run_comparison(spec, _binning(args), trainer, seeds)
    _write_output(jsonfmt.dumps(comparison_json_dict(report)), args.output)
    return 0


class _Usage(Exception):
    pass


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="countstrat",
        description="Bayesian-optimal count bins, balanced minibatch plans, "
        "bin-aware loss and per-bin error reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bin", help="fit optimal bins from a counts CSV")
    p.add_argument("counts_csv")
    p.add_argument("-o", "--output", help="partition JSON path (stdout if omitted)")
    p.add_argument("--gamma", type=float, help="fixed gamma (requires --no-tune)")
    p.add_argument("--no-tune", action="store_true", help="skip the gamma grid search")
    p.add_argument("--alpha", type=int, default=None, help="cap on the number of bins (requires --no-tune)")
    _add_grid_flags(p)
    p.set_defaults(func=_cmd_bin)

    p = sub.add_parser("tune", help="gamma grid-search report only")
    p.add_argument("counts_csv")
    p.add_argument("-o", "--output")
    _add_grid_flags(p)
    p.set_defaults(func=_cmd_tune)

    p = sub.add_parser("plan", help="build a balanced epoch plan")
    p.add_argument("counts_csv")
    p.add_argument("partition_json")
    p.add_argument("--scheme", choices=[s.value for s in SamplingScheme], required=True)
    p.add_argument("--batch-size", type=int, required=True)
    p.add_argument("--seed", type=_non_negative_int, default=0)
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_plan)

    p = sub.add_parser("loss", help="per-record bin loss for a predictions CSV")
    p.add_argument("preds_csv")
    p.add_argument("partition_json")
    p.add_argument("--lambda1", type=float, default=1.0)
    p.add_argument("--lambda2", type=float, default=1.0)
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_loss)

    p = sub.add_parser("eval", help="per-bin, pooled and global error report")
    p.add_argument("preds_csv")
    p.add_argument("partition_json")
    p.add_argument("-o", "--output", help="report JSON path (stdout if omitted)")
    p.add_argument("--plot-csv", help="also write the plot-ready CSV here")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("synth", help="synthetic three-scheme comparison benchmark")
    p.add_argument("--n-samples", type=int, default=SynthSpec.n_samples)
    p.add_argument("--log-mean", type=float, default=SynthSpec.log_mean)
    p.add_argument("--log-sigma", type=float, default=SynthSpec.log_sigma)
    p.add_argument("--max-count", type=int, default=SynthSpec.max_count)
    p.add_argument("--noise-spread", type=float, default=SynthSpec.noise_spread)
    p.add_argument("--noise-bias", type=float, default=SynthSpec.noise_bias)
    p.add_argument("--seed", type=_non_negative_int, default=0, help="first comparison seed")
    p.add_argument("--seeds", type=int, default=10, help="number of comparison seeds")
    p.add_argument("--gamma", type=float, default=DEFAULT_SYNTH_BINNING.gamma)
    p.add_argument("--alpha", type=int, default=DEFAULT_SYNTH_BINNING.alpha)
    p.add_argument("--beta", type=int, default=DEFAULT_SYNTH_BINNING.beta)
    p.add_argument(
        "--likelihood",
        choices=[k.value for k in LikelihoodKind],
        default=DEFAULT_SYNTH_BINNING.likelihood_kind.value,
    )
    p.add_argument("--epochs", type=int, default=TrainerConfig.epochs)
    p.add_argument("--learning-rate", type=float, default=TrainerConfig.learning_rate)
    p.add_argument("--batch-size", type=int, default=TrainerConfig.batch_size)
    p.add_argument("--lambda1", type=float, default=1.0)
    p.add_argument("--lambda2", type=float, default=1.0)
    p.add_argument("--holdout-ratio", type=float, default=TrainerConfig.holdout_ratio)
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_synth)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "batch_size", None) is not None and args.batch_size < 1:
        parser.error("--batch-size must be >= 1")
    try:
        return args.func(args)
    except _Usage as exc:
        parser.error(str(exc))
    except (StratError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
