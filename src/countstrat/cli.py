"""Command-line pipeline: bin / tune / plan / loss / eval / synth.

This module parses and checks the arguments; it loads neither numpy nor the
library, so ``--help`` and usage errors return at once. Only a valid command
line imports ``commands``, which runs the subcommand. All randomness comes
from explicit --seed style flags, so repeated invocations are byte-identical.
"""

from __future__ import annotations

import argparse
import sys

from .errors import StratError

# The parser cannot import the library, so it repeats the few library values
# it needs: these choices, the grid and loss defaults that acceptance reads
# from parse_args, and --likelihood's default; tests pin each to the library.
# Every other flag whose default the library owns defaults to
# argparse.SUPPRESS, and its command takes the library's default.
_LIKELIHOODS = ["multinomial", "poisson"]  # LikelihoodKind values
_SCHEMES = ["rr", "rs"]  # SamplingScheme values


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


def _add_grid_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--gammas", type=_float_list, default=argparse.SUPPRESS, action=_GridFlag,
        help="comma-separated gamma grid (default 0.1..0.9)",
    )
    p.add_argument(
        "--ratios", type=_float_list, default=argparse.SUPPRESS, action=_GridFlag,
        help="comma-separated held-out ratios (default 0.1,0.2,0.25)",
    )
    p.add_argument("--cv-seeds", type=int, default=10, action=_GridFlag, help="cross-validation repeats")
    p.set_defaults(grid_flags=())
    p.add_argument("--beta", type=int, default=1, help="additive smoothing (default 1)")
    p.add_argument("--likelihood", choices=_LIKELIHOODS, default="multinomial")


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

    p = sub.add_parser("tune", help="gamma grid-search report only")
    p.add_argument("counts_csv")
    p.add_argument("-o", "--output")
    _add_grid_flags(p)

    p = sub.add_parser("plan", help="build a balanced epoch plan")
    p.add_argument("counts_csv")
    p.add_argument("partition_json")
    p.add_argument("--scheme", choices=_SCHEMES, required=True)
    p.add_argument("--batch-size", type=int, required=True)
    p.add_argument("--seed", type=_non_negative_int, default=0)
    p.add_argument("-o", "--output")

    p = sub.add_parser("loss", help="per-record bin loss for a predictions CSV")
    p.add_argument("preds_csv")
    p.add_argument("partition_json")
    p.add_argument("--lambda1", type=float, default=1.0)
    p.add_argument("--lambda2", type=float, default=1.0)
    p.add_argument("-o", "--output")

    p = sub.add_parser("eval", help="per-bin, pooled and global error report")
    p.add_argument("preds_csv")
    p.add_argument("partition_json")
    p.add_argument("-o", "--output", help="report JSON path (stdout if omitted)")
    p.add_argument("--plot-csv", help="also write the plot-ready CSV here")

    # SynthSpec, DEFAULT_SYNTH_BINNING, TrainerConfig and LossConfig own the defaults
    p = sub.add_parser("synth", help="synthetic three-scheme comparison benchmark", argument_default=argparse.SUPPRESS)
    p.add_argument("--n-samples", type=int)
    p.add_argument("--log-mean", type=float)
    p.add_argument("--log-sigma", type=float)
    p.add_argument("--max-count", type=int)
    p.add_argument("--noise-spread", type=float)
    p.add_argument("--noise-bias", type=float)
    p.add_argument("--seed", type=_non_negative_int, help="first comparison seed")
    p.add_argument("--seeds", type=int, default=10, help="number of comparison seeds")
    p.add_argument("--gamma", type=float)
    p.add_argument("--alpha", type=int)
    p.add_argument("--beta", type=int)
    p.add_argument("--likelihood", choices=_LIKELIHOODS)
    p.add_argument("--epochs", type=int)
    p.add_argument("--learning-rate", type=float)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--lambda1", type=float)
    p.add_argument("--lambda2", type=float)
    p.add_argument("--holdout-ratio", type=float)
    p.add_argument("-o", "--output", default=None)

    return parser


def _usage_error(args) -> str | None:
    """The checks argparse cannot express; they run before any file is read."""
    if getattr(args, "batch_size", 1) < 1:
        return "--batch-size must be >= 1"
    if args.command != "bin":
        return None
    if args.no_tune:
        if args.gamma is None:
            return "--no-tune requires --gamma"
        if args.grid_flags:
            return f"{args.grid_flags[0]} is only honored without --no-tune"
    elif args.gamma is not None or args.alpha is not None:
        return "--gamma and --alpha are only honored together with --no-tune"
    return None


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    usage = _usage_error(args)
    if usage:
        parser.error(usage)
    # numpy and the library load here, once the arguments are valid
    from .commands import COMMANDS

    try:
        return COMMANDS[args.command](args)
    except (StratError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
