"""Bayesian count stratification: optimal bins over heavy-tailed count data,
balanced minibatch plans, a bin-aware loss, and per-bin error reporting.

The exports load on first use (PEP 562), so importing the package, or asking
its CLI for ``--help``, does not import numpy.
"""

import sys
import types
from importlib import import_module

from .errors import ParseError, RangeError, StratError, ValidationError

_EXPORTS = {
    "counts": ("CountHistogram", "CountRecord", "build_histogram", "ingest_counts", "smooth"),
    "evaluate": ("BinStats", "EvalReport", "PredictionRecord", "evaluate", "parse_predictions", "pool", "render_report"),
    "loss": (
        "LossConfig",
        "bin_loss",
        "bin_loss_subgradient",
        "combined_loss",
        "routed_bin_loss",
        "routed_bin_loss_subgradient",
    ),
    "sampling": (
        "BatchPlan",
        "BinAssignment",
        "SamplingScheme",
        "assign_bins",
        "plan_epoch",
        "plan_epoch_rr",
        "plan_epoch_rs",
    ),
    "stratify": (
        "Bin",
        "BinningConfig",
        "LikelihoodKind",
        "Partition",
        "PriorConfig",
        "bin_log_likelihood",
        "brute_force_partition",
        "locate_bin",
        "optimal_partition",
        "partition_from_json_dict",
        "partition_log_score",
        "partition_to_json_dict",
        "prior_log_prob",
    ),
    "synth": (
        "ComparisonReport",
        "SynthSpec",
        "ToyFit",
        "TrainerConfig",
        "fit_toy_regressor",
        "generate_dataset",
        "run_comparison",
    ),
    "tuning": (
        "GammaSelection",
        "GridSpec",
        "held_out_log_likelihood",
        "optimal_bins",
        "select_gamma",
        "split_records",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_MODULE_OF, "ParseError", "RangeError", "StratError", "ValidationError"])


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


class _Package(types.ModuleType):
    """Keeps an export when a submodule of the same name is imported: the
    import system binds ``countstrat.evaluate`` the module here, and the
    exported name is the function."""

    def __setattr__(self, name, value):
        if not (name in _MODULE_OF and isinstance(value, types.ModuleType)):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
