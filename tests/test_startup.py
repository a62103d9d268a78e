"""Start-up cost of the package and its CLI: parsing, ``--help`` and usage
errors load neither numpy nor the library, the package's exports load on
first use, and the values the parser repeats equal the library's."""

import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import countstrat
from countstrat import cli, commands
from countstrat.cli import build_parser, main
from countstrat.loss import LossConfig
from countstrat.sampling import SamplingScheme
from countstrat.stratify import BinningConfig, LikelihoodKind
from countstrat.synth import DEFAULT_SYNTH_BINNING, SynthSpec, TrainerConfig, run_comparison
from countstrat.tuning import DEFAULT_N_SEEDS, GridSpec

SRC = Path(countstrat.__file__).resolve().parents[1]
PARSER_ONLY = {"countstrat", "countstrat.cli", "countstrat.errors"}


def python(*argv: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env, timeout=60)


def imported(importtime_stderr: str) -> set[str]:
    """Module names from ``-X importtime`` lines: 'import time: self | cumulative | name'."""
    return {line.rsplit("|", 1)[1].strip() for line in importtime_stderr.splitlines() if line.startswith("import time:")}


@pytest.mark.parametrize(
    "argv, code",
    [
        (("--help",), 0),
        (("bin", "--help"), 0),
        (("bin", "missing.csv", "--no-tune"), 2),
    ],
)
def test_parsing_loads_no_numpy(argv, code):
    proc = python("-X", "importtime", "-m", "countstrat", *argv)
    assert proc.returncode == code, proc.stderr
    modules = imported(proc.stderr)
    assert "countstrat.cli" in modules
    assert not any(m == "numpy" or m.startswith("numpy.") for m in modules)
    assert {m for m in modules if m.startswith("countstrat")} <= PARSER_ONLY


def test_package_import_loads_no_numpy():
    proc = python("-c", "import sys, countstrat; print(sorted(m for m in sys.modules if m.startswith(('numpy', 'countstrat'))))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "['countstrat', 'countstrat.errors']"


@pytest.mark.parametrize("name", countstrat.__all__)
def test_every_export_resolves(name):
    value = getattr(countstrat, name)
    assert getattr(sys.modules[value.__module__], name) is value


def test_evaluate_stays_the_function_after_its_module_loads():
    # the import system binds a loaded submodule onto its package; the
    # export of the same name must win, also when the submodule loads first
    script = (
        "import types, countstrat.evaluate, countstrat\n"
        "from countstrat.evaluate import BinStats\n"
        "from countstrat import evaluate\n"
        "assert not isinstance(countstrat.evaluate, types.ModuleType)\n"
        "assert evaluate is countstrat.evaluate is countstrat.evaluate.__globals__['evaluate']\n"
        "assert BinStats is countstrat.BinStats\n"
    )
    proc = python("-c", script)
    assert proc.returncode == 0, proc.stderr
    importlib.import_module("countstrat.evaluate")  # in this process as well
    assert callable(countstrat.evaluate) and countstrat.evaluate.__name__ == "evaluate"


def test_parser_choices_are_the_library_values():
    assert cli._LIKELIHOODS == [k.value for k in LikelihoodKind]
    assert cli._SCHEMES == [s.value for s in SamplingScheme]


@pytest.mark.parametrize("command", ["bin", "tune"])
def test_grid_defaults_are_the_library_values(command):
    args = build_parser().parse_args([command, "x.csv"])
    assert args.cv_seeds == DEFAULT_N_SEEDS
    assert args.beta == GridSpec().beta == BinningConfig().beta
    assert args.likelihood == GridSpec().likelihood_kind.value == BinningConfig().likelihood_kind.value
    assert commands._grid_spec(args) == GridSpec()


def test_loss_defaults_are_the_library_values():
    args = build_parser().parse_args(["loss", "p.csv", "b.json"])
    assert LossConfig(args.lambda1, args.lambda2) == LossConfig()


class _Captured(Exception):
    pass


@pytest.fixture
def synth_configs(monkeypatch):
    """What ``synth`` passes to run_comparison; the fake ends the run there."""
    seen = {}

    def capture(spec, binning, trainer, seeds):
        seen.update(spec=spec, binning=binning, trainer=trainer, seeds=seeds)
        raise _Captured

    monkeypatch.setattr(commands, "run_comparison", capture)
    return seen


def test_synth_defaults_are_the_library_values(synth_configs):
    with pytest.raises(_Captured):
        main(["synth"])
    assert synth_configs["spec"] == SynthSpec()
    assert synth_configs["binning"] == DEFAULT_SYNTH_BINNING
    assert synth_configs["trainer"] == TrainerConfig()
    assert synth_configs["seeds"] == inspect.signature(run_comparison).parameters["seeds"].default


def test_synth_flags_reach_the_configs(synth_configs):
    with pytest.raises(_Captured):
        main([
            "synth", "--n-samples", "50", "--log-mean", "2", "--log-sigma", "1", "--max-count", "90",
            "--noise-spread", "0.2", "--noise-bias", "0.1", "--seed", "3", "--seeds", "2", "--gamma", "0.3",
            "--alpha", "4", "--beta", "2", "--likelihood", "poisson", "--epochs", "5", "--learning-rate", "0.1",
            "--batch-size", "8", "--lambda1", "0.5", "--lambda2", "2", "--holdout-ratio", "0.3",
        ])
    assert synth_configs["spec"] == SynthSpec(50, 2.0, 1.0, 90, 0.2, 0.1, 3)
    assert synth_configs["binning"] == BinningConfig(0.3, 4, 2, LikelihoodKind.POISSON)
    assert synth_configs["trainer"] == TrainerConfig(5, 0.1, 8, LossConfig(0.5, 2.0), 0.3)
    # a range: _cmd_synth builds no seed list before run_comparison bounds its length
    assert synth_configs["seeds"] == range(3, 5)
