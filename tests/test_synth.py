from dataclasses import replace

import numpy as np
import pytest

import countstrat.synth as synth_mod
from countstrat import (
    SynthSpec,
    TrainerConfig,
    ValidationError,
    fit_toy_regressor,
    generate_dataset,
    run_comparison,
)
from countstrat.counts import build_histogram, smooth
from countstrat.stratify import optimal_partition
from countstrat.synth import DEFAULT_SYNTH_BINNING, comparison_json_dict
from countstrat.tuning import split_records

SMALL_SPEC = SynthSpec(n_samples=160, max_count=400)
SMALL_TRAINER = TrainerConfig(epochs=4, batch_size=16)


def sample_skewness(values):
    arr = np.asarray(values, dtype=float)
    m = arr.mean()
    m2 = ((arr - m) ** 2).mean()
    m3 = ((arr - m) ** 3).mean()
    return m3 / m2**1.5


def small_partition(records):
    hist = smooth(build_histogram(records), DEFAULT_SYNTH_BINNING.beta)
    return optimal_partition(
        hist, DEFAULT_SYNTH_BINNING, DEFAULT_SYNTH_BINNING.likelihood_kind
    )


class TestGenerateDataset:
    def test_noise_free_limit(self):
        spec = SynthSpec(n_samples=100, noise_spread=0.0, noise_bias=0.0)
        records, features = generate_dataset(spec)
        for rec in records:
            assert features[rec.id] == float(rec.count)

    def test_invalid_spec_rejected(self):
        with pytest.raises(ValidationError):
            SynthSpec(n_samples=0)
        with pytest.raises(ValidationError):
            SynthSpec(noise_spread=-0.1)
        with pytest.raises(ValidationError):
            SynthSpec(max_count=0)

    @pytest.mark.parametrize("field", ["log_mean", "log_sigma", "noise_spread", "noise_bias"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_spec_rejected(self, field, value):
        with pytest.raises(ValidationError, match=f"{field} must be finite"):
            SynthSpec(**{field: value})

    @pytest.mark.parametrize("log_mean, log_sigma", [(800.0, 1.4), (3.0, 1e300)])
    def test_overflowing_draws_land_on_the_cap(self, log_mean, log_sigma):
        # lognormal draws of inf are capped before the int cast
        records, features = generate_dataset(SynthSpec(n_samples=50, log_mean=log_mean, log_sigma=log_sigma, max_count=300))
        counts = [r.count for r in records]
        assert set(counts) <= {0, 300} and 300 in counts
        assert all(np.isfinite(list(features.values())))

    def test_counts_capped_and_non_negative(self):
        spec = SynthSpec(n_samples=500, max_count=100, log_mean=4.0, log_sigma=1.5)
        records, _ = generate_dataset(spec)
        assert all(0 <= r.count <= 100 for r in records)
        assert any(r.count == 100 for r in records)  # cap actually binds here

    def test_heavy_tail_positive_skew(self):
        records, _ = generate_dataset(SynthSpec(n_samples=2000, log_sigma=1.4))
        assert sample_skewness([r.count for r in records]) > 1.0

    def test_deterministic(self):
        a = generate_dataset(SynthSpec(seed=5))
        b = generate_dataset(SynthSpec(seed=5))
        assert a == b

    def test_seed_changes_data(self):
        a, _ = generate_dataset(SynthSpec(seed=0))
        b, _ = generate_dataset(SynthSpec(seed=1))
        assert [r.count for r in a] != [r.count for r in b]


class TestToyRegressor:
    def test_epoch_coverage_every_scheme(self):
        # each training sample is consumed exactly once per epoch, end to end
        records, features = generate_dataset(SMALL_SPEC)
        train, _ = split_records(records, 0.25, 0)
        partition = small_partition(train)
        seen_plans = []

        original_plan = synth_mod.plan_epoch
        original_shuffled = synth_mod._epoch_batches_shuffled

        def spy_plan(assignment, batch_size, seed, scheme):
            plan = original_plan(assignment, batch_size, seed, scheme)
            seen_plans.append([s for b in plan.batches for s in b])
            return plan

        def spy_shuffled(ids, batch_size, seed):
            batches = original_shuffled(ids, batch_size, seed)
            seen_plans.append([s for b in batches for s in b])
            return batches

        synth_mod.plan_epoch = spy_plan
        synth_mod._epoch_batches_shuffled = spy_shuffled
        try:
            for scheme in ("none", "rr", "rs"):
                seen_plans.clear()
                fit_toy_regressor(train, features, partition, SMALL_TRAINER, scheme, 0)
                assert len(seen_plans) == SMALL_TRAINER.epochs
                want = sorted(r.id for r in train)
                for epoch_ids in seen_plans:
                    assert sorted(epoch_ids) == want
        finally:
            synth_mod.plan_epoch = original_plan
            synth_mod._epoch_batches_shuffled = original_shuffled

    def test_baseline_never_touches_bin_loss(self):
        records, features = generate_dataset(SMALL_SPEC)
        train, _ = split_records(records, 0.25, 0)
        partition = small_partition(train)

        def boom(*args, **kwargs):
            raise AssertionError("baseline consulted the bin loss")

        original = (synth_mod.interval_loss, synth_mod.interval_loss_subgradient)
        synth_mod.interval_loss = boom
        synth_mod.interval_loss_subgradient = boom
        try:
            fit_toy_regressor(train, features, partition, SMALL_TRAINER, "none", 0)
            with pytest.raises(AssertionError, match="consulted"):
                fit_toy_regressor(train, features, partition, SMALL_TRAINER, "rr", 0)
        finally:
            synth_mod.interval_loss, synth_mod.interval_loss_subgradient = original

    def test_noise_free_loss_monotone_all_schemes(self):
        spec = replace(SynthSpec(), noise_spread=0.0, noise_bias=0.0)
        records, features = generate_dataset(spec)
        train, _ = split_records(records, 0.25, 0)
        partition = small_partition(train)
        for scheme in ("none", "rr", "rs"):
            fit = fit_toy_regressor(train, features, partition, TrainerConfig(), scheme, 0)
            losses = fit.epoch_losses
            assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:])), scheme

    def test_unknown_scheme_rejected(self):
        records, features = generate_dataset(SMALL_SPEC)
        train, _ = split_records(records, 0.25, 0)
        partition = small_partition(train)
        with pytest.raises(ValidationError):
            fit_toy_regressor(train, features, partition, SMALL_TRAINER, "sgd", 0)

    def test_noise_free_fit_is_accurate(self):
        # a budget big enough to converge; the comparison defaults stop earlier
        spec = SynthSpec(n_samples=300, noise_spread=0.0)
        records, features = generate_dataset(spec)
        train, test = split_records(records, 0.25, 0)
        partition = small_partition(train)
        trainer = TrainerConfig(epochs=40, learning_rate=2.0)
        fit = fit_toy_regressor(train, features, partition, trainer, "none", 0)
        errs = [abs(r.count - fit.predict(features[r.id])) for r in test]
        assert np.mean(errs) < 0.5


    def test_divergence_rejected(self):
        records, features = generate_dataset(SMALL_SPEC)
        part = small_partition(records)
        trainer = replace(SMALL_TRAINER, learning_rate=1e308)
        for scheme in synth_mod.SCHEMES:
            with pytest.raises(ValidationError, match="training diverged in epoch 0"):
                fit_toy_regressor(records, features, part, trainer, scheme, seed=0)


class TestRunComparison:
    def test_report_structure_and_determinism(self):
        seeds = (0, 1)
        a = run_comparison(SMALL_SPEC, DEFAULT_SYNTH_BINNING, SMALL_TRAINER, seeds)
        b = run_comparison(SMALL_SPEC, DEFAULT_SYNTH_BINNING, SMALL_TRAINER, seeds)
        assert a == b
        assert [s for s, _ in a.reports] == ["none", "rr", "rs"]
        assert a.seeds == seeds
        assert dict(a.win_counts).keys() == {"rr", "rs"}
        for _, stds in a.pooled_std_by_seed:
            assert len(stds) == len(seeds)

    def test_empty_seeds_rejected(self):
        with pytest.raises(ValidationError):
            run_comparison(SMALL_SPEC, DEFAULT_SYNTH_BINNING, SMALL_TRAINER, ())

    def test_json_dict_shape(self):
        rep = run_comparison(SMALL_SPEC, DEFAULT_SYNTH_BINNING, SMALL_TRAINER, (0,))
        doc = comparison_json_dict(rep)
        assert set(doc) == {"seeds", "win_counts", "pooled_std_by_seed", "first_seed_reports"}
        assert set(doc["first_seed_reports"]) == {"none", "rr", "rs"}


class TestTrainerConfig:
    def test_validation(self):
        with pytest.raises(ValidationError):
            TrainerConfig(epochs=0)
        with pytest.raises(ValidationError):
            TrainerConfig(batch_size=0)
        with pytest.raises(ValidationError):
            TrainerConfig(learning_rate=0.0)
        for rate in (float("nan"), float("inf")):
            with pytest.raises(ValidationError, match="learning_rate must be finite"):
                TrainerConfig(learning_rate=rate)
        with pytest.raises(ValidationError):
            TrainerConfig(holdout_ratio=1.0)
