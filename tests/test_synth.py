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
from countstrat.counts import count_histogram, smooth
from countstrat.stratify import optimal_partition
from countstrat.synth import _EPOCH_SEED_STRIDE, DEFAULT_SYNTH_BINNING, comparison_json_dict
from countstrat.tuning import _index_split

SMALL_SPEC = SynthSpec(n_samples=160, max_count=400)
SMALL_TRAINER = TrainerConfig(epochs=4, batch_size=16)


def sample_skewness(values):
    arr = np.asarray(values, dtype=float)
    m = arr.mean()
    m2 = ((arr - m) ** 2).mean()
    m3 = ((arr - m) ** 3).mean()
    return m3 / m2**1.5


def small_partition(counts):
    hist = smooth(count_histogram(counts), DEFAULT_SYNTH_BINNING.beta)
    return optimal_partition(
        hist, DEFAULT_SYNTH_BINNING, DEFAULT_SYNTH_BINNING.likelihood_kind
    )


def split_columns(spec, ratio=0.25, seed=0):
    """(train counts, train features, test counts, test features) of spec's
    dataset under the seeded split."""
    counts, z = generate_dataset(spec)
    train, test = _index_split(len(counts), ratio, seed)
    return counts[train], z[train], counts[test], z[test]


class TestGenerateDataset:
    def test_noise_free_limit(self):
        spec = SynthSpec(n_samples=100, noise_spread=0.0, noise_bias=0.0)
        counts, z = generate_dataset(spec)
        assert counts.dtype == np.int64 and z.dtype == np.float64
        assert len(counts) == len(z) == 100
        assert (z == counts).all()

    def test_invalid_spec_rejected(self):
        with pytest.raises(ValidationError):
            SynthSpec(n_samples=0)
        with pytest.raises(ValidationError):
            SynthSpec(noise_spread=-0.1)
        with pytest.raises(ValidationError):
            SynthSpec(max_count=0)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("n_samples", 2.5, "n_samples must be an integer"),
            ("n_samples", True, "n_samples must be an integer"),
            ("max_count", 2.5, "max_count must be an integer"),
            ("seed", 1.5, "seed must be an integer"),
            ("seed", -1, "seed must be >= 0"),
        ],
    )
    def test_integer_fields_checked(self, field, value, message):
        with pytest.raises(ValidationError, match=message):
            SynthSpec(**{field: value})

    @pytest.mark.parametrize("field", ["log_mean", "log_sigma", "noise_spread", "noise_bias"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_spec_rejected(self, field, value):
        with pytest.raises(ValidationError, match=f"{field} must be finite"):
            SynthSpec(**{field: value})

    @pytest.mark.parametrize("log_mean, log_sigma", [(800.0, 1.4), (3.0, 1e300)])
    def test_overflowing_draws_land_on_the_cap(self, log_mean, log_sigma):
        # lognormal draws of inf are capped before the int cast
        counts, z = generate_dataset(SynthSpec(n_samples=50, log_mean=log_mean, log_sigma=log_sigma, max_count=300))
        assert set(counts.tolist()) <= {0, 300} and 300 in counts
        assert np.isfinite(z).all()

    def test_counts_capped_and_non_negative(self):
        spec = SynthSpec(n_samples=500, max_count=100, log_mean=4.0, log_sigma=1.5)
        counts, _ = generate_dataset(spec)
        assert ((0 <= counts) & (counts <= 100)).all()
        assert (counts == 100).any()  # cap actually binds here

    def test_heavy_tail_positive_skew(self):
        counts, _ = generate_dataset(SynthSpec(n_samples=2000, log_sigma=1.4))
        assert sample_skewness(counts) > 1.0

    def test_deterministic(self):
        a = generate_dataset(SynthSpec(seed=5))
        b = generate_dataset(SynthSpec(seed=5))
        assert all(x.dtype == y.dtype and np.array_equal(x, y) for x, y in zip(a, b))

    def test_seed_changes_data(self):
        a, _ = generate_dataset(SynthSpec(seed=0))
        b, _ = generate_dataset(SynthSpec(seed=1))
        assert not np.array_equal(a, b)


class TestToyRegressor:
    def test_epoch_coverage_every_scheme(self):
        # each training position is consumed exactly once per epoch, end to end
        counts, z, _, _ = split_columns(SMALL_SPEC)
        partition = small_partition(counts)
        seen_plans = []

        original_plan = synth_mod.plan_epoch
        original_shuffled = synth_mod._epoch_batches_shuffled

        def spy_plan(assignment, batch_size, seed, scheme):
            plan = original_plan(assignment, batch_size, seed, scheme)
            seen_plans.append([s for b in plan.batches for s in b])
            return plan

        def spy_shuffled(n, batch_size, seed):
            batches = original_shuffled(n, batch_size, seed)
            seen_plans.append([s for b in batches for s in b])
            return batches

        synth_mod.plan_epoch = spy_plan
        synth_mod._epoch_batches_shuffled = spy_shuffled
        try:
            for scheme in ("none", "rr", "rs"):
                seen_plans.clear()
                fit_toy_regressor(counts, z, partition, SMALL_TRAINER, scheme, 0)
                assert len(seen_plans) == SMALL_TRAINER.epochs
                want = list(range(len(counts)))
                for epoch_positions in seen_plans:
                    assert sorted(epoch_positions) == want
        finally:
            synth_mod.plan_epoch = original_plan
            synth_mod._epoch_batches_shuffled = original_shuffled

    def test_baseline_never_touches_bin_loss(self):
        counts, z, _, _ = split_columns(SMALL_SPEC)
        partition = small_partition(counts)

        def boom(*args, **kwargs):
            raise AssertionError("baseline consulted the bin loss")

        original = (synth_mod.interval_loss, synth_mod.interval_loss_subgradient)
        synth_mod.interval_loss = boom
        synth_mod.interval_loss_subgradient = boom
        try:
            fit_toy_regressor(counts, z, partition, SMALL_TRAINER, "none", 0)
            with pytest.raises(AssertionError, match="consulted"):
                fit_toy_regressor(counts, z, partition, SMALL_TRAINER, "rr", 0)
        finally:
            synth_mod.interval_loss, synth_mod.interval_loss_subgradient = original

    def test_noise_free_loss_monotone_all_schemes(self):
        spec = replace(SynthSpec(), noise_spread=0.0, noise_bias=0.0)
        counts, z, _, _ = split_columns(spec)
        partition = small_partition(counts)
        for scheme in ("none", "rr", "rs"):
            fit = fit_toy_regressor(counts, z, partition, TrainerConfig(), scheme, 0)
            losses = fit.epoch_losses
            assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:])), scheme

    def test_unknown_scheme_rejected(self):
        counts, z, _, _ = split_columns(SMALL_SPEC)
        partition = small_partition(counts)
        with pytest.raises(ValidationError):
            fit_toy_regressor(counts, z, partition, SMALL_TRAINER, "sgd", 0)

    def test_feature_count_mismatch_rejected(self):
        counts, z, _, _ = split_columns(SMALL_SPEC)
        partition = small_partition(counts)
        with pytest.raises(ValidationError, match="one feature per count"):
            fit_toy_regressor(counts, z[:-1], partition, SMALL_TRAINER, "none", 0)

    def test_noise_free_fit_is_accurate(self):
        # a budget big enough to converge; the comparison defaults stop earlier
        spec = SynthSpec(n_samples=300, noise_spread=0.0)
        counts, z, test_counts, test_z = split_columns(spec)
        partition = small_partition(counts)
        trainer = TrainerConfig(epochs=40, learning_rate=2.0)
        fit = fit_toy_regressor(counts, z, partition, trainer, "none", 0)
        errs = np.abs(test_counts - fit.predict(test_z))
        assert np.mean(errs) < 0.5


    def test_divergence_rejected(self):
        counts, z = generate_dataset(SMALL_SPEC)
        part = small_partition(counts)
        trainer = replace(SMALL_TRAINER, learning_rate=1e308)
        for scheme in synth_mod.SCHEMES:
            with pytest.raises(ValidationError, match="training diverged in epoch 0"):
                fit_toy_regressor(counts, z, part, trainer, scheme, seed=0)


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

    def test_prediction_past_the_bound_rejected(self):
        # the probe stays finite in training but predicts past MAX_PREDICTION
        spec = SynthSpec(n_samples=60)
        trainer = TrainerConfig(epochs=2, learning_rate=5e99)
        with pytest.raises(ValidationError, match=r"prediction 1\.00\d*e\+100 under scheme 'rr' is not finite or exceeds 1e\+100"):
            run_comparison(spec, DEFAULT_SYNTH_BINNING, trainer, (0,))

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

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("epochs", 2.5, "epochs must be an integer"),
            ("epochs", True, "epochs must be an integer"),
            ("batch_size", 2.5, "batch_size must be an integer"),
            ("batch_size", True, "batch_size must be an integer"),
            # epoch plan seeds seed * stride + epoch stay disjoint across seeds
            ("epochs", _EPOCH_SEED_STRIDE + 1, f"epochs must be <= {_EPOCH_SEED_STRIDE}"),
        ],
    )
    def test_integer_fields_checked(self, field, value, message):
        with pytest.raises(ValidationError, match=message):
            TrainerConfig(**{field: value})

    def test_epochs_up_to_the_seed_stride_accepted(self):
        assert TrainerConfig(epochs=_EPOCH_SEED_STRIDE).epochs == _EPOCH_SEED_STRIDE
