from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import countstrat.synth as synth_mod
from countstrat import (
    BinningConfig,
    LikelihoodKind,
    LossConfig,
    SynthSpec,
    TrainerConfig,
    ValidationError,
    fit_toy_regressor,
    generate_dataset,
    run_comparison,
)
from countstrat.counts import count_histogram, smooth
from countstrat.stratify import fit_partition_columns, optimal_partition
from countstrat.synth import _EPOCH_SEED_STRIDE, DEFAULT_SYNTH_BINNING, MAX_N_SAMPLES, comparison_json_dict
from countstrat.tuning import MAX_N_SEEDS, _index_split
from scalar_reference import reference_fit

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


def fit_bits(fit):
    """A fit's numbers as their exact bits (float.hex tells -0.0 from 0.0)."""
    return (fit.weight.hex(), fit.offset.hex(), fit.scale.hex(), tuple(x.hex() for x in fit.epoch_losses))


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
        with pytest.raises(ValidationError, match="log_sigma must be >= 0"):
            SynthSpec(log_sigma=-0.1)
        with pytest.raises(ValidationError, match="n_samples must be <= 1000000"):
            SynthSpec(n_samples=MAX_N_SAMPLES + 1)
        assert SynthSpec(n_samples=MAX_N_SAMPLES).n_samples == MAX_N_SAMPLES

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

    @pytest.mark.parametrize(
        "noise", [{"noise_spread": 1e308}, {"noise_bias": -1e308}, {"noise_bias": 1e306, "max_count": 1}]
    )
    def test_overflowing_features_rejected(self, noise):
        # the last: every feature is finite, their sum (the mean's) is not
        with pytest.raises(ValidationError, match="noise_spread .* and noise_bias .* make the features"):
            generate_dataset(SynthSpec(**noise))

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

        original = (synth_mod.interval_losses, synth_mod.interval_loss_subgradients)
        synth_mod.interval_losses = boom
        synth_mod.interval_loss_subgradients = boom
        try:
            fit_toy_regressor(counts, z, partition, SMALL_TRAINER, "none", 0)
            with pytest.raises(AssertionError, match="consulted"):
                fit_toy_regressor(counts, z, partition, SMALL_TRAINER, "rr", 0)
        finally:
            synth_mod.interval_losses, synth_mod.interval_loss_subgradients = original

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

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [None, np.inf, np.nan])
    def test_non_finite_features_or_scale_rejected(self, bad):
        # 600 features of 1e306 are finite, their mean magnitude is not
        counts, z, _, _ = split_columns(SynthSpec())
        if bad is None:
            z = np.full(len(counts), 1e306)
        else:
            z[7] = bad
        with pytest.raises(ValidationError, match="features must be finite, and so must their mean magnitude"):
            fit_toy_regressor(counts, z, small_partition(counts), SMALL_TRAINER, "rr", 0)

    @pytest.mark.filterwarnings("error")
    def test_empty_training_set_rejected(self):
        counts, z, _, _ = split_columns(SMALL_SPEC)
        with pytest.raises(ValidationError, match="at least one training sample"):
            fit_toy_regressor(counts[:0], z[:0], small_partition(counts), SMALL_TRAINER, "none", 0)

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


class TestLockstep:
    @settings(max_examples=60)
    @given(
        n_samples=st.integers(8, 120),
        max_count=st.sampled_from([30, 200, 2000]),
        seeds=st.lists(st.integers(0, 50), min_size=1, max_size=3, unique=True),
        epochs=st.integers(1, 4),
        batch_size=st.integers(1, 40),
        learning_rate=st.sampled_from([0.05, 0.5, 4.0, 1e150, 1e308]),
        lambda1=st.sampled_from([0.0, 0.7, 1.0, 3.0]),
        lambda2=st.sampled_from([0.0, 0.25, 1.0]),
        kind=st.sampled_from(LikelihoodKind),
        alpha=st.sampled_from([None, 1, 2, 6]),
        data=st.data(),
    )
    def test_matches_the_scalar_trainer(
        self, n_samples, max_count, seeds, epochs, batch_size, learning_rate, lambda1, lambda2, kind, alpha, data
    ):
        cfg = TrainerConfig(epochs, learning_rate, batch_size, LossConfig(lambda1, lambda2))
        binning = BinningConfig(gamma=0.3, alpha=alpha, likelihood_kind=kind)
        jobs = []
        for seed in seeds:
            counts, z, _, _ = split_columns(SynthSpec(n_samples=n_samples, max_count=max_count, seed=seed), seed=seed)
            partition = fit_partition_columns(counts, binning)
            jobs += [synth_mod._Job(counts, z, partition, scheme, seed) for scheme in synth_mod.SCHEMES]
        # in any order: the bin-loss rows need not come first or in runs
        jobs = data.draw(st.permutations(jobs))
        fits, failed = synth_mod._train(jobs, cfg)
        for job, fit, epoch in zip(jobs, fits, failed):
            try:
                want = reference_fit(*job[:3], cfg, *job[3:])
            except ValidationError as exc:
                assert epoch is not None and f"diverged in epoch {epoch} " in str(exc)
            else:
                assert epoch is None and fit_bits(fit) == fit_bits(want)

    def test_fit_toy_regressor_is_the_trainer_on_one_job(self):
        counts, z, _, _ = split_columns(SMALL_SPEC)
        partition = small_partition(counts)
        for scheme in synth_mod.SCHEMES:
            want = reference_fit(counts, z, partition, SMALL_TRAINER, scheme, 3)
            assert fit_bits(fit_toy_regressor(counts, z, partition, SMALL_TRAINER, scheme, 3)) == fit_bits(want)

    def test_jobs_of_two_sizes_rejected(self):
        counts, z, _, _ = split_columns(SMALL_SPEC)
        partition = small_partition(counts)
        jobs = [synth_mod._Job(counts, z, partition, "none", 0), synth_mod._Job(counts[1:], z[1:], partition, "rr", 0)]
        with pytest.raises(ValidationError, match="one size"):
            synth_mod._train(jobs, SMALL_TRAINER)


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

    def test_one_seed_per_chunk_changes_nothing(self, monkeypatch):
        seeds = (0, 1, 2)
        want = run_comparison(SMALL_SPEC, DEFAULT_SYNTH_BINNING, SMALL_TRAINER, seeds)
        chunks = []
        original = synth_mod._train

        def spy(jobs, cfg):
            chunks.append(sorted({job.seed for job in jobs}))
            return original(jobs, cfg)

        monkeypatch.setattr(synth_mod, "_train", spy)
        monkeypatch.setattr(synth_mod, "_MAX_TRAIN_ENTRIES", len(synth_mod.SCHEMES) * SMALL_SPEC.n_samples)
        assert run_comparison(SMALL_SPEC, DEFAULT_SYNTH_BINNING, SMALL_TRAINER, seeds) == want
        assert chunks == [[0], [1], [2]]

    def test_defaults_train_in_one_chunk(self):
        n_train = len(_index_split(SynthSpec().n_samples, TrainerConfig().holdout_ratio, 0)[0])
        assert len(synth_mod.SCHEMES) * 10 * n_train == 18_000
        assert len(synth_mod.SCHEMES) * 10 * SynthSpec().n_samples <= synth_mod._MAX_TRAIN_ENTRIES

    def test_every_fit_diverging_raises_the_first(self):
        trainer = replace(SMALL_TRAINER, learning_rate=1e308)
        with pytest.raises(ValidationError, match="training diverged in epoch 0 under scheme 'none'"):
            run_comparison(SMALL_SPEC, DEFAULT_SYNTH_BINNING, trainer, (0, 1))

    def test_a_later_seeds_partition_error_comes_after_earlier_errors(self, monkeypatch):
        original = synth_mod.fit_partition_columns
        calls = []

        def fail_second(counts, cfg):
            calls.append(len(calls))
            if len(calls) == 2:
                raise ValidationError("partition of the second seed")
            return original(counts, cfg)

        monkeypatch.setattr(synth_mod, "fit_partition_columns", fail_second)
        with pytest.raises(ValidationError, match="second seed"):
            run_comparison(SMALL_SPEC, DEFAULT_SYNTH_BINNING, SMALL_TRAINER, (0, 1, 2))
        assert len(calls) == 2  # the third seed is never drawn
        calls.clear()
        trainer = replace(SMALL_TRAINER, learning_rate=1e308)
        with pytest.raises(ValidationError, match="training diverged in epoch 0 under scheme 'none'"):
            run_comparison(SMALL_SPEC, DEFAULT_SYNTH_BINNING, trainer, (0, 1, 2))

    def test_empty_seeds_rejected(self):
        with pytest.raises(ValidationError):
            run_comparison(SMALL_SPEC, DEFAULT_SYNTH_BINNING, SMALL_TRAINER, ())

    def test_seed_count_bounded_before_any_seed_runs(self, monkeypatch):
        def no_seed(*args):
            raise AssertionError("a seed ran")

        monkeypatch.setattr(synth_mod, "_compare_seeds", no_seed)
        with pytest.raises(ValidationError, match="need 1 to 1000 seeds, got 100000000"):
            run_comparison(SMALL_SPEC, DEFAULT_SYNTH_BINNING, SMALL_TRAINER, range(10**8))
        with pytest.raises(AssertionError, match="a seed ran"):
            run_comparison(SMALL_SPEC, DEFAULT_SYNTH_BINNING, SMALL_TRAINER, range(MAX_N_SEEDS))

    def test_win_counts_are_the_strict_per_seed_wins(self, monkeypatch):
        rep = run_comparison(SMALL_SPEC, DEFAULT_SYNTH_BINNING, SMALL_TRAINER, (0, 1, 2))
        stds = dict(rep.pooled_std_by_seed)
        assert dict(rep.win_counts) == {s: sum(a < b for a, b in zip(stds[s], stds["none"])) for s in ("rr", "rs")}
        # a tie is a win for neither scheme
        table = {"none": (2.0, 2.0, 2.0, 2.0), "rr": (1.0, 2.0, 3.0, 1.5), "rs": (2.0, 2.0, 2.0, 2.0)}

        def fake_seeds(spec, binning, trainer, seeds):
            return [{s: SimpleNamespace(pooled_std=table[s][k]) for s in table} for k in seeds]

        monkeypatch.setattr(synth_mod, "_compare_seeds", fake_seeds)
        rep = run_comparison(SMALL_SPEC, DEFAULT_SYNTH_BINNING, SMALL_TRAINER, range(4))
        assert rep.pooled_std_by_seed == tuple(table.items())
        assert rep.win_counts == (("rr", 2), ("rs", 0))

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
