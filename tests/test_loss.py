import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from countstrat import (
    Bin,
    LossConfig,
    RangeError,
    ValidationError,
    bin_loss,
    bin_loss_subgradient,
    combined_loss,
    routed_bin_loss,
    routed_bin_loss_subgradient,
)
from countstrat.loss import interval_loss_subgradients, interval_losses
from scalar_reference import scalar_interval_loss, scalar_interval_loss_subgradient

REF_BIN = Bin(40, 50)  # ground truth 45 sits mid-bin


def central_difference(y, y_hat, bin_, lambda1, h=1e-6):
    hi = bin_loss(y, y_hat + h, bin_, lambda1)
    lo = bin_loss(y, y_hat - h, bin_, lambda1)
    return (hi - lo) / (2 * h)


class TestBinLoss:
    def test_exact_prediction(self):
        assert bin_loss(45, 45, REF_BIN, 1.0) == 0.0

    def test_inside_bin_log_branch(self):
        assert bin_loss(45, 48, REF_BIN, 1.0) == pytest.approx(math.log(4), abs=1e-12)

    def test_outside_bin_linear_branch(self):
        assert bin_loss(45, 60, REF_BIN, 1.0) == pytest.approx(15.0, abs=1e-12)

    def test_bin_edges_take_log_branch(self):
        assert bin_loss(45, 40.0, REF_BIN, 1.0) == pytest.approx(math.log(6), abs=1e-12)
        assert bin_loss(45, 50.0, REF_BIN, 1.0) == pytest.approx(math.log(6), abs=1e-12)

    def test_lambda1_scales_log_branch_only(self):
        assert bin_loss(45, 48, REF_BIN, 10.0) == pytest.approx(10 * math.log(4), abs=1e-12)
        assert bin_loss(45, 60, REF_BIN, 10.0) == pytest.approx(15.0, abs=1e-12)

    def test_ground_truth_outside_bin_rejected(self):
        with pytest.raises(ValidationError, match=r"ground truth 45 outside its bin \[0, 10\]"):
            bin_loss(45, 45, Bin(0, 10), 1.0)
        with pytest.raises(ValidationError, match=r"ground truth 45 outside its bin \[0, 10\]"):
            bin_loss_subgradient(45, 45, Bin(0, 10), 1.0)

    def test_zero_is_minimum(self):
        for y_hat in np.linspace(20, 80, 121):
            assert bin_loss(45, float(y_hat), REF_BIN, 1.0) >= 0.0

    def test_log_branch_below_linear_for_unit_lambda(self):
        # lambda1 * ln(1+e) <= e for lambda1 = 1 on any error magnitude
        for e in np.linspace(0.0, 30.0, 61):
            assert math.log1p(e) <= e + 1e-15


class TestCombinedLoss:
    def test_addition(self):
        got = combined_loss(2.0, 45, 48, REF_BIN, LossConfig(1.0, 1.0))
        assert got == pytest.approx(2.0 + math.log(4), abs=1e-12)

    def test_lambda2_zero_annihilates(self):
        assert combined_loss(2.0, 45, 60, REF_BIN, LossConfig(1.0, 0.0)) == 2.0

    def test_small_lambda2_scaling(self):
        got = combined_loss(1.0, 45, 60, REF_BIN, LossConfig(1.0, 0.01))
        assert got == pytest.approx(1.0 + 0.15, abs=1e-12)

    def test_non_finite_model_loss_rejected(self):
        with pytest.raises(ValidationError):
            combined_loss(float("inf"), 45, 48, REF_BIN, LossConfig())

    def test_defaults_are_unit_weights(self):
        cfg = LossConfig()
        assert cfg.lambda1 == 1.0 and cfg.lambda2 == 1.0

    def test_negative_weights_rejected(self):
        with pytest.raises(ValidationError):
            LossConfig(-1.0, 1.0)
        with pytest.raises(ValidationError):
            LossConfig(1.0, -0.5)


class TestSubgradient:
    def test_inside_positive_side(self):
        assert bin_loss_subgradient(45, 48, REF_BIN, 1.0) == pytest.approx(0.25, abs=1e-12)

    def test_inside_negative_side(self):
        assert bin_loss_subgradient(45, 40, REF_BIN, 1.0) == pytest.approx(-1 / 6, abs=1e-12)

    def test_outside_linear(self):
        assert bin_loss_subgradient(45, 60, REF_BIN, 1.0) == 1.0
        assert bin_loss_subgradient(45, 20, REF_BIN, 1.0) == -1.0

    def test_zero_at_exact(self):
        assert bin_loss_subgradient(45, 45, REF_BIN, 1.0) == 0.0

    def test_boundary_uses_inside_branch(self):
        assert bin_loss_subgradient(45, 50.0, REF_BIN, 1.0) == pytest.approx(1 / 6, abs=1e-12)

    def test_matches_central_differences(self):
        rng = np.random.default_rng(0)
        kinks = (45.0, 40.0, 50.0)
        checked = 0
        while checked < 300:
            y_hat = float(rng.uniform(25, 70))
            if min(abs(y_hat - k) for k in kinks) < 1e-3:
                continue
            grad = bin_loss_subgradient(45, y_hat, REF_BIN, 1.0)
            fd = central_difference(45, y_hat, REF_BIN, 1.0)
            assert abs(grad - fd) < 1e-6, y_hat
            checked += 1


class TestRoutedVariants:
    BINS = (Bin(0, 10), Bin(11, 99))

    def test_routes_by_ground_truth(self):
        value, b = routed_bin_loss(5, 7, self.BINS, 1.0)
        assert b == Bin(0, 10)
        assert value == pytest.approx(math.log(3), abs=1e-12)

    def test_clamps_above_range(self):
        value, b = routed_bin_loss(150, 120, self.BINS, 1.0)
        assert b == Bin(11, 99)
        assert value == pytest.approx(30.0, abs=1e-12)  # y_hat outside, linear

    def test_subgradient_route(self):
        got = routed_bin_loss_subgradient(5, 7, self.BINS, 1.0)
        assert got == pytest.approx(1 / 3, abs=1e-12)

    @pytest.mark.parametrize(
        "y, message",
        [(math.nan, "count nan is not a number"), (2, "count 2 below partition range start 3"), (-0.5, "count -0.5 below")],
    )
    def test_both_routes_reject_a_truth_off_the_range_alike(self, y, message):
        bins = (Bin(3, 10), Bin(11, 99))
        with pytest.raises(RangeError, match=message):
            routed_bin_loss(y, 7, bins, 1.0)
        with pytest.raises(RangeError, match=message):
            routed_bin_loss_subgradient(y, 7, bins, 1.0)


SPECIAL = [0.0, -0.0, 1.0, 40.0, 50.0, 1e300, -1e300, math.inf, -math.inf, math.nan]


class TestArrayForms:
    @given(
        st.lists(
            st.tuples(
                st.floats(0, 100) | st.sampled_from(SPECIAL),
                st.floats(-1e3, 1e3) | st.sampled_from(SPECIAL),
                st.integers(0, 60),
                st.integers(0, 60),
            ),
            max_size=40,
        ),
        st.sampled_from([0.0, 0.5, 1.0, 1e308]),
    )
    def test_match_the_scalar_formulas_bit_for_bit(self, rows, lambda1):
        # also: no RuntimeWarning (overflow, inf - inf) escapes, as with Python floats
        ys, y_hats, los, his = (list(col) for col in zip(*rows)) if rows else ([], [], [], [])
        los, his = np.array(los, dtype=np.int64), np.array(his, dtype=np.int64)
        got = interval_losses(ys, y_hats, los, his, lambda1).tolist()
        grads = interval_loss_subgradients(ys, y_hats, los, his, lambda1).tolist()
        for (y, y_hat, lo, hi), value, grad in zip(rows, got, grads):
            want = scalar_interval_loss(y, y_hat, lo, hi, lambda1)
            want_grad = scalar_interval_loss_subgradient(y, y_hat, lo, hi, lambda1)
            assert value.hex() == float(want).hex()
            assert grad.hex() == float(want_grad).hex()
            if not lo <= hi:
                continue
            b = Bin(lo, hi)
            if b.contains(y):  # the scalar forms on one element give the same bits
                assert bin_loss(y, y_hat, b, lambda1).hex() == float(want).hex()
                assert bin_loss_subgradient(y, y_hat, b, lambda1).hex() == float(want_grad).hex()
                assert combined_loss(0.5, y, y_hat, b, LossConfig(lambda1, 2.0)).hex() == (0.5 + 2.0 * want).hex()
            if y >= lo:  # a one-bin partition routes every truth from lo up to b
                loss, used = routed_bin_loss(y, y_hat, (b,), lambda1)
                assert (loss.hex(), used) == (float(want).hex(), b)
                assert routed_bin_loss_subgradient(y, y_hat, (b,), lambda1).hex() == float(want_grad).hex()

    def test_in_bin_log_is_math_log1p(self):
        # numpy's log1p differs from math.log1p in the last bit on some of these
        y_hats = np.random.default_rng(0).uniform(0.0, 100.0, 5000)
        got = interval_losses(np.zeros(5000), y_hats, 0, 100, 1.0)
        assert got.tolist() == [math.log1p(v) for v in y_hats.tolist()]

    def test_shapes_follow_the_inputs(self):
        ys = np.array([[45.0, 45.0], [10.0, 3.0]])
        y_hats = np.array([[48.0, 60.0], [10.0, 2.0]])
        got = interval_losses(ys, y_hats, 40, 50, 1.0)
        assert got.shape == (2, 2) and got.tolist() == [[math.log1p(3.0), 15.0], [0.0, 1.0]]
        grads = interval_loss_subgradients(ys, y_hats, 40, 50, 1.0)
        assert grads.tolist() == [[0.25, 1.0], [0.0, -1.0]]
