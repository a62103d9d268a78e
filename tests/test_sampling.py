import collections
import hashlib
import types
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from countstrat import (
    Bin,
    BinAssignment,
    CountRecord,
    LikelihoodKind,
    Partition,
    SamplingScheme,
    ValidationError,
    assign_bins,
    plan_epoch,
    plan_epoch_rr,
    plan_epoch_rs,
)
from countstrat import sampling
from countstrat.sampling import _bounded_draws, plan_to_json_dict


def make_partition(bounds):
    return Partition(tuple(Bin(lo, hi) for lo, hi in bounds), 0.0, 0.5, LikelihoodKind.MULTINOMIAL)


def make_assignment(sizes):
    buckets = []
    k = 0
    for size in sizes:
        buckets.append(tuple(f"id{k + i}" for i in range(size)))
        k += size
    return BinAssignment(tuple(buckets))


def flatten(plan):
    return [sample for batch in plan.batches for sample in batch]


def rr_prefix_balance_ok(plan, assignment):
    bin_of = {
        sample: k for k, ids in enumerate(assignment.by_bin) for sample in ids
    }
    remaining = [len(ids) for ids in assignment.by_bin]
    drawn = [0] * len(remaining)
    for sample in flatten(plan):
        k = bin_of[sample]
        drawn[k] += 1
        remaining[k] -= 1
        if all(r > 0 for r in remaining):
            if max(drawn) - min(drawn) > 1:
                return False
    return True


class TestAssignBins:
    def test_containment(self):
        part = make_partition([(0, 10), (11, 99)])
        recs = [CountRecord("a", 5), CountRecord("b", 50)]
        asg = assign_bins(recs, part)
        assert asg.by_bin == (("a",), ("b",))
        assert asg.clamped_ids == ()

    def test_hi_boundary_inclusive(self):
        part = make_partition([(0, 10), (11, 99)])
        asg = assign_bins([CountRecord("edge", 10)], part)
        assert asg.by_bin == (("edge",), ())

    def test_clamp_above_range(self):
        part = make_partition([(0, 10), (11, 99)])
        asg = assign_bins([CountRecord("big", 120)], part)
        assert asg.by_bin == ((), ("big",))
        assert asg.clamped_ids == ("big",)

    def test_order_preserved_within_bin(self):
        part = make_partition([(0, 99)])
        recs = [CountRecord(x, 1) for x in "zya"]
        assert assign_bins(recs, part).by_bin == (("z", "y", "a"),)

    def test_counts(self):
        asg = make_assignment([2, 0, 3])
        assert len(asg.by_bin) == 3
        assert asg.total == 5


class TestRoundRobin:
    def test_sizes_2_1(self):
        plan = plan_epoch_rr(make_assignment([2, 1]), batch_size=2, seed=0)
        assert [len(b) for b in plan.batches] == [2, 1]
        assert sorted(flatten(plan)) == ["id0", "id1", "id2"]

    def test_single_bin_is_shuffle(self):
        asg = make_assignment([7])
        plan = plan_epoch_rr(asg, batch_size=3, seed=5)
        assert sorted(flatten(plan)) == sorted(asg.by_bin[0])
        assert [len(b) for b in plan.batches] == [3, 3, 1]

    def test_equal_bins_alternate(self):
        asg = make_assignment([4, 4])
        plan = plan_epoch_rr(asg, batch_size=2, seed=1)
        first = set(asg.by_bin[0])
        for batch in plan.batches:
            assert len(batch) == 2
            assert sum(1 for s in batch if s in first) == 1

    def test_skips_empty_and_exhausted_bins(self):
        asg = make_assignment([3, 0, 1])
        plan = plan_epoch_rr(asg, batch_size=2, seed=2)
        assert sorted(flatten(plan)) == sorted(asg.by_bin[0] + asg.by_bin[2])

    def test_deterministic(self):
        asg = make_assignment([5, 3, 4])
        a = plan_epoch_rr(asg, 4, 9)
        b = plan_epoch_rr(asg, 4, 9)
        assert a == b

    def test_validation(self):
        with pytest.raises(ValidationError):
            plan_epoch_rr(make_assignment([2]), batch_size=0, seed=0)
        with pytest.raises(ValidationError):
            plan_epoch_rr(make_assignment([0, 0]), batch_size=2, seed=0)


class TestRandomBin:
    def test_single_bin(self):
        asg = make_assignment([6])
        plan = plan_epoch_rs(asg, batch_size=4, seed=3)
        assert sorted(flatten(plan)) == sorted(asg.by_bin[0])

    def test_coverage_multiset(self):
        asg = make_assignment([3, 5, 2])
        plan = plan_epoch_rs(asg, batch_size=4, seed=11)
        everything = [s for ids in asg.by_bin for s in ids]
        assert sorted(flatten(plan)) == sorted(everything)

    def test_two_singletons_one_batch(self):
        plan = plan_epoch_rs(make_assignment([1, 1]), batch_size=2, seed=0)
        assert len(plan.batches) == 1
        assert sorted(plan.batches[0]) == ["id0", "id1"]

    def test_deterministic(self):
        asg = make_assignment([5, 3])
        assert plan_epoch_rs(asg, 2, 21) == plan_epoch_rs(asg, 2, 21)

    def test_marginal_balance_chi_square(self):
        # first draw over seeds 0..1023 should be uniform over 3 bins
        asg = make_assignment([8, 8, 8])
        bin_of = {s: k for k, ids in enumerate(asg.by_bin) for s in ids}
        counts = collections.Counter(
            bin_of[plan_epoch_rs(asg, 4, seed).batches[0][0]] for seed in range(1024)
        )
        expected = 1024 / 3
        chi2 = sum((counts[k] - expected) ** 2 / expected for k in range(3))
        assert chi2 < 13.8  # p ~ 0.001 bound, 2 dof


class TestPlanInvariants:
    @given(
        scheme=st.sampled_from(SamplingScheme),
        sizes=st.lists(st.integers(0, 8), min_size=1, max_size=6).filter(any),
        batch_size=st.integers(1, 7),
        seed=st.integers(0, 10_000),
    )
    def test_epoch_permutation_and_replay(self, scheme, sizes, batch_size, seed):
        asg = make_assignment(sizes)
        plan = plan_epoch(asg, batch_size, seed, scheme)
        everything = [s for ids in asg.by_bin for s in ids]
        assert sorted(flatten(plan)) == sorted(everything)
        assert len(set(flatten(plan))) == len(everything)
        assert all(len(b) == batch_size for b in plan.batches[:-1])
        assert 1 <= len(plan.batches[-1]) <= batch_size
        assert plan == plan_epoch(asg, batch_size, seed, scheme)

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValidationError, match="unknown scheme 'rr'"):
            plan_epoch(make_assignment([2, 1]), 2, 0, "rr")

    @given(
        sizes=st.lists(st.integers(1, 8), min_size=2, max_size=5),
        batch_size=st.integers(1, 5),
        seed=st.integers(0, 999),
    )
    def test_rr_prefix_balance(self, sizes, batch_size, seed):
        asg = make_assignment(sizes)
        assert rr_prefix_balance_ok(plan_epoch_rr(asg, batch_size, seed), asg)

    def test_json_dict(self):
        plan = plan_epoch_rr(make_assignment([2, 2]), 2, 4)
        doc = plan_to_json_dict(plan)
        assert doc["scheme"] == "rr"
        assert doc["batch_size"] == 2
        assert doc["seed"] == 4
        assert sorted(s for b in doc["batches"] for s in b) == ["id0", "id1", "id2", "id3"]


def pinned_assignment():
    """2,923 ids in 100 bins, 6 of them empty and 6 holding a single id."""
    sizes = np.random.Generator(np.random.PCG64(2024)).integers(0, 71, size=100)
    sizes[::23] = 0
    sizes[7::19] = 1
    return make_assignment(sizes.tolist())


# sha256 of each plan's batches, one line per batch; computed with the
# scalar-draw implementations these plans must keep reproducing
@pytest.mark.parametrize(
    "plan_fn, seed, digest",
    [
        (plan_epoch_rr, 0, "b6447016087f5b22e5184a02f094d31abf701c5efd024a67c7c265a51f135473"),
        (plan_epoch_rr, 7, "cb6a70adacb0e3a368367ce20cc3411032bfba40ba8494002f72ec9fd854743d"),
        (plan_epoch_rs, 0, "926f322dde6dcb0c4ba3b0c5f6f5005600948a19359b96d934dd0ac32b156f89"),
        (plan_epoch_rs, 7, "b09a47d92bc2c4233dae0d25038cf477a9011cb1c435a5a0b87782cd9e73b037"),
    ],
)
def test_plans_pinned(plan_fn, seed, digest):
    plan = plan_fn(pinned_assignment(), 32, seed)
    text = "\n".join(",".join(batch) for batch in plan.batches)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# bounds with a special path or rejection rate: 1 draws nothing, 2**31 + 1
# rejects about half of its values, 3 * 2**30 + 7 about a quarter, 2**32
# accepts every value
bounds = st.one_of(
    st.just(1),
    st.integers(2, 1000),
    st.sampled_from([2**31 + 1, 3 * 2**30 + 7, 2**32 - 1, 2**32]),
)


@given(
    refill=st.sampled_from([1, 3]),
    seed=st.integers(0, 2**64 - 1),
    seq=st.lists(bounds, min_size=20, max_size=80),
)
def test_bounded_draws_match_integers(refill, seed, seq):
    # more draws than one refill's 2 * refill values, so the first refill runs out
    assume(sum(b > 1 for b in seq) > 2 * refill)
    with mock.patch.object(sampling, "_REFILL", refill):
        draw = _bounded_draws(seed, 2**32)
        rng = np.random.Generator(np.random.PCG64(seed))
        assert [draw(b) for b in seq] == [int(rng.integers(b)) for b in seq]


def test_bounded_draws_match_integers_past_full_refills():
    seq = np.random.Generator(np.random.PCG64(1)).choice([1, 3, 2**31 + 1, 2**32], size=5000).tolist()
    draw = _bounded_draws(9, 2**32)
    rng = np.random.Generator(np.random.PCG64(9))
    assert [draw(b) for b in seq] == [int(rng.integers(b)) for b in seq]


def test_bound_above_2_32_rejected():
    _bounded_draws(0, 2**32)
    with pytest.raises(ValidationError, match="2\\*\\*32"):
        _bounded_draws(0, 2**32 + 1)
    huge = types.SimpleNamespace(by_bin=(), total=2**32 + 1)
    with pytest.raises(ValidationError, match="2\\*\\*32"):
        plan_epoch_rs(huge, 32, 0)


def plan_epoch_rs_scalar(assignment, batch_size, seed):
    """plan_epoch_rs with two scalar Generator.integers draws per step."""
    remaining = [list(ids) for ids in assignment.by_bin]
    rng = np.random.Generator(np.random.PCG64(seed))
    nonempty = [i for i, bucket in enumerate(remaining) if bucket]
    draws = []
    for _ in range(assignment.total):
        at = int(rng.integers(len(nonempty)))
        bucket = remaining[nonempty[at]]
        j = int(rng.integers(len(bucket)))
        bucket[j], bucket[-1] = bucket[-1], bucket[j]
        draws.append(bucket.pop())
        if not bucket:
            del nonempty[at]
    return tuple(tuple(draws[i : i + batch_size]) for i in range(0, len(draws), batch_size))


@given(
    sizes=st.lists(st.integers(0, 40) | st.sampled_from([0, 1]), min_size=1, max_size=30).filter(any),
    batch_size=st.integers(1, 9),
    seed=st.integers(0, 2**64 - 1),
)
def test_rs_plan_matches_scalar_draws(sizes, batch_size, seed):
    asg = make_assignment(sizes)
    assert plan_epoch_rs(asg, batch_size, seed).batches == plan_epoch_rs_scalar(asg, batch_size, seed)
