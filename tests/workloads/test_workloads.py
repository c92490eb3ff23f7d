"""Tests for workload generation."""

import pytest
from hypothesis import given, strategies as st

from repro.workloads.partitions import (
    random_partition_schedule,
    random_simple_split,
    random_transient_schedule,
)
from repro.workloads.transactions import (
    TransactionMix,
    WorkloadConfig,
    generate_arrivals,
    generate_transactions,
    key_weights,
    transaction_stream,
)

import random


class TestTransactionMix:
    def test_defaults(self):
        mix = TransactionMix()
        assert 0.0 <= mix.read_fraction <= 1.0
        assert mix.operations_per_site >= 1

    def test_rejects_bad_read_fraction(self):
        with pytest.raises(ValueError):
            TransactionMix(read_fraction=1.5)


class TestWorkloadConfigValidation:
    def test_rejects_master_outside_site_range(self):
        with pytest.raises(ValueError, match="master"):
            WorkloadConfig(n_sites=3, master=4)

    def test_rejects_empty_keyspace(self):
        with pytest.raises(ValueError, match="keys"):
            WorkloadConfig(keys=())

    def test_rejects_single_participant(self):
        # The generator always emits master + >= 1 slave; a value of 1
        # would be silently generated as 2, so it is rejected up front.
        with pytest.raises(ValueError, match="participants_per_transaction"):
            WorkloadConfig(n_sites=3, participants_per_transaction=1)

    def test_rejects_zero_operations(self):
        with pytest.raises(ValueError):
            TransactionMix(operations_per_site=0)


class TestGenerateTransactions:
    def test_count_matches_config(self):
        config = WorkloadConfig(n_transactions=7)
        assert len(generate_transactions(config)) == 7

    def test_deterministic_given_seed(self):
        config = WorkloadConfig(n_transactions=5, seed=11)
        a = generate_transactions(config)
        b = generate_transactions(config)
        assert [t.transaction_id for t in a] == [t.transaction_id for t in b]
        assert [t.participants for t in a] == [t.participants for t in b]

    def test_different_seeds_differ(self):
        base = WorkloadConfig(
            n_transactions=20, participants_per_transaction=2, n_sites=5
        )
        a = generate_transactions(WorkloadConfig(**{**base.__dict__, "seed": 1}))
        b = generate_transactions(WorkloadConfig(**{**base.__dict__, "seed": 2}))
        assert [t.participants for t in a] != [t.participants for t in b]

    def test_all_sites_participate_by_default(self):
        config = WorkloadConfig(n_sites=4, n_transactions=3)
        for transaction in generate_transactions(config):
            assert transaction.participants == (1, 2, 3, 4)

    def test_partial_participation_respects_master(self):
        config = WorkloadConfig(
            n_sites=6, n_transactions=10, participants_per_transaction=3, seed=4
        )
        for transaction in generate_transactions(config):
            assert transaction.master == 1
            assert 1 in transaction.participants
            assert len(transaction.participants) == 3

    def test_keys_drawn_from_configured_keyspace(self):
        config = WorkloadConfig(keys=("k1", "k2"), n_transactions=5)
        for transaction in generate_transactions(config):
            for operation in transaction.operations:
                assert operation.key in ("k1", "k2")

    def test_read_fraction_zero_generates_only_writes(self):
        config = WorkloadConfig(
            mix=TransactionMix(read_fraction=0.0), n_transactions=5
        )
        for transaction in generate_transactions(config):
            assert all(op.kind.value == "write" for op in transaction.operations)

    def test_stream_matches_list(self):
        config = WorkloadConfig(n_transactions=4)
        assert [t.transaction_id for t in transaction_stream(config)] == [
            t.transaction_id for t in generate_transactions(config)
        ]


class TestHotspotSkew:
    def test_zero_hotspot_preserves_the_uniform_stream(self):
        # hotspot=0 must keep PR 3's byte-exact random draws.
        uniform = generate_transactions(WorkloadConfig(n_transactions=10, seed=3))
        skewless = generate_transactions(
            WorkloadConfig(n_transactions=10, seed=3, hotspot=0.0)
        )
        assert [t.operations for t in uniform] == [t.operations for t in skewless]
        assert key_weights(WorkloadConfig(hotspot=0.0)) is None

    def test_weights_are_zipf_like(self):
        weights = key_weights(WorkloadConfig(hotspot=1.0, keys=("a", "b", "c", "d")))
        assert weights == [1.0, 0.5, pytest.approx(1 / 3), 0.25]

    def test_skew_concentrates_traffic_on_the_hot_key(self):
        keys = tuple(f"k{i}" for i in range(8))
        def hot_share(hotspot):
            config = WorkloadConfig(
                n_transactions=200, keys=keys, hotspot=hotspot, seed=1
            )
            ops = [
                op for t in generate_transactions(config) for op in t.operations
            ]
            return sum(1 for op in ops if op.key == "k0") / len(ops)
        assert hot_share(2.0) > hot_share(0.8) > hot_share(0.0)
        assert hot_share(2.0) > 0.5

    def test_rejects_negative_hotspot(self):
        with pytest.raises(ValueError, match="hotspot"):
            WorkloadConfig(hotspot=-0.1)


class TestArrivalProcesses:
    def test_uniform_is_evenly_spaced(self):
        assert generate_arrivals(4, mean_gap=0.5) == [0.0, 0.5, 1.0, 1.5]

    def test_poisson_is_seed_deterministic_and_open_loop(self):
        a = generate_arrivals(20, mean_gap=1.0, process="poisson", seed=5)
        b = generate_arrivals(20, mean_gap=1.0, process="poisson", seed=5)
        other = generate_arrivals(20, mean_gap=1.0, process="poisson", seed=6)
        assert a == b
        assert a != other
        assert a[0] == 0.0
        assert a == sorted(a)
        gaps = [later - earlier for earlier, later in zip(a, a[1:])]
        assert min(gaps) != max(gaps)  # genuinely bursty, not uniform

    def test_poisson_mean_gap_is_roughly_right(self):
        arrivals = generate_arrivals(2000, mean_gap=0.5, process="poisson", seed=0)
        mean = arrivals[-1] / (len(arrivals) - 1)
        assert 0.4 < mean < 0.6

    def test_rejects_unknown_process_and_bad_gap(self):
        with pytest.raises(ValueError, match="arrival process"):
            generate_arrivals(3, mean_gap=1.0, process="bursty")
        with pytest.raises(ValueError, match="mean_gap"):
            generate_arrivals(3, mean_gap=0.0)


class TestRandomPartitions:
    def test_random_split_keeps_master_in_g1(self):
        rng = random.Random(3)
        for _ in range(20):
            spec = random_simple_split(5, rng)
            assert spec.group_of(1) is not None
            assert spec.is_simple

    def test_random_schedule_deterministic_by_seed(self):
        a = random_partition_schedule(4, seed=9)
        b = random_partition_schedule(4, seed=9)
        assert [e.time for e in a] == [e.time for e in b]

    def test_transient_schedule_has_heal(self):
        schedule = random_transient_schedule(4, seed=2)
        events = list(schedule)
        assert len(events) == 2
        assert events[1].is_heal
        assert events[1].time > events[0].time

    @given(st.integers(min_value=0, max_value=200))
    def test_property_onset_within_configured_range(self, seed):
        schedule = random_partition_schedule(3, seed=seed, earliest=1.0, latest=2.0)
        onset = next(iter(schedule)).time
        assert 1.0 <= onset <= 2.0
