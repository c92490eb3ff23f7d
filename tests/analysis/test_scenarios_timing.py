"""Tests for scenario generation and timing measurement."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.scenarios import default_partition_times
from repro.core.reachability import simple_splits
from repro.analysis.timing import (
    TimingMeasurement,
    measure_master_probe_window,
    measure_protocol_timeouts,
    measure_wait_after_timeout_in_p,
    measure_wait_after_timeout_in_w,
    worst_case,
)
from repro.engine import ScenarioGrid
from repro.protocols.registry import create_protocol
from repro.protocols.runner import ScenarioSpec, run_scenario
from repro.sim.partition import PartitionSchedule


class TestSplitChoices:
    def test_three_sites_has_three_splits(self):
        splits = simple_splits(3)
        assert len(splits) == 3
        for g1, g2 in splits:
            assert 1 in g1
            assert set(g1) | set(g2) == {1, 2, 3}
            assert not set(g1) & set(g2)

    def test_four_sites_has_seven_splits(self):
        assert len(simple_splits(4)) == 7

    @given(st.integers(min_value=2, max_value=7))
    def test_property_split_count_is_two_to_slaves_minus_one(self, n_sites):
        assert len(simple_splits(n_sites)) == 2 ** (n_sites - 1) - 1

    def test_master_always_in_g1(self):
        for g1, g2 in simple_splits(5):
            assert 1 in g1
            assert 1 not in g2


def partition_sweep(n_sites, **kwargs):
    return list(ScenarioGrid.from_partition_sweep("two-phase-commit", n_sites, **kwargs).specs())


class TestScenarioGrid:
    def test_grid_size_matches_len(self):
        grid = ScenarioGrid.from_partition_sweep("two-phase-commit", 3, times=[1.0, 2.0])
        specs = list(grid.specs())
        assert len(specs) == len(grid) == 2 * 3

    def test_partition_sweep_builds_specs(self):
        specs = partition_sweep(3, times=[1.0, 2.5])
        assert len(specs) == 6
        assert all(spec.partition is not None for spec in specs)

    def test_transient_grid_heals(self):
        specs = partition_sweep(3, times=[1.0], heal_after=2.0)
        events = list(specs[0].partition)
        assert len(events) == 2
        assert events[1].is_heal
        assert events[1].time == 3.0

    def test_default_partition_times_scale_with_t(self):
        unit = default_partition_times(1.0)
        doubled = default_partition_times(2.0)
        assert doubled[0] == 2 * unit[0]
        assert len(unit) == len(doubled)

    def test_no_voter_options_expand_grid(self):
        specs = partition_sweep(
            3, times=[1.0], no_voter_options=(frozenset(), frozenset({2}))
        )
        assert len(specs) == 6


class TestTimingMeasurement:
    def test_within_bound(self):
        m = TimingMeasurement(name="x", measured=1.9, bound=2.0, unit=1.0)
        assert m.within_bound
        assert m.measured_in_t == pytest.approx(1.9)

    def test_exceeding_bound(self):
        m = TimingMeasurement(name="x", measured=2.5, bound=2.0, unit=1.0)
        assert not m.within_bound
        assert "EXCEEDED" in str(m)

    def test_infinite_bound_always_ok(self):
        m = TimingMeasurement(name="x", measured=100.0, bound=math.inf, unit=1.0)
        assert m.within_bound

    def test_unit_conversion(self):
        m = TimingMeasurement(name="x", measured=6.0, bound=10.0, unit=2.0)
        assert m.measured_in_t == pytest.approx(3.0)
        assert m.bound_in_t == pytest.approx(5.0)

    def test_worst_case_helper(self):
        assert worst_case([1.0, 3.0, 2.0]) == 3.0
        assert worst_case([]) is None


class TestTraceMeasurements:
    def test_failure_free_round_trips(self):
        result = run_scenario(
            create_protocol("terminating-three-phase-commit"), ScenarioSpec(n_sites=3)
        )
        waits = measure_protocol_timeouts(result)
        assert waits["master_round_trip"] == pytest.approx(2.0)
        assert waits["slave_wait"] == pytest.approx(2.0)

    def test_probe_window_measured_only_when_window_opens(self):
        clean = run_scenario(
            create_protocol("terminating-three-phase-commit"), ScenarioSpec(n_sites=3)
        )
        assert measure_master_probe_window(clean) is None
        partitioned = run_scenario(
            create_protocol("terminating-three-phase-commit"),
            ScenarioSpec(n_sites=3, partition=PartitionSchedule.simple(2.5, [1, 2], [3])),
        )
        gap = measure_master_probe_window(partitioned)
        assert gap is not None
        assert 0.0 < gap <= 5.0

    def test_wait_in_w_measured_for_separated_slave(self):
        # Partition after the votes are in but before the prepare reaches
        # site 3: the slave has nothing of its own in flight, so it times out
        # in w and eventually aborts via the 6T rule.
        result = run_scenario(
            create_protocol("terminating-three-phase-commit"),
            ScenarioSpec(n_sites=3, partition=PartitionSchedule.simple(2.1, [1, 2], [3])),
        )
        waits = measure_wait_after_timeout_in_w(result)
        assert 3 in waits
        assert waits[3] <= 6.0

    def test_wait_in_p_inf_for_blocked_slave(self):
        partition = PartitionSchedule.transient(4.25, 5.25, [1, 2], [3])
        result = run_scenario(
            create_protocol("terminating-three-phase-commit-no-transient"),
            ScenarioSpec(n_sites=3, partition=partition, horizon=80.0),
        )
        waits = measure_wait_after_timeout_in_p(result)
        assert math.isinf(waits[3])

    def test_wait_in_p_empty_when_nobody_times_out(self):
        result = run_scenario(
            create_protocol("terminating-three-phase-commit"), ScenarioSpec(n_sites=3)
        )
        assert measure_wait_after_timeout_in_p(result) == {}
