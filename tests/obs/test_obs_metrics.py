"""The metrics registry's merge algebra and snapshot canonicality.

The whole design rests on snapshots being associatively and commutatively
mergeable (worker chunks arrive in nondeterministic order) and canonical
(two registries holding the same data serialize byte-identically).  These
tests use exactly-representable values (ints and multiples of 0.25) so
float addition is exact and the algebraic assertions are equality, not
approximation.
"""

import pytest

from repro.obs.metrics import (
    COUNT_BUCKETS,
    SIM_TIME_BUCKETS,
    MetricsRegistry,
    activate,
    get_active,
    set_active,
)


def registry_a():
    r = MetricsRegistry()
    r.counter("tasks").inc(3)
    r.counter("only.a").inc(1)
    r.gauge("depth").set(4.0)
    h = r.histogram("wait", bounds=SIM_TIME_BUCKETS)
    for value in (0.25, 1.0, 64.0, 128.0):
        h.observe(value)
    return r


def registry_b():
    r = MetricsRegistry()
    r.counter("tasks").inc(5)
    r.counter("only.b").inc(7)
    r.gauge("depth").set(2.0)
    h = r.histogram("wait", bounds=SIM_TIME_BUCKETS)
    for value in (0.5, 0.5, 8.0):
        h.observe(value)
    return r


def registry_c():
    r = MetricsRegistry()
    r.counter("tasks").inc(11)
    r.gauge("depth").set(9.5)
    r.histogram("wait", bounds=SIM_TIME_BUCKETS).observe(0.25)
    r.histogram("sizes", bounds=COUNT_BUCKETS).observe(17.0)
    return r


def merged(*snapshots):
    registry = MetricsRegistry()
    for snapshot in snapshots:
        registry.merge_snapshot(snapshot)
    return registry


class TestInstruments:
    def test_counter_adds(self):
        r = MetricsRegistry()
        r.counter("x").inc()
        r.counter("x").inc(4)
        assert r.counter("x").value == 5

    def test_gauge_tracks_latest_and_high_watermark(self):
        r = MetricsRegistry()
        g = r.gauge("g")
        g.set(3.0)
        g.set(1.0)
        assert g.value == 1.0
        assert g.high == 3.0
        # Only the high watermark enters the snapshot: "latest" has no
        # order-independent merge.
        assert r.snapshot()["gauges"]["g"] == 3.0

    def test_histogram_buckets_count_and_extremes(self):
        r = MetricsRegistry()
        h = r.histogram("h", bounds=(1.0, 2.0))
        for value in (0.5, 1.0, 1.5, 5.0):
            h.observe(value)
        assert h.counts == [2, 1, 1]  # <=1, <=2, overflow
        assert h.count == 4
        assert h.total == 8.0
        assert (h.min, h.max) == (0.5, 5.0)
        assert h.mean == 2.0

    def test_histogram_bounds_must_be_sorted(self):
        with pytest.raises(ValueError):
            MetricsRegistry().histogram("bad", bounds=(2.0, 1.0))


class TestMergeAlgebra:
    def test_merge_is_commutative(self):
        a, b = registry_a().snapshot(), registry_b().snapshot()
        assert merged(a, b).to_json_bytes() == merged(b, a).to_json_bytes()

    def test_merge_is_associative(self):
        a, b, c = (
            registry_a().snapshot(),
            registry_b().snapshot(),
            registry_c().snapshot(),
        )
        left = merged(merged(a, b).snapshot(), c)
        right = merged(a, merged(b, c).snapshot())
        assert left.to_json_bytes() == right.to_json_bytes()

    def test_merge_equals_single_registry_of_all_observations(self):
        a, b = registry_a().snapshot(), registry_b().snapshot()
        combined = MetricsRegistry()
        combined.counter("tasks").inc(8)
        combined.counter("only.a").inc(1)
        combined.counter("only.b").inc(7)
        combined.gauge("depth").set(4.0)
        h = combined.histogram("wait", bounds=SIM_TIME_BUCKETS)
        for value in (0.25, 1.0, 64.0, 128.0, 0.5, 0.5, 8.0):
            h.observe(value)
        assert merged(a, b).to_json_bytes() == combined.to_json_bytes()

    def test_from_snapshot_round_trips(self):
        snapshot = registry_a().snapshot()
        assert MetricsRegistry.from_snapshot(snapshot).snapshot() == snapshot

    def test_schema_mismatch_is_rejected(self):
        with pytest.raises(ValueError, match="schema"):
            MetricsRegistry().merge_snapshot({"schema": 999})

    def test_histogram_bounds_mismatch_is_rejected(self):
        r = MetricsRegistry()
        r.histogram("wait", bounds=(1.0, 2.0))
        other = MetricsRegistry()
        other.histogram("wait", bounds=(1.0, 4.0)).observe(3.0)
        with pytest.raises(ValueError, match="bucket mismatch"):
            r.merge_snapshot(other.snapshot())


class TestSnapshotCanonicality:
    def test_creation_order_does_not_change_bytes(self):
        forward = MetricsRegistry()
        forward.counter("a").inc(1)
        forward.counter("b").inc(2)
        forward.gauge("g").set(1.0)
        backward = MetricsRegistry()
        backward.gauge("g").set(1.0)
        backward.counter("b").inc(2)
        backward.counter("a").inc(1)
        assert forward.to_json_bytes() == backward.to_json_bytes()

    def test_snapshot_is_plain_json_data(self):
        import json

        snapshot = registry_c().snapshot()
        assert json.loads(json.dumps(snapshot)) == snapshot


class TestActiveRegistry:
    def test_default_is_inactive(self):
        assert get_active() is None

    def test_activate_scopes_the_registry(self):
        registry = MetricsRegistry()
        with activate(registry) as active:
            assert active is registry
            assert get_active() is registry
        assert get_active() is None

    def test_activate_nests_and_restores(self):
        outer, inner = MetricsRegistry(), MetricsRegistry()
        with activate(outer):
            with activate(inner):
                assert get_active() is inner
            assert get_active() is outer
        assert get_active() is None

    def test_activate_none_leaves_the_active_registry(self):
        outer = MetricsRegistry()
        with activate(outer):
            with activate(None) as active:
                assert active is None
                assert get_active() is outer
            assert get_active() is outer
        with activate(None):
            assert get_active() is None

    def test_set_active_installs_the_kernel_hook(self):
        from repro.sim import kernel

        registry = MetricsRegistry()
        set_active(registry)
        try:
            assert kernel._METRICS_HOOK is not None
        finally:
            set_active(None)
        assert kernel._METRICS_HOOK is None

    def test_kernel_run_records_event_counters(self):
        from repro.sim.kernel import Simulator

        registry = MetricsRegistry()
        with activate(registry):
            sim = Simulator()
            sim.schedule(1.0, lambda: None)
            sim.schedule(2.0, lambda: None)
            cancelled = sim.schedule(3.0, lambda: None)
            cancelled.cancel()
            sim.run()
        counters = registry.snapshot()["counters"]
        assert counters["sim.events_scheduled"] == 3
        assert counters["sim.events_executed"] == 2
        assert counters["sim.events_cancelled"] == 1
