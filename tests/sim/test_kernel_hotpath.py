"""Regression tests for the kernel's hot-path representation.

These pin the contracts the flat tuple heap must keep while being fast:

* ``max_events`` stops *before* executing event ``max_events + 1``;
* lazy cancellation plus in-place compaction never desynchronizes
  ``pending()`` / ``peek_time`` from the live queue;
* sequence numbers are per-:class:`~repro.sim.kernel.Simulator`, so two
  interleaved simulators behave exactly like two fresh-process runs;
* the engine's trace gating (``NullTrace``) changes what is recorded, never
  what is executed;
* an event keeps only what the kernel reads, and an in-flight message and
  an armed timer are held as exactly their queued events -- no per-send or
  per-arm record rides alongside.
"""

import pytest

from repro.sim.events import Event
from repro.sim.kernel import _COMPACT_MIN_CANCELLED, SimulationError, Simulator
from repro.sim.latency import ConstantLatency
from repro.sim.network import Network
from repro.sim.node import Node
from repro.sim.trace import NullTrace, Trace


class TestMaxEventsExactCount:
    def test_exactly_max_events_execute_before_the_error(self):
        sim = Simulator()
        fired = []

        def forever():
            fired.append(sim.now)
            sim.schedule(0.1, forever)

        sim.schedule(0.1, forever)
        with pytest.raises(SimulationError):
            sim.run(max_events=25)
        assert len(fired) == 25

    def test_run_within_the_budget_does_not_raise(self):
        sim = Simulator()
        fired = []
        for i in range(10):
            sim.schedule(0.1 * (i + 1), lambda: fired.append(None))
        sim.run(max_events=10)
        assert len(fired) == 10


class TestCompactionAccounting:
    def _arm(self, sim, count):
        fired = []
        events = [
            sim.schedule(1.0 + i, fired.append, arg=i)
            for i in range(count)
        ]
        return events, fired

    def test_pending_and_peek_survive_a_compaction(self):
        sim = Simulator()
        total = 3 * _COMPACT_MIN_CANCELLED
        events, fired = self._arm(sim, total)
        # Cancel every event except the last few; this crosses both the
        # absolute threshold and the cancelled-majority condition, so the
        # heap is compacted in place mid-cancellation.
        survivors = events[-3:]
        for event in events[:-3]:
            event.cancel()
        assert sim.pending() == 3
        assert sim.peek_time() == survivors[0].time
        sim.run()
        assert fired == [event.arg for event in survivors]
        assert sim.pending() == 0
        assert sim.peek_time() is None

    def test_cancel_after_compaction_is_still_a_safe_noop(self):
        sim = Simulator()
        total = 3 * _COMPACT_MIN_CANCELLED
        events, _ = self._arm(sim, total)
        for event in events[:-1]:
            event.cancel()
        # Events dropped from the heap by compaction can still be cancelled
        # again without corrupting the live-entry accounting.
        for event in events[:-1]:
            event.cancel()
        assert sim.pending() == 1
        sim.run()
        assert sim.pending() == 0

    def test_peek_time_pays_for_cancelled_heads(self):
        sim = Simulator()
        head = sim.schedule(1.0, lambda: None)
        tail = sim.schedule(2.0, lambda: None)
        head.cancel()
        assert sim.peek_time() == tail.time
        assert sim.pending() == 1


class _Echo:
    """Minimal role: bounce each integer payload back until ``rounds``."""

    def __init__(self, node, peer, rounds):
        self.node = node
        self.peer = peer
        self.rounds = rounds

    def on_message(self, payload, envelope):
        if payload < self.rounds:
            self.node.send(self.peer, payload + 1)


def _record_key(record):
    return (record.time, record.category, record.site, tuple(sorted(record.detail.items())))


def _ping_pong_nodes(sim, trace, rounds):
    network = Network(sim, latency=ConstantLatency(1.0), trace=trace)
    a = Node(1, sim, network)
    b = Node(2, sim, network)
    a.attach(_Echo(a, 2, rounds))
    b.attach(_Echo(b, 1, rounds))
    sim.schedule(0.0, lambda: a.send(2, 0))


def _ping_pong_trace(seed, rounds):
    """Run a two-node ping-pong and return the trace as comparable tuples.

    Built from the raw ``Simulator``/``Network``/``Node`` substrate so the
    run is a pure function of this simulator's schedule (protocol-level ids
    such as transaction ids come from process-global counters and would
    differ between runs by design).
    """
    sim = Simulator(seed=seed)
    trace = Trace()
    _ping_pong_nodes(sim, trace, rounds)
    sim.run()
    return [_record_key(r) for r in trace]


class TestPerSimulatorSequenceIsolation:
    def test_interleaved_simulators_match_solo_runs(self):
        solo_a = _ping_pong_trace(seed=1, rounds=6)
        solo_b = _ping_pong_trace(seed=2, rounds=4)

        # Interleave: construct and *step* both simulators alternately in one
        # process.  With a process-global sequence counter the second
        # simulator's scheduling would perturb the first one's tie-breaking;
        # with per-simulator counters both traces are identical to solo runs.
        sim_a, trace_a = Simulator(seed=1), Trace()
        sim_b, trace_b = Simulator(seed=2), Trace()
        _ping_pong_nodes(sim_a, trace_a, rounds=6)
        _ping_pong_nodes(sim_b, trace_b, rounds=4)
        progressed = True
        while progressed:
            progressed = sim_a.step() is not None
            progressed = (sim_b.step() is not None) or progressed

        assert [_record_key(r) for r in trace_a] == solo_a
        assert [_record_key(r) for r in trace_b] == solo_b


class TestNullTraceGating:
    def test_null_trace_records_nothing(self):
        trace = NullTrace()
        trace.record(1.0, "send", site=1, payload="x")
        assert len(trace) == 0
        assert trace.enabled is False

    def test_scheduling_is_identical_with_and_without_tracing(self):
        class Collector:
            def __init__(self, sim, sink):
                self.sim = sim
                self.sink = sink

            def on_message(self, payload, envelope):
                self.sink.append((self.sim.now, payload))

        def run(trace):
            sim = Simulator(seed=3)
            network = Network(sim, latency=ConstantLatency(1.0), trace=trace)
            a = Node(1, sim, network)
            b = Node(2, sim, network)
            delivered = []
            b.attach(Collector(sim, delivered))
            sim.schedule(0.0, lambda: a.multicast([2, 2, 2], "hello"))
            end = sim.run()
            return delivered, end, network.messages_delivered

        with_trace = run(Trace())
        without_trace = run(NullTrace())
        assert with_trace == without_trace


class TestMinimalShapes:
    def test_event_slots_hold_only_what_the_kernel_reads(self):
        assert Event.__slots__ == ("time", "action", "arg", "cancelled", "_sim", "_queued")

    def test_schedule_takes_only_priority_and_arg_keywords(self):
        sim = Simulator()
        with pytest.raises(TypeError):
            sim.schedule(1.0, lambda: None, label="x")
        with pytest.raises(TypeError):
            sim.schedule_at(1.0, lambda: None, kind=None)

    def test_in_flight_message_is_its_delivery_event(self):
        sim = Simulator()
        network = Network(sim, latency=ConstantLatency(1.0), trace=NullTrace())
        Node(1, sim, network)
        Node(2, sim, network)
        envelope = network.send(1, 2, "x")
        event = network._in_flight[envelope.envelope_id]
        assert type(event) is Event
        assert event.arg is envelope
        assert event.time == 1.0
        sim.run()
        assert network._in_flight == {}

    def test_armed_timer_is_its_event(self):
        sim = Simulator()
        network = Network(sim, latency=ConstantLatency(1.0), trace=NullTrace())
        node = Node(1, sim, network)
        assert node.set_timer("t", 2.0) is None
        event = node._timers["t"]
        assert type(event) is Event
        assert event.arg == "t"
        assert event.time == 2.0
        node.set_timer("t", 3.0)
        assert event.cancelled
        assert node._timers["t"].time == 3.0
