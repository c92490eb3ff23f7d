"""Message-passing network with partition semantics.

Two partition models are supported, mirroring Skeen & Stonebraker's taxonomy
quoted in Section 2 of the paper:

* **optimistic** -- no messages are lost when a partition occurs; messages
  that cannot be delivered (either already in flight across the boundary, or
  sent across it later) are *returned to the sender* wrapped in
  :class:`Undeliverable`.  This is the model under which the termination
  protocol is proved correct.
* **pessimistic** -- undeliverable messages are silently dropped.  The paper
  proves no protocol can be resilient in this model; we keep it for the
  negative experiments.

The send/deliver path is the hottest code in a sweep, so the message records
are ``__slots__`` classes, delivery events carry the envelope as an event
argument (no closure per send) and are themselves the in-flight record, and
envelope ids are a per-``Network`` counter -- a run's trace is therefore
identical no matter what ran earlier in the same process.
"""

from __future__ import annotations

import random
from typing import Any, Dict, Iterable, Optional, TYPE_CHECKING

from repro.sim.events import Event
from repro.sim.kernel import Simulator
from repro.sim.latency import ConstantLatency, LatencyModel
from repro.sim.partition import PartitionManager, PartitionSpec
from repro.sim.trace import Trace

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.sim.failures import FaultPlan
    from repro.sim.node import Node

OPTIMISTIC = "optimistic"
PESSIMISTIC = "pessimistic"


class DeliveryAck:
    """Internal receiver-to-sender acknowledgement of a tracked message.

    Part of the at-least-once retransmission layer: the network consumes
    these on delivery (they are never handed to a role).  Acks are not
    themselves tracked or retransmitted, and they traverse the same lossy
    links as the data they acknowledge -- a lost ack simply triggers one
    more (deduplicated) retransmission.
    """

    __slots__ = ("message_id",)

    def __init__(self, message_id: int) -> None:
        self.message_id = message_id

    def __str__(self) -> str:
        return f"ack#{self.message_id}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return self.__str__()


class _PendingMessage:
    """Sender-side state for one logical message awaiting acknowledgement."""

    __slots__ = ("message_id", "source", "destination", "payload", "attempts", "event")

    def __init__(
        self, message_id: int, source: int, destination: int, payload: Any
    ) -> None:
        self.message_id = message_id
        self.source = source
        self.destination = destination
        self.payload = payload
        self.attempts = 0
        self.event: Optional[Event] = None


class Envelope:
    """A message in transit from ``source`` to ``destination``."""

    __slots__ = ("envelope_id", "source", "destination", "payload", "sent_at")

    def __init__(
        self,
        envelope_id: int,
        source: int,
        destination: int,
        payload: Any,
        sent_at: float,
    ) -> None:
        self.envelope_id = envelope_id
        self.source = source
        self.destination = destination
        self.payload = payload
        self.sent_at = sent_at

    def __str__(self) -> str:
        return (
            f"Envelope#{self.envelope_id}({self.source}->{self.destination}: "
            f"{self.payload})"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return self.__str__()


class Undeliverable:
    """The paper's ``UD(msg)``: a message returned to its sender.

    Attributes:
        original: the envelope whose delivery failed.
    """

    __slots__ = ("original",)

    def __init__(self, original: Envelope) -> None:
        self.original = original

    @property
    def payload(self) -> Any:
        """The payload of the bounced message."""
        return self.original.payload

    @property
    def intended_destination(self) -> int:
        """Site the bounced message was addressed to."""
        return self.original.destination

    def __str__(self) -> str:
        return f"UD({self.original.payload} -> site {self.original.destination})"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return self.__str__()


class Network:
    """Point-to-point network connecting simulated sites.

    Args:
        sim: owning simulator.
        latency: latency model; its upper bound is the paper's ``T``.
        partitions: partition manager consulted on every send/delivery.
        model: ``"optimistic"`` or ``"pessimistic"``.
        trace: shared trace for send/deliver/bounce/drop records.
    """

    def __init__(
        self,
        sim: Simulator,
        *,
        latency: Optional[LatencyModel] = None,
        partitions: Optional[PartitionManager] = None,
        model: str = OPTIMISTIC,
        trace: Optional[Trace] = None,
    ) -> None:
        if model not in (OPTIMISTIC, PESSIMISTIC):
            raise ValueError(f"unknown partition model: {model!r}")
        self.sim = sim
        self.latency = latency or ConstantLatency(1.0)
        # Fixed-delay models advertise constant_delay; caching it here lets
        # send/bounce skip the per-message sample() call and never touch the
        # simulator's (lazily built) rng.
        self._constant_delay: Optional[float] = getattr(
            self.latency, "constant_delay", None
        )
        self.partitions = partitions or PartitionManager()
        self.model = model
        self.trace = trace if trace is not None else Trace()
        # Cached so the hot send/deliver paths can skip both the record and
        # the describe_payload() / kwargs work that feeds it.
        self._tracing: bool = self.trace.enabled
        self._nodes: Dict[int, "Node"] = {}
        # Envelope id -> its queued delivery event (whose arg is the envelope).
        self._in_flight: Dict[int, Event] = {}
        self._next_envelope_id = 1
        self._sent = 0
        self._delivered = 0
        self._bounced = 0
        self._dropped = 0
        # Message-fault layer (loss / duplication / reordering / omission +
        # retransmission).  ``None`` on the default reliable network; the hot
        # send/deliver paths pay exactly one ``is None`` check for it.
        self._faults: Optional["FaultPlan"] = None
        self._fault_rng: Optional[random.Random] = None
        self._send_omissions: Dict[int, float] = {}
        self._recv_omissions: Dict[int, float] = {}
        self._retransmit = None
        self._pending: Dict[int, _PendingMessage] = {}
        self._copy_message: Dict[int, int] = {}
        self._seen: set[tuple[int, int]] = set()
        self._next_message_id = 1
        self.partitions.subscribe(self._on_connectivity_change)

    # ------------------------------------------------------------------
    # topology
    # ------------------------------------------------------------------
    @property
    def max_delay(self) -> float:
        """The paper's ``T``."""
        return self.latency.upper_bound

    def register(self, node: "Node") -> None:
        """Attach a node so the network can deliver to it."""
        if node.node_id in self._nodes:
            raise ValueError(f"site {node.node_id} already registered")
        self._nodes[node.node_id] = node

    def close(self) -> None:
        """Forget the nodes, in-flight messages and pending retransmissions.

        Each of these holds, directly or through a queued event's bound
        action, an object that points back at this network; so does the
        partition manager's connectivity listener, which is unsubscribed.
        The message counters stay readable.  Called by
        :meth:`repro.sim.cluster.Cluster.close` once a run is over.
        """
        self._nodes.clear()
        self._in_flight.clear()
        self._pending.clear()
        self.partitions.unsubscribe(self._on_connectivity_change)

    def node(self, node_id: int) -> "Node":
        """Look up a registered node."""
        return self._nodes[node_id]

    def sites(self) -> list[int]:
        """Registered site ids, sorted."""
        return sorted(self._nodes)

    # ------------------------------------------------------------------
    # statistics
    # ------------------------------------------------------------------
    @property
    def messages_sent(self) -> int:
        """Number of sends accepted."""
        return self._sent

    @property
    def messages_delivered(self) -> int:
        """Number of messages delivered to their destination."""
        return self._delivered

    @property
    def messages_bounced(self) -> int:
        """Number of messages returned to their sender as undeliverable."""
        return self._bounced

    @property
    def messages_dropped(self) -> int:
        """Number of messages silently lost (pessimistic model / crashed sites)."""
        return self._dropped

    @property
    def in_flight(self) -> int:
        """Messages currently in transit."""
        return len(self._in_flight)

    # ------------------------------------------------------------------
    # fault layer installation
    # ------------------------------------------------------------------
    def install_fault_plan(self, plan: "FaultPlan") -> None:
        """Install ``plan``'s message-level faults (and retransmission).

        Crash events are the cluster's business
        (:meth:`repro.sim.cluster.Cluster.apply_fault_plan` splits the plan);
        this installs the link faults, omission faults and the retransmission
        policy.  The layer owns its own seeded RNG so the latency model's
        random stream is untouched -- a plan with no stochastic faults leaves
        delivery timing bit-identical.
        """
        from repro.sim.failures import RECEIVE_OMISSION, SEND_OMISSION

        self._faults = plan
        self._fault_rng = random.Random(f"fault-plan:{plan.seed}")
        self._send_omissions = {
            o.site: o.probability
            for o in plan.omissions
            if o.kind == SEND_OMISSION
        }
        self._recv_omissions = {
            o.site: o.probability
            for o in plan.omissions
            if o.kind == RECEIVE_OMISSION
        }
        self._retransmit = plan.retransmit

    # ------------------------------------------------------------------
    # sending
    # ------------------------------------------------------------------
    def send(self, source: int, destination: int, payload: Any) -> Envelope:
        """Send ``payload`` from ``source`` to ``destination``.

        The message is accepted unconditionally; whether it is eventually
        delivered, bounced or dropped depends on the partition state now and
        while it is in flight.
        """
        if self._faults is not None:
            return self._faulty_send(source, destination, payload)
        sim = self.sim
        now = sim.now
        envelope_id = self._next_envelope_id
        self._next_envelope_id = envelope_id + 1
        envelope = Envelope(envelope_id, source, destination, payload, now)
        self._sent += 1
        if self._tracing:
            self.trace.record(
                now,
                "send",
                site=source,
                destination=destination,
                payload=describe_payload(payload),
                envelope_id=envelope_id,
            )
        # Inlined PartitionManager.separated (source != destination always
        # holds for protocol traffic; spec.separated handles a == b anyway).
        current = self.partitions._current
        if current is not None and current.separated(source, destination):
            # The destination is unreachable right now: bounce or drop
            # immediately (after a propagation delay for the bounce itself).
            self._fail_delivery(envelope, reason="partitioned-at-send")
            return envelope
        delay = self._constant_delay
        if delay is None:
            delay = self.latency.sample(sim.rng, source, destination)
        # Inlined sim.schedule(): latency models guarantee positive delays,
        # so the negative-delay guard is redundant on this hottest path.
        self._in_flight[envelope_id] = sim._push(now + delay, self._deliver, 0, envelope)
        return envelope

    def multicast(self, source: int, destinations: Iterable[int], payload: Any) -> list[Envelope]:
        """Send the same payload from ``source`` to every destination."""
        return [self.send(source, destination, payload) for destination in destinations]

    # ------------------------------------------------------------------
    # fault-layer send path
    # ------------------------------------------------------------------
    def _faulty_send(
        self,
        source: int,
        destination: int,
        payload: Any,
        *,
        message_id: Optional[int] = None,
    ) -> Envelope:
        """The full-fat send path used when a fault plan is installed.

        Applies, in order: at-least-once registration, send omission,
        partition semantics (unchanged), then the per-link stochastic faults
        (loss, duplication, bounded reordering).  All randomness comes from
        the fault layer's own seeded RNG, never the simulator's.
        """
        sim = self.sim
        now = sim.now
        envelope_id = self._next_envelope_id
        self._next_envelope_id = envelope_id + 1
        envelope = Envelope(envelope_id, source, destination, payload, now)
        self._sent += 1
        if self._tracing:
            self.trace.record(
                now,
                "send",
                site=source,
                destination=destination,
                payload=describe_payload(payload),
                envelope_id=envelope_id,
            )
        rng = self._fault_rng
        is_ack = type(payload) is DeliveryAck
        if self._retransmit is not None and not is_ack and message_id is None:
            message_id = self._register_pending(source, destination, payload)
        if message_id is not None:
            self._copy_message[envelope_id] = message_id
        omission = self._send_omissions.get(source)
        if omission is not None and rng.random() < omission:
            self._drop_to_fault(envelope, reason="send-omission")
            return envelope
        current = self.partitions._current
        if current is not None and current.separated(source, destination):
            if is_ack:
                # Acks are network-internal: a bounced ack must never reach
                # a protocol role, so partitioned acks are simply lost (one
                # more retransmission follows and is deduplicated).
                self._drop_to_fault(envelope, reason="ack-partitioned")
            else:
                self._fail_delivery(envelope, reason="partitioned-at-send")
            return envelope
        duplicate = False
        extra_delay = 0.0
        for link in self._faults.links:
            if not link.matches(source, destination):
                continue
            if link.loss and rng.random() < link.loss:
                self._drop_to_fault(envelope, reason="link-loss")
                return envelope
            if link.duplicate and rng.random() < link.duplicate:
                duplicate = True
            if link.reorder and rng.random() < link.reorder:
                extra_delay += rng.uniform(
                    0.0, link.reorder_window * self.latency.upper_bound
                )
        delay = self._constant_delay
        if delay is None:
            delay = self.latency.sample(sim.rng, source, destination)
        self._in_flight[envelope_id] = sim._push(
            now + delay + extra_delay, self._deliver, 0, envelope
        )
        if duplicate:
            self._send_duplicate(envelope, message_id, extra_delay)
        return envelope

    def _send_duplicate(
        self, original: Envelope, message_id: Optional[int], extra_delay: float
    ) -> None:
        """Inject a second physical copy of ``original`` (duplication fault)."""
        sim = self.sim
        now = sim.now
        envelope_id = self._next_envelope_id
        self._next_envelope_id = envelope_id + 1
        copy = Envelope(
            envelope_id, original.source, original.destination, original.payload, now
        )
        if message_id is not None:
            self._copy_message[envelope_id] = message_id
        delay = self._constant_delay
        if delay is None:
            delay = self.latency.sample(sim.rng, original.source, original.destination)
        # The copy takes its own (jittered) path so it can land before or
        # after the original.
        delay += self._fault_rng.uniform(0.0, self.latency.upper_bound) + extra_delay
        if self._tracing:
            self.trace.record(
                now,
                "duplicate",
                site=original.source,
                destination=original.destination,
                payload=describe_payload(original.payload),
                envelope_id=envelope_id,
            )
        self._in_flight[envelope_id] = sim._push(now + delay, self._deliver, 0, copy)

    def _drop_to_fault(self, envelope: Envelope, *, reason: str) -> None:
        """Silently lose a message to the fault layer (no bounce)."""
        self._dropped += 1
        if self._tracing:
            self.trace.record(
                self.sim.now,
                "drop",
                site=envelope.destination,
                source=envelope.source,
                reason=reason,
                payload=describe_payload(envelope.payload),
            )

    # ------------------------------------------------------------------
    # at-least-once retransmission
    # ------------------------------------------------------------------
    def _register_pending(self, source: int, destination: int, payload: Any) -> int:
        """Track a new logical message and arm its first retransmit timer."""
        message_id = self._next_message_id
        self._next_message_id = message_id + 1
        pending = _PendingMessage(message_id, source, destination, payload)
        self._pending[message_id] = pending
        self._arm_retransmit(pending)
        return message_id

    def _arm_retransmit(self, pending: _PendingMessage) -> None:
        interval = self._retransmit.interval * self.latency.upper_bound
        # Seeded backoff jitter, bounded above by the nominal interval so the
        # plan's effective_max_delay() stays a true delivery bound.
        delay = interval * self._fault_rng.uniform(0.85, 1.0)
        pending.event = self.sim.schedule(
            delay, self._retransmit_fire, priority=5, arg=pending.message_id
        )

    def _retransmit_fire(self, message_id: int) -> None:
        pending = self._pending.get(message_id)
        if pending is None:
            return
        source_node = self._nodes.get(pending.source)
        if source_node is None or source_node.crashed:
            # A crashed sender retransmits nothing; drop the pending entry
            # (recovery restarts protocol logic, not network bookkeeping).
            del self._pending[message_id]
            return
        if pending.attempts >= self._retransmit.max_attempts:
            del self._pending[message_id]
            if self._tracing:
                self.trace.record(
                    self.sim.now,
                    "retransmit-exhausted",
                    site=pending.source,
                    destination=pending.destination,
                    payload=describe_payload(pending.payload),
                )
            return
        pending.attempts += 1
        if self._tracing:
            self.trace.record(
                self.sim.now,
                "retransmit",
                site=pending.source,
                destination=pending.destination,
                attempt=pending.attempts,
                payload=describe_payload(pending.payload),
            )
        self._faulty_send(
            pending.source,
            pending.destination,
            pending.payload,
            message_id=message_id,
        )
        self._arm_retransmit(pending)

    def _settle_pending(self, message_id: int) -> None:
        """Stop retransmitting ``message_id`` (acked, or bounced by a partition)."""
        pending = self._pending.pop(message_id, None)
        if pending is not None and pending.event is not None:
            pending.event.cancel()

    def _fault_deliver(self, envelope: Envelope, node: "Node") -> bool:
        """Fault-layer delivery filter; True when the role should see it.

        Handles receive omission, ack consumption, acknowledgement of
        tracked copies and idempotent dedup by message id.
        """
        payload = envelope.payload
        if type(payload) is DeliveryAck:
            # Consumed by the network; the role never sees acks.
            self._settle_pending(payload.message_id)
            return False
        omission = self._recv_omissions.get(envelope.destination)
        if omission is not None and self._fault_rng.random() < omission:
            self._drop_to_fault(envelope, reason="receive-omission")
            return False
        message_id = self._copy_message.get(envelope.envelope_id)
        if message_id is None:
            return True
        # Every copy is acknowledged (the ack itself may be lost); only the
        # first is delivered to the role.
        self._faulty_send(
            envelope.destination, envelope.source, DeliveryAck(message_id)
        )
        key = (envelope.destination, message_id)
        if key in self._seen:
            if self._tracing:
                self.trace.record(
                    self.sim.now,
                    "dedup",
                    site=envelope.destination,
                    source=envelope.source,
                    payload=describe_payload(payload),
                )
            return False
        self._seen.add(key)
        return True

    # ------------------------------------------------------------------
    # internal delivery machinery
    # ------------------------------------------------------------------
    def _deliver(self, envelope: Envelope) -> None:
        self._in_flight.pop(envelope.envelope_id, None)
        current = self.partitions._current
        if current is not None and current.separated(envelope.source, envelope.destination):
            # Partition occurred while the message was in flight and is still
            # in force at the (attempted) delivery instant.
            self._fail_delivery(envelope, reason="partitioned-in-flight")
            return
        now = self.sim.now
        node = self._nodes.get(envelope.destination)
        if node is None:
            self._dropped += 1
            if self._tracing:
                self.trace.record(
                    now,
                    "drop",
                    site=envelope.destination,
                    reason="unknown-destination",
                    payload=describe_payload(envelope.payload),
                )
            return
        if node.crashed:
            self._dropped += 1
            if self._tracing:
                self.trace.record(
                    now,
                    "drop",
                    site=envelope.destination,
                    reason="destination-crashed",
                    payload=describe_payload(envelope.payload),
                )
            return
        if self._faults is not None and not self._fault_deliver(envelope, node):
            return
        self._delivered += 1
        if self._tracing:
            self.trace.record(
                now,
                "deliver",
                site=envelope.destination,
                source=envelope.source,
                payload=describe_payload(envelope.payload),
                envelope_id=envelope.envelope_id,
                latency=now - envelope.sent_at,
            )
        node.deliver(envelope)

    def _fail_delivery(self, envelope: Envelope, *, reason: str) -> None:
        """Handle a message that cannot reach its destination."""
        if self._faults is not None:
            # A partition-bounced message stops retransmitting: the UD
            # notification (assumption 1) informs the sender's role, and
            # retransmission cannot cross the boundary anyway.
            message_id = self._copy_message.get(envelope.envelope_id)
            if message_id is not None:
                self._settle_pending(message_id)
        if self.model == PESSIMISTIC:
            self._dropped += 1
            if self._tracing:
                self.trace.record(
                    self.sim.now,
                    "drop",
                    site=envelope.destination,
                    source=envelope.source,
                    reason=reason,
                    payload=describe_payload(envelope.payload),
                )
            return
        # Optimistic model: return the message to the sender.  The bounce
        # itself takes a propagation delay back to the source.
        sim = self.sim
        delay = self._constant_delay
        if delay is None:
            delay = self.latency.sample(sim.rng, envelope.destination, envelope.source)
        sim._push(sim.now + delay, self._deliver_bounce, 0, Undeliverable(envelope))
        if self._tracing:
            self.trace.record(
                self.sim.now,
                "bounce",
                site=envelope.source,
                destination=envelope.destination,
                reason=reason,
                payload=describe_payload(envelope.payload),
                envelope_id=envelope.envelope_id,
            )

    def _deliver_bounce(self, undeliverable: Undeliverable) -> None:
        envelope = undeliverable.original
        node = self._nodes.get(envelope.source)
        self._bounced += 1
        now = self.sim.now
        if node is None or node.crashed:
            self._dropped += 1
            if self._tracing:
                self.trace.record(
                    now,
                    "drop",
                    site=envelope.source,
                    reason="bounce-target-crashed",
                    payload=describe_payload(envelope.payload),
                )
            return
        if self._tracing:
            self.trace.record(
                now,
                "deliver-undeliverable",
                site=envelope.source,
                payload=describe_payload(envelope.payload),
                intended=envelope.destination,
                envelope_id=envelope.envelope_id,
            )
        envelope_id = self._next_envelope_id
        self._next_envelope_id = envelope_id + 1
        bounce_envelope = Envelope(
            envelope_id, envelope.destination, envelope.source, undeliverable, now
        )
        node.deliver(bounce_envelope)

    def _on_connectivity_change(self, spec: Optional[PartitionSpec]) -> None:
        """Bounce (or drop) in-flight messages that now cross the boundary.

        This implements the paper's assumption 1: "all undeliverable messages
        due to network partitioning are returned to the sender" -- including
        the ones that were outstanding at the instant the partition occurred.
        """
        if spec is None:
            return
        for event in list(self._in_flight.values()):
            envelope = event.arg
            if not spec.separated(envelope.source, envelope.destination):
                continue
            event.cancel()
            del self._in_flight[envelope.envelope_id]
            self._fail_delivery(envelope, reason="partition-cut-in-flight")


def describe_payload(payload: Any) -> str:
    """Short human-readable description of a message payload for traces."""
    # Hot path first: protocol messages carry a string `kind` attribute
    # (Undeliverable deliberately does not, so the order is safe).
    kind = getattr(payload, "kind", None)
    if kind is not None:
        return kind if type(kind) is str else str(kind)
    if isinstance(payload, Undeliverable):
        return f"UD({describe_payload(payload.original.payload)})"
    return payload if isinstance(payload, str) else type(payload).__name__
