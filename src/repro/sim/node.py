"""Simulated sites.

A :class:`Node` is one site of the distributed database: it owns a mailbox
(fed by the network), a set of named timers, and a crash flag.  Protocol
logic is supplied by a *role* object attached with :meth:`Node.attach`; the
node forwards deliveries, timeouts and crash/recovery notifications to it.

Delivery and timer dispatch are on the sweep hot path, so the role's
``on_message`` / ``on_timeout`` hooks are resolved once at :meth:`attach`
time instead of per event, and an armed timer is just its kernel
:class:`~repro.sim.events.Event`, which carries the timer name as its
argument (no closure or record per (re)arm).
"""

from __future__ import annotations

from typing import Any, Optional, Protocol, runtime_checkable

from repro.sim.events import Event
from repro.sim.kernel import SimulationError, Simulator
from repro.sim.network import Envelope, Network, Undeliverable, describe_payload
from repro.sim.trace import Trace


@runtime_checkable
class Role(Protocol):
    """Protocol logic hosted by a node.

    Roles only need to implement the hooks they care about; the node checks
    for each method's presence before calling it.
    """

    def on_start(self) -> None:  # pragma: no cover - protocol definition
        """Called once when the simulation run begins."""

    def on_message(self, payload: Any, envelope: Envelope) -> None:  # pragma: no cover
        """Called for every delivered message (including ``Undeliverable``)."""

    def on_timeout(self, name: str) -> None:  # pragma: no cover
        """Called with the timer's name when one of the node's timers fires."""

    def on_crash(self) -> None:  # pragma: no cover
        """Called when the node crashes."""

    def on_recover(self) -> None:  # pragma: no cover
        """Called when the node recovers from a crash."""


class Node:
    """One simulated site.

    Args:
        node_id: site identifier (the paper numbers sites 1..n with site 1
            the master).
        sim: owning simulator.
        network: network used for sends; the node registers itself.
        trace: shared trace (defaults to the network's trace).
    """

    def __init__(
        self,
        node_id: int,
        sim: Simulator,
        network: Network,
        *,
        trace: Optional[Trace] = None,
    ) -> None:
        self.node_id = node_id
        self.sim = sim
        self.network = network
        self.trace = trace if trace is not None else network.trace
        # Cached so note() / timer fires skip disabled-trace records.
        self._tracing: bool = self.trace.enabled
        self.crashed = False
        self.role: Optional[Role] = None
        self._on_message: Optional[Any] = None
        self._on_timeout: Optional[Any] = None
        self._timers: dict[str, Event] = {}
        self._started = False
        # Byzantine hook: called as interceptor(source, destination, payload)
        # before every send; it may rewrite the payload or return None to
        # silently swallow the send.  None (the default) costs one attribute
        # check on the send path.
        self._send_interceptor: Optional[Any] = None
        network.register(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Node(id={self.node_id}, crashed={self.crashed})"

    # ------------------------------------------------------------------
    # role wiring
    # ------------------------------------------------------------------
    def attach(self, role: Role) -> None:
        """Attach the protocol role driving this node.

        The hot dispatch hooks (``on_message`` / ``on_timeout``) are resolved
        here, once, so deliveries and timer fires skip the per-event
        ``getattr``.
        """
        self.role = role
        self._on_message = getattr(role, "on_message", None)
        self._on_timeout = getattr(role, "on_timeout", None)

    def close(self) -> None:
        """Drop the role, its hooks and the armed timers.

        The role points back at this node and every armed timer's event at
        :meth:`_fire_timer`, so until these links go the node is part of
        reference cycles only the cyclic garbage collector frees.  Called
        by :meth:`repro.sim.cluster.Cluster.close`; the node does not run
        again afterwards.
        """
        self.role = self._on_message = self._on_timeout = None
        self._timers.clear()

    def start(self) -> None:
        """Schedule the role's ``on_start`` hook at the current time."""
        if self._started:
            return
        self._started = True
        self.sim.schedule(0.0, self._start_role)

    def _start_role(self) -> None:
        if self.crashed or self.role is None:
            return
        hook = getattr(self.role, "on_start", None)
        if hook is not None:
            hook()

    # ------------------------------------------------------------------
    # messaging
    # ------------------------------------------------------------------
    def send(self, destination: int, payload: Any) -> Optional[Envelope]:
        """Send ``payload`` to ``destination`` (dropped if this node crashed)."""
        if self.crashed:
            return None
        interceptor = self._send_interceptor
        if interceptor is not None:
            payload = interceptor(self.node_id, destination, payload)
            if payload is None:
                return None
        return self.network.send(self.node_id, destination, payload)

    def multicast(self, destinations: list[int], payload: Any) -> list[Envelope]:
        """Send ``payload`` to every site in ``destinations``."""
        if self.crashed:
            return []
        if self._send_interceptor is not None:
            sent = (self.send(destination, payload) for destination in destinations)
            return [envelope for envelope in sent if envelope is not None]
        return self.network.multicast(self.node_id, destinations, payload)

    def deliver(self, envelope: Envelope) -> None:
        """Called by the network when a message (or bounce) arrives."""
        if self.crashed:
            return
        handler = self._on_message
        if handler is not None:
            handler(envelope.payload, envelope)

    # ------------------------------------------------------------------
    # timers
    # ------------------------------------------------------------------
    def set_timer(self, name: str, delay: float) -> None:
        """(Re)arm the named timer to fire ``delay`` from now.

        Re-arming an existing timer cancels the previous instance, which is
        how the protocol's "reset timer 5T" steps are expressed.
        """
        self.cancel_timer(name)
        sim = self.sim
        if delay < 0:
            raise SimulationError(f"cannot schedule an event in the past: delay={delay}")
        # Timers fire *after* message deliveries scheduled for the same
        # instant (priority 10): a timeout of exactly "2T" must not preempt a
        # message that arrives exactly at the 2T mark (the paper's bounds are
        # inclusive).  Inlined sim.schedule() -- timers are re-armed on every
        # protocol round, making this one of the hottest scheduling sites.
        self._timers[name] = sim._push(sim.now + delay, self._fire_timer, 10, name)

    def cancel_timer(self, name: str) -> None:
        """Cancel the named timer if it is armed."""
        event = self._timers.pop(name, None)
        if event is not None:
            event.cancel()

    def cancel_all_timers(self) -> None:
        """Cancel every armed timer."""
        timers = self._timers
        if timers:
            for event in timers.values():
                event.cancel()
            timers.clear()

    def timer_armed(self, name: str) -> bool:
        """True when the named timer is armed and has not fired."""
        event = self._timers.get(name)
        return event is not None and not event.cancelled

    def _fire_timer(self, name: str) -> None:
        event = self._timers.pop(name, None)
        if event is None or event.cancelled or self.crashed:
            return
        if self._tracing:
            self.trace.record(self.sim.now, "timeout", site=self.node_id, timer=name)
        handler = self._on_timeout
        if handler is not None:
            handler(name)

    # ------------------------------------------------------------------
    # crash / recovery
    # ------------------------------------------------------------------
    def crash(self) -> None:
        """Crash the site: cancel timers, drop future messages until recovery."""
        if self.crashed:
            return
        self.crashed = True
        self.cancel_all_timers()
        self.trace.record(self.sim.now, "crash", site=self.node_id)
        if self.role is not None:
            hook = getattr(self.role, "on_crash", None)
            if hook is not None:
                hook()

    def recover(self) -> None:
        """Recover the site and notify the role."""
        if not self.crashed:
            return
        self.crashed = False
        self.trace.record(self.sim.now, "recover", site=self.node_id)
        if self.role is not None:
            hook = getattr(self.role, "on_recover", None)
            if hook is not None:
                hook()

    # ------------------------------------------------------------------
    # trace helpers used by roles
    # ------------------------------------------------------------------
    def note(self, category: str, **detail: Any) -> None:
        """Record a role-level trace entry attributed to this site."""
        if self._tracing:
            self.trace.record(self.sim.now, category, site=self.node_id, **detail)

    @staticmethod
    def describe(payload: Any) -> str:
        """Human-readable payload description (re-exported for roles)."""
        return describe_payload(payload)


def is_undeliverable(payload: Any) -> bool:
    """True when ``payload`` is a bounced message (the paper's ``UD(msg)``)."""
    return isinstance(payload, Undeliverable)
