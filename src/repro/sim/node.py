"""Simulated sites.

A :class:`Node` is one site of the distributed database: it owns a mailbox
(fed by the network), named timers, a crash flag and the protocol *roles*
attached with :meth:`Node.attach`.  The paper runs one master/slave commit
instance per transaction, so a site serving many transactions keeps its
roles keyed by transaction id (the role's ``transaction_id``; ``None`` for
a role without one) and its timers by transaction id, then by name.  A
delivery goes to the role of its message's transaction id (a bounce: its
inner message's), a fired timer to the role that armed it, and crash and
recovery notifications to every role in transaction-id order.  A
single-transaction run is the one-key case.

An armed timer is just its kernel :class:`~repro.sim.events.Event`, which
carries the ``(transaction id, name)`` pair as its argument (no closure or
record per (re)arm).
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

    A role that carries a ``transaction_id`` attribute is keyed by it; one
    without is the node's ``None`` role.  ``on_message`` and ``on_timeout``
    are called whenever a delivery or a timer is the role's; the other hooks
    are optional and the node checks for them before calling.
    """

    def on_start(self) -> None:  # pragma: no cover - protocol definition
        """Called once when the role is started."""

    def on_message(self, payload: Any, envelope: Envelope) -> None:  # pragma: no cover
        """Called for every message routed to the role (including ``Undeliverable``)."""

    def on_timeout(self, name: str) -> None:  # pragma: no cover
        """Called with the timer's name when one of the role's timers fires."""

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
        #: The attached roles, keyed by transaction id.
        self.roles: dict[Optional[str], Role] = {}
        # Per attached transaction id: the prefix its timers' trace labels
        # carry, decided once by attach().
        self._timer_labels: dict[Optional[str], str] = {}
        # Armed timers: transaction id -> timer name -> event, so one
        # transaction's timers go with one pop however many are in flight.
        self._timers: dict[Optional[str], dict[str, Event]] = {}
        #: Called (with no arguments) after a crash is fanned out to the
        #: roles; the transaction scheduler fails the lock waits that died
        #: with the site's lock table here.
        self.crash_listeners: list[Any] = []
        #: Called (with no arguments) *before* a recovery is fanned out to
        #: the roles: the scheduler replays the site's WAL here, so roles
        #: (and re-admitted lock requests) always observe the recovered
        #: database state, never the pre-replay one.
        self.recover_listeners: list[Any] = []
        #: Called as ``listener(payload, envelope)`` for every delivery
        #: *before* it is routed; a listener returning True consumes the
        #: message.  The scheduler's network lock transport routes its lock
        #: request / grant traffic here.
        self.message_listeners: list[Any] = []
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
    def attach(self, role: Role, *, tag_timers: bool = False) -> None:
        """Attach ``role`` under its ``transaction_id`` (``None`` without one).

        ``tag_timers`` traces the role's timers as ``<transaction id>::<name>``
        rather than by bare name, as the transaction scheduler's many
        transactions per site do.
        """
        transaction_id = getattr(role, "transaction_id", None)
        self.roles[transaction_id] = role
        self._timer_labels[transaction_id] = f"{transaction_id}::" if tag_timers else ""

    def retire(self, transaction_id: Optional[str]) -> None:
        """Detach a finished transaction's role and cancel its timers.

        The transaction scheduler calls this once every participant has
        decided, so a long run holds only its in-flight roles and a finished
        one is freed by reference counting.  The role keeps its own ``node``,
        so a broadcast it makes after deciding still leaves through this
        site; later deliveries for the transaction take the
        ``unrouted-message`` path.
        """
        self.cancel_timers(transaction_id)
        self.roles.pop(transaction_id, None)
        self._timer_labels.pop(transaction_id, None)

    def close(self) -> None:
        """Drop the roles, the listeners and the armed timers.

        Each role points back at this node and every armed timer's event at
        :meth:`_fire_timer`, so until these links go the node is part of
        reference cycles only the cyclic garbage collector frees.  Called
        by :meth:`repro.sim.cluster.Cluster.close`; the node does not run
        again afterwards.
        """
        self.roles, self._timer_labels, self._timers = {}, {}, {}
        self.crash_listeners, self.recover_listeners, self.message_listeners = [], [], []

    def start(self, transaction_id: Optional[str]) -> None:
        """Schedule the ``on_start`` of one transaction's role at the current time."""
        self.sim.schedule(0.0, self._start_role, arg=transaction_id)

    def _start_role(self, transaction_id: Optional[str] = None) -> None:
        if self.crashed or transaction_id not in self.roles:
            return
        hook = getattr(self.roles[transaction_id], "on_start", None)
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
        """Called by the network when a message (or bounce) arrives.

        The message listeners see it first; then it goes to the role of its
        ``transaction_id`` (a bounce: its inner message's), and a payload
        without one to the ``None`` role.  With no role for it, it is
        dropped; a dropped payload that names a transaction is noted as
        ``unrouted-message``.
        """
        if self.crashed:
            return
        payload = envelope.payload
        if self.message_listeners:
            for listener in self.message_listeners:
                if listener(payload, envelope):
                    return
        inner = payload.original.payload if type(payload) is Undeliverable else payload
        try:
            transaction_id = inner.transaction_id
        except AttributeError:
            transaction_id = None
        roles = self.roles
        if transaction_id in roles:
            roles[transaction_id].on_message(payload, envelope)
        elif self._tracing and transaction_id is not None:
            self.note(
                "unrouted-message",
                transaction=transaction_id,
                payload=describe_payload(payload),
            )

    # ------------------------------------------------------------------
    # timers
    # ------------------------------------------------------------------
    def set_timer(
        self, name: str, delay: float, transaction_id: Optional[str] = None
    ) -> None:
        """(Re)arm transaction ``transaction_id``'s timer ``name`` to fire
        ``delay`` from now.

        Re-arming an existing timer cancels the previous instance, which is
        how the protocol's "reset timer 5T" steps are expressed.
        """
        timers = self._timers.get(transaction_id)
        if timers is None:
            timers = self._timers[transaction_id] = {}
        elif name in timers:
            timers[name].cancel()
        sim = self.sim
        if delay < 0:
            raise SimulationError(f"cannot schedule an event in the past: delay={delay}")
        # Timers fire *after* message deliveries scheduled for the same
        # instant (priority 10): a timeout of exactly "2T" must not preempt a
        # message that arrives exactly at the 2T mark (the paper's bounds are
        # inclusive).  Inlined sim.schedule() -- timers are re-armed on every
        # protocol round, making this one of the hottest scheduling sites.
        timers[name] = sim._push(
            sim.now + delay, self._fire_timer, 10, (transaction_id, name)
        )

    def cancel_timer(self, name: str, transaction_id: Optional[str] = None) -> None:
        """Cancel transaction ``transaction_id``'s timer ``name`` if it is armed."""
        timers = self._timers.get(transaction_id)
        if timers:
            event = timers.pop(name, None)
            if event is not None:
                event.cancel()

    def cancel_timers(self, transaction_id: Optional[str] = None) -> None:
        """Cancel every armed timer of transaction ``transaction_id``."""
        timers = self._timers.pop(transaction_id, None)
        if timers:
            for event in timers.values():
                event.cancel()

    def cancel_all_timers(self) -> None:
        """Cancel every armed timer, whichever transaction armed it."""
        timers = self._timers
        if timers:
            for transaction_timers in timers.values():
                for event in transaction_timers.values():
                    event.cancel()
            timers.clear()

    def timer_armed(self, name: str, transaction_id: Optional[str] = None) -> bool:
        """True when transaction ``transaction_id``'s timer ``name`` is armed."""
        event = self._timers.get(transaction_id, {}).get(name)
        return event is not None and not event.cancelled

    def _fire_timer(self, key: tuple[Optional[str], str]) -> None:
        transaction_id, name = key
        timers = self._timers.get(transaction_id)
        event = timers.pop(name, None) if timers else None
        if event is None or event.cancelled or self.crashed:
            return
        if self._tracing:
            label = self._timer_labels.get(transaction_id, "") + name
            self.trace.record(self.sim.now, "timeout", site=self.node_id, timer=label)
        if transaction_id in self.roles:
            self.roles[transaction_id].on_timeout(name)

    # ------------------------------------------------------------------
    # crash / recovery
    # ------------------------------------------------------------------
    def crash(self) -> None:
        """Crash the site: cancel timers, drop future messages until recovery.

        The roles hear of it in transaction-id order, then the listeners.
        """
        if self.crashed:
            return
        self.crashed = True
        self.cancel_all_timers()
        self.trace.record(self.sim.now, "crash", site=self.node_id)
        self._notify_roles("on_crash")
        for listener in list(self.crash_listeners):
            listener()

    def recover(self) -> None:
        """Recover the site: the listeners hear of it first, then the roles.

        Listener-before-role ordering is load-bearing: the scheduler's
        listener replays the WAL, and replay must complete before any role
        (or re-admitted lock request) touches the recovered site.
        """
        if not self.crashed:
            return
        self.crashed = False
        self.trace.record(self.sim.now, "recover", site=self.node_id)
        for listener in list(self.recover_listeners):
            listener()
        self._notify_roles("on_recover")

    def _notify_roles(self, hook_name: str) -> None:
        # Transaction-id order, the None role (if any) first.
        for _, role in sorted(self.roles.items(), key=lambda item: item[0] or ""):
            hook = getattr(role, hook_name, None)
            if hook is not None:
                hook()

    # ------------------------------------------------------------------
    # trace helpers used by roles
    # ------------------------------------------------------------------
    def note(self, category: str, **detail: Any) -> None:
        """Record a role-level trace entry attributed to this site."""
        if self._tracing:
            self.trace.record(self.sim.now, category, site=self.node_id, **detail)


def is_undeliverable(payload: Any) -> bool:
    """True when ``payload`` is a bounced message (the paper's ``UD(msg)``)."""
    return isinstance(payload, Undeliverable)
