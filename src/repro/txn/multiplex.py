"""Multiplexing many commit-protocol instances over one simulated cluster.

The single-transaction runner attaches exactly one protocol role per
:class:`~repro.sim.node.Node`.  The concurrent-transaction scheduler
instead attaches a :class:`SiteMultiplexer` to each node and gives every
in-flight transaction its own :class:`VirtualNode` -- a per-transaction
view of the shared node that

* routes sends through the real node (so partitions, bounces and latency
  apply unchanged),
* namespaces timer names by transaction id (two transactions' roles can
  both arm ``phase-timeout`` without clobbering each other, and a role's
  ``cancel_all_timers`` on decision cancels only its own), and
* records trace entries against the real site.

The multiplexer routes every delivery by the protocol message's
``transaction_id`` (messages are already tagged -- see
:class:`~repro.protocols.base.ProtocolMessage`), fires namespaced timers
back to the owning role, and fans crash / recovery notifications out to
every registered role.  Protocol roles run unmodified on top: they duck-type
against the node surface (:meth:`send`, :meth:`set_timer`, :meth:`note`,
``sim``) rather than the concrete :class:`Node`.

A transaction's virtual nodes live while its commit protocol is in flight:
the scheduler retires them (:meth:`SiteMultiplexer.retire`) once every
participant has decided, so a long run holds only its in-flight roles and a
finished one is freed by reference counting.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.sim.network import Undeliverable, describe_payload
from repro.sim.node import Node, Timer

#: Separator between the transaction id and the role-chosen timer name.
#: Transaction ids never contain it (workload ids are ``workload-txn-N``).
_TIMER_SEP = "::"


class VirtualNode:
    """A per-transaction view of a shared :class:`~repro.sim.node.Node`.

    Presents the node surface protocol roles use (attach / send / timers /
    trace notes) while isolating the transaction's timers and role wiring
    from every other transaction multiplexed over the same site.
    """

    def __init__(self, node: Node, multiplexer: "SiteMultiplexer", transaction_id: str) -> None:
        self._node = node
        self._multiplexer = multiplexer
        self.transaction_id = transaction_id
        self.role: Optional[Any] = None
        self._timer_names: set[str] = set()
        # Part of the node surface: roles read this to skip trace notes.
        self._tracing = node._tracing

    # ------------------------------------------------------------------
    # node surface shared with the real Node
    # ------------------------------------------------------------------
    @property
    def node_id(self) -> int:
        """The underlying site id."""
        return self._node.node_id

    @property
    def sim(self):
        """The shared simulator."""
        return self._node.sim

    @property
    def network(self):
        """The shared network."""
        return self._node.network

    @property
    def trace(self):
        """The shared trace."""
        return self._node.trace

    @property
    def crashed(self) -> bool:
        """Whether the underlying site is crashed."""
        return self._node.crashed

    def attach(self, role: Any) -> None:
        """Attach this transaction's role and register it for routing."""
        self.role = role
        self._multiplexer.register(self.transaction_id, self)

    def start(self) -> None:
        """Schedule the role's ``on_start`` at the current simulated time."""
        self._node.sim.schedule(0.0, self._start_role, label="start")

    def _start_role(self) -> None:
        if self.crashed or self.role is None:
            return
        hook = getattr(self.role, "on_start", None)
        if hook is not None:
            hook()

    def send(self, destination: int, payload: Any):
        """Send through the shared node (partitions and latency apply)."""
        return self._node.send(destination, payload)

    def multicast(self, destinations: list[int], payload: Any):
        """Send ``payload`` to every site in ``destinations``."""
        return self._node.multicast(destinations, payload)

    # ------------------------------------------------------------------
    # namespaced timers
    # ------------------------------------------------------------------
    def _scoped(self, name: str) -> str:
        return f"{self.transaction_id}{_TIMER_SEP}{name}"

    def set_timer(self, name: str, delay: float, payload: Any = None) -> Timer:
        """(Re)arm the named timer, scoped to this transaction."""
        self._timer_names.add(name)
        return self._node.set_timer(self._scoped(name), delay, payload)

    def cancel_timer(self, name: str) -> None:
        """Cancel this transaction's timer ``name`` if armed."""
        self._timer_names.discard(name)
        self._node.cancel_timer(self._scoped(name))

    def cancel_all_timers(self) -> None:
        """Cancel every timer this transaction armed (and only those)."""
        for name in sorted(self._timer_names):
            self._node.cancel_timer(self._scoped(name))
        self._timer_names.clear()

    def timer_armed(self, name: str) -> bool:
        """True when this transaction's timer ``name`` is armed."""
        return self._node.timer_armed(self._scoped(name))

    # ------------------------------------------------------------------
    # trace helpers
    # ------------------------------------------------------------------
    def note(self, category: str, **detail: Any) -> None:
        """Record a role-level trace entry attributed to the real site."""
        self._node.note(category, **detail)

    @staticmethod
    def describe(payload: Any) -> str:
        """Human-readable payload description (re-exported for roles)."""
        return describe_payload(payload)


class SiteMultiplexer:
    """The role attached to a real node; routes traffic to per-transaction roles."""

    def __init__(self, node: Node) -> None:
        self.node = node
        self._virtuals: dict[str, VirtualNode] = {}
        #: Called (with no arguments) after a crash is fanned out to the
        #: roles; the transaction scheduler uses this to fail lock waits
        #: that died with the site's lock table.
        self.crash_listeners: list[Any] = []
        #: Called (with no arguments) *before* a recovery is fanned out to
        #: the roles: the scheduler replays the site's WAL here, so roles
        #: (and re-admitted lock requests) always observe the recovered
        #: database state, never the pre-replay one.
        self.recover_listeners: list[Any] = []
        #: Called as ``listener(payload, envelope)`` for every delivery
        #: *before* transaction routing; a listener returning True consumes
        #: the message.  The scheduler's network lock transport routes its
        #: lock request / grant traffic here.
        self.message_listeners: list[Any] = []
        node.attach(self)

    def register(self, transaction_id: str, virtual: VirtualNode) -> None:
        """Register a transaction's virtual node for routing."""
        self._virtuals[transaction_id] = virtual

    def virtual_node(self, transaction_id: str) -> VirtualNode:
        """Create (or return) the virtual node for one transaction."""
        virtual = self._virtuals.get(transaction_id)
        if virtual is None:
            virtual = VirtualNode(self.node, self, transaction_id)
            self._virtuals[transaction_id] = virtual
        return virtual

    def retire(self, transaction_id: str) -> None:
        """Forget a decided transaction's virtual node and cut its role.

        The scheduler calls this once every participant has decided.  The
        role keeps its own ``node`` (this virtual node), so a broadcast it
        makes after deciding still leaves through the real site; later
        deliveries for the transaction take the ``unrouted-message`` path.
        """
        virtual = self._virtuals.pop(transaction_id, None)
        if virtual is not None:
            virtual.role = None

    def close(self) -> None:
        """Drop the listeners and retire every transaction still in flight.

        The listeners lead back to the scheduler and each role back to its
        virtual node, so until these links go a finished run is one
        reference cycle.  Called by
        :meth:`repro.txn.scheduler.TransactionScheduler.close`.  Idempotent.
        """
        self.crash_listeners.clear()
        self.recover_listeners.clear()
        self.message_listeners.clear()
        for transaction_id in list(self._virtuals):
            self.retire(transaction_id)

    # ------------------------------------------------------------------
    # Role hooks invoked by the real node
    # ------------------------------------------------------------------
    def on_start(self) -> None:
        """Transactions start when the scheduler admits them, not at t=0."""

    def on_message(self, payload: Any, envelope: Any) -> None:
        """Route a delivery (or bounce) to the owning transaction's role."""
        if self.message_listeners:
            for listener in self.message_listeners:
                if listener(payload, envelope):
                    return
        inner = payload.payload if isinstance(payload, Undeliverable) else payload
        transaction_id = getattr(inner, "transaction_id", None)
        virtual = self._virtuals.get(transaction_id) if transaction_id else None
        if virtual is None or virtual.role is None:
            if self.node._tracing:
                self.node.note(
                    "unrouted-message",
                    transaction=transaction_id,
                    payload=describe_payload(payload),
                )
            return
        handler = getattr(virtual.role, "on_message", None)
        if handler is not None:
            handler(payload, envelope)

    def on_timeout(self, timer: Timer) -> None:
        """Strip the transaction prefix and fire the owning role's handler."""
        transaction_id, sep, name = timer.name.partition(_TIMER_SEP)
        if not sep:
            return
        virtual = self._virtuals.get(transaction_id)
        if virtual is None or virtual.role is None:
            return
        virtual._timer_names.discard(name)
        handler = getattr(virtual.role, "on_timeout", None)
        if handler is not None:
            handler(
                Timer(
                    name=name,
                    owner=timer.owner,
                    deadline=timer.deadline,
                    event=timer.event,
                    payload=timer.payload,
                )
            )

    def on_crash(self) -> None:
        """Fan the crash notification out to every transaction's role."""
        for transaction_id in sorted(self._virtuals):
            virtual = self._virtuals[transaction_id]
            virtual._timer_names.clear()
            hook = getattr(virtual.role, "on_crash", None)
            if hook is not None:
                hook()
        for listener in list(self.crash_listeners):
            listener()

    def on_recover(self) -> None:
        """Fan the recovery notification out: listeners first, then roles.

        Listener-before-role ordering is load-bearing -- the scheduler's
        listener replays the WAL, and replay must complete before any role
        (or re-admitted lock request) touches the recovered site.
        """
        for listener in list(self.recover_listeners):
            listener()
        for transaction_id in sorted(self._virtuals):
            hook = getattr(self._virtuals[transaction_id].role, "on_recover", None)
            if hook is not None:
                hook()
