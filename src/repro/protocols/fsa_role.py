"""The one role class: it drives a protocol's compiled local-step relation.

Every protocol -- 2PC, extended 2PC, 3PC, the naive extended 3PC, the
quorum skeleton, and terminating 3PC (with and without the transient rule)
and terminating quorum commit -- is its finite-state automata plus either
the Rule (a)/(b) augmentation or Theorem 10's termination construction,
compiled into one :class:`~repro.core.relation.ProtocolRelation` and, for
the plan's n, into one :class:`~repro.core.relation.MoveTable`.
:class:`FSARole` steps by that table, taken from the shared, immutable
:class:`~repro.protocols.plan.ProtocolPlan`, under the kernel clock:

* a delivery sets the (kind, sender) bit of an int inbox; after every
  delivery and every state change -- the vote step included -- the role
  takes the first move whose guard holds and whose vote is its own, clears
  the bits it consumed and keeps stepping until none qualifies or it has
  decided;
* an arrival action of the delivered kind (the master's probe reads)
  consumes the message first, decided or not;
* the state timer is armed on entering a state that has one; an expiring
  timer fires the state's Rule (a) decision or its first enabled action for
  that timer, a bounced message its Rule (b) decision or its first enabled
  action for that kind;
* guards read and writes update the termination protocol's per-site
  variables (:func:`~repro.core.relation.site_variables`).

Rule (a)/(b) decisions decide without moving the local state, and a
deciding master broadcasts them.  The role casts the site's vote, keeps its
first decision (a later, different one only counts as conflicting), applies
it to the database site and tells the decision listeners.  The model checker branches over every
move of the same table (:mod:`repro.core.reachability`) when the relation
is untimed.
"""

from __future__ import annotations

from typing import Any, Iterable, Optional

from repro.core import messages as m
from repro.core.fsa import SLAVE_ROLE
from repro.core.relation import (
    ARRIVAL,
    OPERATOR_SITE,
    SITE,
    TIMEOUT,
    UNDELIVERABLE,
    Action,
    Move,
    Resolution,
    Send,
    Timer,
    holds,
    site_variables,
    write,
)
from repro.db.transactions import Transaction
from repro.protocols.base import Decision, ProtocolContext, ProtocolMessage
from repro.protocols.plan import ProtocolPlan
from repro.sim.network import Undeliverable

_DECISIONS = {m.COMMIT: Decision.COMMIT, m.ABORT: Decision.ABORT}


class FSARole:
    """Drives one role of a protocol's compiled local-step relation."""

    def __init__(self, ctx: ProtocolContext, plan: ProtocolPlan, role: str) -> None:
        self.ctx = ctx
        self.node = ctx.node
        self.db = ctx.db
        self.role = role
        self.relation = plan.relation
        self._tables = plan.relation.role(role)
        self._moves = plan.moves.moves
        self._offsets = plan.moves.offsets[role]
        self._records_bounces = plan.moves.records_bounces[role]
        # Hot identity lookups, resolved once: the property chains
        # (ctx.node.node_id, ctx.transaction.transaction_id, node.sim) are
        # walked on every message/transition otherwise.
        self.site = site = ctx.node.node_id
        self.transaction_id = ctx.transaction.transaction_id
        self._sim = ctx.node.sim
        # Mirrors Node._tracing: skips building the note() kwargs entirely
        # on the engine's trace-free path.
        self._tracing = ctx.node._tracing
        master = ctx.master
        self._master = master
        # Every slave but this site: whom slave-bound sends go to.
        slaves = tuple(s for s in ctx.participants if s != master)
        self._peer_slaves = slaves if site == master else tuple(s for s in slaves if s != site)
        self._positions = plan.moves.positions(master, ctx.participants)
        self._position = self._positions[site]
        self.inbox = 0
        #: The site variables the relation's guards read and writes update.
        self.vars: dict[str, Any] = site_variables(slaves)
        self.state = plan.spec.automaton(role).initial
        self.decision: Optional[Decision] = None
        self.decided_at: Optional[float] = None
        self.vote: Optional[str] = None
        self.conflicting_decisions = 0
        #: Observers called once, with (role, decision), when the role
        #: reaches its first (and only effective) local decision.  The
        #: concurrent-transaction scheduler uses this to track completion
        #: without polling; single-transaction runs leave it empty.
        self.decision_listeners: list[Any] = []
        self.node.attach(self)

    @property
    def transaction(self) -> Transaction:
        """The transaction being terminated."""
        return self.ctx.transaction

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._sim.now

    @property
    def decided(self) -> bool:
        """True once this site has reached its local decision."""
        return self.decision is not None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def on_start(self) -> None:
        if self.role == SLAVE_ROLE:
            self._arm_state_timer()
            return
        refusal = self.relation.refusal
        if refusal is not None and self.cast_vote() == "no":
            # The master aborts unilaterally before involving anyone else.
            self._resolve(refusal, reason="master voted no")
            return
        # The operator's request is on the tape: the master's first step.
        self._receive(m.REQUEST, OPERATOR_SITE)

    # ------------------------------------------------------------------
    # deliveries and timers
    # ------------------------------------------------------------------
    def on_message(self, payload: Any, envelope: Any) -> None:
        message, undeliverable = self.unwrap(payload)
        if message is None:
            return
        if undeliverable:
            self._on_undeliverable(message, payload.intended_destination)
            return
        kind = message.kind
        actions = self._tables[self.state].actions
        arrivals = actions.get((ARRIVAL, kind)) if actions else None
        if arrivals:
            action = next(filter(self._enabled, arrivals), None)
            if action is not None:
                self._apply(action, message.sender)
                return
        self._receive(kind, message.sender)

    def _on_undeliverable(self, message: ProtocolMessage, intended: int) -> None:
        if self._tracing:
            # A role that records bounces (the terminating master's UD set)
            # notes whom a bounce was for.
            ud = {"intended": intended} if self._records_bounces else {}
            self.node.note(
                "undeliverable-received",
                transaction=self.transaction_id,
                kind=message.kind,
                **ud,
                state=self.state,
            )
        if self.decided:
            return
        table = self._tables[self.state]
        actions = table.actions.get((UNDELIVERABLE, message.kind), ())
        action = next(filter(self._enabled, actions), None)
        if action is not None:
            self._apply(action, intended)
        elif table.undeliverable is not None:
            reason = f"undeliverable {message.kind} in {self.state}"
            self._resolve(table.undeliverable, reason=reason)

    def _arm(self, timer: Timer) -> None:
        self.node.set_timer(timer.name, getattr(self.ctx.timers, timer.duration))

    def _arm_state_timer(self) -> None:
        timer = self._tables[self.state].timer
        if timer is not None:
            self._arm(timer)

    def on_timeout(self, name: str) -> None:
        if self.decided:
            return
        table = self._tables[self.state]
        if table.timeout is not None:
            # Rule (a): an augmented role's only timer is its state timer.
            self._resolve(table.timeout, reason=f"timeout in {self.state}")
            return
        action = next(filter(self._enabled, table.actions.get((TIMEOUT, name), ())), None)
        if action is not None:
            self._apply(action, self.site)

    # ------------------------------------------------------------------
    # state transitions, decisions and votes
    # ------------------------------------------------------------------
    def transition(self, new_state: str, *, reason: str = "") -> None:
        """Move to ``new_state`` and record it in the trace."""
        previous = self.state
        self.state = new_state
        if self._tracing:
            self.node.note(
                "transition",
                transaction=self.transaction_id,
                source=previous,
                target=new_state,
                reason=reason,
            )

    def decide(self, decision: Decision, *, reason: str = "") -> None:
        """Reach the local decision ``decision`` (idempotent, first one wins).

        A second, *different* decision is recorded as a conflicting-decision
        trace event and otherwise ignored; the atomicity checker works from
        each site's first decision, and the cross-site inconsistency is what
        the negative experiments measure.
        """
        if self.decision is not None:
            if self.decision is not decision:
                self.conflicting_decisions += 1
                if self._tracing:
                    self.node.note(
                        "conflicting-decision",
                        transaction=self.transaction_id,
                        first=self.decision.value,
                        second=decision.value,
                        reason=reason,
                    )
            return
        self.decision = decision
        self.decided_at = self.now
        if decision is Decision.COMMIT:
            self.db.commit(self.transaction_id, now=self.now)
        else:
            self.db.abort(self.transaction_id, now=self.now)
        self.node.cancel_all_timers()
        if self._tracing:
            self.node.note(
                "decision",
                transaction=self.transaction_id,
                outcome=decision.value,
                state=self.state,
                reason=reason,
            )
        for listener in list(self.decision_listeners):
            listener(self, decision)

    def cast_vote(self) -> str:
        """Execute the transaction locally and produce this site's vote."""
        if self.site in self.ctx.no_voters:
            self.vote = "no"
            if self._tracing:
                self.node.note("vote", transaction=self.transaction_id, vote="no", forced=True)
            return "no"
        self.vote = self.db.execute(self.transaction, now=self.now)
        if self._tracing:
            self.node.note("vote", transaction=self.transaction_id, vote=self.vote, forced=False)
        return self.vote

    # ------------------------------------------------------------------
    # stepping through the compiled relation
    # ------------------------------------------------------------------
    def _receive(self, kind: str, sender: int) -> None:
        """Put a message in the inbox, if some state reads its kind, then take
        the first enabled move, again and again, until none is."""
        offset = self._offsets.get(kind)
        if offset is None:
            return
        self.inbox |= 1 << (offset + self._positions[sender])
        while self.decision is None:
            move = self._next_move()
            if move is None:
                return
            step, consumed = move
            self.inbox &= ~consumed
            self._apply(step)

    def _next_move(self) -> Optional[Move]:
        """The first enabled move over the state and inbox."""
        for move in self._moves(self._position, self.state, self.inbox):
            if self._enabled(move[0]):
                return move
        return None

    def _enabled(self, action: Action) -> bool:
        """Whether ``action``'s guard holds and its vote, if it has one, is
        this site's (cast now when the site has not voted yet)."""
        guard, vote = action.guard, action.vote
        if guard is not None and not holds(guard, self.vars):
            return False
        return vote is None or vote == (self.vote or self.cast_vote())

    def _apply(self, action: Action, site: Optional[int] = None) -> None:
        """Take ``action``; ``site`` is the one its triggering event concerns."""
        reason = action.label
        decision = action.decision
        note = action.note if self._tracing else None
        if note is not None and decision is not None:
            self._note(action, site)
        if action.writes:
            write(action.writes, self.vars, site)
        if action.journals_prepare:
            self.db.prepare(self.transaction_id, now=self.now)
        if action.sends:
            self._send_all(action.sends)
        if action.target is not None:
            self.transition(action.target, reason=reason)
        for name in action.cancels:
            self.node.cancel_timer(name)
        for timer in action.arms:
            self._arm(timer)
        if decision is not None:
            self.decide(_DECISIONS[decision], reason=reason)
            return
        if note is not None:
            self._note(action, site)
        if action.target is not None:
            self._arm_state_timer()

    def _note(self, action: Action, site: Optional[int]) -> None:
        category, fields = action.note
        data = {SITE: site, "state": self.state, "decision": action.decision}
        detail = {
            field: data[datum] if datum in data else sorted(self.vars[datum])
            for field, datum in fields
        }
        self.node.note(category, transaction=self.transaction_id, **detail)

    def _resolve(self, resolution: Resolution, *, reason: str) -> None:
        self.decide(_DECISIONS[resolution.decision], reason=reason)
        self._send_all(resolution.sends)

    def _send_all(self, sends: tuple[Send, ...]) -> None:
        for kind, to in sends:
            payload = self.transaction if kind == m.XACT else self.site if kind == m.PROBE else None
            if to:
                self.send(self._master, kind, payload)
            elif to is None:
                self.broadcast(self.ctx.others, kind, payload)
            else:
                self.broadcast(self._peer_slaves, kind, payload)

    def send(self, destination: int, kind: str, payload: Any = None) -> None:
        """Send a protocol message to ``destination``."""
        self.node.send(
            destination, ProtocolMessage(kind, self.transaction_id, self.site, payload)
        )

    def broadcast(self, destinations: Iterable[int], kind: str, payload: Any = None) -> None:
        """Send the same protocol message to several sites."""
        for destination in destinations:
            self.send(destination, kind, payload)

    def unwrap(self, payload: Any) -> tuple[Optional[ProtocolMessage], bool]:
        """Return ``(protocol message, was_undeliverable)`` for a delivery.

        Messages belonging to other transactions return ``(None, ...)`` and
        are ignored.
        """
        undeliverable = type(payload) is Undeliverable
        inner = payload.payload if undeliverable else payload
        if type(inner) is not ProtocolMessage or inner.transaction_id != self.transaction_id:
            return None, undeliverable
        return inner, undeliverable
