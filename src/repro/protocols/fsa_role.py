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
deciding master broadcasts them.  The model checker branches over every
move of the same table (:mod:`repro.core.reachability`) when the relation
is untimed.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.core import messages as m
from repro.core.fsa import MASTER_ROLE, SLAVE_ROLE
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
from repro.protocols.base import Decision, ProtocolContext, ProtocolMessage, RoleBase
from repro.protocols.plan import ProtocolPlan, compiled_plan

_DECISIONS = {m.COMMIT: Decision.COMMIT, m.ABORT: Decision.ABORT}


class FSARole(RoleBase):
    """Drives one role of a protocol's compiled local-step relation."""

    def __init__(self, ctx: ProtocolContext, plan: ProtocolPlan, role: str) -> None:
        self.role = role
        self.relation = plan.relation
        self._tables = plan.relation.role(role)
        self._moves = plan.moves.moves
        self._offsets = plan.moves.offsets[role]
        self._records_bounces = plan.moves.records_bounces[role]
        site, master = ctx.node.node_id, ctx.master
        self._master = master
        # Every slave but this site: whom slave-bound sends go to.
        slaves = tuple(s for s in ctx.participants if s != master)
        self._peer_slaves = slaves if site == master else tuple(s for s in slaves if s != site)
        self._positions = plan.moves.positions(master, ctx.participants)
        self._position = self._positions[site]
        self.inbox = 0
        #: The site variables the relation's guards read and writes update.
        self.vars: dict[str, Any] = site_variables(slaves)
        super().__init__(ctx, initial_state=plan.spec.automaton(role).initial)

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

    def on_timeout(self, timer: Any) -> None:
        if self.decided:
            return
        table = self._tables[self.state]
        if table.timeout is not None:
            # Rule (a): an augmented role's only timer is its state timer.
            self._resolve(table.timeout, reason=f"timeout in {self.state}")
            return
        action = next(filter(self._enabled, table.actions.get((TIMEOUT, timer.name), ())), None)
        if action is not None:
            self._apply(action, self.site)

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


class FSAProtocolDefinition:
    """A protocol definition: a formal spec, extended by Rule (a)/(b)
    (``augment``) or by Theorem 10's termination protocol (``terminate``,
    with or without the Section 6 ``transient_rule``)."""

    def __init__(
        self,
        name: str,
        spec_factory,
        *,
        augment: bool = False,
        terminate: bool = False,
        transient_rule: bool = True,
    ) -> None:
        self.name = name
        self._spec_factory = spec_factory
        self._flags = {"augment": augment, "terminate": terminate, "transient_rule": transient_rule}

    def plan(self, n_sites: int) -> ProtocolPlan:
        """The shared compiled plan of this protocol for ``n_sites`` sites."""
        return compiled_plan(self.name, n_sites, self._spec_factory, **self._flags)

    def coordinator(self, ctx: ProtocolContext) -> FSARole:
        """Build the master role."""
        return FSARole(ctx, self.plan(len(ctx.participants)), MASTER_ROLE)

    def participant(self, ctx: ProtocolContext) -> FSARole:
        """Build a slave role."""
        return FSARole(ctx, self.plan(len(ctx.participants)), SLAVE_ROLE)
