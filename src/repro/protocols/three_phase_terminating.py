"""The paper's contribution: 3PC + the Section 5.3 termination protocol.

The protocol is the modified three-phase commit protocol of Fig. 8 (slaves
accept a commit while still in ``w``) together with the termination actions
of Section 5.3:

Master (site 1)
    * ``w1`` -- timeout or UD(xact): send ``abort`` to everyone and abort.
    * ``p1`` -- timeout: send ``commit`` to everyone and commit;
      UD(prepare_i): start a ``5T`` probe-collection window, accumulate the
      sets ``UD`` (slaves whose prepare bounced) and ``PB`` (slaves that
      probed); when the window closes, abort if ``N - UD = PB`` else commit
      (Lemma 4: the equality holds exactly when no prepare crossed the
      boundary).

Slave (site i)
    * ``w`` -- timeout: wait a further ``6T`` for a commit or abort, then
      abort; UD(yes_i): send ``abort`` to everyone and abort; a commit
      received while still in ``w`` is accepted (the Fig. 8 transition).
    * ``p`` -- timeout: probe the master and wait for an UD(probe) (meaning
      the slave is in ``G2`` and must lead it to commit), a commit or an
      abort; UD(ack_i): send ``commit`` to everyone and commit.  Under the
      Section 6 transient rule the slave additionally commits if it has
      waited ``5T`` after its timeout without hearing anything (only case
      3.2.2.2 can reach that point, and there every other site has
      committed).

The same roles, instantiated with ``pre-commit`` instead of ``prepare``,
give the Theorem 10 construction for the quorum-commit skeleton
(:class:`repro.protocols.quorum.TerminatingQuorumCommit`).
"""

from __future__ import annotations

from typing import Any, Optional

from repro.core import messages as m
from repro.core.termination import MasterTerminationTracker, TerminationOutcome
from repro.protocols.base import Decision, ProtocolContext, ProtocolMessage, RoleBase
from repro.sim.network import Undeliverable

# Timer names used by the roles.
_PHASE = "phase-timeout"          # the commit protocol's own timeout (2T / 3T)
_PROBE_WINDOW = "probe-window"    # master: 5T collection window after UD(prepare)
_WAIT_IN_W = "wait-in-w"          # slave: 6T wait after timing out in w
_WAIT_IN_P = "wait-in-p"          # slave: 5T wait after timing out in p (Section 6)

# Protocol state names (the paper's q / w / p / c / a).
_Q, _W, _P, _C, _A = m.INITIAL, m.WAIT, m.PREPARED, m.COMMITTED, m.ABORTED


class TerminatingMasterRole(RoleBase):
    """The master's side of the modified 3PC plus termination protocol."""

    def __init__(
        self,
        ctx: ProtocolContext,
        *,
        promotion_kind: str = m.PREPARE,
        answer_late_probes: bool = False,
    ) -> None:
        self.promotion_kind = promotion_kind
        self.answer_late_probes = answer_late_probes
        self.yes_votes: set[int] = set()
        self.acks: set[int] = set()
        self.tracker: Optional[MasterTerminationTracker] = None
        super().__init__(ctx, initial_state=_Q)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def on_start(self) -> None:
        vote = self.cast_vote()
        if vote == "no":
            self._abort_everyone("master voted no")
            return
        self.broadcast(self.ctx.slaves, m.XACT, self.transaction)
        self.transition(_W, reason="transaction forwarded to slaves")
        self.node.set_timer(_PHASE, self.ctx.timers.master_vote_timeout)

    # ------------------------------------------------------------------
    # messages
    # ------------------------------------------------------------------
    def on_message(self, payload: Any, envelope: Any) -> None:
        message, undeliverable = self.unwrap(payload)
        if message is None:
            return
        if undeliverable:
            self._on_undeliverable(message, payload)
        else:
            self._on_protocol_message(message)

    def _on_undeliverable(self, message: ProtocolMessage, wrapper: Undeliverable) -> None:
        intended = wrapper.intended_destination
        if self._tracing:
            self.node.note(
                "undeliverable-received",
                transaction=self.transaction_id,
                kind=message.kind,
                intended=intended,
                state=self.state,
            )
        if self.decided:
            return
        if message.kind == m.XACT and self.state == _W:
            # w1 (2): the transaction never reached some slave; nobody can
            # have voted yes everywhere, abort the whole thing.
            self._abort_everyone(f"xact to site {intended} undeliverable")
        elif message.kind == self.promotion_kind and self.state == _P:
            self._on_undeliverable_prepare(intended)
        # Bounced commit / abort broadcasts need no action: the slaves in the
        # other partition terminate themselves via the termination protocol.

    def _on_undeliverable_prepare(self, slave: int) -> None:
        if self.tracker is None:
            # p1 (2): UD := {i}; PB := {}; reset timer 5T.
            self.tracker = MasterTerminationTracker(slaves=frozenset(self.ctx.slaves))
            self.tracker.open_window(slave)
            self.node.cancel_timer(_PHASE)
            self.node.set_timer(_PROBE_WINDOW, self.ctx.timers.probe_window)
            self.node.note(
                "probe-window-open",
                transaction=self.transaction_id,
                first_undeliverable=slave,
            )
        else:
            self.tracker.record_undeliverable(slave)

    def _on_protocol_message(self, message: ProtocolMessage) -> None:
        kind, sender = message.kind, message.sender
        if kind == m.YES and self.state == _W:
            self.yes_votes.add(sender)
            if self.yes_votes >= set(self.ctx.slaves):
                self._send_prepares()
        elif kind == m.NO and self.state == _W and not self.decided:
            self._abort_everyone(f"site {sender} voted no")
        elif kind == m.ACK and self.state == _P:
            self.acks.add(sender)
            window_open = self.tracker is not None and self.tracker.window_open
            if not window_open and self.acks >= set(self.ctx.slaves):
                self._commit_everyone("all acknowledgements received")
        elif kind == m.PROBE:
            self._on_probe(sender)
        elif kind == m.COMMIT and not self.decided:
            # A slave acting for its partition relayed a commit (only possible
            # after the network healed); adopt it.
            self.decide(Decision.COMMIT, reason=f"commit relayed by site {sender}")
        elif kind == m.ABORT and not self.decided:
            self.decide(Decision.ABORT, reason=f"abort relayed by site {sender}")

    def _on_probe(self, sender: int) -> None:
        if self.tracker is not None and self.tracker.window_open:
            self.tracker.record_probe(sender)
            return
        if self.decided and self.answer_late_probes:
            # Not part of the paper's protocol (Section 6 fixes case 3.2.2.2
            # with the slave-side 5T rule instead), but kept as an ablation:
            # answering late probes is the other way to terminate that case.
            kind = m.COMMIT if self.decision is Decision.COMMIT else m.ABORT
            self.send(sender, kind)
        else:
            self.node.note(
                "late-probe-ignored", transaction=self.transaction_id, prober=sender
            )

    # ------------------------------------------------------------------
    # timers
    # ------------------------------------------------------------------
    def on_timeout(self, timer: Any) -> None:
        if self.decided:
            return
        if timer.name == _PHASE and self.state == _W:
            # w1 (1): no prepare was ever generated, G2 cannot commit.
            self._abort_everyone("timed out waiting for votes")
        elif timer.name == _PHASE and self.state == _P:
            # p1 (1): every prepare was delivered (no UD came back), so every
            # slave will eventually commit; commit G1.
            self._commit_everyone("timed out waiting for acknowledgements")
        elif timer.name == _PROBE_WINDOW and self.tracker is not None:
            decision = self.tracker.decide()
            self.node.note(
                "probe-window-closed",
                transaction=self.transaction_id,
                undeliverable=sorted(decision.undeliverable),
                probed=sorted(decision.probed),
                outcome=decision.outcome.value,
            )
            if decision.outcome is TerminationOutcome.ABORT:
                self._abort_everyone(decision.reason)
            else:
                self._commit_everyone(decision.reason)

    # ------------------------------------------------------------------
    # internal helpers
    # ------------------------------------------------------------------
    def _send_prepares(self) -> None:
        self.db.prepare(self.transaction_id, now=self.now)
        self.broadcast(self.ctx.slaves, self.promotion_kind)
        self.transition(_P, reason="all votes are yes")
        self.node.set_timer(_PHASE, self.ctx.timers.master_vote_timeout)

    def _commit_everyone(self, reason: str) -> None:
        self.broadcast(self.ctx.slaves, m.COMMIT)
        self.transition(_C, reason=reason)
        self.decide(Decision.COMMIT, reason=reason)

    def _abort_everyone(self, reason: str) -> None:
        self.broadcast(self.ctx.slaves, m.ABORT)
        self.transition(_A, reason=reason)
        self.decide(Decision.ABORT, reason=reason)


class TerminatingSlaveRole(RoleBase):
    """A slave's side of the modified 3PC plus termination protocol."""

    def __init__(
        self,
        ctx: ProtocolContext,
        *,
        promotion_kind: str = m.PREPARE,
        relay_commit_in_w: bool = True,
    ) -> None:
        self.promotion_kind = promotion_kind
        self.relay_commit_in_w = relay_commit_in_w
        self.timed_out_in_w = False
        self.timed_out_in_p = False
        self.probed = False
        super().__init__(ctx, initial_state=_Q)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def on_start(self) -> None:
        self.node.set_timer(_PHASE, self.ctx.timers.slave_timeout)

    # ------------------------------------------------------------------
    # messages
    # ------------------------------------------------------------------
    def on_message(self, payload: Any, envelope: Any) -> None:
        message, undeliverable = self.unwrap(payload)
        if message is None:
            return
        if undeliverable:
            self._on_undeliverable(message)
        else:
            self._on_protocol_message(message)

    def _on_undeliverable(self, message: ProtocolMessage) -> None:
        if self._tracing:
            self.node.note(
                "undeliverable-received",
                transaction=self.transaction_id,
                kind=message.kind,
                state=self.state,
            )
        if self.decided:
            return
        if message.kind == m.YES and self.state == _W:
            # w_i (2): my yes never reached the master; the master cannot have
            # generated a prepare, so nobody will commit -- abort everyone.
            self.broadcast(self.ctx.others, m.ABORT)
            self.decide(Decision.ABORT, reason="own yes vote returned undeliverable")
        elif message.kind == m.ACK and self.state == _P:
            # p_i (2): my ack bounced, so I am in G2 and I have the prepare;
            # lead my partition to commit.
            self.broadcast(self.ctx.others, m.COMMIT)
            self.decide(Decision.COMMIT, reason="own ack returned undeliverable")
        elif message.kind == m.PROBE and self.state == _P:
            # p_i timeout handler: my probe bounced, so the master is on the
            # other side; I have the prepare, lead my partition to commit.
            self.broadcast(self.ctx.others, m.COMMIT)
            self.decide(Decision.COMMIT, reason="own probe returned undeliverable")
        # Bounced commit / abort relays need no action.

    def _on_protocol_message(self, message: ProtocolMessage) -> None:
        kind = message.kind
        if kind == m.XACT and self.state == _Q and not self.decided:
            # (A timeout in q may have aborted before a late xact arrived.)
            self._on_xact()
        elif kind == self.promotion_kind and self.state == _W:
            self._on_prepare()
        elif kind == m.COMMIT:
            self._on_commit(message)
        elif kind == m.ABORT:
            self._on_abort(message)

    def _on_xact(self) -> None:
        vote = self.cast_vote()
        if vote == "yes":
            self.send(self.ctx.master, m.YES)
            self.transition(_W, reason="voted yes")
            self.node.set_timer(_PHASE, self.ctx.timers.slave_timeout)
        else:
            self.send(self.ctx.master, m.NO)
            self.transition(_A, reason="voted no")
            self.decide(Decision.ABORT, reason="unilateral abort")

    def _on_prepare(self) -> None:
        if self.timed_out_in_w:
            # The Section 5.3 actions after a timeout in w only react to a
            # commit, an abort or the 6T expiry; a late prepare cannot occur
            # under the paper's assumptions and is ignored defensively.
            self.node.note(
                "late-prepare-ignored", transaction=self.transaction_id, state=self.state
            )
            return
        self.db.prepare(self.transaction_id, now=self.now)
        self.send(self.ctx.master, m.ACK)
        self.transition(_P, reason="prepare received")
        self.node.set_timer(_PHASE, self.ctx.timers.slave_timeout)

    def _on_commit(self, message: ProtocolMessage) -> None:
        if self.decided:
            return
        if self.state == _P:
            self.transition(_C, reason="commit received")
            self.decide(Decision.COMMIT, reason=f"commit from site {message.sender}")
        elif self.state == _W:
            if not self.relay_commit_in_w:
                # Ablation of the Fig. 8 w -> c transition: the slave ignores a
                # commit relayed while it is still in w, reproducing the "fly
                # in the ointment" inconsistency of Section 5.3.
                self.node.note(
                    "relayed-commit-ignored", transaction=self.transaction_id, state=self.state
                )
                return
            self.transition(_C, reason="commit received while in w (Fig. 8 transition)")
            self.decide(Decision.COMMIT, reason=f"commit from site {message.sender}")

    def _on_abort(self, message: ProtocolMessage) -> None:
        if self.decided:
            return
        self.transition(_A, reason="abort received")
        self.decide(Decision.ABORT, reason=f"abort from site {message.sender}")

    # ------------------------------------------------------------------
    # timers
    # ------------------------------------------------------------------
    def on_timeout(self, timer: Any) -> None:
        if self.decided:
            return
        if timer.name == _PHASE:
            self._on_phase_timeout()
        elif timer.name == _WAIT_IN_W and self.state == _W:
            # w_i (1): waited a further 6T without a commit or abort -- abort.
            self.decide(Decision.ABORT, reason="no decision within 6T of timing out in w")
        elif timer.name == _WAIT_IN_P and self.state == _P:
            # Section 6: only case (3.2.2.2) can leave a slave waiting longer
            # than 5T, and in that case everyone else has committed.
            self.decide(Decision.COMMIT, reason="transient rule: waited 5T after probing")

    def _on_phase_timeout(self) -> None:
        if self.state == _Q:
            self.decide(Decision.ABORT, reason="transaction never arrived")
        elif self.state == _W:
            # w_i (1): wait a further 6T for a commit or an abort.
            self.timed_out_in_w = True
            self.node.set_timer(_WAIT_IN_W, self.ctx.timers.wait_in_w)
            if self._tracing:
                self.node.note("timed-out-in-w", transaction=self.transaction_id)
        elif self.state == _P:
            # p_i (1): probe the master and wait.
            self.timed_out_in_p = True
            self.probed = True
            self.send(self.ctx.master, m.PROBE, self.site)
            if self._tracing:
                self.node.note("timed-out-in-p", transaction=self.transaction_id)
            if self.ctx.transient_rule:
                self.node.set_timer(_WAIT_IN_P, self.ctx.timers.wait_in_p)


class TerminatingThreePhaseCommit:
    """Protocol definition: modified 3PC + the Section 5.3 termination protocol.

    Args:
        transient_rule: apply the Section 6 rule (commit after waiting ``5T``
            in ``p``); switch off to obtain the Section 5 protocol, which is
            only correct for permanent partitions.
        relay_commit_in_w: keep the Fig. 8 ``w -> c`` transition; switching it
            off reproduces the inconsistency that motivated the modification
            (ablation experiment).
        promotion_kind: the message m of Theorem 10 (``prepare`` for 3PC).
    """

    def __init__(
        self,
        *,
        transient_rule: bool = True,
        relay_commit_in_w: bool = True,
        answer_late_probes: bool = False,
        promotion_kind: str = m.PREPARE,
        name: str = "terminating-three-phase-commit",
    ) -> None:
        self.name = name
        self.transient_rule = transient_rule
        self.relay_commit_in_w = relay_commit_in_w
        self.answer_late_probes = answer_late_probes
        self.promotion_kind = promotion_kind

    def coordinator(self, ctx: ProtocolContext) -> TerminatingMasterRole:
        """Build the master role."""
        ctx.transient_rule = self.transient_rule
        return TerminatingMasterRole(
            ctx,
            promotion_kind=self.promotion_kind,
            answer_late_probes=self.answer_late_probes,
        )

    def participant(self, ctx: ProtocolContext) -> TerminatingSlaveRole:
        """Build a slave role."""
        ctx.transient_rule = self.transient_rule
        return TerminatingSlaveRole(
            ctx,
            promotion_kind=self.promotion_kind,
            relay_commit_in_w=self.relay_commit_in_w,
        )
