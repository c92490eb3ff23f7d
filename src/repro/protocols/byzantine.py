"""Byzantine participants: equivocation and arbitrary protocol transitions.

The fault taxonomy's strongest class: a Byzantine site does not merely stop
or lose messages, it actively lies.  Misbehaviour is injected at the role
layer -- a send interceptor installed on the site's
:class:`~repro.sim.node.Node` rewrites outgoing
:class:`~repro.protocols.base.ProtocolMessage` records before they enter the
network -- so the network's delivery semantics (partitions, bounces,
latency, the fault layer) apply to the forged traffic exactly as to honest
traffic.

Two modes, selected by :class:`~repro.sim.failures.ByzantineSpec`:

* ``"equivocate"`` -- the site tells different peers different things.
  Every flippable message kind (vote, decision, pre-commit) alternates
  between the honest kind and its negation across successive destinations:
  a Byzantine master broadcasting its decision sends ``commit`` to one
  slave and ``abort`` to the next, the classic atomicity attack.
* ``"arbitrary"`` -- a seeded RNG drives every outgoing message through
  drop / kind-rewrite / pass-through, modelling a site whose finite-state
  automaton takes arbitrary transitions.

Run verdicts are computed over *honest* sites only (a liar's own "decision"
carries no meaning): :func:`~repro.protocols.runner.run_scenario` leaves
Byzantine sites out of every per-site map of the
:class:`~repro.protocols.runner.RunSummary` it returns.
"""

from __future__ import annotations

import random
from typing import Any, Optional

from repro.core import messages as M
from repro.protocols.base import ProtocolMessage
from repro.sim.failures import EQUIVOCATE, ByzantineSpec

#: Message kinds with a meaningful negation, and that negation.
FLIPPABLE = {
    M.YES: M.NO,
    M.NO: M.YES,
    M.COMMIT: M.ABORT,
    M.ABORT: M.COMMIT,
    M.PRE_COMMIT: M.PRE_ABORT,
    M.PRE_ABORT: M.PRE_COMMIT,
}

#: Kinds an "arbitrary" site may rewrite an outgoing message into.  ``xact``
#: is deliberately absent: it carries the transaction object as payload and
#: a forged one without it would crash the receiving role rather than
#: confuse the protocol.
ARBITRARY_KINDS = (
    M.YES,
    M.NO,
    M.ACK,
    M.COMMIT,
    M.ABORT,
    M.PROBE,
    M.PRE_COMMIT,
    M.PRE_ABORT,
)


class ByzantineInterceptor:
    """A send interceptor implementing one :class:`ByzantineSpec`.

    Installed as ``node._send_interceptor``; called with
    ``(source, destination, payload)`` for every outgoing message and
    returns the payload to actually send (``None`` swallows the send).
    Non-protocol payloads pass through untouched.
    """

    def __init__(self, spec: ByzantineSpec, *, seed: int = 0) -> None:
        self.spec = spec
        self._rng = random.Random(f"byzantine:{spec.site}:{spec.mode}:{seed}")
        self._flip_counts: dict[tuple[str, str], int] = {}

    def __call__(
        self, source: int, destination: int, payload: Any
    ) -> Optional[Any]:
        if type(payload) is not ProtocolMessage:
            return payload
        if self.spec.mode == EQUIVOCATE:
            return self._equivocate(payload)
        return self._arbitrary(payload)

    def _equivocate(self, message: ProtocolMessage) -> ProtocolMessage:
        flipped = FLIPPABLE.get(message.kind)
        if flipped is None:
            return message
        key = (message.transaction_id, message.kind)
        count = self._flip_counts.get(key, 0)
        self._flip_counts[key] = count + 1
        if count % 2 == 0:
            # Every other peer is told the truth; the rest, its negation.
            return message
        return ProtocolMessage(
            flipped, message.transaction_id, message.sender, message.payload
        )

    def _arbitrary(self, message: ProtocolMessage) -> Optional[ProtocolMessage]:
        roll = self._rng.random()
        if roll < 0.25:
            return None
        if roll < 0.6:
            kind = ARBITRARY_KINDS[self._rng.randrange(len(ARBITRARY_KINDS))]
            if kind == message.kind:
                return message
            # Probe handlers read the prober's site id from the payload;
            # everything else forged carries no payload.
            payload = message.sender if kind == M.PROBE else None
            return ProtocolMessage(
                kind, message.transaction_id, message.sender, payload
            )
        return message


def install_byzantine_interceptors(cluster, plan, *, seed: Optional[int] = None) -> None:
    """Attach one interceptor per Byzantine site named by ``plan``.

    ``seed`` defaults to the plan's own seed so a run is a function of
    ``(spec, seed)`` alone.
    """
    effective_seed = plan.seed if seed is None else seed
    for spec in plan.byzantine:
        node = cluster.nodes.get(spec.site)
        if node is None:
            raise ValueError(f"byzantine site {spec.site} is not part of the cluster")
        node._send_interceptor = ByzantineInterceptor(spec, seed=effective_seed)
