"""Exhaustive exploration of a commit protocol's global state graph.

The concurrency set, sender set and committable-state definitions of
Sections 2-3 all quantify over the *reachable global states* of the
protocol.  This module enumerates them for a protocol instantiated with
``n`` participating sites (site 1 is the master).

A global state is, exactly as in the paper's model, the vector of local
states plus the set of outstanding messages; we additionally carry a
"has voted yes" flag per site so that the committable-state classification
("occupancy ... implies that all sites have voted yes") can be verified
mechanically rather than trusted.

Two exploration surfaces share one engine:

* :func:`explore` -- the original failure-free enumeration consumed by the
  concurrency analysis (:mod:`repro.core.concurrency`).
* :func:`explore_model` -- the model checker's generalization: a *fault
  envelope* (:data:`FAILURE_FREE`, :data:`SINGLE_CRASH`,
  :data:`PARTITION`, :data:`LOSSY`, :data:`LOSSY_RETRANSMIT`) adds
  crash / partition-onset / message-loss pseudo-transitions, and
  an optional Rule (a)/(b) augmentation adds the timeout and
  undeliverable-message decisions of
  :class:`~repro.core.rules.AugmentedProtocol`.  Budgets
  (``max_states``, ``max_depth``), deterministic visit order, parent
  pointers and breadth-first minimal counterexample paths come with it.

What a site may do is not written here: protocol steps, their vote and
sends, and the Rule (a)/(b) decisions (outcome, canonical final state, the
master's broadcast) come from the protocol's local-step relation
(:mod:`repro.core.relation`), the table the simulator's
:class:`~repro.protocols.fsa_role.FSARole` interprets.  The explorer
enumerates *every* choice of that relation and adds what belongs to the
network: routing, bounced messages and the fault envelope.

Everything about the exploration is deterministic: site order, transition
declaration order and an explicit total order over outstanding messages fix
the successor enumeration, so two runs (in different processes, with
different ``PYTHONHASHSEED``) produce identical visit orders, edge lists
and counterexample traces.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import combinations
from typing import Any, Iterator, Optional, Union

from repro.core import messages as msg
from repro.core.fsa import (
    CommitProtocolSpec,
    MASTER_ROLE,
    OPERATOR,
    RoleAutomaton,
    SLAVE_ROLE,
    Transition,
)
from repro.core.relation import (
    OPERATOR_SITE,
    Resolution,
    Step,
    compile_relation,
    satisfying_senders,
)

# --- fault envelopes of the model checker ----------------------------------
FAILURE_FREE = "failure-free"    # no faults: the original Sections 2-3 graph
SINGLE_CRASH = "single-crash"    # at most one site crash, at any global state
PARTITION = "partition"          # one simple partition onset, at any global state
LOSSY = "lossy"                  # one silent message loss, at any global state
# Loss behind the at-least-once retransmission layer: every message is
# eventually delivered exactly once within the stretched delivery bound, so
# the reachable graph is *identical* to the failure-free one -- that identity
# is the model-level statement that retransmission restores assumption 1.
LOSSY_RETRANSMIT = "lossy-retransmit"

#: The classic trio (the default MODELCHECK sweep; golden tables pin it).
FAULT_ENVELOPES = (FAILURE_FREE, SINGLE_CRASH, PARTITION)
#: The message-fault envelopes added by the FaultPlan API.
MESSAGE_FAULT_ENVELOPES = (LOSSY, LOSSY_RETRANSMIT)
#: Every envelope the explorer accepts.
ALL_FAULT_ENVELOPES = FAULT_ENVELOPES + MESSAGE_FAULT_ENVELOPES

# BFS explores shortest-first, so counterexample paths are minimal; DFS
# exists to property-test order-independence of the reachable state set.
BFS = "bfs"
DFS = "dfs"


class ExplorationError(RuntimeError):
    """Raised when exploration would exceed its state budget.

    Raised *before* the over-budget state is recorded, so a graph with
    exactly ``max_states`` reachable states completes and the partial
    result's visit order is a prefix of an unbudgeted run's.  The partial
    :class:`ReachabilityResult` is attached as :attr:`partial`.
    """

    def __init__(self, message: str, partial: Optional["ReachabilityResult"] = None):
        super().__init__(message)
        self.partial = partial


@dataclass(frozen=True)
class TaggedMessage:
    """An outstanding message, tagged with the sender's state when it was sent.

    The tag is what makes sender sets ``S(s)`` computable: when a site in
    local state ``s`` consumes the message, the tagged state is by definition
    a member of ``S(s)``.

    ``returned`` marks an undeliverable-message notification: the optimistic
    network model (the paper's assumption 1) bounced the original message
    back to its sender, where a Rule (b) transition may consume it.  For a
    returned message ``sender`` is the site that could not be reached and
    ``receiver`` is the original sender; the role/state tag still describes
    the original send.
    """

    kind: str
    sender: int
    receiver: int
    sender_role: str
    sender_state: str
    returned: bool = False

    def sort_key(self) -> tuple:
        """Total order used everywhere a message set is iterated."""
        return (self.kind, self.sender, self.receiver, self.sender_state, self.returned)

    def bounced(self) -> "TaggedMessage":
        """The undeliverable notification this message comes back as."""
        return TaggedMessage(
            kind=self.kind,
            sender=self.receiver,
            receiver=self.sender,
            sender_role=self.sender_role,
            sender_state=self.sender_state,
            returned=True,
        )

    def __str__(self) -> str:
        mark = "!" if self.returned else ""
        return f"{mark}{self.kind}[{self.sender}->{self.receiver}]"


@dataclass(frozen=True)
class FaultEvent:
    """A pseudo-transition of the fault envelope (not a protocol transition).

    Attributes:
        action: ``"crash"``, ``"partition"``, ``"loss"``, ``"timeout"`` or
            ``"undeliverable"``.
        site: the acting / affected site (0 for a partition onset, which
            belongs to the network).
        target: resulting local state of ``site`` (empty when the local
            state is unchanged, e.g. a crash).
        detail: human-readable annotation for counterexample traces.
    """

    action: str
    site: int
    target: str = ""
    detail: str = ""

    def __str__(self) -> str:
        suffix = f" -> {self.target}" if self.target else ""
        return f"{self.action}({self.detail}){suffix}"


@dataclass(frozen=True)
class GlobalState:
    """One global state: local-state vector + outstanding messages + vote flags.

    The model checker's fault envelopes add two (defaulted, so failure-free
    exploration is unchanged) components: the set of crashed sites (a
    crashed site keeps its last local state as decision evidence but takes
    no further transitions) and the active simple partition, canonically
    encoded as a tuple of sorted site-tuples (``None`` = fully connected).
    """

    locals: tuple[str, ...]
    outstanding: frozenset[TaggedMessage]
    voted: tuple[bool, ...]
    crashed: frozenset[int] = frozenset()
    partition: Optional[tuple[tuple[int, ...], ...]] = None
    #: True once the lossy envelope silently dropped a message (defaulted,
    #: so every pre-lossy state encoding is unchanged).
    lost: bool = False

    @property
    def n_sites(self) -> int:
        """Number of participating sites."""
        return len(self.locals)

    @property
    def fault_fired(self) -> bool:
        """True once the envelope's crash, partition or message loss struck."""
        return bool(self.crashed) or self.partition is not None or self.lost

    def local(self, site: int) -> str:
        """Local state of ``site`` (1-based)."""
        return self.locals[site - 1]

    def alive(self, site: int) -> bool:
        """True when ``site`` has not crashed."""
        return site not in self.crashed

    def separated(self, a: int, b: int) -> bool:
        """True when the active partition cuts sites ``a`` and ``b`` apart.

        The operator pseudo-site is treated as co-located with the master
        (its only message is the initial request to site 1).
        """
        if self.partition is None or a == b:
            return False

        def group_of(site: int) -> int:
            if site == OPERATOR_SITE:
                site = 1
            for index, group in enumerate(self.partition):
                if site in group:
                    return index
            return 0

        return group_of(a) != group_of(b)

    def messages_to(self, site: int, kind: Optional[str] = None) -> tuple[TaggedMessage, ...]:
        """Outstanding messages addressed to ``site``, in canonical order."""
        return tuple(
            sorted(
                (
                    message
                    for message in self.outstanding
                    if message.receiver == site and (kind is None or message.kind == kind)
                ),
                key=TaggedMessage.sort_key,
            )
        )

    def returned_messages(self) -> tuple[TaggedMessage, ...]:
        """Outstanding undeliverable notifications, in canonical order."""
        return tuple(
            sorted(
                (message for message in self.outstanding if message.returned),
                key=TaggedMessage.sort_key,
            )
        )

    def all_voted(self) -> bool:
        """True when every participating site has voted yes."""
        return all(self.voted)

    def __str__(self) -> str:
        vector = ", ".join(self.locals)
        pending = ", ".join(sorted(str(m) for m in self.outstanding)) or "-"
        marks = []
        if self.crashed:
            marks.append("x" + ",".join(map(str, sorted(self.crashed))))
        if self.partition is not None:
            marks.append("|".join("{" + ",".join(map(str, g)) + "}" for g in self.partition))
        if self.lost:
            marks.append("~loss")
        suffix = f" [{' '.join(marks)}]" if marks else ""
        return f"<({vector}) | {pending}>{suffix}"


@dataclass(frozen=True)
class GlobalTransition:
    """An edge of the global state graph.

    ``transition`` is either a protocol :class:`~repro.core.fsa.Transition`
    (a site consumed messages and moved) or a :class:`FaultEvent` (a crash,
    partition onset, timeout decision or undeliverable-message decision).
    """

    source: GlobalState
    site: int
    transition: Union[Transition, FaultEvent]
    target: GlobalState

    @property
    def is_fault(self) -> bool:
        """True when the edge is a fault-envelope pseudo-transition."""
        return isinstance(self.transition, FaultEvent)

    def describe(self) -> str:
        """One-line rendering used in counterexample traces."""
        actor = "network" if self.site == OPERATOR_SITE else f"site {self.site}"
        return f"{actor}: {self.transition}"


@dataclass
class ReachabilityResult:
    """Everything the concurrency analysis and the model checker need.

    Attributes:
        spec: the explored protocol.
        n_sites: instantiation size (site 1 is the master).
        initial: the initial global state.
        states: every visited global state.
        edges: every explored edge, in deterministic discovery order.
        receptions: (receiver_role, receiver_state) -> set of
            (sender_role, sender_state) pairs, for sender sets.
        visit_order: states in first-discovery order (the deterministic
            frontier order; a budgeted run's ``visit_order`` is a prefix of
            the unbudgeted one).
        depth: discovery depth per state (edges from the initial state).
        parents: first-discovery edge per non-initial state -- the spanning
            tree that :meth:`path_to` walks to extract (under BFS, minimal)
            counterexample paths.
        unexpanded: states whose outgoing edges were skipped because the
            ``max_depth`` budget truncated the exploration there.
        complete: False when ``max_depth`` truncation skipped any successor.
    """

    spec: CommitProtocolSpec
    n_sites: int
    initial: GlobalState
    states: set[GlobalState] = field(default_factory=set)
    edges: list[GlobalTransition] = field(default_factory=list)
    # (receiver_role, receiver_state) -> set of (sender_role, sender_state)
    receptions: dict[tuple[str, str], set[tuple[str, str]]] = field(default_factory=dict)
    visit_order: list[GlobalState] = field(default_factory=list)
    depth: dict[GlobalState, int] = field(default_factory=dict)
    parents: dict[GlobalState, GlobalTransition] = field(default_factory=dict)
    unexpanded: set[GlobalState] = field(default_factory=set)
    complete: bool = True

    def role_of(self, site: int) -> str:
        """Role played by ``site`` (site 1 is the master)."""
        return MASTER_ROLE if site == 1 else SLAVE_ROLE

    def automaton_of(self, site: int) -> RoleAutomaton:
        """The role automaton executed by ``site``."""
        return _automaton_for(self.spec, site)

    def occupancies(self) -> dict[tuple[str, str], list[GlobalState]]:
        """Map (role, local state) -> global states in which some site occupies it."""
        result: dict[tuple[str, str], list[GlobalState]] = {}
        for state in self.states:
            for site in range(1, self.n_sites + 1):
                key = (self.role_of(site), state.local(site))
                result.setdefault(key, []).append(state)
        return result

    def final_states(self) -> list[GlobalState]:
        """Global states with no outgoing edges, in visit order.

        States whose expansion the ``max_depth`` budget skipped are
        excluded: without their successors, "no outgoing edges" would be an
        artifact of the truncation rather than a property of the graph.
        """
        sources = {edge.source for edge in self.edges}
        ordered = self.visit_order if self.visit_order else sorted(self.states, key=str)
        return [
            state
            for state in ordered
            if state not in sources and state not in self.unexpanded
        ]

    def path_to(self, state: GlobalState) -> list[GlobalTransition]:
        """The first-discovery path from the initial state to ``state``.

        Under BFS exploration this is a shortest path, which is what makes
        the checker's counterexamples minimal.
        """
        path: list[GlobalTransition] = []
        current = state
        while current != self.initial:
            edge = self.parents.get(current)
            if edge is None:
                raise KeyError(f"state {current} was not discovered by this exploration")
            path.append(edge)
            current = edge.source
        path.reverse()
        return path

    @property
    def state_count(self) -> int:
        """Number of distinct reachable global states."""
        return len(self.states)

    @property
    def frontier_depth(self) -> int:
        """Largest discovery depth reached by the exploration."""
        return max(self.depth.values(), default=0)


def _automaton_for(spec: CommitProtocolSpec, site: int) -> RoleAutomaton:
    return spec.master if site == 1 else spec.slave


def _initial_state(spec: CommitProtocolSpec, n_sites: int) -> GlobalState:
    locals_vector = tuple(
        _automaton_for(spec, site).initial for site in range(1, n_sites + 1)
    )
    request = TaggedMessage(
        kind=msg.REQUEST,
        sender=OPERATOR_SITE,
        receiver=1,
        sender_role=OPERATOR,
        sender_state=OPERATOR,
    )
    return GlobalState(
        locals=locals_vector,
        outstanding=frozenset({request}),
        voted=tuple(False for _ in range(n_sites)),
    )


def simple_splits(n_sites: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Every simple partition split as canonical ``(G1, G2)`` tuples.

    ``G1`` always contains the master (site 1); ``G2`` ranges over the
    non-empty subsets of the slaves (taking complements would only swap
    the labels), enumerated smallest-first so the partition
    pseudo-transitions and the simulator's partition sweeps share one
    fixed order.
    """
    sites = list(range(1, n_sites + 1))
    slaves = sites[1:]
    splits: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    for size in range(1, len(slaves) + 1):
        for combo in combinations(slaves, size):
            g2 = tuple(sorted(combo))
            g1 = tuple(sorted(set(sites) - set(combo)))
            splits.append((g1, g2))
    return splits


class _ModelExplorer:
    """Deterministic successor enumeration for one exploration setup.

    Protocol, timeout and undeliverable-message edges enumerate the
    protocol's local-step relation, compiled from ``spec`` and the
    (duck-typed) ``augmentation``; this class adds the network and the
    fault envelope.
    """

    def __init__(
        self,
        spec: CommitProtocolSpec,
        n_sites: int,
        *,
        augmentation: Optional[Any] = None,
        fault: str = FAILURE_FREE,
        no_voters: Optional[frozenset[int]] = None,
    ) -> None:
        if n_sites < 2:
            raise ValueError(
                f"a distributed transaction needs at least 2 sites, got {n_sites}"
            )
        if fault not in ALL_FAULT_ENVELOPES:
            raise ValueError(
                f"unknown fault envelope {fault!r}; "
                f"expected one of {ALL_FAULT_ENVELOPES}"
            )
        self.n_sites = n_sites
        self.fault = fault
        relation = compile_relation(spec, augmentation)
        sites = range(1, n_sites + 1)
        self._tables = {site: relation.role(self.role_of(site)) for site in sites}
        self._peers = {
            site: tuple(s for s in range(2, n_sites + 1) if s != site) for site in sites
        }
        # The vote a slave's vote step must send: scripted by ``no_voters``,
        # or ``None`` where both branches are explored (always the master).
        self._scripted_vote = {
            site: None
            if no_voters is None or site == 1
            else ("no" if site in no_voters else "yes")
            for site in sites
        }
        # Messages to an unreachable site come back to their sender only
        # under an augmentation (the optimistic network of Rule (b)).
        self._bounces = augmentation is not None
        self._splits = simple_splits(n_sites)

    # ------------------------------------------------------------------
    # small helpers
    # ------------------------------------------------------------------
    def role_of(self, site: int) -> str:
        """Role of ``site`` (site 1 is the master)."""
        return MASTER_ROLE if site == 1 else SLAVE_ROLE

    def _route(
        self, produced: list[TaggedMessage], state: GlobalState
    ) -> list[TaggedMessage]:
        """Deliverability filter for freshly sent messages.

        Messages to crashed or partition-separated receivers bounce: under
        an augmentation they come back as returned notifications to the
        sender (the optimistic network model), otherwise they are dropped.
        """
        routed: list[TaggedMessage] = []
        for message in produced:
            unreachable = (
                message.receiver in state.crashed
                or state.separated(message.sender, message.receiver)
            )
            if not unreachable:
                routed.append(message)
            elif self._bounces:
                routed.append(message.bounced())
        return routed

    def _edge(
        self,
        state: GlobalState,
        site: int,
        label: Union[Transition, FaultEvent],
        effect: Union[Step, Resolution],
        consumed: frozenset[TaggedMessage] = frozenset(),
    ) -> tuple[GlobalTransition, frozenset[TaggedMessage]]:
        """``site`` consumes ``consumed``, sends, and moves to the effect's target."""
        role = self.role_of(site)
        local = state.local(site)
        produced = [
            TaggedMessage(
                kind=kind,
                sender=site,
                receiver=receiver,
                sender_role=role,
                sender_state=local,
            )
            for kind, to_master in effect.sends
            for receiver in ((1,) if to_master else self._peers[site])
        ]
        new_locals = list(state.locals)
        new_locals[site - 1] = effect.target
        new_voted = list(state.voted)
        if effect.votes_yes:
            new_voted[site - 1] = True
        successor = GlobalState(
            locals=tuple(new_locals),
            outstanding=(state.outstanding - consumed)
            | frozenset(self._route(produced, state)),
            voted=tuple(new_voted),
            crashed=state.crashed,
            partition=state.partition,
            lost=state.lost,
        )
        edge = GlobalTransition(source=state, site=site, transition=label, target=successor)
        return edge, consumed

    def _all_final(self, state: GlobalState) -> bool:
        return all(
            self._tables[site][state.local(site)].final
            for site in range(1, self.n_sites + 1)
            if state.alive(site)
        )

    # ------------------------------------------------------------------
    # successor enumeration (deterministic order)
    # ------------------------------------------------------------------
    def successors(
        self, state: GlobalState
    ) -> Iterator[tuple[GlobalTransition, frozenset[TaggedMessage]]]:
        """Yield every outgoing edge of ``state`` with its consumed messages.

        Order: protocol transitions (sites ascending, transitions in
        declaration order, consumption choices in sender order), then
        undeliverable-message decisions, then timeout decisions, then fault
        onsets (crashes by site, partitions by split) -- fixed, so the
        exploration is reproducible across processes.

        Timeouts are *last-resort* edges: a site with an enabled protocol
        transition or an enabled Rule (b) decision cannot time out in this
        state.  This mirrors the timed simulator exactly -- timers run
        ``2T``/``3T`` from state entry while any deliverable message (or
        bounce) arrives within ``T``/``2T``, and the kernel delivers
        messages before timers at equal timestamps (the paper's bounds are
        inclusive) -- so a simulator timeout can only ever fire at a site
        the network has nothing left to offer.
        """
        protocol_edges = list(self._protocol_successors(state))
        undeliverable_edges = list(self._undeliverable_successors(state))
        busy_sites = {edge.site for edge, _ in protocol_edges}
        busy_sites.update(edge.site for edge, _ in undeliverable_edges)
        yield from protocol_edges
        yield from undeliverable_edges
        yield from self._timeout_successors(state, busy_sites)
        yield from self._fault_onset_successors(state)

    def _inboxes(self, state: GlobalState) -> dict[int, dict[str, dict[int, TaggedMessage]]]:
        """Per receiver and kind, the first deliverable message of each sender.

        Returned (bounced) messages never satisfy a protocol read -- only
        the Rule (b) decisions consume them.
        """
        inboxes: dict[int, dict[str, dict[int, TaggedMessage]]] = {}
        for message in sorted(state.outstanding, key=TaggedMessage.sort_key):
            if not message.returned:
                inboxes.setdefault(message.receiver, {}).setdefault(
                    message.kind, {}
                ).setdefault(message.sender, message)
        return inboxes

    def _protocol_successors(self, state: GlobalState):
        inboxes = self._inboxes(state)
        for site in range(1, self.n_sites + 1):
            if not state.alive(site):
                continue
            inbox = inboxes.get(site, {})
            scripted = self._scripted_vote[site]
            for step in self._tables[site][state.local(site)].steps:
                if step.vote is not None and scripted is not None and step.vote != scripted:
                    continue
                present = inbox.get(step.kind, {})
                for senders in satisfying_senders(step.source, present, 1, self._peers[site]):
                    consumed = frozenset(present[sender] for sender in senders)
                    yield self._edge(state, site, step.transition, step, consumed)

    def _timeout_successors(self, state: GlobalState, busy_sites: set[int]):
        if not state.fault_fired:
            return
        for site in range(1, self.n_sites + 1):
            if not state.alive(site) or site in busy_sites:
                continue
            local = state.local(site)
            resolution = self._tables[site][local].timeout
            if resolution is not None:
                event = FaultEvent("timeout", site, resolution.target, f"timeout in {local}")
                yield self._edge(state, site, event, resolution)

    def _undeliverable_successors(self, state: GlobalState):
        for message in state.returned_messages():
            site = message.receiver
            if not state.alive(site):
                continue
            local = state.local(site)
            resolution = self._tables[site][local].undeliverable
            if resolution is not None:
                detail = f"returned {message.kind} in {local}"
                event = FaultEvent("undeliverable", site, resolution.target, detail)
                yield self._edge(state, site, event, resolution, frozenset({message}))

    def _fault_onset_successors(self, state: GlobalState):
        if self._all_final(state):
            return
        if self.fault == SINGLE_CRASH and not state.crashed:
            for site in range(1, self.n_sites + 1):
                yield self._crash_edge(state, site)
        elif self.fault == PARTITION and state.partition is None:
            for g1, g2 in self._splits:
                yield self._partition_edge(state, (g1, g2))
        elif self.fault == LOSSY and not state.lost:
            # One silent loss of any droppable outstanding message.  The
            # operator's request is local to the master and returned
            # notifications already model a delivery failure, so neither is
            # a loss candidate.  LOSSY_RETRANSMIT deliberately contributes
            # no edges here: behind the at-least-once layer every message
            # lands exactly once within the stretched bound, so its graph
            # is the failure-free one.
            for message in sorted(state.outstanding, key=TaggedMessage.sort_key):
                if message.returned or message.sender == OPERATOR_SITE:
                    continue
                yield self._loss_edge(state, message)

    def _crash_edge(self, state: GlobalState, site: int):
        outstanding: set[TaggedMessage] = set()
        for message in state.outstanding:
            if message.receiver != site:
                outstanding.add(message)
                continue
            # In-flight messages to the crashed site bounce (optimistic
            # model) when the protocol listens for bounces; returned
            # notifications and the operator's request are simply lost.
            if (
                self._bounces
                and not message.returned
                and message.sender != OPERATOR_SITE
            ):
                outstanding.add(message.bounced())
        successor = GlobalState(
            locals=state.locals,
            outstanding=frozenset(outstanding),
            voted=state.voted,
            crashed=frozenset({site}),
            partition=state.partition,
            lost=state.lost,
        )
        event = FaultEvent(action="crash", site=site, detail=f"site {site} crashes")
        return (
            GlobalTransition(source=state, site=site, transition=event, target=successor),
            frozenset(),
        )

    def _loss_edge(self, state: GlobalState, message: TaggedMessage):
        """Silently drop one outstanding message (the lossy envelope).

        Unlike a crash or partition bounce, a loss leaves *no* evidence: no
        returned notification reaches the sender, the receiver simply never
        hears the message -- precisely the violation of assumption 1 the
        simulator's ``LinkFault`` loss models.
        """
        successor = GlobalState(
            locals=state.locals,
            outstanding=state.outstanding - {message},
            voted=state.voted,
            crashed=state.crashed,
            partition=state.partition,
            lost=True,
        )
        event = FaultEvent(
            action="loss",
            site=OPERATOR_SITE,
            detail=f"{message} lost",
        )
        return (
            GlobalTransition(
                source=state, site=OPERATOR_SITE, transition=event, target=successor
            ),
            frozenset(),
        )

    def _partition_edge(
        self, state: GlobalState, groups: tuple[tuple[int, ...], tuple[int, ...]]
    ):
        def cut(a: int, b: int) -> bool:
            if a == OPERATOR_SITE:
                a = 1
            if b == OPERATOR_SITE:
                b = 1
            return (a in groups[1]) != (b in groups[1])

        outstanding: set[TaggedMessage] = set()
        for message in state.outstanding:
            if not cut(message.sender, message.receiver):
                outstanding.add(message)
            elif self._bounces and not message.returned:
                outstanding.add(message.bounced())
        successor = GlobalState(
            locals=state.locals,
            outstanding=frozenset(outstanding),
            voted=state.voted,
            crashed=state.crashed,
            partition=groups,
            lost=state.lost,
        )
        detail = "|".join("{" + ",".join(map(str, g)) + "}" for g in groups)
        event = FaultEvent(action="partition", site=OPERATOR_SITE, detail=detail)
        return (
            GlobalTransition(
                source=state, site=OPERATOR_SITE, transition=event, target=successor
            ),
            frozenset(),
        )


def enumerate_successors(
    spec: CommitProtocolSpec,
    n_sites: int,
    state: GlobalState,
    *,
    augmentation: Optional[Any] = None,
    fault: str = FAILURE_FREE,
    no_voters: Optional[frozenset[int]] = None,
) -> list[GlobalTransition]:
    """Every legal outgoing edge of ``state`` under the given setup.

    Public so counterexample traces can be *replayed*: a trace is valid iff
    each of its edges is among the legal successors of its source state (the
    explorer property tests assert exactly this).
    """
    explorer = _ModelExplorer(
        spec, n_sites, augmentation=augmentation, fault=fault, no_voters=no_voters
    )
    return [edge for edge, _ in explorer.successors(state)]


def explore_model(
    spec: CommitProtocolSpec,
    n_sites: int,
    *,
    augmentation: Optional[Any] = None,
    fault: str = FAILURE_FREE,
    no_voters: Optional[frozenset[int]] = None,
    max_states: int = 200_000,
    max_depth: Optional[int] = None,
    order: str = BFS,
) -> ReachabilityResult:
    """Exhaustively explore ``spec`` under a fault envelope, within budgets.

    Args:
        spec: the commit protocol.
        n_sites: number of participating sites (>= 2; site 1 is the master).
        augmentation: optional Rule (a)/(b) tables
            (:class:`~repro.core.rules.AugmentedProtocol`, read the way
            :func:`~repro.core.relation.compile_relation` reads it); enables
            the timeout and undeliverable-message pseudo-transitions.
        fault: one of :data:`ALL_FAULT_ENVELOPES`.
        no_voters: ``None`` explores both vote branches of every slave;
            a set scripts the vote pattern (members vote no, the rest yes).
        max_states: state budget; exceeding it raises
            :class:`ExplorationError` (with the partial result attached)
            *before* the over-budget state is recorded, so a graph with
            exactly ``max_states`` states completes.
        max_depth: optional depth budget; states at this depth are not
            expanded and the result is marked ``complete=False`` when that
            truncates anything.
        order: :data:`BFS` (canonical; minimal counterexamples) or
            :data:`DFS` (same reachable set, different discovery order).

    Returns:
        A :class:`ReachabilityResult` with the full graph, visit order,
        depths and parent pointers.
    """
    if order not in (BFS, DFS):
        raise ValueError(f"unknown exploration order {order!r}")
    explorer = _ModelExplorer(
        spec, n_sites, augmentation=augmentation, fault=fault, no_voters=no_voters
    )
    initial = _initial_state(spec, n_sites)
    result = ReachabilityResult(spec=spec, n_sites=n_sites, initial=initial)
    result.states.add(initial)
    result.visit_order.append(initial)
    result.depth[initial] = 0
    frontier: deque[GlobalState] = deque([initial])
    pop = frontier.popleft if order == BFS else frontier.pop
    while frontier:
        current = pop()
        current_depth = result.depth[current]
        if max_depth is not None and current_depth >= max_depth:
            if next(explorer.successors(current), None) is not None:
                result.unexpanded.add(current)
                result.complete = False
            continue
        for edge, consumed in explorer.successors(current):
            if not edge.is_fault:
                reception_key = (explorer.role_of(edge.site), current.local(edge.site))
                senders = result.receptions.setdefault(reception_key, set())
                for message in consumed:
                    if message.sender_role != OPERATOR:
                        senders.add((message.sender_role, message.sender_state))
            result.edges.append(edge)
            successor = edge.target
            if successor not in result.states:
                if len(result.states) >= max_states:
                    result.complete = False
                    raise ExplorationError(
                        f"exceeded {max_states} global states exploring {spec.name}",
                        partial=result,
                    )
                result.states.add(successor)
                result.visit_order.append(successor)
                result.depth[successor] = current_depth + 1
                result.parents[successor] = edge
                frontier.append(successor)
    return result


def explore(
    spec: CommitProtocolSpec,
    n_sites: int,
    *,
    max_states: int = 200_000,
) -> ReachabilityResult:
    """Enumerate every reachable failure-free global state of ``spec``.

    The original Sections 2-3 exploration surface (no faults, both vote
    branches), kept as the entry point of the concurrency analysis; it is
    :func:`explore_model` with the failure-free envelope.

    Args:
        spec: the commit protocol.
        n_sites: number of participating sites (>= 2; site 1 is the master).
        max_states: safety limit on the size of the explored graph.

    Returns:
        A :class:`ReachabilityResult` with the full state graph, plus the
        reception relation used to compute sender sets.
    """
    return explore_model(spec, n_sites, max_states=max_states)
