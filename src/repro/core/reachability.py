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
master's broadcast) come from the protocol's local-step relation, compiled
into the :class:`~repro.core.relation.MoveTable` whose first enabled move
the simulator's :class:`~repro.protocols.fsa_role.FSARole` takes.  The
explorer branches over *every* move and adds what belongs to the network:
routing, bounced messages and the fault envelope.

The explorer works on a compiled, interned form of the relation.  Each
role's local states are numbered in name order, and the *message
universe* -- every message the relation can send, its bounce and the
operator's request -- is numbered in :meth:`TaggedMessage.sort_key`
order.  A global state is then a flat tuple of ints, its *packed row*::

    (local_1, ..., local_n, voted_mask, crashed_site, partition_index,
     lost, outstanding_mask)

``voted_mask`` has bit ``site - 1`` set once ``site`` voted yes,
``crashed_site`` is 0 while nobody crashed, ``partition_index`` is 0 while
the network is whole (else 1 + the split's position in
:func:`simple_splits`), and ``outstanding_mask`` has bit ``m`` set while
message ``m`` is in flight -- so consuming is ``&~``, sending is ``|``
and ascending-bit iteration is the canonical message order.  Protocol
moves are memoised per (site, local state, inbox), over the move table's
own memo, and the invariants the checker reports are evaluated as states
and edges are discovered (:class:`ReachabilityResult` keeps the first
witness of each).
:class:`GlobalState` and :class:`GlobalTransition` are the decoded view
types: the result builds them on request, for tests, counterexample
traces and :func:`enumerate_successors` replay.

Everything about the exploration is deterministic: site order, transition
declaration order and an explicit total order over outstanding messages fix
the successor enumeration, so two runs (in different processes, with
different ``PYTHONHASHSEED``) produce identical visit orders, edge lists
and counterexample traces.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations
from typing import Any, Iterable, Iterator, Optional, Union

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
    MoveTable,
    Resolution,
    Step,
    compile_relation,
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

    Raised *before* the over-budget state (and the edge leading to it) is
    recorded, so a graph with exactly ``max_states`` reachable states
    completes and the partial result's visit order is a prefix of an
    unbudgeted run's.  The partial :class:`ReachabilityResult` is attached
    as :attr:`partial`: every edge in it ends in one of its states, and the
    states whose expansion the budget cut short (the frontier) are in its
    ``unexpanded`` set, never among its final states.
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
    """One global state, decoded: local-state vector + outstanding messages + votes.

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

    def local(self, site: int) -> str:
        """Local state of ``site`` (1-based)."""
        return self.locals[site - 1]

    def alive(self, site: int) -> bool:
        """True when ``site`` has not crashed."""
        return site not in self.crashed

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

    def describe(self) -> str:
        """One-line rendering used in counterexample traces."""
        actor = "network" if self.site == OPERATOR_SITE else f"site {self.site}"
        return f"{actor}: {self.transition}"


#: A packed global state (see the module docstring for the layout).
Row = tuple
#: An edge label: the acting site and its transition or fault event.
Label = tuple[int, Union[Transition, FaultEvent]]


@dataclass
class ReachabilityResult:
    """An explored graph: packed rows and parent pointers, decoded on request.

    What exploration keeps, per state in first-discovery order (the
    deterministic frontier order; a budgeted run's rows are a prefix of the
    unbudgeted run's): the packed row, its depth and the ``(parent_index,
    label)`` of its first-discovery edge -- the spanning tree that
    :meth:`path_to` walks to extract (under BFS, minimal) counterexample
    paths.  Everything else is a count, a list of state indices, or a
    *view* decoded on first access.

    Attributes:
        spec: the explored protocol.
        n_sites: instantiation size (site 1 is the master).
        rows: packed global states in visit order (index 0 is the initial
            state).
        depths: discovery depth per state index.
        parent_index: first-discovery parent per state index (-1 for the
            initial state).
        parent_label: the label of that first-discovery edge.
        expansion_order: indices of the states whose successors were
            enumerated, in expansion order (the visit order under BFS).
        terminal: indices of expanded states with no successors, in
            expansion order.
        unexpanded_index: indices of states whose successors the budget
            skipped: ``max_depth`` truncation, or the frontier a
            ``max_states`` budget cut off (partial results only).
        edges_explored: number of edges enumerated from expanded states.
        complete: False when a budget skipped any successor.
        receptions: (receiver_role, receiver_state) -> set of
            (sender_role, sender_state) pairs, for sender sets.
        same_decision_witness / commit_without_votes_witness /
        stuck_terminal_witness: index of the first state (in visit order)
            that mixes a commit with an abort / has a committed site while
            some slave has not voted yes / is terminal with a surviving
            site undecided; ``None`` when there is none.
        commit_after_abort_witness: the first edge (in edge order) on which
            a site enters a commit state while some site is aborted, as
            ``(source_index, label, target_index)``; ``None`` when there is
            none.
    """

    spec: CommitProtocolSpec
    n_sites: int
    explorer: "_ModelExplorer" = field(repr=False)
    rows: list[Row] = field(default_factory=list, repr=False)
    depths: list[int] = field(default_factory=list, repr=False)
    parent_index: list[int] = field(default_factory=list, repr=False)
    parent_label: list[Optional[Label]] = field(default_factory=list, repr=False)
    expansion_order: list[int] = field(default_factory=list, repr=False)
    terminal: list[int] = field(default_factory=list, repr=False)
    unexpanded_index: list[int] = field(default_factory=list, repr=False)
    edges_explored: int = 0
    complete: bool = True
    receptions: dict[tuple[str, str], set[tuple[str, str]]] = field(default_factory=dict)
    same_decision_witness: Optional[int] = None
    commit_without_votes_witness: Optional[int] = None
    stuck_terminal_witness: Optional[int] = None
    commit_after_abort_witness: Optional[tuple[int, Label, int]] = None

    def role_of(self, site: int) -> str:
        """Role played by ``site`` (site 1 is the master)."""
        return _role_of(site)

    def automaton_of(self, site: int) -> RoleAutomaton:
        """The role automaton executed by ``site``."""
        return _automaton_for(self.spec, site)

    def local_names(self, site: int) -> tuple[str, ...]:
        """Local-state name of each interned id of ``site``'s role."""
        return self.explorer.names[site - 1]

    @property
    def state_count(self) -> int:
        """Number of distinct reachable global states."""
        return len(self.rows)

    @property
    def frontier_depth(self) -> int:
        """Largest discovery depth reached by the exploration."""
        return max(self.depths, default=0)

    # ------------------------------------------------------------------
    # decoded views
    # ------------------------------------------------------------------
    def state_at(self, index: int) -> GlobalState:
        """The decoded global state with visit index ``index``."""
        decoded = self.__dict__.get("visit_order")  # the whole view, once built
        if decoded is not None:
            return decoded[index]
        return self.explorer.decode(self.rows[index])

    @property
    def initial(self) -> GlobalState:
        """The initial global state."""
        return self.state_at(0)

    @cached_property
    def visit_order(self) -> list[GlobalState]:
        """Every state, decoded, in first-discovery order."""
        decode = self.explorer.decode
        return [decode(row) for row in self.rows]

    @cached_property
    def states(self) -> set[GlobalState]:
        """Every visited global state."""
        return set(self.visit_order)

    @cached_property
    def depth(self) -> dict[GlobalState, int]:
        """Discovery depth per state (edges from the initial state)."""
        return dict(zip(self.visit_order, self.depths))

    @cached_property
    def parents(self) -> dict[GlobalState, GlobalTransition]:
        """First-discovery edge per non-initial state."""
        return {
            self.visit_order[index]: self._parent_edge(index)
            for index in range(1, len(self.rows))
        }

    @cached_property
    def edges(self) -> list[GlobalTransition]:
        """Every explored edge, in discovery order (re-enumerated on request)."""
        states = self.visit_order
        index = {row: position for position, row in enumerate(self.rows)}
        edges: list[GlobalTransition] = []
        for source in self.expansion_order:
            for (site, transition), target in self.explorer.successors(self.rows[source]):
                if len(edges) == self.edges_explored:
                    return edges
                edges.append(
                    GlobalTransition(states[source], site, transition, states[index[target]])
                )
        return edges

    @cached_property
    def unexpanded(self) -> set[GlobalState]:
        """States whose outgoing edges a budget skipped."""
        return {self.visit_order[index] for index in self.unexpanded_index}

    def final_states(self) -> list[GlobalState]:
        """Global states with no outgoing edges, in visit order.

        Only expanded states qualify: without the successors a budget
        skipped, "no outgoing edges" would be an artifact of the truncation
        rather than a property of the graph.
        """
        return [self.visit_order[index] for index in sorted(self.terminal)]

    def edge_at(self, source: int, label: Label, target: int) -> GlobalTransition:
        """The decoded edge ``label`` from state ``source`` to state ``target``."""
        site, transition = label
        return GlobalTransition(self.state_at(source), site, transition, self.state_at(target))

    def _parent_edge(self, index: int) -> GlobalTransition:
        return self.edge_at(self.parent_index[index], self.parent_label[index], index)

    def path_to_index(self, index: int) -> list[GlobalTransition]:
        """The first-discovery path from the initial state to state ``index``."""
        path: list[GlobalTransition] = []
        while index:
            path.append(self._parent_edge(index))
            index = self.parent_index[index]
        path.reverse()
        return path

    def path_to(self, state: GlobalState) -> list[GlobalTransition]:
        """The first-discovery path from the initial state to ``state``.

        Under BFS exploration this is a shortest path, which is what makes
        the checker's counterexamples minimal.
        """
        try:
            index = self.rows.index(self.explorer.encode(state))
        except ValueError:
            raise KeyError(f"state {state} was not discovered by this exploration") from None
        return self.path_to_index(index)


def _role_of(site: int) -> str:
    return MASTER_ROLE if site == 1 else SLAVE_ROLE


def _automaton_for(spec: CommitProtocolSpec, site: int) -> RoleAutomaton:
    return spec.master if site == 1 else spec.slave


def _bits(mask: int) -> Iterator[int]:
    """Set bit positions of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _mask(positions: Iterable[int]) -> int:
    mask = 0
    for position in positions:
        mask |= 1 << position
    return mask


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


#: A compiled move: (label, consumed mask, sent mask before routing,
#: target local id, voted-mask bit).
_Move = tuple


class _ModelExplorer:
    """One exploration setup, compiled to ints: deterministic successors of a row.

    Protocol, timeout and undeliverable-message edges enumerate the
    protocol's local-step relation, compiled from ``spec`` and the
    (duck-typed) ``augmentation``; this class adds the network and the
    fault envelope.  Sites are 0-based (``i = site - 1``) inside.
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
        # A site's id is its sender position in the compiled moves.
        move_table = MoveTable(relation, n_sites)
        self._relation_moves, self._peers = move_table.moves, move_table.peers
        sites = range(1, n_sites + 1)
        # The vote a slave's vote step must send: scripted by ``no_voters``,
        # or ``None`` where both branches are explored (always the master).
        self._scripted_vote = [
            None
            if no_voters is None or site == 1
            else ("no" if site in no_voters else "yes")
            for site in sites
        ]
        # Messages to an unreachable site come back to their sender only
        # under an augmentation (the optimistic network of Rule (b)).
        self._bounces = augmentation is not None
        self.splits = simple_splits(n_sites)
        # The row slot that records the envelope's one fault: fault onsets
        # are enabled while it is still clear (0 = the envelope has none).
        self._onset_slot = {
            SINGLE_CRASH: n_sites + 1,
            PARTITION: n_sites + 2,
            LOSSY: n_sites + 3,
        }.get(fault, 0)

        # Interned local states: per site, id -> name / table / class.
        role_tables = [relation.role(_role_of(site)) for site in sites]
        self.names = [tuple(tables) for tables in role_tables]
        self._local_ids = [{name: i for i, name in enumerate(names)} for names in self.names]
        self._tables = [tuple(tables.values()) for tables in role_tables]
        automata = [_automaton_for(spec, site) for site in sites]
        self.final = [tuple(table.final for table in tables) for tables in self._tables]
        self.commit = [
            tuple(name in automaton.commit_states for name in names)
            for automaton, names in zip(automata, self.names)
        ]
        self.abort = [
            tuple(name in automaton.abort_states for name in names)
            for automaton, names in zip(automata, self.names)
        ]

        # The message universe, numbered in canonical order.
        request = TaggedMessage(msg.REQUEST, OPERATOR_SITE, 1, OPERATOR, OPERATOR)
        universe = {request}
        for i, (names, tables) in enumerate(zip(self.names, self._tables)):
            for name, table in zip(names, tables):
                effects = [*table.steps, table.timeout, table.undeliverable]
                for effect in filter(None, effects):
                    for message in self._sent(i, name, effect.sends):
                        universe.add(message)
                        if self._bounces:
                            universe.add(message.bounced())
        self.messages = tuple(sorted(universe, key=TaggedMessage.sort_key))
        self._message_ids = {message: m for m, message in enumerate(self.messages)}

        def inbox_bit(message: TaggedMessage) -> Optional[int]:
            offset = move_table.offsets[_role_of(message.receiver)].get(message.kind)
            return None if offset is None else offset + message.sender

        # Each message's bit in its receiver's compiled inbox (None when the
        # receiver's role reads no message of its kind).
        self._inbox_bit = [inbox_bit(message) for message in self.messages]
        #: The initial row: every site initial, only the request in flight.
        self.initial = tuple(
            ids[automaton.initial] for ids, automaton in zip(self._local_ids, automata)
        ) + (0, 0, 0, False, 1 << self._message_ids[request])

        def mask_of(predicate) -> int:
            return _mask(m for m, message in enumerate(self.messages) if predicate(message))

        self._inbox = [
            mask_of(lambda m: m.receiver == site and not m.returned) for site in sites
        ]
        self._addressed = [mask_of(lambda m: m.receiver == site) for site in sites]
        self._returned = mask_of(lambda m: m.returned)
        # Messages a site sent: what a crash or a cut bounces, and a loss drops.
        self._site_sent = mask_of(lambda m: not m.returned and m.sender != OPERATOR_SITE)
        self._bounce_of = (
            {
                m: self._message_ids[self.messages[m].bounced()]
                for m in _bits(self._site_sent)
            }
            if self._bounces
            else {}
        )
        # Per split, the messages whose endpoints it separates (the
        # operator's request counts as the master's own).
        self._cut = [0] + [
            mask_of(lambda m, g2=g2: (max(m.sender, 1) in g2) != (m.receiver in g2))
            for _, g2 in self.splits
        ]
        self._bounced: dict[int, int] = {}

        # Memoised protocol moves, per site and local id, keyed by inbox
        # mask.  Only expansions create entries, and an entry's receptions
        # are folded in when it is created, so the reception relation
        # covers exactly the protocol edges of expanded states.
        self._memo: list[list[dict[int, tuple[_Move, ...]]]] = [
            [{} for _ in names] for names in self.names
        ]
        self.receptions: dict[tuple[str, str], set[tuple[str, str]]] = {}

        # Rule (a)/(b) decisions per site and local id; labels of fault onsets.
        self._timeouts = [
            tuple(
                self._resolution_move(i, name, table.timeout, "timeout", f"timeout in {name}")
                for name, table in zip(names, tables)
            )
            for i, (names, tables) in enumerate(zip(self.names, self._tables))
        ]
        self._undeliverable = {}
        for m in _bits(self._returned):
            message = self.messages[m]
            i = message.receiver - 1
            self._undeliverable[m] = tuple(
                self._resolution_move(
                    i,
                    name,
                    table.undeliverable,
                    "undeliverable",
                    f"returned {message.kind} in {name}",
                    consumed=1 << m,
                )
                for name, table in zip(self.names[i], self._tables[i])
            )
        self._crash_labels = [
            (site, FaultEvent(action="crash", site=site, detail=f"site {site} crashes"))
            for site in sites
        ]
        self._partition_labels = [None] + [
            (
                OPERATOR_SITE,
                FaultEvent(
                    action="partition",
                    site=OPERATOR_SITE,
                    detail="|".join("{" + ",".join(map(str, g)) + "}" for g in split),
                ),
            )
            for split in self.splits
        ]
        self._loss_labels = {
            m: (
                OPERATOR_SITE,
                FaultEvent(action="loss", site=OPERATOR_SITE, detail=f"{self.messages[m]} lost"),
            )
            for m in _bits(self._site_sent)
        }

    # ------------------------------------------------------------------
    # compilation
    # ------------------------------------------------------------------
    def _sent(self, i: int, name: str, sends) -> list[TaggedMessage]:
        """What site ``i + 1`` in local state ``name`` sends, recipients resolved."""
        site = i + 1
        return [
            TaggedMessage(
                kind=kind,
                sender=site,
                receiver=receiver,
                sender_role=_role_of(site),
                sender_state=name,
            )
            for kind, to_master in sends
            for receiver in ((1,) if to_master else self._peers[site])
        ]

    def _move(
        self, i: int, label: Label, effect: Union[Step, Resolution], name: str, consumed: int
    ) -> _Move:
        sent = _mask(self._message_ids[m] for m in self._sent(i, name, effect.sends))
        vote = 1 << i if effect.votes_yes else 0
        return (label, consumed, sent, self._local_ids[i][effect.target], vote)

    def _resolution_move(
        self,
        i: int,
        name: str,
        resolution: Optional[Resolution],
        action: str,
        detail: str,
        consumed: int = 0,
    ) -> Optional[_Move]:
        if resolution is None:
            return None
        event = FaultEvent(action, i + 1, resolution.target, detail)
        return self._move(i, (i + 1, event), resolution, name, consumed)

    def _protocol_moves(self, i: int, local: int, inbox: int) -> tuple[_Move, ...]:
        """Every enabled step of site ``i + 1`` in ``local`` over ``inbox``.

        The compiled relation's moves over the inbox's (kind, sender) bits,
        each bit standing for the first deliverable message of that sender
        and kind (ascending ids are the canonical order): transitions in
        declaration order, consumption choices in sender order.  Returned
        messages never satisfy a protocol read -- only the Rule (b)
        decisions consume them.
        """
        inbox_bit = self._inbox_bit
        first: dict[int, int] = {}
        for m in _bits(inbox):
            bit = inbox_bit[m]
            if bit is not None and bit not in first:
                first[bit] = m
        name = self.names[i][local]
        scripted = self._scripted_vote[i]
        return tuple(
            self._move(i, (i + 1, step.transition), step, name, _mask(map(first.get, _bits(b))))
            for step, b in self._relation_moves(i + 1, name, _mask(first))
            if step.vote is None or scripted is None or step.vote == scripted
        )

    def _moves(self, i: int, local: int, inbox: int, fold: bool) -> tuple[_Move, ...]:
        """Memo miss: compile the moves; when expanding, memoise them and
        fold their consumptions into the reception relation."""
        moves = self._protocol_moves(i, local, inbox)
        if not fold:
            return moves
        self._memo[i][local][inbox] = moves
        receiver = (_role_of(i + 1), self.names[i][local])
        for _, consumed, _, _, _ in moves:
            senders = self.receptions.setdefault(receiver, set())
            for m in _bits(consumed):
                message = self.messages[m]
                if message.sender_role != OPERATOR:
                    senders.add((message.sender_role, message.sender_state))
        return moves

    def _bounce(self, mask: int) -> int:
        """The undeliverable notifications of the messages in ``mask``."""
        bounced = self._bounced.get(mask)
        if bounced is None:
            bounced = self._bounced[mask] = _mask(self._bounce_of[m] for m in _bits(mask))
        return bounced

    # ------------------------------------------------------------------
    # rows
    # ------------------------------------------------------------------
    def decode(self, row: Row) -> GlobalState:
        """The :class:`GlobalState` a packed row stands for."""
        n = self.n_sites
        crashed, partition = row[n + 1], row[n + 2]
        return GlobalState(
            locals=tuple(self.names[i][row[i]] for i in range(n)),
            outstanding=frozenset(self.messages[m] for m in _bits(row[-1])),
            voted=tuple(bool(row[n] >> i & 1) for i in range(n)),
            crashed=frozenset({crashed}) if crashed else frozenset(),
            partition=self.splits[partition - 1] if partition else None,
            lost=row[n + 3],
        )

    def encode(self, state: GlobalState) -> Row:
        """The packed row of ``state``; ``ValueError`` when it has none here."""
        n = self.n_sites
        try:
            if state.n_sites != n or len(state.crashed) > 1:
                raise KeyError(state)
            locals_ = tuple(self._local_ids[i][name] for i, name in enumerate(state.locals))
            outstanding = _mask(self._message_ids[m] for m in state.outstanding)
            partition = (
                0 if state.partition is None else self.splits.index(state.partition) + 1
            )
        except (KeyError, ValueError):
            raise ValueError(f"{state} is not a state of this exploration") from None
        voted = _mask(i for i, vote in enumerate(state.voted) if vote)
        crashed = next(iter(state.crashed), 0)
        return locals_ + (voted, crashed, partition, state.lost, outstanding)

    # ------------------------------------------------------------------
    # successor enumeration (deterministic order)
    # ------------------------------------------------------------------
    def successors(self, row: Row, fold: bool = True) -> list[tuple[Label, Row]]:
        """Every outgoing edge of ``row`` as ``(label, target_row)``.

        Order: protocol transitions (sites ascending, transitions in
        declaration order, consumption choices in sender order), then
        undeliverable-message decisions, then timeout decisions, then fault
        onsets (crashes by site, partitions by split, losses by message) --
        fixed, so the exploration is reproducible across processes.
        ``fold=False`` enumerates without recording receptions (a budget
        check, not an expansion).

        Timeouts are *last-resort* edges: a site with an enabled protocol
        transition or an enabled Rule (b) decision cannot time out in this
        state.  This mirrors the timed simulator exactly -- timers run
        ``2T``/``3T`` from state entry while any deliverable message (or
        bounce) arrives within ``T``/``2T``, and the kernel delivers
        messages before timers at equal timestamps (the paper's bounds are
        inclusive) -- so a simulator timeout can only ever fire at a site
        the network has nothing left to offer.
        """
        n = self.n_sites
        outstanding = row[-1]
        crashed = row[n + 1]
        edges: list[tuple[Label, Row]] = []
        apply = self._apply
        busy = 0
        for i, inbox_mask, memo in zip(range(n), self._inbox, self._memo):
            if i + 1 == crashed:
                continue
            local = row[i]
            inbox = outstanding & inbox_mask
            moves = memo[local].get(inbox)
            if moves is None:
                moves = self._moves(i, local, inbox, fold)
            if moves:
                busy |= 1 << i
                for move in moves:
                    edges.append(apply(row, i, move))
        returned = outstanding & self._returned
        if returned:
            for m in _bits(returned):
                i = self.messages[m].receiver - 1
                if i + 1 == crashed:
                    continue
                move = self._undeliverable[m][row[i]]
                if move is not None:
                    busy |= 1 << i
                    edges.append(self._apply(row, i, move))
        if crashed or row[n + 2] or row[n + 3]:  # the envelope's fault fired
            for i in range(n):
                if i + 1 == crashed or busy >> i & 1:
                    continue
                move = self._timeouts[i][row[i]]
                if move is not None:
                    edges.append(self._apply(row, i, move))
        if self._onset_slot and not row[self._onset_slot]:
            edges.extend(self._fault_onsets(row))
        return edges

    def _apply(self, row: Row, i: int, move: _Move) -> tuple[Label, Row]:
        """Site ``i + 1`` consumes, sends (routed) and moves to the target."""
        label, consumed, sent, target, vote = move
        n = self.n_sites
        crashed, partition = row[n + 1], row[n + 2]
        if crashed or partition:
            # Messages to crashed or partition-separated receivers bounce:
            # under an augmentation they come back as returned
            # notifications to the sender, otherwise they are dropped.
            unreachable = sent & (
                (self._addressed[crashed - 1] if crashed else 0) | self._cut[partition]
            )
            if unreachable:
                sent &= ~unreachable
                if self._bounces:
                    sent |= self._bounce(unreachable)
        successor = list(row)
        successor[i] = target
        successor[n] |= vote
        successor[-1] = (row[-1] & ~consumed) | sent
        return label, tuple(successor)

    def _fault_onsets(self, row: Row) -> list[tuple[Label, Row]]:
        """The envelope's fault striking ``row`` (which it has not struck yet)."""
        n = self.n_sites
        crashed, partition, lost, outstanding = row[n + 1 :]
        if all(self.final[i][row[i]] for i in range(n) if i + 1 != crashed):
            return []
        edges: list[tuple[Label, Row]] = []
        if self.fault == SINGLE_CRASH:
            # In-flight messages to the crashed site bounce (optimistic
            # model) when the protocol listens for bounces; returned
            # notifications and the operator's request are simply lost.
            for i in range(n):
                hit = outstanding & self._addressed[i]
                kept = outstanding & ~hit
                if self._bounces:
                    kept |= self._bounce(hit & self._site_sent)
                edges.append((self._crash_labels[i], row[: n + 1] + (i + 1, partition, lost, kept)))
        elif self.fault == PARTITION:
            # Messages in flight across the cut bounce back under an
            # augmentation; cut returned notifications are lost.
            for k in range(1, len(self._cut)):
                hit = outstanding & self._cut[k]
                kept = outstanding & ~hit
                if self._bounces:
                    kept |= self._bounce(hit & self._site_sent)
                edges.append((self._partition_labels[k], row[: n + 2] + (k, lost, kept)))
        else:
            # One silent loss of any droppable outstanding message.  The
            # operator's request is local to the master and returned
            # notifications already model a delivery failure, so neither is
            # a loss candidate.  Unlike a crash or partition bounce, a loss
            # leaves *no* evidence: the receiver simply never hears the
            # message -- precisely the violation of assumption 1 the
            # simulator's ``LinkFault`` loss models.  LOSSY_RETRANSMIT
            # deliberately contributes no edges: behind the at-least-once
            # layer every message lands exactly once within the stretched
            # bound, so its graph is the failure-free one.
            for m in _bits(outstanding & self._site_sent):
                edges.append(
                    (self._loss_labels[m], row[: n + 3] + (True, outstanding & ~(1 << m)))
                )
        return edges


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
    return [
        GlobalTransition(state, site, transition, explorer.decode(target))
        for (site, transition), target in explorer.successors(explorer.encode(state))
    ]


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

    The checker's invariants are evaluated on discovery, each keeping its
    first witness: ``same-decision`` and ``commit-requires-votes`` on every
    newly discovered state (first in visit order), ``no-commit-after-abort``
    on every enumerated edge (first in edge order) and ``no-blocking`` on
    every expanded state without successors (first in visit order).  A
    state differs from its parent in at most one site's local state, and
    votes are never withdrawn, so the state checks only need to look at
    states whose moving site entered a final state.

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
        A :class:`ReachabilityResult`: packed rows, depths, parent
        pointers, counts and the invariants' first witnesses.
    """
    if order not in (BFS, DFS):
        raise ValueError(f"unknown exploration order {order!r}")
    explorer = _ModelExplorer(
        spec, n_sites, augmentation=augmentation, fault=fault, no_voters=no_voters
    )
    n = n_sites
    commit, abort, final = explorer.commit, explorer.abort, explorer.final
    slaves = (1 << n) - 2

    def mixed(row: Row) -> bool:
        return any(commit[k][row[k]] for k in range(n)) and any(
            abort[k][row[k]] for k in range(n)
        )

    def unvoted_commit(row: Row) -> bool:
        return row[n] & slaves != slaves and any(commit[k][row[k]] for k in range(n))

    def stuck(row: Row) -> bool:
        crashed = row[n + 1]
        return any(not final[k][row[k]] for k in range(n) if k + 1 != crashed)

    initial = explorer.initial
    result = ReachabilityResult(
        spec=spec,
        n_sites=n,
        explorer=explorer,
        rows=[initial],
        depths=[0],
        parent_index=[-1],
        parent_label=[None],
        receptions=explorer.receptions,
    )
    rows, depths = result.rows, result.depths
    parent_index, parent_label = result.parent_index, result.parent_label
    expanded, terminal = result.expansion_order, result.terminal
    same_decision = 0 if mixed(initial) else None
    unvoted = 0 if unvoted_commit(initial) else None
    commit_after_abort = stuck_terminal = None
    index = {initial: 0}
    edges = 0
    over_budget = False
    frontier: deque[int] = deque([0])
    pop = frontier.popleft if order == BFS else frontier.pop
    successors = explorer.successors
    while frontier and not over_budget:
        current = pop()
        row = rows[current]
        depth = depths[current]
        if max_depth is not None and depth >= max_depth:
            if successors(row, fold=False):
                result.unexpanded_index.append(current)
                result.complete = False
                continue
            edge_list = []
        else:
            edge_list = successors(row)
            expanded.append(current)
        if not edge_list:
            terminal.append(current)
            if (stuck_terminal is None or current < stuck_terminal) and stuck(row):
                stuck_terminal = current
            continue
        for label, target in edge_list:
            successor = index.get(target)
            site = label[0]
            if successor is None:
                if len(rows) >= max_states:
                    # The budget cuts this expansion short: the state and
                    # the whole frontier stay unexpanded.
                    result.unexpanded_index.extend([current, *frontier])
                    result.complete = False
                    over_budget = True
                    break
                successor = index[target] = len(rows)
                rows.append(target)
                depths.append(depth + 1)
                parent_index.append(current)
                parent_label.append(label)
                frontier.append(successor)
                # Only the acting site's local state changed (fault onsets,
                # site 0 or a crash, change none), so a new violation of a
                # state invariant needs that site to have just decided.
                if site:
                    moved = target[site - 1]
                    if (
                        same_decision is None
                        and (commit[site - 1][moved] or abort[site - 1][moved])
                        and mixed(target)
                    ):
                        same_decision = successor
                    if (
                        unvoted is None
                        and commit[site - 1][moved]
                        and target[n] & slaves != slaves
                    ):
                        unvoted = successor
            if (
                site
                and commit_after_abort is None
                and commit[site - 1][target[site - 1]]
                and not commit[site - 1][row[site - 1]]
                and any(abort[k][row[k]] for k in range(n))
            ):
                commit_after_abort = (current, label, successor)
            edges += 1
    result.edges_explored = edges
    result.same_decision_witness = same_decision
    result.commit_without_votes_witness = unvoted
    result.commit_after_abort_witness = commit_after_abort
    result.stuck_terminal_witness = stuck_terminal
    if over_budget:
        raise ExplorationError(
            f"exceeded {max_states} global states exploring {spec.name}", partial=result
        )
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
        A :class:`ReachabilityResult` with the packed state graph, plus the
        reception relation used to compute sender sets.
    """
    return explore_model(spec, n_sites, max_states=max_states)
