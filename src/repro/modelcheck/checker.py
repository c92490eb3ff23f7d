"""Invariant checking over the explored global state graph.

The paper's correctness claims, restated as machine-checkable properties of
the reachable global states:

* ``same-decision`` -- no reachable state has one site in a commit state
  while another occupies an abort state (atomicity; the property whose
  violation Section 3 demonstrates for the naive 3PC extension).
* ``no-commit-after-abort`` -- no site enters a commit state from a global
  state in which any site already aborted (the temporal half of atomicity:
  even a transient mixed state is a violation).
* ``commit-requires-votes`` -- any state with a committed site has every
  site voted yes (the committable-state classification of Section 2).
* ``no-blocking`` -- no terminal state leaves a surviving (non-crashed)
  site undecided.  A violation here is the paper's *blocking*: 2PC under a
  coordinator crash reproduces it exhaustively rather than by sampled
  schedules.

The first three are safety invariants (``violated`` dominates the summary
verdict); ``no-blocking`` maps to the ``blocked`` verdict, mirroring
:attr:`~repro.engine.summary.RunSummary.verdict`.

The explorer (:func:`~repro.core.reachability.explore_model`) evaluates all
four while it discovers states and edges and keeps each one's first
witness in whole-graph scan order; this module turns those witnesses into
verdicts.  Counterexamples are first-discovery paths through the graph --
minimal under the default BFS exploration -- and replay step-by-step
through :func:`~repro.core.reachability.enumerate_successors` (the
explorer property tests assert this).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from repro.core.fsa import Transition
from repro.core.reachability import (
    ExplorationError,
    GlobalState,
    GlobalTransition,
    ReachabilityResult,
    explore_model,
)
from repro.modelcheck.protocols import resolve_protocol
from repro.modelcheck.spec import ModelCheckSpec

#: Safety invariants: a violation makes the overall verdict ``violated``.
SAFETY_INVARIANTS = (
    "same-decision",
    "no-commit-after-abort",
    "commit-requires-votes",
)
#: The liveness-flavoured invariant: a violation means ``blocked``.
BLOCKING_INVARIANT = "no-blocking"
#: Every invariant, in report order.
INVARIANTS = SAFETY_INVARIANTS + (BLOCKING_INVARIANT,)


@dataclass
class InvariantVerdict:
    """The outcome of checking one invariant.

    ``trace`` is the counterexample path (empty when the invariant holds):
    the first-discovery edges from the initial state to ``witness``, plus --
    for edge-shaped violations -- the violating edge itself as the last
    entry.
    """

    name: str
    holds: bool
    witness: Optional[GlobalState] = None
    trace: list[GlobalTransition] = field(default_factory=list)
    detail: str = ""

    @property
    def verdict(self) -> str:
        """``"holds"`` or ``"violated"``."""
        return "holds" if self.holds else "violated"


@dataclass
class ModelCheckResult:
    """Everything one model-checking run produced.

    The rich, in-process form: the full graph plus per-invariant verdicts
    with replayable counterexample traces.  :meth:`to_summary` reduces it to
    the plain-data :class:`~repro.modelcheck.summary.ModelCheckSummary` that
    crosses process boundaries.
    """

    protocol: str
    spec: ModelCheckSpec
    graph: ReachabilityResult
    verdicts: dict[str, InvariantVerdict]

    def verdict_for(self, name: str) -> InvariantVerdict:
        """The verdict of one invariant by name."""
        return self.verdicts[name]

    def to_summary(self, *, spec_hash: str):
        """Reduce to a :class:`~repro.modelcheck.summary.ModelCheckSummary`."""
        from repro.modelcheck.summary import ModelCheckSummary

        return ModelCheckSummary(
            protocol=self.protocol,
            spec_hash=spec_hash,
            seed=self.spec.seed,
            n_sites=self.spec.n_sites,
            fault=self.spec.fault,
            states_explored=self.graph.state_count,
            edges_explored=self.graph.edges_explored,
            frontier_depth=self.graph.frontier_depth,
            complete=self.graph.complete,
            invariants={
                name: self.verdicts[name].verdict for name in INVARIANTS
            },
            counterexamples={
                name: trace_steps(self.verdicts[name].trace)
                for name in INVARIANTS
                if not self.verdicts[name].holds
            },
        )


def _edge_label(edge: GlobalTransition) -> str:
    """Compact one-line label of an edge for serialized traces."""
    transition = edge.transition
    if isinstance(transition, Transition):
        return (
            f"recv {transition.read.kind}: "
            f"{transition.source} -> {transition.target}"
        )
    return str(transition)


def trace_steps(trace: list[GlobalTransition]) -> list[dict[str, Any]]:
    """Serialize a counterexample path to JSON-ready step dicts.

    Each step records the acting site, the edge kind, a human-readable
    label and the resulting local-state vector -- enough to print a
    readable trace and to compare counterexample *shapes* in golden tables
    without pinning the full global-state encoding.
    """
    steps: list[dict[str, Any]] = []
    for index, edge in enumerate(trace):
        transition = edge.transition
        action = "step" if isinstance(transition, Transition) else transition.action
        target = edge.target
        steps.append(
            {
                "step": index,
                "site": edge.site,
                "action": action,
                "label": _edge_label(edge),
                "locals": list(target.locals),
                "crashed": sorted(target.crashed),
                "partitioned": target.partition is not None,
            }
        )
    return steps


def format_trace(trace: list[GlobalTransition]) -> str:
    """Render a counterexample path as indented lines for error messages."""
    if not trace:
        return "  (violation in the initial state)"
    lines = []
    for index, edge in enumerate(trace):
        lines.append(f"  {index + 1}. {edge.describe()}  =>  {edge.target}")
    return "\n".join(lines)


def _same_decision(graph: ReachabilityResult) -> InvariantVerdict:
    """No state mixes a committed site with an aborted one."""
    index = graph.same_decision_witness
    if index is None:
        return InvariantVerdict(name="same-decision", holds=True)
    state = graph.state_at(index)
    for site in range(1, graph.n_sites + 1):
        automaton = graph.automaton_of(site)
        if state.local(site) in automaton.commit_states:
            committed = site
        elif state.local(site) in automaton.abort_states:
            aborted = site
    return InvariantVerdict(
        name="same-decision",
        holds=False,
        witness=state,
        trace=graph.path_to_index(index),
        detail=f"site {committed} committed while site {aborted} aborted in {state}",
    )


def _no_commit_after_abort(graph: ReachabilityResult) -> InvariantVerdict:
    """No site enters a commit state once any site occupies an abort state."""
    if graph.commit_after_abort_witness is None:
        return InvariantVerdict(name="no-commit-after-abort", holds=True)
    source, label, target = graph.commit_after_abort_witness
    edge = graph.edge_at(source, label, target)
    aborted = next(
        site
        for site in range(1, graph.n_sites + 1)
        if edge.source.local(site) in graph.automaton_of(site).abort_states
    )
    return InvariantVerdict(
        name="no-commit-after-abort",
        holds=False,
        witness=edge.target,
        trace=graph.path_to_index(source) + [edge],
        detail=f"site {edge.site} commits after site {aborted} aborted in {edge.source}",
    )


def _commit_requires_votes(graph: ReachabilityResult) -> InvariantVerdict:
    """A committed site implies every slave voted yes (committable states).

    The quantifier runs over the *slaves*: the master's yes vote is cast
    before the protocol starts (a no-voting master aborts unilaterally and
    never involves anyone, so it is unreachable in the FSA graph), whereas
    the catalog's ``yes_vote_states`` only witness the master's vote at its
    commit state -- counting it would flag every slave that correctly
    commits past a crashed master.
    """
    index = graph.commit_without_votes_witness
    if index is None:
        return InvariantVerdict(name="commit-requires-votes", holds=True)
    state = graph.state_at(index)
    committed = next(
        site
        for site in range(1, graph.n_sites + 1)
        if state.local(site) in graph.automaton_of(site).commit_states
    )
    missing = [s for s in range(2, graph.n_sites + 1) if not state.voted[s - 1]]
    return InvariantVerdict(
        name="commit-requires-votes",
        holds=False,
        witness=state,
        trace=graph.path_to_index(index),
        detail=(
            f"site {committed} committed without yes votes from "
            f"slaves {missing} in {state}"
        ),
    )


def _no_blocking(graph: ReachabilityResult) -> InvariantVerdict:
    """No terminal state leaves a surviving site undecided."""
    index = graph.stuck_terminal_witness
    if index is None:
        return InvariantVerdict(name=BLOCKING_INVARIANT, holds=True)
    state = graph.state_at(index)
    site = next(
        site
        for site in range(1, graph.n_sites + 1)
        if state.alive(site) and not graph.automaton_of(site).is_final(state.local(site))
    )
    return InvariantVerdict(
        name=BLOCKING_INVARIANT,
        holds=False,
        witness=state,
        trace=graph.path_to_index(index),
        detail=(
            f"surviving site {site} is stuck undecided in "
            f"state {state.local(site)} at terminal {state}"
        ),
    )


def check_invariants(graph: ReachabilityResult) -> dict[str, InvariantVerdict]:
    """Every invariant's verdict, from the first witnesses the explorer kept.

    The explorer evaluates the invariants while it discovers states and
    edges (:func:`~repro.core.reachability.explore_model`); this only
    decodes each witness and its first-discovery path.
    """
    return {
        "same-decision": _same_decision(graph),
        "no-commit-after-abort": _no_commit_after_abort(graph),
        "commit-requires-votes": _commit_requires_votes(graph),
        BLOCKING_INVARIANT: _no_blocking(graph),
    }


def check_model(protocol: str, spec: ModelCheckSpec) -> ModelCheckResult:
    """Explore ``protocol`` under ``spec`` and check every invariant.

    Args:
        protocol: a simulator-registry protocol name (see
            :func:`~repro.modelcheck.protocols.checkable_protocols`).
        spec: what to explore and within which budgets.

    Returns:
        The rich result; reduce with
        :meth:`ModelCheckResult.to_summary` for the engine.

    Raises:
        ExplorationError: when the graph exceeds ``spec.max_states``.
        UncheckableProtocolError: for protocols without an FSA model.
    """
    fsa_spec, augmentation = resolve_protocol(protocol, spec.n_sites)
    graph = explore_model(
        fsa_spec,
        spec.n_sites,
        augmentation=augmentation,
        fault=spec.fault,
        no_voters=spec.no_voters,
        max_states=spec.max_states,
        max_depth=spec.max_depth,
    )
    return ModelCheckResult(
        protocol=protocol,
        spec=spec,
        graph=graph,
        verdicts=check_invariants(graph),
    )
