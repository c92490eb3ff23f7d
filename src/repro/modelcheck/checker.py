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
  *slave* voted yes (the committable-state classification of Section 2).
  The master votes before the protocol starts -- a no-voting master aborts
  alone and is unreachable in the graph -- so counting it would flag every
  slave that correctly commits past a crashed master.
* ``no-blocking`` -- no terminal state leaves a surviving (non-crashed)
  site undecided.  A violation here is the paper's *blocking*: 2PC under a
  coordinator crash reproduces it exhaustively rather than by sampled
  schedules.

The first three are safety invariants (``violated`` dominates the summary
verdict); ``no-blocking`` maps to the ``blocked`` verdict, mirroring
:attr:`~repro.engine.summary.RunSummary.verdict`.  Which is which is one
table, :data:`repro.modelcheck.summary.INVARIANTS`.

:func:`check_model` walks the setup its protocol plan keeps per vote script
(:meth:`~repro.protocols.plan.ProtocolPlan.model_setup`, over the plan's
compiled relation); the walk (:meth:`~repro.core.reachability.ModelSetup.explore`)
evaluates all four while it discovers states and edges and keeps each
one's first witness in whole-graph scan order, and :func:`check_model`
turns those witnesses into the verdicts and counterexamples of one
:class:`ModelCheckResult`.  Counterexamples are first-discovery paths through the graph --
minimal under the default BFS exploration -- and replay step-by-step
through :func:`~repro.core.reachability.enumerate_successors` (the
explorer property tests assert this).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, Optional

from repro.core.fsa import Transition
from repro.core.reachability import GlobalTransition, ReachabilityResult
from repro.modelcheck.protocols import checkable_plan
from repro.modelcheck.spec import ModelCheckSpec
from repro.modelcheck.summary import INVARIANTS, ModelCheckSummary


@dataclass(kw_only=True)
class ModelCheckResult(ModelCheckSummary):
    """A :class:`~repro.modelcheck.summary.ModelCheckSummary` plus the
    in-process artifacts of the check.

    Only what a summary cannot carry across a process boundary is added:
    the spec and the explored graph.  Verdicts and counterexamples are
    inherited, filled once by :func:`check_model`; the engine ships only
    :meth:`as_summary`.
    """

    spec: ModelCheckSpec
    graph: ReachabilityResult

    def as_summary(self, **changes: Any) -> ModelCheckSummary:
        """The plain summary part as a field copy, with ``changes``."""
        values = {name: getattr(self, name) for name in _SUMMARY_FIELDS}
        values.update(changes)
        return ModelCheckSummary(**values)


_SUMMARY_FIELDS = tuple(f.name for f in fields(ModelCheckSummary))


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


def counterexample_path(
    graph: ReachabilityResult, name: str
) -> Optional[list[GlobalTransition]]:
    """The replayable path to the explorer's first witness of ``name``.

    ``None`` when the invariant holds.  A state witness is reached by its
    first-discovery path; the edge witness of ``no-commit-after-abort``
    appends the violating edge itself.
    """
    if name == "no-commit-after-abort":
        if graph.commit_after_abort_witness is None:
            return None
        source, label, target = graph.commit_after_abort_witness
        return graph.path_to_index(source) + [graph.edge_at(source, label, target)]
    index = {
        "same-decision": graph.same_decision_witness,
        "commit-requires-votes": graph.commit_without_votes_witness,
        "no-blocking": graph.stuck_terminal_witness,
    }[name]
    return None if index is None else graph.path_to_index(index)


def check_model(protocol: str, spec: ModelCheckSpec) -> ModelCheckResult:
    """Explore ``protocol`` under ``spec`` and check every invariant.

    The walk runs over the protocol plan's setup for ``spec.no_voters``
    (:meth:`~repro.protocols.plan.ProtocolPlan.model_setup`), so every
    envelope and every later check of that plan reuse its compiled tables.

    Args:
        protocol: a simulator-registry protocol name (see
            :func:`~repro.modelcheck.protocols.checkable_protocols`).
        spec: what to explore and within which budgets.

    Returns:
        The result, ``spec_hash`` left empty; the engine keeps
        :meth:`ModelCheckResult.as_summary` with its hash set.

    Raises:
        ExplorationError: when the graph exceeds ``spec.max_states``.
        UncheckableProtocolError: for protocols without an FSA model.
    """
    setup = checkable_plan(protocol, spec.n_sites).model_setup(spec.no_voters)
    graph = setup.explore(spec.fault, max_states=spec.max_states, max_depth=spec.max_depth)
    paths = {name: counterexample_path(graph, name) for name, _, _ in INVARIANTS}
    return ModelCheckResult(
        protocol=protocol,
        spec_hash="",
        seed=spec.seed,
        n_sites=spec.n_sites,
        fault=spec.fault,
        states_explored=graph.state_count,
        edges_explored=graph.edges_explored,
        frontier_depth=graph.frontier_depth,
        complete=graph.complete,
        invariants={
            name: "holds" if path is None else "violated"
            for name, path in paths.items()
        },
        counterexamples={
            name: trace_steps(path)
            for name, path in paths.items()
            if path is not None
        },
        spec=spec,
        graph=graph,
    )
