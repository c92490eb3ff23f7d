"""The explorer's on-discovery invariant checks against whole-graph scans.

:func:`~repro.core.reachability.explore_model` evaluates the checker's four
invariants while it discovers states and edges, and keeps only the first
witness of each.  The scans below are the definition those checks must
agree with: each walks the *decoded* graph in its canonical order
(``visit_order`` for the state invariants, ``edges`` for the edge
invariant, ``final_states()`` for blocking) and stops at the first
violation.  For every checkable protocol at n = 2-4, under every
envelope, in BFS and DFS order and with ``max_depth`` truncation, the
verdicts -- holds, witness, counterexample trace and detail -- must be
identical.
"""

import pytest

from repro.core.reachability import ALL_FAULT_ENVELOPES, BFS, DFS, explore_model
from repro.modelcheck.checker import (
    BLOCKING_INVARIANT,
    InvariantVerdict,
    check_invariants,
)
from repro.modelcheck.protocols import checkable_protocols, resolve_protocol


def scan_same_decision(graph):
    """No state mixes a committed site with an aborted one."""
    for state in graph.visit_order:
        committed = None
        aborted = None
        for site in range(1, graph.n_sites + 1):
            automaton = graph.automaton_of(site)
            local = state.local(site)
            if local in automaton.commit_states:
                committed = site
            elif local in automaton.abort_states:
                aborted = site
        if committed is not None and aborted is not None:
            return InvariantVerdict(
                name="same-decision",
                holds=False,
                witness=state,
                trace=graph.path_to(state),
                detail=(
                    f"site {committed} committed while site {aborted} aborted "
                    f"in {state}"
                ),
            )
    return InvariantVerdict(name="same-decision", holds=True)


def scan_no_commit_after_abort(graph):
    """No site enters a commit state once any site occupies an abort state."""
    for edge in graph.edges:
        automaton = graph.automaton_of(edge.site) if edge.site else None
        if automaton is None:
            continue
        entered_commit = (
            edge.target.local(edge.site) in automaton.commit_states
            and edge.source.local(edge.site) not in automaton.commit_states
        )
        if not entered_commit:
            continue
        for site in range(1, graph.n_sites + 1):
            if edge.source.local(site) in graph.automaton_of(site).abort_states:
                return InvariantVerdict(
                    name="no-commit-after-abort",
                    holds=False,
                    witness=edge.target,
                    trace=graph.path_to(edge.source) + [edge],
                    detail=(
                        f"site {edge.site} commits after site {site} "
                        f"aborted in {edge.source}"
                    ),
                )
    return InvariantVerdict(name="no-commit-after-abort", holds=True)


def scan_commit_requires_votes(graph):
    """A committed site implies every slave voted yes."""
    for state in graph.visit_order:
        for site in range(1, graph.n_sites + 1):
            if state.local(site) in graph.automaton_of(site).commit_states:
                missing = [
                    s for s in range(2, graph.n_sites + 1) if not state.voted[s - 1]
                ]
                if missing:
                    return InvariantVerdict(
                        name="commit-requires-votes",
                        holds=False,
                        witness=state,
                        trace=graph.path_to(state),
                        detail=(
                            f"site {site} committed without yes votes from "
                            f"slaves {missing} in {state}"
                        ),
                    )
                break
    return InvariantVerdict(name="commit-requires-votes", holds=True)


def scan_no_blocking(graph):
    """No terminal state leaves a surviving site undecided."""
    for state in graph.final_states():
        for site in range(1, graph.n_sites + 1):
            if not state.alive(site):
                continue
            if not graph.automaton_of(site).is_final(state.local(site)):
                return InvariantVerdict(
                    name=BLOCKING_INVARIANT,
                    holds=False,
                    witness=state,
                    trace=graph.path_to(state),
                    detail=(
                        f"surviving site {site} is stuck undecided in "
                        f"state {state.local(site)} at terminal {state}"
                    ),
                )
    return InvariantVerdict(name=BLOCKING_INVARIANT, holds=True)


def scan_invariants(graph):
    """Every invariant by whole-graph scan, keyed like ``check_invariants``."""
    return {
        "same-decision": scan_same_decision(graph),
        "no-commit-after-abort": scan_no_commit_after_abort(graph),
        "commit-requires-votes": scan_commit_requires_votes(graph),
        BLOCKING_INVARIANT: scan_no_blocking(graph),
    }


def _final_states_by_definition(graph):
    """Expanded states that are the source of no edge, in visit order."""
    sources = {edge.source for edge in graph.edges}
    return [
        state
        for state in graph.visit_order
        if state not in sources and state not in graph.unexpanded
    ]


#: (order, max_depth) exploration modes.
MODES = [(BFS, None), (DFS, None), (BFS, 4), (DFS, 4)]


@pytest.mark.parametrize("order,max_depth", MODES, ids=lambda v: str(v))
@pytest.mark.parametrize("fault", ALL_FAULT_ENVELOPES)
@pytest.mark.parametrize("n_sites", (2, 3, 4))
@pytest.mark.parametrize("protocol", checkable_protocols())
def test_on_discovery_verdicts_equal_the_graph_scans(
    protocol, n_sites, fault, order, max_depth
):
    spec, augmentation = resolve_protocol(protocol, n_sites)
    graph = explore_model(
        spec,
        n_sites,
        augmentation=augmentation,
        fault=fault,
        order=order,
        max_depth=max_depth,
    )
    assert graph.final_states() == _final_states_by_definition(graph)
    assert check_invariants(graph) == scan_invariants(graph)


@pytest.mark.parametrize("no_voters", (frozenset(), frozenset({2}), frozenset({2, 3})))
@pytest.mark.parametrize("protocol", checkable_protocols())
def test_on_discovery_verdicts_equal_the_scans_under_scripted_votes(protocol, no_voters):
    spec, augmentation = resolve_protocol(protocol, 3)
    graph = explore_model(
        spec, 3, augmentation=augmentation, fault="partition", no_voters=no_voters
    )
    assert check_invariants(graph) == scan_invariants(graph)
