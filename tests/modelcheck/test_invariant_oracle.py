"""The explorer's on-discovery invariant checks against whole-graph scans.

:func:`~repro.core.reachability.explore_model` evaluates the checker's four
invariants while it discovers states and edges, and keeps only the first
witness of each; :func:`~repro.modelcheck.checker.counterexample_path`
turns a witness into its replayable path.  The scans below are the
definition those checks must agree with: each walks the *decoded* graph in
its canonical order (``visit_order`` for the state invariants, ``edges``
for the edge invariant, ``final_states()`` for blocking), stops at the
first violation and returns the path to it (``None`` when the invariant
holds).  The scans classify local states by the automata of the spec that
was explored, not by the relation the explorer reads, so they stay an
independent reference.  For every checkable protocol at n = 2-4, under
every envelope, in BFS and DFS order and with ``max_depth`` truncation, the
paths must be identical; :func:`~repro.modelcheck.checker.check_model`'s record must
carry exactly the scans' verdicts and serialized paths.
"""

import pytest

from repro.core.reachability import ALL_FAULT_ENVELOPES, BFS, DFS, explore_model
from repro.modelcheck.checker import check_model, counterexample_path, trace_steps
from repro.modelcheck.protocols import checkable_protocols, resolve_protocol
from repro.modelcheck.spec import ModelCheckSpec
from repro.modelcheck.summary import INVARIANTS


def automaton_of(spec, site):
    """The role automaton ``site`` executes (site 1 is the master)."""
    return spec.master if site == 1 else spec.slave


def scan_same_decision(graph, spec):
    """No state mixes a committed site with an aborted one."""
    for state in graph.visit_order:
        committed = aborted = False
        for site in range(1, graph.n_sites + 1):
            automaton = automaton_of(spec, site)
            local = state.local(site)
            committed |= local in automaton.commit_states
            aborted |= local in automaton.abort_states
        if committed and aborted:
            return graph.path_to(state)
    return None


def scan_no_commit_after_abort(graph, spec):
    """No site enters a commit state once any site occupies an abort state."""
    for edge in graph.edges:
        automaton = automaton_of(spec, edge.site) if edge.site else None
        if automaton is None:
            continue
        entered_commit = (
            edge.target.local(edge.site) in automaton.commit_states
            and edge.source.local(edge.site) not in automaton.commit_states
        )
        if not entered_commit:
            continue
        for site in range(1, graph.n_sites + 1):
            if edge.source.local(site) in automaton_of(spec, site).abort_states:
                return graph.path_to(edge.source) + [edge]
    return None


def scan_commit_requires_votes(graph, spec):
    """A committed site implies every slave voted yes."""
    for state in graph.visit_order:
        for site in range(1, graph.n_sites + 1):
            if state.local(site) in automaton_of(spec, site).commit_states:
                if not all(state.voted[s - 1] for s in range(2, graph.n_sites + 1)):
                    return graph.path_to(state)
                break
    return None


def scan_no_blocking(graph, spec):
    """No terminal state leaves a surviving site undecided."""
    for state in graph.final_states():
        for site in range(1, graph.n_sites + 1):
            if not state.alive(site):
                continue
            if not automaton_of(spec, site).is_final(state.local(site)):
                return graph.path_to(state)
    return None


#: Invariant name -> its whole-graph scan.
SCANS = {
    "same-decision": scan_same_decision,
    "no-commit-after-abort": scan_no_commit_after_abort,
    "commit-requires-votes": scan_commit_requires_votes,
    "no-blocking": scan_no_blocking,
}


def test_every_invariant_has_a_scan():
    assert [name for name, _, _ in INVARIANTS] == list(SCANS)


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
    for name, scan in SCANS.items():
        assert counterexample_path(graph, name) == scan(graph, spec), name


@pytest.mark.parametrize("no_voters", (frozenset(), frozenset({2}), frozenset({2, 3})))
@pytest.mark.parametrize("protocol", checkable_protocols())
def test_on_discovery_verdicts_equal_the_scans_under_scripted_votes(
    protocol, no_voters
):
    result = check_model(
        protocol,
        ModelCheckSpec(n_sites=3, fault="partition", no_voters=no_voters or None),
    )
    spec, _ = resolve_protocol(protocol, 3)
    paths = {name: scan(result.graph, spec) for name, scan in SCANS.items()}
    assert result.invariants == {
        name: "holds" if path is None else "violated" for name, path in paths.items()
    }
    assert result.counterexamples == {
        name: trace_steps(path) for name, path in paths.items() if path is not None
    }
