"""Property tests for the generalized (fault-envelope) explorer.

The exhaustive checker's value rests on four properties of
:func:`repro.core.reachability.explore_model`, each pinned here:

* **Determinism** -- same spec, same graph: identical visit order, edge
  list and final states across repeated runs (and across interpreter hash
  seeds, checked via subprocess below).
* **Order-independence of the state set** -- BFS and DFS reach exactly the
  same states and edges (only the discovery order may differ).
* **Exact budgets** -- ``max_states`` raises :class:`ExplorationError`
  precisely when state ``N+1`` is discovered (a graph of exactly ``N``
  states completes), and the partial graph attached to the error is a
  *prefix* of the unbudgeted exploration (the regression for threading the
  limits through :class:`~repro.modelcheck.spec.ModelCheckSpec`).  The
  partial graph is closed (every edge ends in one of its states) and its
  cut-off frontier is ``unexpanded``, never final.
* **Replayability** -- every counterexample trace the checker emits steps
  through legal successors only (each edge is among
  :func:`enumerate_successors` of its source) and ends at the witness.
"""

import os
import pathlib
import subprocess
import sys

import pytest

from repro.core.catalog import quorum_commit, three_phase_commit, two_phase_commit
from repro.core.reachability import (
    BFS,
    DFS,
    FAILURE_FREE,
    FAULT_ENVELOPES,
    PARTITION,
    SINGLE_CRASH,
    ExplorationError,
    enumerate_successors,
    explore,
    explore_model,
    simple_splits,
)
from repro.core.rules import augment_with_rules

# (spec factory, augmentation?) for every FSA protocol shape the checker
# resolves; parametrizing over these keeps each property protocol-agnostic.
SETUPS = {
    "2pc": (two_phase_commit, False),
    "extended-2pc": (two_phase_commit, True),
    "3pc": (three_phase_commit, False),
    "naive-3pc": (three_phase_commit, True),
    "quorum-commit": (quorum_commit, False),
}


def _explore(name, *, fault, order=BFS, **kwargs):
    factory, augmented = SETUPS[name]
    spec = factory()
    augmentation = augment_with_rules(spec, 3) if augmented else None
    return explore_model(
        spec, 3, augmentation=augmentation, fault=fault, order=order, **kwargs
    )


@pytest.mark.parametrize("name", sorted(SETUPS))
@pytest.mark.parametrize("fault", FAULT_ENVELOPES)
class TestEnvelopeExploration:
    def test_deterministic_across_runs(self, name, fault):
        first = _explore(name, fault=fault)
        second = _explore(name, fault=fault)
        assert first.visit_order == second.visit_order
        assert first.edges == second.edges
        assert first.final_states() == second.final_states()

    def test_bfs_and_dfs_reach_the_same_graph(self, name, fault):
        bfs = _explore(name, fault=fault, order=BFS)
        dfs = _explore(name, fault=fault, order=DFS)
        assert bfs.states == dfs.states
        assert set(bfs.edges) == set(dfs.edges)
        assert bfs.complete and dfs.complete

    def test_budget_raises_exactly_at_the_limit(self, name, fault):
        full = _explore(name, fault=fault)
        n = full.state_count
        # A budget of exactly the graph size completes...
        exact = _explore(name, fault=fault, max_states=n)
        assert exact.complete and exact.state_count == n
        # ...and one state less raises, with the partial graph attached.
        with pytest.raises(ExplorationError) as excinfo:
            _explore(name, fault=fault, max_states=n - 1)
        partial = excinfo.value.partial
        assert partial is not None
        assert partial.state_count == n - 1
        assert not partial.complete

    def test_budgeted_visit_order_is_a_prefix_of_unbudgeted(self, name, fault):
        """The fix+pin regression: limits truncate, they never reorder."""
        full = _explore(name, fault=fault)
        for budget in (1, 5, full.state_count // 2, full.state_count - 1):
            if budget < 1:
                continue
            try:
                partial = _explore(name, fault=fault, max_states=budget)
            except ExplorationError as exc:
                partial = exc.partial
            assert partial.visit_order == full.visit_order[: budget]

    def test_budgeted_partial_graph_is_closed_and_never_calls_its_frontier_final(
        self, name, fault
    ):
        """A partial graph holds no dangling edge and no fake terminal state."""
        full = _explore(name, fault=fault)
        with pytest.raises(ExplorationError) as excinfo:
            _explore(name, fault=fault, max_states=full.state_count // 2)
        partial = excinfo.value.partial
        assert all(edge.target in partial.states for edge in partial.edges)
        assert partial.edges == full.edges[: partial.edges_explored]
        assert partial.unexpanded
        assert not set(partial.final_states()) & partial.unexpanded
        assert set(partial.final_states()) <= set(full.final_states())

    def test_max_depth_truncates_and_clears_complete(self, name, fault):
        full = _explore(name, fault=fault)
        depth = 3
        truncated = _explore(name, fault=fault, max_depth=depth)
        if full.frontier_depth <= depth:
            assert truncated.complete
        else:
            assert not truncated.complete
            assert truncated.unexpanded
            assert truncated.frontier_depth <= depth
        assert truncated.state_count <= full.state_count

    def test_every_edge_is_a_legal_successor_of_its_source(self, name, fault):
        """Each recorded edge replays through enumerate_successors."""
        factory, augmented = SETUPS[name]
        spec = factory()
        augmentation = augment_with_rules(spec, 3) if augmented else None
        graph = explore_model(
            spec, 3, augmentation=augmentation, fault=fault
        )
        for edge in graph.edges[:200]:
            successors = enumerate_successors(
                spec,
                3,
                edge.source,
                augmentation=augmentation,
                fault=fault,
            )
            assert edge in successors, edge.describe()


def test_failure_free_envelope_matches_the_legacy_explorer():
    """explore() is explore_model() under the failure-free envelope."""
    for name in ("2pc", "3pc"):
        factory, _ = SETUPS[name]
        legacy = explore(factory(), 3)
        modern = _explore(name, fault=FAILURE_FREE)
        assert legacy.visit_order == modern.visit_order
        assert legacy.edges == modern.edges


def test_fault_envelopes_strictly_grow_the_graph():
    """Crash and partition envelopes only add states (over-approximation)."""
    for name in sorted(SETUPS):
        base = _explore(name, fault=FAILURE_FREE)
        for fault in (SINGLE_CRASH, PARTITION):
            enveloped = _explore(name, fault=fault)
            assert base.states <= enveloped.states
            assert set(base.edges) <= set(enveloped.edges)


def test_simple_splits_enumeration():
    assert simple_splits(2) == [((1,), (2,))]
    assert simple_splits(3) == [
        ((1, 3), (2,)),
        ((1, 2), (3,)),
        ((1,), (2, 3)),
    ]


def test_checker_counterexamples_replay_to_the_witness():
    """Traces are step-by-step replayable and end at the violating state."""
    from repro.modelcheck.checker import check_model
    from repro.modelcheck.protocols import resolve_protocol
    from repro.modelcheck.spec import ModelCheckSpec

    for protocol, fault in (
        ("naive-extended-three-phase-commit", PARTITION),
        ("naive-extended-three-phase-commit", SINGLE_CRASH),
        ("extended-two-phase-commit", PARTITION),
        ("two-phase-commit", SINGLE_CRASH),
    ):
        spec = ModelCheckSpec(n_sites=3, fault=fault)
        result = check_model(protocol, spec)
        fsa_spec, augmentation = resolve_protocol(protocol, 3)
        violated = [v for v in result.verdicts.values() if not v.holds]
        assert violated, f"{protocol}/{fault} should violate an invariant"
        for verdict in violated:
            assert verdict.trace, verdict.name
            current = result.graph.initial
            for edge in verdict.trace:
                assert edge.source == current
                successors = enumerate_successors(
                    fsa_spec,
                    3,
                    current,
                    augmentation=augmentation,
                    fault=fault,
                )
                assert edge in successors, edge.describe()
                current = edge.target
            assert current == verdict.witness


_HASHSEED_SCRIPT = """
from repro.modelcheck.checker import check_model
from repro.modelcheck.spec import ModelCheckSpec
import sys

spec = ModelCheckSpec(n_sites=3, fault="partition")
summary = check_model("naive-extended-three-phase-commit", spec).to_summary(
    spec_hash="hashseed-probe"
)
sys.stdout.buffer.write(summary.to_json_bytes())
"""


def test_exploration_is_hash_seed_independent():
    """Frozenset iteration must never leak into the graph or the traces."""
    src = pathlib.Path(__file__).resolve().parents[2] / "src"
    outputs = []
    for seed in ("1", "2"):
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = seed
        env["PYTHONPATH"] = str(src)
        proc = subprocess.run(
            [sys.executable, "-c", _HASHSEED_SCRIPT],
            capture_output=True,
            env=env,
            check=True,
        )
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    assert b'"kind":"modelcheck"' in outputs[0]
