"""Unit tests for the MODELCHECK layer: spec, protocols, checker, summary, sink.

The verdict-matrix pins restate the paper's results as exhaustive facts:

* every checkable protocol is consistent failure-free (Section 2);
* at two sites, the Rule (a)/(b) extensions are resilient to a single
  crash or partition (the two-site correctness theorem);
* beyond two sites both extensions are refuted (Section 3, Observations
  1 and 2), while the unextended protocols block instead of erring.
"""

import pytest

from repro.core.reachability import (
    FAILURE_FREE,
    FAULT_ENVELOPES,
    PARTITION,
    SINGLE_CRASH,
    ExplorationError,
)
from repro.modelcheck.checker import (
    BLOCKING_INVARIANT,
    INVARIANTS,
    SAFETY_INVARIANTS,
    check_model,
    trace_steps,
)
from repro.modelcheck.protocols import (
    UncheckableProtocolError,
    checkable_protocols,
    resolve_protocol,
)
from repro.modelcheck.sink import ModelCheckSink
from repro.modelcheck.spec import ModelCheckSpec
from repro.modelcheck.summary import ModelCheckSummary


class TestSpecValidation:
    def test_defaults_are_valid(self):
        spec = ModelCheckSpec()
        assert spec.n_sites == 3
        assert spec.fault == FAILURE_FREE
        assert spec.no_voters is None

    def test_rejects_single_site(self):
        with pytest.raises(ValueError, match="at least 2 sites"):
            ModelCheckSpec(n_sites=1)

    def test_rejects_unknown_fault(self):
        with pytest.raises(ValueError, match="fault"):
            ModelCheckSpec(fault="meteor-strike")

    def test_rejects_non_positive_budgets(self):
        with pytest.raises(ValueError, match="max_states"):
            ModelCheckSpec(max_states=0)
        with pytest.raises(ValueError, match="max_depth"):
            ModelCheckSpec(max_depth=0)

    def test_rejects_master_no_voter(self):
        with pytest.raises(ValueError, match="master"):
            ModelCheckSpec(no_voters=frozenset({1}))

    def test_rejects_out_of_range_no_voter(self):
        with pytest.raises(ValueError):
            ModelCheckSpec(n_sites=3, no_voters=frozenset({4}))


class TestProtocolResolution:
    def test_checkable_protocols_are_sorted_and_stable(self):
        names = checkable_protocols()
        assert list(names) == sorted(names)
        assert "two-phase-commit" in names
        assert "naive-extended-three-phase-commit" in names

    def test_unextended_protocols_resolve_without_augmentation(self):
        spec, augmentation = resolve_protocol("two-phase-commit", 3)
        assert augmentation is None
        assert spec.name == "two-phase-commit"

    def test_extended_protocols_resolve_with_rules(self):
        _, augmentation = resolve_protocol("extended-two-phase-commit", 3)
        assert augmentation is not None
        assert augmentation.timeout_action

    def test_terminating_protocols_are_uncheckable(self):
        with pytest.raises(UncheckableProtocolError) as excinfo:
            resolve_protocol("terminating-three-phase-commit", 3)
        assert "three-phase-commit" in str(excinfo.value)

    def test_unknown_protocol_is_uncheckable(self):
        with pytest.raises(UncheckableProtocolError):
            resolve_protocol("no-such-protocol", 3)


@pytest.mark.parametrize("protocol", checkable_protocols())
def test_every_protocol_is_consistent_failure_free(protocol):
    result = check_model(protocol, ModelCheckSpec(fault=FAILURE_FREE))
    summary = result.to_summary(spec_hash="t")
    assert summary.verdict == "consistent"
    assert summary.complete
    assert all(summary.invariant_holds(name) for name in INVARIANTS)


@pytest.mark.parametrize("protocol", checkable_protocols())
def test_no_voter_blocks_commit_failure_free(protocol):
    """Without timeouts a scripted no vote makes commit unreachable."""
    spec = ModelCheckSpec(fault=FAILURE_FREE, no_voters=frozenset({2}))
    result = check_model(protocol, spec)
    assert result.to_summary(spec_hash="t").invariant_holds(
        "commit-requires-votes"
    )


@pytest.mark.parametrize(
    "protocol", ("two-phase-commit", "three-phase-commit", "quorum-commit")
)
@pytest.mark.parametrize("fault", FAULT_ENVELOPES)
def test_no_voter_blocks_commit_without_augmentation(protocol, fault):
    """The unextended protocols have no timeout path around a no vote."""
    spec = ModelCheckSpec(fault=fault, no_voters=frozenset({2}))
    result = check_model(protocol, spec)
    assert result.to_summary(spec_hash="t").invariant_holds(
        "commit-requires-votes"
    )


@pytest.mark.parametrize(
    "protocol", ("extended-two-phase-commit",)
)
def test_extended_protocol_can_timeout_commit_past_a_no_voter(protocol):
    """Observation 1 in miniature: a separated slave timeout-commits in w
    even though another slave voted no -- the checker must find it."""
    spec = ModelCheckSpec(fault=PARTITION, no_voters=frozenset({2}))
    result = check_model(protocol, spec)
    assert not result.to_summary(spec_hash="t").invariant_holds(
        "commit-requires-votes"
    )


@pytest.mark.parametrize(
    "protocol", ("extended-two-phase-commit", "naive-extended-three-phase-commit")
)
@pytest.mark.parametrize("fault", (SINGLE_CRASH, PARTITION))
def test_two_site_extensions_are_resilient(protocol, fault):
    """The two-site correctness theorem, machine-checked exhaustively."""
    result = check_model(protocol, ModelCheckSpec(n_sites=2, fault=fault))
    summary = result.to_summary(spec_hash="t")
    assert summary.verdict == "consistent", summary.summary()


@pytest.mark.parametrize(
    "protocol,fault,expect_violated",
    [
        # Observation 2: the naive 3PC extension errs beyond two sites.
        ("naive-extended-three-phase-commit", SINGLE_CRASH, True),
        ("naive-extended-three-phase-commit", PARTITION, True),
        # Observation 1: extended 2PC errs beyond two sites.
        ("extended-two-phase-commit", SINGLE_CRASH, True),
        ("extended-two-phase-commit", PARTITION, True),
        # The unextended protocols never err -- they block.
        ("two-phase-commit", SINGLE_CRASH, False),
        ("two-phase-commit", PARTITION, False),
        ("three-phase-commit", SINGLE_CRASH, False),
        ("three-phase-commit", PARTITION, False),
        ("quorum-commit", SINGLE_CRASH, False),
        ("quorum-commit", PARTITION, False),
    ],
)
def test_three_site_verdict_matrix(protocol, fault, expect_violated):
    result = check_model(protocol, ModelCheckSpec(n_sites=3, fault=fault))
    summary = result.to_summary(spec_hash="t")
    if expect_violated:
        assert summary.atomicity_violated, summary.summary()
        assert not summary.invariant_holds("same-decision")
        assert not summary.invariant_holds("no-commit-after-abort")
    else:
        assert not summary.atomicity_violated, summary.summary()
        assert summary.blocked, summary.summary()
        assert not summary.invariant_holds(BLOCKING_INVARIANT)


def test_naive_3pc_counterexample_shape_matches_the_paper():
    """One slave aborts, another commits out of the prepared state."""
    result = check_model(
        "naive-extended-three-phase-commit",
        ModelCheckSpec(n_sites=3, fault=PARTITION),
    )
    verdict = result.verdict_for("same-decision")
    assert not verdict.holds
    locals_ = verdict.witness.locals
    assert "c" in locals_ and "a" in locals_
    # BFS discovery makes the trace minimal: no shorter path reaches the
    # witness (depth == trace length by construction).  The packed depth of
    # the witness index and the decoded ``depth`` view agree.
    graph = result.graph
    index = graph.same_decision_witness
    assert graph.state_at(index) == verdict.witness
    assert len(verdict.trace) == graph.depths[index] == graph.depth[verdict.witness]


def test_budget_propagates_through_check_model():
    with pytest.raises(ExplorationError):
        check_model(
            "naive-extended-three-phase-commit",
            ModelCheckSpec(fault=PARTITION, max_states=10),
        )


def test_max_depth_marks_summary_incomplete():
    result = check_model(
        "two-phase-commit", ModelCheckSpec(fault=SINGLE_CRASH, max_depth=2)
    )
    summary = result.to_summary(spec_hash="t")
    assert not summary.complete
    assert summary.frontier_depth <= 2


class TestSummaryCodec:
    def _summary(self):
        result = check_model(
            "naive-extended-three-phase-commit",
            ModelCheckSpec(n_sites=3, fault=PARTITION),
        )
        return result.to_summary(spec_hash="abc123")

    def test_round_trip(self):
        summary = self._summary()
        clone = ModelCheckSummary.from_json_bytes(summary.to_json_bytes())
        assert clone == summary
        assert clone.to_json_bytes() == summary.to_json_bytes()

    def test_kind_tag(self):
        payload = self._summary().to_json_dict()
        assert payload["kind"] == "modelcheck"

    def test_verdict_precedence(self):
        base = ModelCheckSummary(
            protocol="p", spec_hash="h", seed=0, n_sites=3, fault=FAILURE_FREE
        )
        base.invariants = {name: "holds" for name in INVARIANTS}
        assert base.verdict == "consistent"
        base.invariants[BLOCKING_INVARIANT] = "violated"
        assert base.verdict == "blocked"
        base.invariants[SAFETY_INVARIANTS[0]] = "violated"
        assert base.verdict == "violated"

    def test_counterexample_formatting(self):
        summary = self._summary()
        text = summary.format_counterexample("same-decision")
        assert "site" in text
        assert summary.format_counterexample("no-blocking").startswith(
            "  (no counterexample"
        )


class TestSink:
    def test_rows_render_violations_with_trace_length(self):
        sink = ModelCheckSink()
        result = check_model(
            "naive-extended-three-phase-commit",
            ModelCheckSpec(n_sites=3, fault=PARTITION),
        )
        sink.accept(0, result.to_summary(spec_hash="t"))
        (row,) = sink.rows()
        steps = len(result.to_summary(spec_hash="t").counterexample("same-decision"))
        assert row["same-decision"] == f"violated@{steps}"
        assert row["non-blocking"] == "holds"

    def test_ignores_foreign_summaries(self):
        sink = ModelCheckSink()
        sink.accept(0, object())
        assert sink.rows() == []

    def test_truncated_runs_are_marked(self):
        sink = ModelCheckSink()
        result = check_model(
            "two-phase-commit", ModelCheckSpec(fault=SINGLE_CRASH, max_depth=2)
        )
        sink.accept(0, result.to_summary(spec_hash="t"))
        (row,) = sink.rows()
        assert "(truncated)" in row["fault"]


def test_trace_steps_serialization():
    result = check_model(
        "naive-extended-three-phase-commit",
        ModelCheckSpec(n_sites=3, fault=PARTITION),
    )
    trace = result.verdict_for("same-decision").trace
    steps = trace_steps(trace)
    assert len(steps) == len(trace)
    assert [s["step"] for s in steps] == list(range(len(steps)))
    assert {s["action"] for s in steps} <= {
        "step",
        "crash",
        "partition",
        "timeout",
        "undeliverable",
    }
    assert all(len(s["locals"]) == 3 for s in steps)
