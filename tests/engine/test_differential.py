"""The differential matrix: checker vs simulator on 200+ seeded configurations.

The two drivers of a protocol's compiled local-step relation -- the timed
event-driven simulator and the untimed exhaustive explorer -- run the same
configurations; any disagreement under the one directional agreement rule
(:func:`~repro.modelcheck.differential.judge_run`) fails the test with
both sides' evidence: the checker's minimal counterexample trace next to
the simulator run's decision vector.  The rule itself is tested clause by
clause on hand-built record pairs.

Also pins the MODELCHECK kind's engine contract: byte-identical JSONL
spills across worker counts, and shard/merge runs byte-identical to a
single-machine streaming run.
"""

import pytest

from repro.core.reachability import FAILURE_FREE, PARTITION, SINGLE_CRASH
from repro.engine import JsonlSink, SweepEngine, merge_result_log, run_shard_log
from repro.experiments.modelcheck import modelcheck_tasks
from repro.modelcheck.checker import check_model
from repro.modelcheck.differential import (
    DifferentialConfig,
    cross_validate,
    judge_run,
    sample_configs,
)
from repro.modelcheck.protocols import checkable_protocols
from repro.modelcheck.summary import INVARIANTS, ModelCheckSummary
from repro.protocols.runner import RunSummary, ScenarioSpec
from repro.sim.failures import CrashEvent, CrashSchedule, FaultPlan

#: The matrix the satellite demands: >= 200 seeded configurations across
#: protocols x n in {2, 3} x fault envelopes x scripted-vote patterns.
MATRIX_SIZE = 200
MATRIX_SEED = 2026


def _config_key(config):
    return (config.protocol, config.n_sites, config.fault, config.no_voters)


@pytest.fixture(scope="module")
def matrix_reports():
    """Cross-validate the whole matrix once; checker results are memoized."""
    configs = sample_configs(MATRIX_SIZE, seed=MATRIX_SEED)
    checkers = {}
    reports = []
    for config in configs:
        key = _config_key(config)
        if key not in checkers:
            checkers[key] = check_model(config.protocol, config.modelcheck_spec())
        reports.append(cross_validate(config, checker=checkers[key]))
    return reports


class TestDifferentialMatrix:
    def test_matrix_size_and_coverage(self, matrix_reports):
        assert len(matrix_reports) == MATRIX_SIZE
        seen_protocols = {r.config.protocol for r in matrix_reports}
        assert seen_protocols == set(checkable_protocols())
        assert {r.config.n_sites for r in matrix_reports} == {2, 3}
        assert {r.config.fault for r in matrix_reports} == {
            FAILURE_FREE,
            SINGLE_CRASH,
            PARTITION,
        }
        assert any(r.config.no_voters for r in matrix_reports)

    def test_zero_disagreements(self, matrix_reports):
        failures = [r for r in matrix_reports if not r.agreed]
        assert not failures, "\n\n".join(r.format_failures() for r in failures)

    def test_every_config_ran_simulator_schedules(self, matrix_reports):
        assert all(r.sim_runs >= 1 for r in matrix_reports)
        total = sum(r.sim_runs for r in matrix_reports)
        assert total > MATRIX_SIZE  # fault envelopes fan out over placements

    def test_violation_branch_is_not_vacuous(self, matrix_reports):
        """The agreement must be exercised on real sim-side violations."""
        violated = [
            r
            for r in matrix_reports
            if r.sim_verdicts.get("violated", 0) > 0
        ]
        assert violated, "no sampled configuration produced a sim violation"
        for report in violated:
            assert report.checker.atomicity_violated

    def test_sampling_is_deterministic(self):
        first = sample_configs(25, seed=7)
        second = sample_configs(25, seed=7)
        assert first == second
        assert sample_configs(25, seed=8) != first


def test_failure_free_exact_match_branch():
    """Failure-free configs compare verdicts exactly, including the outcome."""
    for no_voters in (frozenset(), frozenset({3})):
        config = DifferentialConfig(
            protocol="two-phase-commit",
            n_sites=3,
            fault=FAILURE_FREE,
            no_voters=no_voters,
        )
        report = cross_validate(config)
        assert report.agreed, report.format_failures()
        assert report.sim_runs == 1


def test_disagreement_report_carries_both_traces():
    """A fabricated disagreement renders checker and sim evidence."""
    config = DifferentialConfig(
        protocol="naive-extended-three-phase-commit",
        n_sites=3,
        fault=PARTITION,
    )
    checker = check_model(config.protocol, config.modelcheck_spec())
    report = cross_validate(config, checker=checker)
    assert report.agreed
    # Force the formatting path through a synthetic disagreement.
    from repro.modelcheck.differential import Disagreement

    fake = Disagreement(
        config=config,
        scenario=config.scenario_specs()[0],
        sim_verdict="violated",
        checker_verdict="consistent",
        reason="synthetic",
        detail="  evidence line",
    )
    text = fake.format()
    assert "DISAGREEMENT" in text
    assert "naive-extended-three-phase-commit" in text
    assert "evidence line" in text


# ----------------------------------------------------------------------
# the one agreement rule, clause by clause
# ----------------------------------------------------------------------
def _run(decisions):
    """A hand-built simulator record with the given per-site decisions."""
    return RunSummary(
        protocol="p", spec_hash="", seed=0, n_sites=3, decisions=dict(decisions)
    )


def _checker(fault, violated=()):
    """A hand-built checker record refuting exactly ``violated``."""
    return ModelCheckSummary(
        protocol="p",
        spec_hash="",
        seed=0,
        n_sites=3,
        fault=fault,
        invariants={
            name: "violated" if name in violated else "holds"
            for name, _, _ in INVARIANTS
        },
    )


COMMIT, ABORT, UNDECIDED = "commit", "abort", None

#: (scenario, simulator decisions, checker fault, checker-violated
#: invariants, fragments of the expected reasons in order; () = agree).
RULE_CASES = {
    "sim-violation-vs-safe-checker": (
        ScenarioSpec(),
        {1: COMMIT, 2: ABORT, 3: COMMIT},
        SINGLE_CRASH,
        ("no-blocking",),
        ("violated atomicity",),
    ),
    "sim-violation-vs-refuting-checker": (
        ScenarioSpec(),
        {1: COMMIT, 2: ABORT, 3: COMMIT},
        PARTITION,
        ("commit-requires-votes",),
        (),
    ),
    "surviving-undecided-vs-nonblocking-checker": (
        ScenarioSpec(),
        {1: COMMIT, 2: COMMIT, 3: UNDECIDED},
        PARTITION,
        (),
        ("surviving sites [3]",),
    ),
    # Fails under a rule that excuses blocking by any non-consistent
    # checker verdict: refuting same-decision does not predict blocking.
    "violated-and-undecided-vs-same-decision-only": (
        ScenarioSpec(),
        {1: COMMIT, 2: ABORT, 3: UNDECIDED},
        PARTITION,
        ("same-decision",),
        ("surviving sites [3]",),
    ),
    "crashed-undecided-is-not-surviving": (
        ScenarioSpec(crashes=CrashSchedule.single(1, 1.5)),
        {1: UNDECIDED, 2: ABORT, 3: ABORT},
        SINGLE_CRASH,
        (),
        (),
    ),
    "fault-plan-crash-is-not-surviving": (
        ScenarioSpec(faults=FaultPlan(crashes=(CrashEvent(1.5, 2),))),
        {1: ABORT, 2: UNDECIDED, 3: ABORT},
        SINGLE_CRASH,
        (),
        (),
    ),
    "surviving-undecided-vs-blocking-checker": (
        ScenarioSpec(crashes=CrashSchedule.single(1, 1.5)),
        {1: UNDECIDED, 2: UNDECIDED, 3: UNDECIDED},
        SINGLE_CRASH,
        ("no-blocking",),
        (),
    ),
    "failure-free-verdict-mismatch": (
        ScenarioSpec(),
        {1: COMMIT, 2: COMMIT, 3: COMMIT},
        FAILURE_FREE,
        ("no-blocking",),
        ("verdicts must match exactly",),
    ),
    "failure-free-outcome-mismatch": (
        ScenarioSpec(no_voters=frozenset({3})),
        {1: COMMIT, 2: COMMIT, 3: COMMIT},
        FAILURE_FREE,
        (),
        ("outcome should be abort",),
    ),
    "failure-free-match": (
        ScenarioSpec(no_voters=frozenset({3})),
        {1: ABORT, 2: ABORT, 3: ABORT},
        FAILURE_FREE,
        (),
        (),
    ),
}


@pytest.mark.parametrize(
    "scenario,decisions,fault,violated,expected",
    list(RULE_CASES.values()),
    ids=list(RULE_CASES),
)
def test_judge_run_clauses(scenario, decisions, fault, violated, expected):
    reasons = judge_run(scenario, _run(decisions), _checker(fault, violated))
    assert len(reasons) == len(expected), reasons
    for reason, fragment in zip(reasons, expected):
        assert fragment in reason, (reason, fragment)


# ----------------------------------------------------------------------
# engine-contract identities for the MODELCHECK kind
# ----------------------------------------------------------------------
def _grid():
    return modelcheck_tasks(
        ("two-phase-commit", "naive-extended-three-phase-commit"),
        n_sites=3,
    )


def _spill(path, *, workers):
    sink = JsonlSink(path)
    SweepEngine(workers=workers).run_streaming(_grid(), sinks=[sink])
    return path.read_bytes()


def test_modelcheck_spills_are_worker_count_invariant(tmp_path):
    serial = _spill(tmp_path / "w1.jsonl", workers=1)
    parallel = _spill(tmp_path / "w4.jsonl", workers=4)
    assert serial == parallel
    assert serial.count(b"\n") == len(_grid())


def test_modelcheck_shard_merge_matches_single_machine(tmp_path):
    tasks = _grid()
    single = tmp_path / "single.jsonl"
    _spill(single, workers=1)
    for index in range(3):
        run_shard_log(tasks, index, 3, tmp_path / "log", engine=SweepEngine())
    merged = tmp_path / "merged.jsonl"
    result = merge_result_log(tmp_path / "log", jsonl=merged)
    assert merged.read_bytes() == single.read_bytes()
    assert result.records == len(tasks)
    assert "modelcheck" in result.kind_sinks
    rows = result.kind_sinks["modelcheck"].rows()
    assert {row["protocol"] for row in rows} == {
        "two-phase-commit",
        "naive-extended-three-phase-commit",
    }
