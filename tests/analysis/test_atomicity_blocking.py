"""Tests for the atomicity and blocking analysis."""

from repro.analysis.atomicity import summarize_runs
from repro.analysis.blocking import blocking_report
from repro.protocols.registry import create_protocol
from repro.protocols.runner import RunSummary, ScenarioSpec, run_scenario
from repro.sim.partition import PartitionSchedule


def run(name, **kwargs):
    return run_scenario(create_protocol(name), ScenarioSpec(**kwargs))


class TestAtomicityReport:
    def test_consistent_batch(self):
        results = [run("terminating-three-phase-commit", n_sites=3) for _ in range(3)]
        report = summarize_runs(results)
        assert report.total_runs == 3
        assert report.resilient
        assert report.violation_rate == 0.0
        assert report.committed_runs == 3
        assert "resilient" in report.summary()

    def test_violating_batch_collects_witnesses(self):
        partition = PartitionSchedule.simple(2.25, [1, 2], [3])
        results = [
            run("naive-extended-three-phase-commit", n_sites=3, partition=partition)
        ]
        report = summarize_runs(results)
        assert report.atomicity_violations == 1
        assert not report.resilient
        assert report.violation_witnesses
        assert "NOT resilient" in report.summary()

    def test_blocked_batch(self):
        partition = PartitionSchedule.simple(1.5, [1], [2, 3])
        results = [run("two-phase-commit", n_sites=3, partition=partition)]
        report = summarize_runs(results)
        assert report.blocked_runs == 1
        assert report.blocking_rate == 1.0
        assert report.blocking_witnesses

    def test_check_atomicity_single_run(self):
        good = run("terminating-three-phase-commit", n_sites=3)
        assert not good.atomicity_violated
        partition = PartitionSchedule.simple(2.25, [1, 2], [3])
        bad = run("naive-extended-three-phase-commit", n_sites=3, partition=partition)
        assert bad.atomicity_violated

    def test_empty_batch(self):
        report = summarize_runs([], protocol="nothing")
        assert report.total_runs == 0
        assert report.violation_rate == 0.0
        assert report.resilient

    def test_consistent_runs_count(self):
        partition = PartitionSchedule.simple(1.5, [1], [2, 3])
        results = [
            run("terminating-three-phase-commit", n_sites=3),
            run("two-phase-commit", n_sites=3, partition=partition),
        ]
        report = summarize_runs(results, protocol="mixed")
        assert report.consistent_runs == 1

    def test_violated_and_blocked_run_counts_once(self):
        # Mixed outcomes plus an undecided site: the verdict is "violated"
        # (violation dominates), so it is not also counted as blocked.
        run = RunSummary(
            protocol="p",
            spec_hash="",
            seed=0,
            n_sites=3,
            decisions={1: "commit", 2: "abort", 3: None},
        )
        assert run.atomicity_violated and run.blocked
        assert run.verdict == "violated"
        report = summarize_runs([run])
        assert (report.atomicity_violations, report.blocked_runs) == (1, 0)
        assert report.consistent_runs == 0
        assert not report.resilient

    def test_verdict_of_single_runs(self):
        assert run("terminating-three-phase-commit", n_sites=3).verdict == "consistent"
        partition = PartitionSchedule.simple(1.5, [1], [2, 3])
        blocked = run("two-phase-commit", n_sites=3, partition=partition)
        assert (blocked.verdict, blocked.consistent) == ("blocked", False)
        partition = PartitionSchedule.simple(2.25, [1, 2], [3])
        bad = run("naive-extended-three-phase-commit", n_sites=3, partition=partition)
        assert (bad.verdict, bad.consistent) == ("violated", False)


class TestBlockingReport:
    def test_nonblocking_protocol(self):
        results = [run("terminating-three-phase-commit", n_sites=3) for _ in range(2)]
        report = blocking_report(results)
        assert report.blocking_rate == 0.0
        assert report.mean_blocked_sites == 0.0
        assert report.max_decision_latency is not None
        assert report.mean_lock_hold_time is not None

    def test_blocking_protocol_charges_lock_time_to_horizon(self):
        partition = PartitionSchedule.simple(1.5, [1], [2, 3])
        blocked = blocking_report(
            [run("two-phase-commit", n_sites=3, partition=partition, horizon=40.0)]
        )
        free = blocking_report([run("two-phase-commit", n_sites=3)])
        assert blocked.blocking_rate == 1.0
        assert blocked.mean_lock_hold_time > free.mean_lock_hold_time

    def test_summary_text(self):
        report = blocking_report([run("two-phase-commit", n_sites=3)])
        text = report.summary()
        assert "two-phase-commit" in text
        assert "blocking rate" in text

    def test_empty_report(self):
        report = blocking_report([], protocol="nothing")
        assert report.mean_decision_latency is None
        assert report.max_decision_latency is None
        assert report.mean_lock_hold_time is None
