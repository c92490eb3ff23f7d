"""Integration tests: every experiment reproduces the paper's qualitative shape.

These are the end-to-end checks of the reproduction -- each test runs one of
the experiment modules (with reduced sweep sizes where the full bench would
be slow) and asserts the fact the paper claims for that figure or section.
"""

import math

import pytest

from repro import experiments as ex
from repro.core.transient import PartitionCase


QUICK_TIMES = [0.5, 1.5, 2.25, 2.5, 3.25, 3.75, 4.5]


class TestFig1:
    @pytest.fixture(scope="class")
    def report(self):
        return ex.run_fig1_two_phase()

    def test_failure_free_commit_and_abort(self, report):
        assert report.details["commit_run"].all_committed
        assert report.details["abort_run"].all_aborted

    def test_master_silence_blocks_all_slaves(self, report):
        assert set(report.details["crash_run"].blocked_sites) >= {2, 3}

    def test_partition_blocks_separated_slaves(self, report):
        assert report.details["partition_run"].blocked

    def test_report_has_four_rows(self, report):
        assert len(report.rows()) == 4
        assert "FIG1" in report.format()


class TestFig2:
    @pytest.fixture(scope="class")
    def report(self):
        return ex.run_fig2_extended_two_phase()

    def test_two_site_resilience(self, report):
        assert report.details["two_site"].resilient

    def test_three_site_failure(self, report):
        assert report.details["three_site"].atomicity_violations > 0

    def test_augmentation_table_includes_slave_wait(self, report):
        states = {row["local state"] for row in report.rows()}
        assert "slave:w" in states


class TestFig3:
    @pytest.fixture(scope="class")
    def report(self):
        return ex.run_fig3_three_phase()

    def test_three_phase_slower_than_two_phase(self, report):
        assert (
            report.details["commit_run"].max_decision_latency()
            > report.details["two_phase_run"].max_decision_latency()
        )

    def test_three_phase_satisfies_lemmas_while_two_phase_does_not(self, report):
        assert report.details["lemma_3pc"].satisfies_both
        assert not report.details["lemma_2pc"].satisfies_both

    def test_partitions_block_but_never_violate(self, report):
        summary = report.details["partition_summary"]
        assert summary.blocked_runs > 0
        assert summary.atomicity_violations == 0


class TestSec3AndLemmas:
    def test_sec3_counterexamples(self):
        report = ex.run_sec3_counterexamples()
        assert report.details["extended_summary"].atomicity_violations > 0
        assert report.details["naive_summary"].atomicity_violations > 0
        assert report.details["naive_witness"].atomicity_violated
        assert report.details["extended_witness"].atomicity_violated

    def test_lemma_checks(self):
        report = ex.run_lemma_checks()
        verdicts = report.details["reports"]
        assert not verdicts["two-phase-commit"].satisfies_both
        assert verdicts["three-phase-commit"].satisfies_both
        assert verdicts["quorum-commit"].satisfies_both

    def test_lemma3_sweep(self):
        report = ex.run_lemma3_sweep()
        summaries = report.details["summaries"]
        assert not summaries["extended-two-phase-commit"].resilient
        assert not summaries["naive-extended-three-phase-commit"].resilient
        assert summaries["terminating-three-phase-commit"].resilient


class TestTheorem9:
    def test_termination_sweep_is_resilient(self):
        summary = ex.run_termination_sweep(3, times=QUICK_TIMES)
        assert summary.resilient
        assert summary.total_runs == len(QUICK_TIMES) * 3

    def test_fig8_report_across_sizes(self):
        report = ex.run_fig8_termination(site_counts=(3, 4, 5))
        for row in report.rows():
            assert row["atomicity violations"] == 0
            assert row["blocked runs"] == 0
            assert row["resilient"] == "yes"


class TestTimingExperiments:
    def test_traced_runs_are_run_scenario_in_task_order(self):
        from repro.engine import SweepTask
        from repro.experiments.harness import partition_grid, traced_runs
        from repro.protocols.registry import create_protocol
        from repro.protocols.runner import ScenarioSpec, run_scenario

        tasks = [
            *partition_grid("terminating-three-phase-commit", times=[1.5, 2.5]),
            SweepTask("two-phase-commit", ScenarioSpec(n_sites=3)),
        ]
        results = list(traced_runs(tasks))
        assert len(results) == len(tasks)
        for task, result in zip(tasks, results):
            assert (result.protocol, result.spec) == (task.protocol, task.spec)
            assert len(result.trace) > 0
            expected = run_scenario(create_protocol(task.protocol), task.spec)
            assert result.as_summary() == expected.as_summary()
            # Transaction ids come from a process-wide counter, so the records
            # are compared without their details.
            assert [(r.time, r.category, r.site) for r in result.trace] == [
                (r.time, r.category, r.site) for r in expected.trace
            ]

    def test_traced_runs_hold_no_earlier_result(self):
        import gc
        import weakref

        from repro.experiments.harness import partition_grid, traced_runs

        runs = traced_runs(partition_grid("terminating-three-phase-commit", times=[1.5, 2.5]))
        first = weakref.ref(next(runs))
        second = next(runs)
        gc.collect()
        # Once the caller drops a result, nothing in the generator keeps it.
        assert first() is None
        assert len(second.trace) > 0

    def test_fig5_within_bounds(self):
        report = ex.run_fig5_timeouts(site_counts=(3, 4))
        assert all(m.within_bound for m in report.details["measurements"])

    def test_fig6_probe_window_within_five_t(self):
        report = ex.run_fig6_probe_window(times=QUICK_TIMES)
        assert report.details["measurement"].within_bound
        assert report.details["windows"] > 0

    def test_fig7_wait_in_w_within_six_t(self):
        report = ex.run_fig7_wait_in_w(times=QUICK_TIMES)
        assert report.details["measurement"].within_bound
        assert report.details["samples"] > 0

    def test_fig9_wait_in_p_within_five_t(self):
        report = ex.run_fig9_wait_in_p(times=QUICK_TIMES)
        assert report.details["measurement"].within_bound
        assert report.details["samples"] > 0
        assert report.details["blocked"] == 0


class TestSec6:
    @pytest.fixture(scope="class")
    def report(self):
        return ex.run_sec6_cases()

    def test_every_case_represented(self, report):
        assert len(report.rows()) == len(PartitionCase)

    def test_constructions_classify_as_intended(self, report):
        for row in report.rows():
            assert row["case"] == row["classified as"]

    def test_only_3222_blocks_section5_protocol(self, report):
        blocking = [row["case"] for row in report.rows() if row["Section 5 protocol"] == "blocks"]
        assert blocking == ["3.2.2.2"]

    def test_section6_rule_fixes_3222(self, report):
        for row in report.rows():
            assert row["with Section 6 rule"] == "consistent"

    def test_unbounded_case_measured_as_infinite(self, report):
        assert math.isinf(report.details["3.2.2.2"]["measured"])


class TestSec7AndThm10:
    def test_sec7_counterexamples_violate(self):
        report = ex.run_sec7_assumptions()
        assert report.details["scenario1"].atomicity_violated
        assert report.details["scenario2"].atomicity_violated
        lost = report.details["lost_messages"]
        assert lost.atomicity_violated or lost.blocked

    def test_thm10_generalization(self):
        report = ex.run_thm10_generalization()
        conditions = report.details["conditions"]
        assert not conditions["two-phase-commit"].applicable
        assert conditions["three-phase-commit"].applicable
        assert conditions["quorum-commit"].applicable
        assert report.details["quorum_sweep"].resilient


class TestAvailabilityAndMessages:
    def test_availability_ranking(self):
        report = ex.run_availability_comparison(times=QUICK_TIMES)
        details = report.details
        blocking = {name: info["blocking"].blocking_rate for name, info in details.items()}
        assert blocking["three-phase-commit"] > 0.5
        assert blocking["two-phase-commit"] > 0.0
        assert blocking["terminating-three-phase-commit"] == 0.0
        atomicity = {name: info["atomicity"] for name, info in details.items()}
        assert atomicity["terminating-three-phase-commit"].resilient
        assert not atomicity["naive-extended-three-phase-commit"].resilient

    def test_terminating_protocol_holds_locks_for_less_time_than_blocking_ones(self):
        report = ex.run_availability_comparison(times=QUICK_TIMES)
        details = report.details
        terminating = details["terminating-three-phase-commit"]["blocking"].mean_lock_hold_time
        blocking_3pc = details["three-phase-commit"]["blocking"].mean_lock_hold_time
        assert terminating < blocking_3pc

    def test_message_overhead_shape(self):
        report = ex.run_message_overhead()
        rows = {row["protocol"]: row for row in report.rows()}
        assert (
            rows["three-phase-commit"]["messages (failure-free)"]
            > rows["two-phase-commit"]["messages (failure-free)"]
        )
        assert (
            rows["terminating-three-phase-commit"]["messages (failure-free)"]
            == rows["three-phase-commit"]["messages (failure-free)"]
        )


class TestReportFormatting:
    def test_every_report_formats_to_text(self):
        reports = [
            ex.run_fig1_two_phase(),
            ex.run_lemma_checks(),
            ex.run_sec7_assumptions(),
        ]
        for report in reports:
            text = report.format()
            assert report.experiment in text
            assert report.title in text
            assert str(report) == text
