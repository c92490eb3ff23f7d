"""The differential matrix: checker vs simulator on 200+ seeded configurations.

The two interpreters of a protocol's local-step relation -- the timed
event-driven simulator and the untimed exhaustive explorer -- run the same
configurations; any verdict disagreement (under the directional relation
documented in :mod:`repro.modelcheck.differential`) fails the test with
both sides' evidence: the checker's minimal counterexample trace next to
the simulator run's decision vector.

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
    sample_configs,
)
from repro.modelcheck.protocols import checkable_protocols

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
            summary = report.checker.to_summary(spec_hash="t")
            assert summary.atomicity_violated

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
