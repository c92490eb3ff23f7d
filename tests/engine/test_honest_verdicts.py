"""One verdict per run, whichever path produced the record.

A Byzantine site does not follow its protocol, so its own "decision" must
not count toward any verdict (``docs/failure-models.md``).  These tests run
an n = 3 partition grid with a Byzantine site at every position and in both
modes, and check that the engine path -- the executed summaries and the
same summaries decoded again from the result cache -- reads exactly the
verdicts :func:`~repro.protocols.runner.run_scenario` reads in process.
"""

import pytest

from repro.cli import main
from repro.core.reachability import simple_splits
from repro.engine import SweepEngine, SweepTask
from repro.engine.engine import execute_task
from repro.protocols.registry import available_protocols, create_protocol
from repro.protocols.runner import RunSummary, ScenarioSpec, run_scenario
from repro.sim.failures import ByzantineSpec, FaultPlan
from repro.sim.partition import PartitionSchedule

PARTITIONS = (None,) + tuple(
    PartitionSchedule.simple(at, g1, g2)
    for at in (1.5, 2.5, 3.5)
    for g1, g2 in simple_splits(3)
)


@pytest.fixture(scope="module")
def byzantine_tasks():
    return [
        SweepTask(
            protocol=protocol,
            spec=ScenarioSpec(
                n_sites=3,
                partition=partition,
                seed=seed,
                faults=FaultPlan(byzantine=(ByzantineSpec(site, mode),), seed=seed),
            ),
        )
        for protocol in available_protocols()
        for site in (1, 2, 3)
        for mode in ("equivocate", "arbitrary")
        for partition in PARTITIONS
        for seed in (0, 1)
    ]


def _verdict(run):
    return run.atomicity_violated, run.blocked


def test_engine_and_cache_read_the_in_process_verdicts(byzantine_tasks, tmp_path):
    direct = [
        _verdict(run_scenario(create_protocol(task.protocol), task.spec, collect_trace=False))
        for task in byzantine_tasks
    ]
    cold = SweepEngine(workers=1, cache=tmp_path).run(byzantine_tasks)
    warm = SweepEngine(workers=1, cache=tmp_path).run(byzantine_tasks)
    assert (cold.executed, warm.cache_hits) == (len(byzantine_tasks),) * 2
    assert [_verdict(s) for s in cold.summaries] == direct
    assert [_verdict(s) for s in warm.summaries] == direct
    # The grid is not vacuous: the honest-site rule decides real verdicts.
    assert set(direct) >= {(True, False), (False, True), (False, False)}


def test_summaries_leave_the_byzantine_site_out(byzantine_tasks):
    for task in byzantine_tasks[:: len(PARTITIONS) * 2]:
        liar = task.spec.faults.byzantine[0].site
        summary = SweepEngine(workers=1).run([task]).summaries[0]
        honest = tuple(s for s in (1, 2, 3) if s != liar)
        for per_site in (
            summary.decisions,
            summary.decision_times,
            summary.votes,
            summary.states,
            summary.locks_held_at_end,
        ):
            assert tuple(per_site) == honest


def test_executor_ships_only_the_summary_part(byzantine_tasks):
    task = byzantine_tasks[0]
    shipped = execute_task(task.protocol, task.spec, spec_hash="h")
    # A plain RunSummary: no trace, transaction or database site rides along.
    assert type(shipped) is RunSummary
    result = run_scenario(create_protocol(task.protocol), task.spec, collect_trace=False)
    assert isinstance(result, RunSummary)
    assert shipped == result.as_summary(spec_hash="h")


def test_cli_counts_honest_violations_only(capsys):
    argv = [
        "sweep",
        "--protocol",
        "naive-extended-three-phase-commit",
        "--faults",
        "byzantine=2:arbitrary,seed=0",
    ]
    assert main(argv) == 0
    row = next(
        line
        for line in capsys.readouterr().out.splitlines()
        if line.startswith("naive-extended-three-phase-commit")
    )
    cells = [cell.strip() for cell in row.split("|")]
    assert cells[1:3] == ["96", "8"]
