"""MODELCHECK / DIFF -- exhaustive verification and differential validation.

``run_modelcheck_verification`` is the machine-checked restatement of the
paper's correctness results: the explorer enumerates *every* reachable
global state of each checkable protocol under each fault envelope and
checks the Section 2 invariants, instead of sampling timed schedules.  The
blocking of 2PC/3PC under a coordinator crash, and both Section 3
counterexamples (extended 2PC and the naive Rule a/b 3PC extension beyond
two sites), fall out as invariant verdicts with minimal traces.

``run_differential_validation`` runs the checker and the event-driven
simulator on the same sampled configurations and judges every simulator
run against the checker's record by the one directional agreement rule
(:func:`repro.modelcheck.differential.judge_run`).  Both are drivers of
one compiled move table per protocol, so what this tests is the drivers
themselves and the timing assumptions of the untimed explorer, not two
independent encodings of the protocols.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.reachability import FAULT_ENVELOPES
from repro.engine import SweepEngine, SweepTask
from repro.experiments.harness import ExperimentReport
from repro.modelcheck.checker import check_model
from repro.modelcheck.differential import cross_validate, sample_configs
from repro.modelcheck.protocols import checkable_protocols
from repro.modelcheck.sink import ModelCheckSink
from repro.modelcheck.spec import ModelCheckSpec

#: Envelope order of the verification grid (benign first).
DEFAULT_FAULTS: tuple[str, ...] = FAULT_ENVELOPES

#: The two invariants the paper's Theorem 1 / Section 2 arguments turn on.
HEADLINE_INVARIANTS = ("same-decision", "no-commit-after-abort")


def modelcheck_tasks(
    protocols: Sequence[str],
    *,
    n_sites: int = 3,
    faults: Sequence[str] = DEFAULT_FAULTS,
    no_voter_options: Sequence[frozenset[int]] = (frozenset(),),
    max_states: int = 200_000,
    max_depth: Optional[int] = None,
) -> list[SweepTask]:
    """The model-checking grid: protocol x fault envelope x vote pattern.

    Shared by ``repro modelcheck``, ``repro shard --kind modelcheck`` and
    the MODELCHECK experiment, so sharded runs cover exactly the grid a
    single-machine run would (the merge-identity contract).
    """
    tasks: list[SweepTask] = []
    for protocol in protocols:
        for fault in faults:
            for no_voters in no_voter_options:
                spec = ModelCheckSpec(
                    n_sites=n_sites,
                    fault=fault,
                    no_voters=frozenset(no_voters) or None,
                    max_states=max_states,
                    max_depth=max_depth,
                )
                tasks.append(SweepTask(protocol=protocol, spec=spec))
    return tasks


def run_modelcheck_verification(n_sites: int = 3) -> ExperimentReport:
    """Exhaustively model-check every checkable protocol, every envelope."""
    report = ExperimentReport(
        experiment="MODELCHECK",
        title=(
            f"exhaustive model checking at n={n_sites} "
            "(all interleavings, machine-checked invariants)"
        ),
    )
    tasks = modelcheck_tasks(checkable_protocols(), n_sites=n_sites)
    summaries = SweepEngine().run(tasks).summaries

    sink = ModelCheckSink()
    for index, summary in enumerate(summaries):
        sink.accept(index, summary)
    report.table = sink.rows()

    by_protocol: dict[str, list] = {}
    for summary in summaries:
        by_protocol.setdefault(summary.protocol, []).append(summary)
    verified = sorted(
        protocol
        for protocol, group in by_protocol.items()
        if all(
            s.invariant_holds(name)
            for s in group
            for name in HEADLINE_INVARIANTS
        )
    )
    violated = sorted(set(by_protocol) - set(verified))
    states = sum(s.states_explored for s in summaries)
    report.details = {
        "summaries": summaries,
        "verified_protocols": verified,
        "violated_protocols": violated,
        "states_explored": states,
    }
    report.headline = (
        f"Explored {states} global states: "
        f"{', '.join(verified)} satisfy {' and '.join(HEADLINE_INVARIANTS)} "
        f"under every fault envelope, while the Section 3 extensions "
        f"({', '.join(violated)}) are refuted by minimal counterexample "
        f"traces."
    )
    return report


def run_differential_validation(
    count: int = 60, seed: int = 0
) -> ExperimentReport:
    """Cross-validate the checker against the simulator on sampled configs."""
    report = ExperimentReport(
        experiment="DIFF",
        title=(
            f"differential validation: checker vs simulator on {count} "
            f"sampled configurations (seed {seed})"
        ),
    )
    checkers: dict = {}
    rows: dict[tuple[str, str], dict] = {}
    sim_runs = 0
    failures: list[str] = []
    for config in sample_configs(count, seed=seed):
        key = (config.protocol, config.n_sites, config.fault, config.no_voters)
        if key not in checkers:
            checkers[key] = check_model(config.protocol, config.modelcheck_spec())
        result = cross_validate(config, checker=checkers[key])
        sim_runs += result.sim_runs
        row = rows.setdefault(
            (config.protocol, config.fault),
            {
                "protocol": config.protocol,
                "fault": config.fault,
                "configs": 0,
                "sim runs": 0,
                "checker verdicts": set(),
                "disagreements": 0,
            },
        )
        row["configs"] += 1
        row["sim runs"] += result.sim_runs
        row["checker verdicts"].add(checkers[key].verdict)
        row["disagreements"] += len(result.disagreements)
        if not result.agreed:
            failures.append(result.format_failures())

    report.table = [rows[key] for key in sorted(rows)]
    for row in report.table:
        row["checker verdicts"] = "/".join(sorted(row["checker verdicts"]))
    disagreements = sum(row["disagreements"] for row in report.table)
    report.details = {
        "configs": count,
        "unique_configs": len(checkers),
        "sim_runs": sim_runs,
        "disagreements": disagreements,
        "failures": failures,
    }
    report.headline = (
        f"{count} configurations ({len(checkers)} unique) -> {sim_runs} "
        f"simulator runs cross-checked against exhaustive exploration: "
        f"{disagreements} disagreement(s)."
    )
    return report
