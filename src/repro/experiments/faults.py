"""FAULTS -- which protocol classes survive which fault classes.

Every guarantee in the paper rests on assumption 1 (Section 5.1): a message
between two connected, live sites is always delivered.  This experiment
drops that assumption one fault class at a time -- message loss,
duplication, bounded reordering, send-omission, and a Byzantine
(equivocating) participant -- and sweeps every registry protocol through
seeded single-transaction scenarios under each class, twice: once on the
raw faulty network and once with the at-least-once retransmission layer
(:class:`~repro.sim.failures.RetransmitPolicy`) switched on.  The
Byzantine row puts the misbehaviour where it bites: the *master*
equivocates its decision broadcast, telling different slaves different
things.

The table is the survival matrix.  Under raw loss the blocking protocols
(2PC, 3PC, quorum) lose *termination* -- a dropped vote or decision leaves
sites waiting forever -- while the timeout-driven variants decide
unilaterally and lose *atomicity* on the schedules where the drop splits
them.  With retransmission every delivery-fault row recovers: the layer
restores assumption 1, so the paper's guarantees return.  Duplication is
absorbed by the FSAs (a repeated command re-triggers the transition it
already took), reordering only stretches decision latency, and the
Byzantine row does NOT recover -- retransmission repairs *delivery*, not
*honesty*, which is exactly the boundary of assumption 1.

The exhaustive checker proves the same story at ``n = 3``:
:data:`~repro.core.reachability.LOSSY` explores one adversarial silent
loss at every reachable point, and
:data:`~repro.core.reachability.LOSSY_RETRANSMIT` contributes no loss
edges at all (its graph is the failure-free one by construction -- the
model-level statement that retransmission restores assumption 1).  The
report's details carry the checker verdicts and every loss-row run judged
against them by the one simulator-vs-checker agreement rule
(:func:`~repro.modelcheck.differential.judge_run`, which DIFF uses too):
raw loss runs against ``lossy``, retransmit runs against
``lossy-retransmit``.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional, Sequence

from repro.analysis.atomicity import AtomicityReport, summarize_runs
from repro.engine import SweepEngine, SweepTask
from repro.experiments.harness import ExperimentReport
from repro.protocols.registry import available_protocols
from repro.protocols.runner import RunSummary, ScenarioSpec
from repro.sim.failures import (
    SEND_OMISSION,
    ByzantineSpec,
    FaultPlan,
    LinkFault,
    OmissionFault,
    RetransmitPolicy,
)

#: Per-message loss probability of the loss row.  High enough that every
#: seed's run is hit several times, low enough that the retransmission
#: layer's residual failure probability (``p ** (attempts + 1)``) stays
#: negligible across the whole grid.
LOSS_PROBABILITY = 0.35

#: Seeds per (protocol, fault class, retransmission) cell; each seed draws
#: an independent fault realization (the plan seed feeds the fault RNG).
DEFAULT_SEEDS: tuple[int, ...] = tuple(range(8))


def fault_class_plans(seed: int = 0) -> tuple[tuple[str, FaultPlan], ...]:
    """The swept fault classes as ``(label, plan)`` pairs, raw (no retransmit).

    One representative plan per class, all seeded by ``seed`` so every
    scenario seed draws an independent realization: uniform loss,
    duplication and bounded reordering on every link, a send-omitting slave
    and an equivocating slave.
    """
    return (
        ("loss", FaultPlan(links=(LinkFault(loss=LOSS_PROBABILITY),), seed=seed)),
        ("duplicate", FaultPlan(links=(LinkFault(duplicate=0.5),), seed=seed)),
        (
            "reorder",
            FaultPlan(
                links=(LinkFault(reorder=0.5, reorder_window=1.5),), seed=seed
            ),
        ),
        (
            "send-omission",
            FaultPlan(
                omissions=(
                    OmissionFault(site=3, kind=SEND_OMISSION, probability=0.5),
                ),
                seed=seed,
            ),
        ),
        # The master equivocates: it is the decision broadcaster, so telling
        # different slaves different things is the classic atomicity attack
        # (an equivocating slave cannot split the honest sites at n=3).
        ("byzantine", FaultPlan(byzantine=(ByzantineSpec(site=1),), seed=seed)),
    )


def fault_survival_tasks(
    protocols: Sequence[str],
    *,
    n_sites: int = 3,
    seeds: Sequence[int] = DEFAULT_SEEDS,
) -> tuple[list[SweepTask], list[tuple[str, str, bool, int, int]]]:
    """The FAULTS grid with its ``(protocol, fault, retransmit)`` spans.

    Enumeration is protocol > fault class > retransmit-off/on > seed
    (outermost to innermost), so results, spans and cache keys are stable.
    Returns ``(tasks, spans)`` where each span is
    ``(protocol, fault_label, retransmit, start, end)`` into the task list.
    """
    tasks: list[SweepTask] = []
    spans: list[tuple[str, str, bool, int, int]] = []
    for protocol in protocols:
        for index, (label, _) in enumerate(fault_class_plans()):
            for retransmit in (False, True):
                start = len(tasks)
                for seed in seeds:
                    plan = fault_class_plans(seed)[index][1]
                    if retransmit:
                        plan = replace(plan, retransmit=RetransmitPolicy())
                    tasks.append(
                        SweepTask(
                            protocol=protocol,
                            spec=ScenarioSpec(
                                n_sites=n_sites, seed=seed, faults=plan
                            ),
                        )
                    )
                spans.append((protocol, label, retransmit, start, len(tasks)))
    return tasks, spans


def _verdict(report: AtomicityReport) -> str:
    """One cell of the survival matrix: what broke, if anything."""
    problems = []
    if report.atomicity_violations:
        problems.append(
            f"violates atomicity ({report.atomicity_violations}/{report.total_runs})"
        )
    if report.blocked_runs:
        problems.append(f"blocks ({report.blocked_runs}/{report.total_runs})")
    return " + ".join(problems) if problems else "survives"


def _judge_loss_rows(
    n_sites: int,
    tasks: Sequence[SweepTask],
    summaries: Sequence[RunSummary],
    spans: Sequence[tuple[str, str, bool, int, int]],
) -> tuple[dict[tuple[str, str], frozenset[str]], list[str]]:
    """The loss rows judged against the exhaustive checker at ``n_sites``.

    Each checkable protocol's raw loss runs are judged against the
    ``lossy`` envelope and its retransmit runs against ``lossy-retransmit``,
    one run at a time, by the one agreement rule
    (:func:`~repro.modelcheck.differential.judge_run`).  Returns the
    *violated* invariant names per (protocol, envelope) -- an empty set
    means all hold -- and one line per disagreeing run.
    """
    from repro.core.reachability import LOSSY, LOSSY_RETRANSMIT
    from repro.modelcheck.checker import check_model
    from repro.modelcheck.differential import judge_run
    from repro.modelcheck.protocols import checkable_protocols
    from repro.modelcheck.spec import ModelCheckSpec

    checkers = {
        (protocol, fault): check_model(
            protocol, ModelCheckSpec(n_sites=n_sites, fault=fault)
        )
        for protocol in checkable_protocols()
        for fault in (LOSSY, LOSSY_RETRANSMIT)
    }
    disagreements: list[str] = []
    for protocol, label, retransmit, start, end in spans:
        fault = LOSSY_RETRANSMIT if retransmit else LOSSY
        checker = checkers.get((protocol, fault))
        if label != "loss" or checker is None:
            continue
        for task, run in zip(tasks[start:end], summaries[start:end]):
            disagreements.extend(
                f"{protocol} under {fault}, seed {task.spec.seed}: {reason}"
                for reason in judge_run(task.spec, run, checker)
            )
    verdicts = {
        key: frozenset(
            name for name, verdict in checker.invariants.items() if verdict != "holds"
        )
        for key, checker in checkers.items()
    }
    return verdicts, disagreements


def run_fault_survival(
    n_sites: int = 3,
    *,
    protocols: Optional[Sequence[str]] = None,
    seeds: Sequence[int] = DEFAULT_SEEDS,
) -> ExperimentReport:
    """FAULTS -- the fault-class survival matrix, cross-checked exhaustively.

    Sweeps every protocol through every fault class with and without the
    retransmission layer, summarizes each cell as a survival verdict, and
    cross-validates the loss rows against the exhaustive checker at the
    same site count.
    """
    protocol_names = list(protocols) if protocols is not None else list(
        available_protocols()
    )
    tasks, spans = fault_survival_tasks(
        protocol_names, n_sites=n_sites, seeds=seeds
    )
    summaries = SweepEngine().run(tasks).summaries

    survival: dict[tuple[str, str, bool], AtomicityReport] = {}
    for protocol, label, retransmit, start, end in spans:
        survival[(protocol, label, retransmit)] = summarize_runs(
            summaries[start:end], protocol=protocol
        )

    rows = []
    fault_labels = [label for label, _ in fault_class_plans()]
    for protocol in protocol_names:
        for label in fault_labels:
            rows.append(
                {
                    "protocol": protocol,
                    "fault": label,
                    "without retransmit": _verdict(survival[(protocol, label, False)]),
                    "with retransmit": _verdict(survival[(protocol, label, True)]),
                }
            )

    checker_verdicts, disagreements = _judge_loss_rows(
        n_sites, tasks, summaries, spans
    )

    lost_raw = sorted(
        p for p in protocol_names if not survival[(p, "loss", False)].resilient
    )
    recovered = sorted(
        p for p in lost_raw if survival[(p, "loss", True)].resilient
    )
    byzantine_broken = sorted(
        p
        for p in protocol_names
        if not survival[(p, "byzantine", False)].resilient
        and not survival[(p, "byzantine", True)].resilient
    )

    report = ExperimentReport(
        experiment="FAULTS",
        title=(
            f"fault-class survival matrix ({n_sites} sites, "
            f"{len(seeds)} seeds/cell, loss p={LOSS_PROBABILITY})"
        ),
        table=rows,
    )
    report.details = {
        "survival": survival,
        "checker_verdicts": checker_verdicts,
        "checker_disagreements": disagreements,
        "lost_under_raw_loss": lost_raw,
        "recovered_with_retransmit": recovered,
        "byzantine_broken_despite_retransmit": byzantine_broken,
    }
    report.headline = (
        f"Raw message loss costs {len(lost_raw)}/{len(protocol_names)} "
        f"protocols a guarantee (blocking protocols block, timeout-driven "
        f"variants violate atomicity); retransmission restores assumption 1 "
        f"and {len(recovered)}/{len(lost_raw)} of them recover, while the "
        f"equivocating master still breaks {len(byzantine_broken)}/"
        f"{len(protocol_names)} -- delivery, not honesty, is what the layer "
        f"repairs.  Exhaustive check at n={n_sites}: {len(disagreements)} "
        f"disagreement(s) with the simulator."
    )
    return report
