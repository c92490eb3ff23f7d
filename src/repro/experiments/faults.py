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
report's details carry the checker verdicts and the directional agreement
check against the simulator rows: every simulator-observed guarantee loss
must be predicted by the checker, and no retransmit row may contradict the
checker's all-hold verdict.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional, Sequence

from repro.analysis.atomicity import AtomicityReport, summarize_runs
from repro.engine import SweepEngine, SweepTask
from repro.experiments.harness import ExperimentReport
from repro.protocols.registry import available_protocols
from repro.protocols.runner import ScenarioSpec
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


def _checker_verdicts(n_sites: int) -> dict[tuple[str, str], frozenset[str]]:
    """Exhaustive-checker verdicts per (checkable protocol, loss envelope).

    Maps to the set of *violated* invariant names; empty set = all hold.
    """
    from repro.core.reachability import LOSSY, LOSSY_RETRANSMIT
    from repro.modelcheck.checker import INVARIANTS, check_model
    from repro.modelcheck.protocols import checkable_protocols
    from repro.modelcheck.spec import ModelCheckSpec

    verdicts: dict[tuple[str, str], frozenset[str]] = {}
    for protocol in checkable_protocols():
        for fault in (LOSSY, LOSSY_RETRANSMIT):
            summary = check_model(
                protocol, ModelCheckSpec(n_sites=n_sites, fault=fault)
            ).to_summary(spec_hash="faults-experiment")
            verdicts[(protocol, fault)] = frozenset(
                name for name in INVARIANTS if not summary.invariant_holds(name)
            )
    return verdicts


def _checker_disagreements(
    survival: dict[tuple[str, str, bool], AtomicityReport],
    checker: dict[tuple[str, str], frozenset[str]],
) -> list[str]:
    """Directional agreement of the simulator's loss rows with the checker.

    The checker over-approximates the simulator (it explores *every*
    schedule, the simulator samples a few), so agreement is directional:
    a violation the simulator *observed* must be *predicted* by the
    checker, and under the lossy-retransmit envelope -- where the checker
    proves every invariant -- the simulator must observe nothing.
    """
    from repro.core.reachability import LOSSY, LOSSY_RETRANSMIT
    from repro.modelcheck.checker import BLOCKING_INVARIANT, SAFETY_INVARIANTS

    disagreements: list[str] = []
    checked = {protocol for protocol, _ in checker}
    for protocol in sorted(checked):
        raw = survival[(protocol, "loss", False)]
        violated = checker[(protocol, LOSSY)]
        if raw.atomicity_violations and not (violated & set(SAFETY_INVARIANTS)):
            disagreements.append(
                f"{protocol}: simulator saw atomicity violations under loss "
                f"but the checker proves every safety invariant"
            )
        if raw.blocked_runs and BLOCKING_INVARIANT not in violated:
            disagreements.append(
                f"{protocol}: simulator saw blocking under loss but the "
                f"checker proves {BLOCKING_INVARIANT}"
            )
        rtx = survival[(protocol, "loss", True)]
        if checker[(protocol, LOSSY_RETRANSMIT)]:
            disagreements.append(
                f"{protocol}: the lossy-retransmit envelope must prove every "
                f"invariant (its graph is failure-free by construction)"
            )
        elif not rtx.resilient:
            disagreements.append(
                f"{protocol}: checker proves loss+retransmit safe but the "
                f"simulator still saw {_verdict(rtx)}"
            )
    return disagreements


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

    checker = _checker_verdicts(n_sites)
    disagreements = _checker_disagreements(survival, checker)

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
        "checker_verdicts": checker,
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
