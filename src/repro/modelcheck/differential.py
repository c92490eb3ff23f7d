"""Differential cross-validation: exhaustive checker vs. event-driven simulator.

A protocol's steps are written once, as its local-step relation
(:mod:`repro.core.relation`), and compiled once into the moves two drivers
read: the timed, event-driven simulator
(:class:`~repro.protocols.fsa_role.FSARole` on :mod:`repro.sim`), which
takes the first enabled move under the kernel clock, and the untimed
exhaustive explorer (:mod:`repro.core.reachability` +
:mod:`repro.modelcheck.checker`), which branches over every move.  Their
protocol edges therefore agree by construction.  This module runs both on
the *same* configuration and asserts that their verdicts agree, which
tests what the shared moves cannot: the two drivers themselves (inbox
bookkeeping, routing, bounces, crash and partition handling) and the
timing assumptions the untimed explorer encodes (timeouts as last-resort
edges, deliveries before timers).

The agreement relation is directional, because the two quantify
differently: one simulator run samples a single timed schedule, while the
checker quantifies over *every* interleaving (including timings no
bounded-latency schedule realizes, e.g. a timeout firing while a live,
connected peer was still going to answer).  The checker is therefore a
sound over-approximation of the simulator.  :func:`judge_run` is the one
rule that says so, for one simulator run against one checker record:

* simulator atomicity violation  =>  the checker violates a safety
  invariant;
* a *surviving* (non-crashed) site left undecided  =>  the checker's
  ``no-blocking`` is violated;
* failure-free with scripted votes, the graph is schedule-deterministic:
  the verdicts (and the commit/abort outcome) must match exactly.

DIFF (:func:`cross_validate`) and FAULTS
(:func:`~repro.experiments.faults.run_fault_survival`, each loss-row run
against the ``lossy`` or ``lossy-retransmit`` envelope) both judge every
run with it.  A disagreement is reported with the checker's minimal
counterexample trace next to the simulator run's decision vector, so the
divergence is immediately debuggable from the test output.

Simulator runs use the default **constant** latency (1.0 = ``T``): a
stochastic latency model could fire timers in fault-free runs and produce
verdicts driven by the latency draw rather than the configuration, which
is exactly the noise a differential test must exclude.  Seeds therefore
only drive *configuration sampling*, never the compared runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from repro.modelcheck.checker import check_model
from repro.modelcheck.protocols import checkable_protocols
from repro.modelcheck.spec import ModelCheckSpec
from repro.modelcheck.summary import ModelCheckSummary
from repro.core.reachability import FAILURE_FREE, PARTITION, SINGLE_CRASH, simple_splits
from repro.protocols.registry import create_protocol
from repro.protocols.runner import RunSummary, ScenarioSpec, run_scenario
from repro.sim.failures import CrashSchedule
from repro.sim.partition import PartitionSchedule

#: Fault-onset times (in units of ``T``) at which the simulator samples the
#: envelope.  A sub-``T`` grid from before the first message to after the
#: slowest protocol quiesces, so every protocol phase gets hit.
DEFAULT_ONSETS = (0.5, 1.5, 2.5, 3.5, 4.5, 5.5)


@dataclass(frozen=True)
class DifferentialConfig:
    """One configuration both drivers run: the checker once, the sim per onset."""

    protocol: str
    n_sites: int = 3
    fault: str = FAILURE_FREE
    no_voters: frozenset[int] = frozenset()

    def modelcheck_spec(self, **overrides) -> ModelCheckSpec:
        """The checker side of the configuration."""
        spec = ModelCheckSpec(
            n_sites=self.n_sites,
            fault=self.fault,
            no_voters=self.no_voters if self.no_voters else None,
        )
        return replace(spec, **overrides) if overrides else spec

    def scenario_specs(
        self, onsets: tuple[float, ...] = DEFAULT_ONSETS
    ) -> list[ScenarioSpec]:
        """The simulator side: one spec per fault placement and onset time."""
        base = ScenarioSpec(n_sites=self.n_sites, no_voters=self.no_voters)
        if self.fault == FAILURE_FREE:
            return [base]
        specs: list[ScenarioSpec] = []
        if self.fault == SINGLE_CRASH:
            for site in range(1, self.n_sites + 1):
                for at in onsets:
                    specs.append(
                        replace(base, crashes=CrashSchedule.single(site, at))
                    )
        elif self.fault == PARTITION:
            for g1, g2 in simple_splits(self.n_sites):
                for at in onsets:
                    specs.append(
                        replace(
                            base,
                            partition=PartitionSchedule.simple(at, g1, g2),
                        )
                    )
        else:
            raise ValueError(f"unknown fault envelope {self.fault!r}")
        return specs


@dataclass
class Disagreement:
    """One verdict divergence, with both sides' evidence attached."""

    config: DifferentialConfig
    scenario: ScenarioSpec
    sim_verdict: str
    checker_verdict: str
    reason: str
    detail: str = ""

    def format(self) -> str:
        """Multi-line report: config, both verdicts, both traces."""
        lines = [
            f"DISAGREEMENT: {self.reason}",
            f"  config:   {self.config.protocol} n={self.config.n_sites} "
            f"fault={self.config.fault} no_voters={sorted(self.config.no_voters)}",
            f"  scenario: crashes={self.scenario.crashes} "
            f"partition={self.scenario.partition}",
            f"  simulator verdict: {self.sim_verdict}",
            f"  checker verdict:   {self.checker_verdict}",
        ]
        if self.detail:
            lines.append(self.detail)
        return "\n".join(lines)


@dataclass
class DifferentialReport:
    """The outcome of cross-validating one configuration."""

    config: DifferentialConfig
    checker: ModelCheckSummary
    sim_runs: int = 0
    sim_verdicts: dict[str, int] = field(default_factory=dict)
    disagreements: list[Disagreement] = field(default_factory=list)

    @property
    def agreed(self) -> bool:
        """True when no simulator run contradicted the checker."""
        return not self.disagreements

    def format_failures(self) -> str:
        """Every disagreement, rendered for a test failure message."""
        return "\n\n".join(d.format() for d in self.disagreements)


def judge_run(
    scenario: ScenarioSpec, run: RunSummary, checker: ModelCheckSummary
) -> list[str]:
    """Every way one simulator run contradicts one checker record.

    The one simulator-vs-checker agreement rule (module docstring): ``run``
    is what the simulator produced from ``scenario``, whose crash schedules
    say which undecided sites did not survive and whose scripted votes
    force the failure-free outcome.  The failure-free clause applies when
    ``checker`` explored the failure-free envelope.

    Returns:
        One reason per violated clause; ``[]`` when they agree.
    """
    reasons: list[str] = []
    if run.atomicity_violated and not checker.atomicity_violated:
        reasons.append(
            "simulator violated atomicity but the checker proved every "
            "safety invariant"
        )
    crashed = {event.site for event in scenario.crashes or ()}
    if scenario.faults is not None:
        crashed.update(event.site for event in scenario.faults.crashes)
    surviving_undecided = [s for s in run.undecided_sites if s not in crashed]
    if surviving_undecided and not checker.blocked:
        reasons.append(
            f"simulator left surviving sites {surviving_undecided} undecided "
            f"but the checker proved no-blocking"
        )
    if checker.fault != FAILURE_FREE:
        return reasons
    expected_commit = not scenario.no_voters
    if run.verdict != checker.verdict:
        reasons.append("failure-free verdicts must match exactly")
    elif run.all_committed != expected_commit:
        reasons.append(
            f"failure-free outcome should be "
            f"{'commit' if expected_commit else 'abort'} "
            f"under no_voters={sorted(scenario.no_voters)}"
        )
    return reasons


def _evidence(run: RunSummary, checker: ModelCheckSummary) -> str:
    """The run's decision vector and the checker's counterexample traces."""
    lines = [
        f"  sim decisions: {run.decisions} votes={run.votes} "
        f"states={run.states} finished_at={run.finished_at}"
    ]
    for name in sorted(checker.counterexamples):
        lines.append(f"  checker counterexample [{name}]:")
        lines.append(checker.format_counterexample(name))
    if not checker.counterexamples:
        lines.append("  (checker found no counterexample)")
    return "\n".join(lines)


def cross_validate(
    config: DifferentialConfig,
    *,
    onsets: tuple[float, ...] = DEFAULT_ONSETS,
    checker: Optional[ModelCheckSummary] = None,
) -> DifferentialReport:
    """Run both drivers on ``config`` and judge every simulator run.

    Args:
        config: the shared configuration.
        onsets: fault-onset times for the simulator's placements.
        checker: a precomputed checker record for this configuration
            (the checker is deterministic, so differential sweeps memoize
            it across the many sim placements of one configuration).

    Returns:
        A :class:`DifferentialReport`; ``report.agreed`` is the assertion
        target and ``report.format_failures()`` the failure message.
    """
    if checker is None:
        checker = check_model(config.protocol, config.modelcheck_spec())
    report = DifferentialReport(config=config, checker=checker)

    protocol = create_protocol(config.protocol)
    for scenario in config.scenario_specs(onsets):
        run = run_scenario(protocol, scenario)
        report.sim_runs += 1
        report.sim_verdicts[run.verdict] = report.sim_verdicts.get(run.verdict, 0) + 1
        for reason in judge_run(scenario, run, checker):
            report.disagreements.append(
                Disagreement(
                    config,
                    scenario,
                    run.verdict,
                    checker.verdict,
                    reason,
                    _evidence(run, checker),
                )
            )
    return report


def sample_configs(count: int, seed: int = 0) -> list[DifferentialConfig]:
    """Deterministically sample ``count`` differential configurations.

    Covers every checkable protocol, n in {2, 3}, every fault envelope and
    random scripted-vote patterns (including the all-yes pattern).  The
    ``random.Random(seed)`` stream makes the matrix reproducible while
    still exercising far more vote patterns than a hand-written list.
    """
    import random

    rng = random.Random(seed)
    protocols = checkable_protocols()
    envelopes = (FAILURE_FREE, SINGLE_CRASH, PARTITION)
    configs: list[DifferentialConfig] = []
    for _ in range(count):
        n_sites = rng.choice((2, 3))
        slaves = list(range(2, n_sites + 1))
        pattern = frozenset(s for s in slaves if rng.random() < 0.3)
        configs.append(
            DifferentialConfig(
                protocol=rng.choice(protocols),
                n_sites=n_sites,
                fault=rng.choice(envelopes),
                no_voters=pattern,
            )
        )
    return configs
