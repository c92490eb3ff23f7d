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
sound over-approximation of the simulator:

* simulator atomicity violation  =>  checker ``violated``;
* simulator blocking among *surviving* (non-crashed) sites  =>  checker
  ``blocked`` or ``violated``;
* checker ``consistent``  =>  every matching simulator run is consistent;
* failure-free with scripted votes, the graph is schedule-deterministic:
  the verdicts (and the commit/abort outcome) must match exactly.

A disagreement is reported with the checker's minimal counterexample trace
next to the simulator run's decision vector, so the divergence is
immediately debuggable from the test output.

Simulator runs use the default **constant** latency (1.0 = ``T``): a
stochastic latency model could fire timers in fault-free runs and produce
verdicts driven by the latency draw rather than the configuration, which
is exactly the noise a differential test must exclude.  Seeds therefore
only drive *configuration sampling*, never the compared runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from repro.modelcheck.checker import ModelCheckResult, check_model, format_trace
from repro.modelcheck.protocols import checkable_protocols
from repro.modelcheck.spec import ModelCheckSpec
from repro.core.reachability import FAILURE_FREE, PARTITION, SINGLE_CRASH, simple_splits
from repro.protocols.registry import create_protocol
from repro.protocols.runner import ScenarioSpec, run_scenario
from repro.sim.failures import CrashSchedule
from repro.sim.partition import PartitionSchedule

#: Fault-onset times (in units of ``T``) at which the simulator samples the
#: envelope.  A sub-``T`` grid from before the first message to after the
#: slowest protocol quiesces, so every protocol phase gets hit.
DEFAULT_ONSETS = (0.5, 1.5, 2.5, 3.5, 4.5, 5.5)


@dataclass(frozen=True)
class DifferentialConfig:
    """One configuration both semantics run: the checker once, the sim per onset."""

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
    checker: ModelCheckResult
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


def _checker_evidence(result: ModelCheckResult) -> str:
    """The checker's counterexample traces, rendered for a report."""
    parts = []
    for name, verdict in result.verdicts.items():
        if not verdict.holds:
            parts.append(
                f"  checker counterexample [{name}] ({verdict.detail}):\n"
                f"{format_trace(verdict.trace)}"
            )
    return "\n".join(parts) if parts else "  (checker found no counterexample)"


def _sim_evidence(summary) -> str:
    """The simulator run's decision vector, rendered for a report."""
    return (
        f"  sim decisions: {summary.decisions} votes={summary.votes} "
        f"states={summary.states} finished_at={summary.finished_at}"
    )


def cross_validate(
    config: DifferentialConfig,
    *,
    onsets: tuple[float, ...] = DEFAULT_ONSETS,
    checker: Optional[ModelCheckResult] = None,
) -> DifferentialReport:
    """Run both semantics on ``config`` and collect any disagreements.

    Args:
        config: the shared configuration.
        onsets: fault-onset times for the simulator's placements.
        checker: a precomputed checker result for this configuration
            (the checker is deterministic, so differential sweeps memoize
            it across the many sim placements of one configuration).

    Returns:
        A :class:`DifferentialReport`; ``report.agreed`` is the assertion
        target and ``report.format_failures()`` the failure message.
    """
    if checker is None:
        checker = check_model(config.protocol, config.modelcheck_spec())
    summary = checker.to_summary(spec_hash="differential")
    report = DifferentialReport(config=config, checker=checker)

    protocol = create_protocol(config.protocol)
    for scenario in config.scenario_specs(onsets):
        result = run_scenario(protocol, scenario)
        crashed = scenario.crashes.sites() if scenario.crashes else set()
        surviving_undecided = [
            site for site in result.undecided_sites if site not in crashed
        ]
        sim_verdict = result.verdict
        report.sim_runs += 1
        report.sim_verdicts[sim_verdict] = report.sim_verdicts.get(sim_verdict, 0) + 1
        evidence = _sim_evidence(result)

        def disagree(reason: str, detail: str) -> None:
            report.disagreements.append(
                Disagreement(config, scenario, sim_verdict, summary.verdict, reason, detail)
            )

        if result.atomicity_violated and not summary.atomicity_violated:
            disagree(
                "simulator violated atomicity but the checker proved every interleaving safe",
                evidence + "\n" + _checker_evidence(checker),
            )
        if surviving_undecided and summary.verdict == "consistent":
            disagree(
                f"simulator left surviving sites {surviving_undecided} undecided but the "
                f"checker proved every interleaving non-blocking",
                evidence + "\n" + _checker_evidence(checker),
            )
        if config.fault != FAILURE_FREE:
            continue
        # Schedule-deterministic case: verdicts must match exactly, and the
        # outcome is forced by the scripted votes.
        expected_commit = not config.no_voters
        if sim_verdict != summary.verdict:
            disagree(
                "failure-free verdicts must match exactly",
                evidence + "\n" + _checker_evidence(checker),
            )
        elif result.all_committed != expected_commit:
            disagree(
                f"failure-free outcome should be {'commit' if expected_commit else 'abort'} "
                f"under no_voters={sorted(config.no_voters)}",
                evidence,
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
