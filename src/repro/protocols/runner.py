"""Scenario runner: one transaction, one protocol, one failure scenario.

The runner wires a protocol's roles onto a simulated cluster with database
sites, installs the partition / crash schedules, runs the simulation to
quiescence (or a horizon for blocking protocols) and summarizes the outcome:
per-site decisions, decision times, votes, blocking, lock retention and
message counts.  Every experiment, benchmark and example in the repository
goes through :func:`run_scenario`.

The outcome is one record type.  :class:`RunSummary` holds the plain data
and defines every verdict; :class:`TransactionRunResult` is a
``RunSummary`` that also keeps the in-process artifacts (trace, database
sites), and the sweep engine ships only its ``RunSummary`` part.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from operator import itemgetter
from typing import Any, Mapping, Optional

from repro.core.canonical import canonical_json_bytes
from repro.core.termination import TerminationTimers
from repro.db.site import DatabaseSite
from repro.db.transactions import Transaction
from repro.protocols.base import ProtocolContext
from repro.protocols.fsa_role import FSARole
from repro.protocols.registry import Protocol
from repro.sim.cluster import Cluster
from repro.sim.failures import CrashSchedule, FaultPlan, normalize_fault_plan
from repro.sim.latency import ConstantLatency, LatencyModel
from repro.sim.network import OPTIMISTIC
from repro.sim.partition import PartitionSchedule
from repro.sim.trace import NullTrace, Trace

#: Shared default latency model (stateless, so one instance serves every
#: spec); building one per effective_latency() call showed up in sweeps.
_DEFAULT_LATENCY = ConstantLatency(1.0)


@dataclass
class ScenarioSpec:
    """Everything needed to run one transaction through one failure scenario.

    Attributes:
        n_sites: number of participating sites (site 1 is the master).
        partition: partition / heal schedule (default: none).
        crashes: site crash schedule (default: none).
        no_voters: sites scripted to vote "no".
        latency: network latency model; its upper bound is the paper's ``T``.
        model: ``"optimistic"`` (return undeliverable messages, the paper's
            assumption 1) or ``"pessimistic"`` (lose them).
        horizon: simulated-time limit.  Blocking protocols never quiesce under
            partitions, so every run is bounded; the default of ``40 T`` is
            far beyond every bound in the paper.
        seed: random seed (only relevant for stochastic latency models).
        initial_data: initial key/value contents installed at every site.
        write_key / write_value: the update the transaction installs.
        faults: unified fault plan (message loss / duplication / reordering,
            omission and Byzantine sites, retransmission).  Hash-optional:
            ``None`` (or ``FaultPlan.none()``, normalized to ``None``) keeps
            the spec hash byte-identical to the pre-FaultPlan format.
    """

    n_sites: int = 3
    partition: Optional[PartitionSchedule] = None
    crashes: Optional[CrashSchedule] = None
    no_voters: frozenset[int] = frozenset()
    latency: Optional[LatencyModel] = None
    model: str = OPTIMISTIC
    horizon: Optional[float] = None
    seed: int = 0
    initial_data: Optional[Mapping[str, Any]] = None
    write_key: str = "balance"
    write_value: Any = 100
    faults: Optional[FaultPlan] = field(
        default=None, metadata={"hash_optional": True}
    )

    def __post_init__(self) -> None:
        self.faults = normalize_fault_plan(self.faults)
        if self.faults is not None:
            self.faults.validate(self.n_sites)
        if self.crashes is not None:
            self.crashes.validate(self.n_sites)

    def effective_latency(self) -> LatencyModel:
        """The latency model, defaulting to a constant delay of 1 (= T)."""
        return self.latency or _DEFAULT_LATENCY

    def effective_max_delay(self) -> float:
        """The delivery bound the protocol timers are built from.

        Without retransmission this is the latency model's ``T``.  With the
        at-least-once layer enabled, a message may only land after several
        retransmit rounds, so the timers (and the paper's timeout structure
        with them) stretch to the plan's effective bound -- that stretching
        is precisely how the layer restores assumption 1.
        """
        max_delay = self.effective_latency().upper_bound
        if self.faults is not None and self.faults.retransmit is not None:
            return self.faults.effective_max_delay(max_delay)
        return max_delay

    def effective_horizon(self) -> float:
        """The run horizon, defaulting to ``40 T`` (of the effective bound)."""
        if self.horizon is not None:
            return self.horizon
        return 40.0 * self.effective_max_delay()


@dataclass
class RunSummary:
    """The outcome of one scenario run, reduced to plain picklable data.

    This is the only type that defines the Section 2 verdicts
    (:attr:`atomicity_violated`, :attr:`blocked`, :attr:`consistent`,
    :attr:`verdict`, ...); every report, sink and experiment reads them from
    here, whether the record came straight from :func:`run_scenario`, from a
    worker, from the result cache or from a spill.

    The per-site maps range over *honest* participants only:
    :func:`run_scenario` leaves Byzantine sites out, because a site that does
    not follow its protocol has no meaningful "decision" -- it can neither
    violate atomicity nor count as blocked.  Fault-free runs have no
    Byzantine sites, so their maps cover every participant.
    """

    protocol: str
    spec_hash: str
    seed: int
    n_sites: int
    decisions: dict[int, Optional[str]] = field(default_factory=dict)
    decision_times: dict[int, Optional[float]] = field(default_factory=dict)
    votes: dict[int, Optional[str]] = field(default_factory=dict)
    states: dict[int, str] = field(default_factory=dict)
    conflicting_decisions: int = 0
    locks_held_at_end: dict[int, bool] = field(default_factory=dict)
    stores_agree: bool = True
    messages_sent: int = 0
    messages_delivered: int = 0
    messages_bounced: int = 0
    messages_dropped: int = 0
    finished_at: float = 0.0
    lock_hold_time: float = 0.0
    max_delay: float = 1.0
    metrics: dict[str, Any] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # verdicts
    # ------------------------------------------------------------------
    @property
    def participants(self) -> tuple[int, ...]:
        """The (honest) sites that took part in the run."""
        return tuple(sorted(self.decisions))

    @property
    def committed_sites(self) -> tuple[int, ...]:
        """Sites whose local decision was commit."""
        return tuple(s for s, d in sorted(self.decisions.items()) if d == "commit")

    @property
    def aborted_sites(self) -> tuple[int, ...]:
        """Sites whose local decision was abort."""
        return tuple(s for s, d in sorted(self.decisions.items()) if d == "abort")

    @property
    def undecided_sites(self) -> tuple[int, ...]:
        """Sites with no decision when the run ended (blocked sites)."""
        return tuple(s for s, d in sorted(self.decisions.items()) if d is None)

    @property
    def blocked_sites(self) -> tuple[int, ...]:
        """Alias for :attr:`undecided_sites` (the paper's notion of blocking)."""
        return self.undecided_sites

    @property
    def atomicity_violated(self) -> bool:
        """True when some site committed while another aborted."""
        outcomes = self.decisions.values()
        return "commit" in outcomes and "abort" in outcomes

    @property
    def blocked(self) -> bool:
        """True when at least one site never terminated the transaction."""
        return None in self.decisions.values()

    @property
    def all_committed(self) -> bool:
        """True when every participant committed."""
        return all(d == "commit" for d in self.decisions.values())

    @property
    def all_aborted(self) -> bool:
        """True when every participant aborted."""
        return all(d == "abort" for d in self.decisions.values())

    @property
    def consistent(self) -> bool:
        """Atomicity holds and nobody is blocked (Theorem 9's property)."""
        return self.verdict == "consistent"

    @property
    def verdict(self) -> str:
        """The run's verdict class: ``violated``, ``blocked`` or ``consistent``.

        Violation dominates blocking: a run that both mixed outcomes and left
        a site undecided is classed ``violated`` (the stronger failure).
        """
        if self.atomicity_violated:
            return "violated"
        if self.blocked:
            return "blocked"
        return "consistent"

    def decision_latency(self, site: int) -> Optional[float]:
        """Time from submission (t = 0) to the site's decision."""
        return self.decision_times.get(site)

    def max_decision_latency(self) -> Optional[float]:
        """Largest decision latency among decided sites (``None`` if nobody decided)."""
        times = [t for t in self.decision_times.values() if t is not None]
        return max(times) if times else None

    def summary(self) -> str:
        """One-line human-readable outcome."""
        verdict = self.verdict
        label = "ATOMICITY VIOLATED" if verdict == "violated" else verdict
        return (
            f"{self.protocol}: commit={list(self.committed_sites)} "
            f"abort={list(self.aborted_sites)} undecided={list(self.undecided_sites)} "
            f"[{label}]"
        )

    # ------------------------------------------------------------------
    # canonical JSON (for the on-disk cache, spills and log segments)
    # ------------------------------------------------------------------
    def to_json_dict(self) -> dict[str, Any]:
        """A JSON-ready dict; site-keyed mappings get string keys."""
        return {
            "protocol": self.protocol,
            "spec_hash": self.spec_hash,
            "seed": self.seed,
            "n_sites": self.n_sites,
            "decisions": {str(k): v for k, v in sorted(self.decisions.items())},
            "decision_times": {str(k): v for k, v in sorted(self.decision_times.items())},
            "votes": {str(k): v for k, v in sorted(self.votes.items())},
            "states": {str(k): v for k, v in sorted(self.states.items())},
            "conflicting_decisions": self.conflicting_decisions,
            "locks_held_at_end": {str(k): v for k, v in sorted(self.locks_held_at_end.items())},
            "stores_agree": self.stores_agree,
            "messages_sent": self.messages_sent,
            "messages_delivered": self.messages_delivered,
            "messages_bounced": self.messages_bounced,
            "messages_dropped": self.messages_dropped,
            "finished_at": self.finished_at,
            "lock_hold_time": self.lock_hold_time,
            "max_delay": self.max_delay,
            "metrics": self.metrics,
        }

    @classmethod
    def from_json_dict(cls, payload: Mapping[str, Any]) -> "RunSummary":
        """Rebuild a summary from :meth:`to_json_dict` output.

        One pass over a precomputed field table: every field is read in
        declaration order, then the site-keyed maps get their int keys back
        and ``metrics`` is copied so the summary never aliases ``payload``.
        """
        values = list(_JSON_FIELD_VALUES(payload))
        for index in _SITE_KEYED_INDICES:
            values[index] = {int(k): v for k, v in values[index].items()}
        values[_METRICS_INDEX] = dict(values[_METRICS_INDEX])
        return cls(*values)

    def to_json_bytes(self) -> bytes:
        """Canonical JSON bytes (shared contract: :mod:`repro.core.canonical`)."""
        return canonical_json_bytes(self.to_json_dict())

    @classmethod
    def from_json_bytes(cls, data: bytes) -> "RunSummary":
        """Inverse of :meth:`to_json_bytes`."""
        return cls.from_json_dict(json.loads(data.decode("utf-8")))


@dataclass(kw_only=True)
class TransactionRunResult(RunSummary):
    """A :class:`RunSummary` plus the in-process artifacts of the run.

    Only what a summary cannot carry across a process boundary is added:
    the spec, the transaction, the trace, the database sites and every
    site's stored value of the written key.  Verdicts are inherited.
    """

    spec: ScenarioSpec
    transaction: Transaction
    trace: Trace = field(default_factory=Trace)
    db_sites: dict[int, DatabaseSite] = field(default_factory=dict)
    values_at_end: dict[int, Any] = field(default_factory=dict)

    def as_summary(self, **changes: Any) -> RunSummary:
        """The plain :class:`RunSummary` part as a field copy, with ``changes``."""
        values = {name: getattr(self, name) for name in _SUMMARY_FIELDS}
        values.update(changes)
        return RunSummary(**values)


_SUMMARY_FIELDS = tuple(f.name for f in fields(RunSummary))

#: The decode table of :meth:`RunSummary.from_json_dict`: every field's
#: payload value in declaration order, the positions of the maps whose JSON
#: keys are site ids, and the position of ``metrics``.
_JSON_FIELD_VALUES = itemgetter(*_SUMMARY_FIELDS)
_SITE_KEYED_INDICES = tuple(
    _SUMMARY_FIELDS.index(name)
    for name in ("decisions", "decision_times", "votes", "states", "locks_held_at_end")
)
_METRICS_INDEX = _SUMMARY_FIELDS.index("metrics")


def _lock_hold_time(db_sites: Mapping[int, DatabaseSite], finished_at: float) -> float:
    """Total lock-hold time across sites for one run.

    Locks still held when the run ends (blocked sites) are charged up to the
    run's end, which is exactly the unavailability a blocked protocol
    inflicts on other transactions.
    """
    total = 0.0
    for db in db_sites.values():
        total += db.locks.stats.total_hold_time
        for since in db.locks.stats.held_since.values():
            total += max(0.0, finished_at - since)
    return total


def run_scenario(
    protocol: Protocol,
    spec: Optional[ScenarioSpec] = None,
    *,
    collect_trace: bool = True,
    **overrides: Any,
) -> TransactionRunResult:
    """Run one transaction under ``protocol`` in the scenario ``spec``.

    Keyword overrides are applied on top of ``spec`` (or on a default spec),
    so callers can write ``run_scenario(protocol, n_sites=4, partition=...)``.

    ``collect_trace=False`` substitutes a :class:`~repro.sim.trace.NullTrace`
    so no per-event records are built.  Scheduling is unaffected -- the run's
    outcome (decisions, timings, message counts, lock stats) is identical --
    but ``result.trace`` stays empty, so only callers that never read the
    trace (e.g. the sweep engine when no measure is requested) may use it.

    The summary fields are filled once, here: per-site maps over honest
    participants, the lock-hold time and the conflicting-decision total.
    ``spec_hash`` is left empty; the engine sets it on the summary part it
    keeps (:meth:`TransactionRunResult.as_summary`).

    The cluster is closed (:meth:`~repro.sim.cluster.Cluster.close`) in a
    ``finally`` once the result is harvested.  The result keeps the trace
    and database sites but never the rig, so reference counting frees the
    simulator, network, nodes and roles when this returns -- a sweep of
    thousands of scenarios leaves the cyclic garbage collector nothing.
    """
    if spec is None:
        spec = ScenarioSpec()
    if overrides:
        spec = ScenarioSpec(**{**spec.__dict__, **overrides})

    latency = spec.effective_latency()
    # With retransmission in force the timeout structure stretches to the
    # plan's effective delivery bound (see ScenarioSpec.effective_max_delay).
    timers = TerminationTimers(max_delay=spec.effective_max_delay())
    cluster = Cluster(
        spec.n_sites,
        latency=latency,
        model=spec.model,
        seed=spec.seed,
        trace=None if collect_trace else NullTrace(),
    )
    try:
        participants = tuple(cluster.site_ids())
        transaction = Transaction.simple_update(
            1, participants, spec.write_key, spec.write_value
        )
        db_sites = {
            site: DatabaseSite(site, initial_data=spec.initial_data)
            for site in participants
        }

        roles: dict[int, FSARole] = {}
        for site in participants:
            node = cluster.node(site)
            ctx = ProtocolContext(
                node=node,
                db=db_sites[site],
                transaction=transaction,
                participants=participants,
                master=1,
                timers=timers,
                no_voters=frozenset(spec.no_voters),
            )
            roles[site] = protocol.role(ctx)
            node.attach(roles[site])

        if spec.partition is not None:
            cluster.apply_partition_schedule(spec.partition)
        if spec.crashes is not None:
            cluster.apply_crash_schedule(spec.crashes)
        byzantine_sites: frozenset[int] = frozenset()
        if spec.faults is not None:
            cluster.apply_fault_plan(spec.faults)
            if spec.faults.byzantine:
                from repro.protocols.byzantine import install_byzantine_interceptors

                install_byzantine_interceptors(cluster, spec.faults)
                byzantine_sites = spec.faults.byzantine_sites()

        cluster.start_all()
        cluster.run(until=spec.effective_horizon())

        finished_at = cluster.sim.now
        network = cluster.network
        result = TransactionRunResult(
            protocol=protocol.name,
            spec_hash="",
            seed=spec.seed,
            n_sites=spec.n_sites,
            messages_sent=network.messages_sent,
            messages_delivered=network.messages_delivered,
            messages_bounced=network.messages_bounced,
            messages_dropped=network.messages_dropped,
            finished_at=finished_at,
            lock_hold_time=_lock_hold_time(db_sites, finished_at),
            max_delay=latency.upper_bound,
            spec=spec,
            transaction=transaction,
            trace=cluster.trace,
            db_sites=db_sites,
        )
        committed_values = set()
        for site in participants:
            value = db_sites[site].value(spec.write_key)
            result.values_at_end[site] = value
            if site in byzantine_sites:
                continue
            role = roles[site]
            decision = role.decision.value if role.decision else None
            result.decisions[site] = decision
            result.decision_times[site] = role.decided_at
            result.votes[site] = role.vote
            result.states[site] = role.state
            result.conflicting_decisions += role.conflicting_decisions
            result.locks_held_at_end[site] = db_sites[site].holds_locks(
                transaction.transaction_id
            )
            if decision == "commit":
                committed_values.add(value)
        result.stores_agree = len(committed_values) <= 1
        return result
    finally:
        cluster.close()
