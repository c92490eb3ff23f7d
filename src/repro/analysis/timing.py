"""Measurement of the paper's timing bounds (Figs. 5, 6, 7 and 9).

The bounds are all expressed in multiples of ``T`` (the longest end-to-end
propagation delay):

* Fig. 5 -- the commit protocol's own timeouts: the master needs at most
  ``2T`` to hear every response to a command, and a slave needs at most
  ``3T`` to hear the master's next command;
* Fig. 6 -- a master that received an undeliverable prepare hears every probe
  it is going to hear within ``5T``;
* Fig. 7 -- a slave that timed out in ``w`` hears a commit within ``6T``;
* Fig. 9 / Section 6 -- a slave that timed out in ``p`` hears an UD(probe),
  a commit or an abort within ``5T`` (except case 3.2.2.2).

Each function measures the corresponding quantity from one run's trace; the
experiments take maxima over scenario sweeps and compare against the bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional

from repro.protocols.runner import TransactionRunResult
from repro.sim.trace import Trace, TraceRecord


@dataclass(frozen=True)
class TimingMeasurement:
    """A measured worst-case delay compared against a paper bound."""

    name: str
    measured: float
    bound: float
    unit: float  # the value of T used in the run

    @property
    def measured_in_t(self) -> float:
        """The measurement expressed in multiples of T."""
        return self.measured / self.unit if self.unit else math.nan

    @property
    def bound_in_t(self) -> float:
        """The bound expressed in multiples of T."""
        return self.bound / self.unit if self.unit else math.nan

    @property
    def within_bound(self) -> bool:
        """True when the measurement does not exceed the paper's bound."""
        if math.isinf(self.bound):
            return True
        return self.measured <= self.bound + 1e-9

    def __str__(self) -> str:
        return (
            f"{self.name}: measured {self.measured_in_t:.2f}T "
            f"vs bound {self.bound_in_t:.1f}T "
            f"({'ok' if self.within_bound else 'EXCEEDED'})"
        )


def _sends(trace: Trace, *, site: Optional[int] = None, payload: Optional[str] = None) -> list[TraceRecord]:
    return trace.filter(
        "send",
        site=site,
        predicate=(lambda r: r.get("payload") == payload) if payload else None,
    )


def measure_protocol_timeouts(result: TransactionRunResult) -> dict[str, Optional[float]]:
    """Fig. 5 quantities for one (failure-free) run.

    Returns:
        ``master_round_trip``: longest time between the master issuing a round
        of commands (xact or prepare) and receiving the last response of that
        round; ``slave_wait``: longest time a slave waited between successive
        commands from the master.
    """
    trace = result.trace
    master_round_trip: Optional[float] = None
    # vote round: xact sent by master -> last yes/no delivered to master
    xact_sends = _sends(trace, site=1, payload="xact")
    vote_deliveries = [
        record
        for record in trace.filter("deliver", site=1)
        if record.get("payload") in ("yes", "no")
    ]
    if xact_sends and vote_deliveries:
        master_round_trip = max(r.time for r in vote_deliveries) - min(r.time for r in xact_sends)
    # ack round (3PC-style protocols): prepare/pre-commit sent -> last ack delivered
    prepare_sends = [
        record
        for record in trace.filter("send", site=1)
        if record.get("payload") in ("prepare", "pre-commit")
    ]
    ack_deliveries = [
        record for record in trace.filter("deliver", site=1) if record.get("payload") == "ack"
    ]
    if prepare_sends and ack_deliveries:
        ack_round = max(r.time for r in ack_deliveries) - min(r.time for r in prepare_sends)
        master_round_trip = max(master_round_trip or 0.0, ack_round)

    slave_wait: Optional[float] = None
    for site in result.participants:
        if site == 1:
            continue
        arrivals = [
            record
            for record in trace.filter("deliver", site=site)
            if record.get("source") == 1
        ]
        arrivals.sort(key=lambda record: record.time)
        for earlier, later in zip(arrivals, arrivals[1:]):
            gap = later.time - earlier.time
            slave_wait = gap if slave_wait is None else max(slave_wait, gap)
    return {"master_round_trip": master_round_trip, "slave_wait": slave_wait}


def measure_master_probe_window(result: TransactionRunResult) -> Optional[float]:
    """Fig. 6: time from the master's first UD(prepare) to its last probe.

    Returns ``None`` when the run never opened a probe window or the master
    received no probes at all.
    """
    trace = result.trace
    window_open = trace.first("probe-window-open", site=1)
    if window_open is None:
        return None
    probe_deliveries = [
        record
        for record in trace.filter("deliver", site=1)
        if record.get("payload") == "probe" and record.time >= window_open.time
    ]
    if not probe_deliveries:
        return None
    return max(record.time for record in probe_deliveries) - window_open.time


def measure_wait_after_timeout_in_w(result: TransactionRunResult) -> dict[int, float]:
    """Fig. 7: per-slave wait from its timeout in ``w`` to its decision.

    Slaves that never timed out in ``w`` are absent from the result; slaves
    that timed out and never decided are reported with ``math.inf``.
    """
    waits: dict[int, float] = {}
    for site in result.participants:
        timed_out = result.trace.first("timed-out-in-w", site=site)
        if timed_out is None:
            continue
        decided_at = result.decision_times.get(site)
        if decided_at is None:
            waits[site] = math.inf
        else:
            waits[site] = max(0.0, decided_at - timed_out.time)
    return waits


def measure_wait_after_timeout_in_p(result: TransactionRunResult) -> dict[int, float]:
    """Fig. 9 / Section 6: per-slave wait from its timeout in ``p`` to its decision."""
    waits: dict[int, float] = {}
    for site in result.participants:
        timed_out = result.trace.first("timed-out-in-p", site=site)
        if timed_out is None:
            continue
        decided_at = result.decision_times.get(site)
        if decided_at is None:
            waits[site] = math.inf
        else:
            waits[site] = max(0.0, decided_at - timed_out.time)
    return waits


def worst_case(measurements: Iterable[float]) -> Optional[float]:
    """Maximum of an iterable of waits, or ``None`` when it is empty."""
    values = list(measurements)
    return max(values) if values else None
