"""Discrete-event simulation substrate.

The paper reasons about distributed commit protocols running over a
point-to-point network whose end-to-end propagation delay is bounded by ``T``
and which may split into exactly two groups ("simple partitioning").  This
package provides the executable stand-in for that 1987 testbed:

* :mod:`repro.sim.kernel` -- a deterministic discrete-event simulator whose
  clock is :attr:`~repro.sim.kernel.Simulator.now` (in units of ``T``),
* :mod:`repro.sim.events` -- the scheduled event: an action, its argument
  and a cancelled flag,
* :mod:`repro.sim.network` -- a message-passing network with optimistic
  (return undeliverable messages) and pessimistic (lose messages) partition
  semantics; an in-flight message is its queued delivery event,
* :mod:`repro.sim.partition` -- partition specifications and schedules
  (simple, multiple, transient),
* :mod:`repro.sim.node` -- simulated sites with mailboxes and named timers
  (an armed timer is its queued event; roles get ``on_timeout(name)``),
* :mod:`repro.sim.failures` -- crash / recovery injection,
* :mod:`repro.sim.trace` -- structured traces consumed by the analysis layer.

Every run is a pure function of its configuration and seed, which is what
makes the exhaustive sweeps behind Theorem 9 and the Section 6 case table
practical.
"""

from repro.sim.cluster import Cluster
from repro.sim.events import Event
from repro.sim.kernel import SimulationError, Simulator
from repro.sim.latency import ConstantLatency, LatencyModel, PerLinkLatency, UniformLatency
from repro.sim.network import (
    Envelope,
    Network,
    OPTIMISTIC,
    PESSIMISTIC,
    Undeliverable,
)
from repro.sim.node import Node, is_undeliverable
from repro.sim.partition import (
    PartitionEvent,
    PartitionManager,
    PartitionSchedule,
    PartitionSpec,
)
from repro.sim.failures import CrashEvent, CrashSchedule, FailureInjector
from repro.sim.trace import Trace, TraceRecord

__all__ = [
    "Cluster",
    "ConstantLatency",
    "CrashEvent",
    "CrashSchedule",
    "Envelope",
    "Event",
    "FailureInjector",
    "LatencyModel",
    "Network",
    "Node",
    "OPTIMISTIC",
    "PESSIMISTIC",
    "PartitionEvent",
    "PartitionManager",
    "PartitionSchedule",
    "PartitionSpec",
    "PerLinkLatency",
    "SimulationError",
    "Simulator",
    "Trace",
    "TraceRecord",
    "Undeliverable",
    "UniformLatency",
    "is_undeliverable",
]
