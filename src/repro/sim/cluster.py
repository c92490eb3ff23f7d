"""Convenience wiring of a whole simulated system.

A :class:`Cluster` bundles the simulator, network, partition manager, nodes
and failure injector for ``n`` sites numbered ``1..n`` (site 1 is, by the
paper's convention, the master of any transaction it coordinates).  The
protocol harness and all experiments build on this class instead of wiring
the pieces by hand.

A run's rig is one web of back-references: queued events and timers hold
actions bound to the nodes and the network, which hold the simulator; each
node and its roles point at each other; the network and its nodes, in-flight
messages and partition listener likewise.  :meth:`Cluster.close` cuts
those links once a run's results are read, so reference counting frees the
whole rig instead of the cyclic garbage collector.
"""

from __future__ import annotations

from typing import Optional

from repro.sim.failures import CrashSchedule, FailureInjector, FaultPlan
from repro.sim.kernel import Simulator
from repro.sim.latency import ConstantLatency, LatencyModel
from repro.sim.network import Network, OPTIMISTIC
from repro.sim.node import Node
from repro.sim.partition import PartitionEvent, PartitionManager, PartitionSchedule
from repro.sim.trace import Trace


class Cluster:
    """A complete simulated deployment of ``n`` database sites.

    Args:
        n_sites: number of participating sites; they are numbered ``1..n``.
        latency: network latency model (default: constant delay of 1.0, i.e.
            every message takes exactly ``T``).
        model: partition model, ``"optimistic"`` (return undeliverable
            messages) or ``"pessimistic"`` (lose them).
        seed: seed for the simulator's random number generator.
        trace: shared trace to use (default: a fresh :class:`Trace`; pass a
            :class:`~repro.sim.trace.NullTrace` to skip trace collection).

    Call :meth:`close` once the run's results are read: it frees the rig
    by reference counting (see the module docstring).
    """

    def __init__(
        self,
        n_sites: int,
        *,
        latency: Optional[LatencyModel] = None,
        model: str = OPTIMISTIC,
        seed: int = 0,
        trace: Optional[Trace] = None,
    ) -> None:
        if n_sites < 1:
            raise ValueError(f"need at least one site, got {n_sites}")
        self.n_sites = n_sites
        self.sim = Simulator(seed=seed)
        self.trace = trace if trace is not None else Trace()
        self.partitions = PartitionManager()
        self.network = Network(
            self.sim,
            latency=latency or ConstantLatency(1.0),
            partitions=self.partitions,
            model=model,
            trace=self.trace,
        )
        self.nodes: dict[int, Node] = {
            site: Node(site, self.sim, self.network, trace=self.trace)
            for site in range(1, n_sites + 1)
        }
        self.failures = FailureInjector(self.sim, self.nodes.values())

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def max_delay(self) -> float:
        """The paper's ``T`` for this cluster's network."""
        return self.network.max_delay

    def site_ids(self) -> list[int]:
        """All site ids, ``[1, ..., n]``."""
        return sorted(self.nodes)

    def node(self, site: int) -> Node:
        """The node for ``site``."""
        return self.nodes[site]

    # ------------------------------------------------------------------
    # schedule installation
    # ------------------------------------------------------------------
    def apply_partition_schedule(self, schedule: PartitionSchedule) -> None:
        """Schedule every partition / heal event in ``schedule``."""
        for event in schedule:
            self.sim.schedule_at(event.time, self._apply_partition, arg=event)

    def _apply_partition(self, event: PartitionEvent) -> None:
        spec = event.spec
        if self.trace.enabled:
            self.trace.record(
                event.time,
                "partition" if spec is not None else "heal",
                site=None,
                spec=str(spec) if spec is not None else "healed",
            )
        self.partitions.apply(spec, at=event.time)

    def apply_crash_schedule(self, schedule: CrashSchedule) -> None:
        """Schedule every crash / recovery in ``schedule``."""
        self.failures.apply(schedule)

    def apply_fault_plan(self, plan: FaultPlan) -> None:
        """Install a unified fault plan: crashes plus message-level faults.

        Byzantine behaviour is *not* wired here -- it lives at the protocol
        role layer (see :mod:`repro.protocols.byzantine`), because equivocation
        rewrites protocol messages the network treats as opaque payloads.
        """
        plan.validate(self.n_sites)
        if plan.crashes:
            self.apply_crash_schedule(plan.crash_schedule())
        if plan.has_message_faults:
            self.network.install_fault_plan(plan)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def start_all(self) -> None:
        """Start every role attached to a node so far."""
        for site in self.site_ids():
            node = self.nodes[site]
            for transaction_id in node.roles:
                node.start(transaction_id)

    def run(self, until: Optional[float] = None, *, max_events: int = 1_000_000) -> float:
        """Run the simulation (see :meth:`repro.sim.kernel.Simulator.run`)."""
        return self.sim.run(until=until, max_events=max_events)

    def close(self) -> None:
        """Cut the rig's reference cycles once the run's results are read.

        Drains the event heap, detaches every node's roles, listeners and
        timers, and empties the network's node table, in-flight and
        retransmission tables and partition listener.  Counters, ``sim.now``,
        :attr:`trace` and the nodes stay readable; the cluster cannot run
        again.  Idempotent.
        """
        self.sim.drain()
        for node in self.nodes.values():
            node.close()
        self.network.close()
