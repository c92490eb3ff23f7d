"""Regenerate ``golden_spec_hashes.json`` for test_spec_hash_golden.py.

Every result-cache key, JSONL spill and shard log is keyed by
:func:`~repro.engine.hashing.spec_hash`, so its value must never move by
accident.  Run this only when the canonical form changes *on purpose*
(which invalidates every existing cache)::

    PYTHONPATH=src python tests/engine/regen_golden_spec_hashes.py

Rows cover the three spec kinds: a :class:`ScenarioSpec` with every field
off its default (transient partition, crashes, a fault plan with Byzantine
sites and retransmission, tuple-keyed :class:`PerLinkLatency` and
:class:`UniformLatency`, ``initial_data`` / ``write_value`` of several
types), :class:`ThroughputSpec` with its hash-optional fields at their
defaults and off them, :class:`ModelCheckSpec` with ``no_voters`` unset and
set, integral floats, ``-0.0`` and enums.  ``GRID`` and ``golden_rows`` are
imported by the test, so the two cannot drift apart.
"""

import json
import pathlib

from repro.engine.hashing import spec_hash
from repro.modelcheck.spec import ModelCheckSpec
from repro.protocols.runner import ScenarioSpec
from repro.sim.failures import (
    ARBITRARY,
    ByzantineSpec,
    CrashEvent,
    CrashSchedule,
    FaultPlan,
    LinkFault,
    OmissionFault,
    RetransmitPolicy,
)
from repro.sim.latency import ConstantLatency, PerLinkLatency, UniformLatency
from repro.sim.network import PESSIMISTIC
from repro.sim.partition import PartitionSchedule
from repro.txn.deadlock import DeadlockPolicy, VictimPolicy
from repro.txn.retry import RetryPolicy
from repro.txn.runner import ThroughputSpec

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden_spec_hashes.json"

TRANSIENT = PartitionSchedule.transient(2.5, 4.25, [1, 2], [3, 4])
SKEWED = PerLinkLatency(1.0, {(1, 4): 1.5, (2, 3): 0.75})
BYZANTINE_PLAN = FaultPlan(
    links=(LinkFault(src=1, dst=3, loss=0.2, duplicate=0.1),),
    omissions=(OmissionFault(site=2),),
    byzantine=(ByzantineSpec(site=4, mode=ARBITRARY),),
    retransmit=RetransmitPolicy(max_attempts=4, interval=0.5),
    seed=9,
)


def _scenario_rows():
    yield "scenario/default", ScenarioSpec()
    yield "scenario/every-field", ScenarioSpec(
        n_sites=4,
        partition=TRANSIENT,
        crashes=CrashSchedule([CrashEvent(time=3.0, site=3, recover_at=6.5)]),
        no_voters=frozenset({2, 3}),
        latency=SKEWED,
        model=PESSIMISTIC,
        horizon=30.5,
        seed=7,
        initial_data={"balance": 50, "name": "x", "ratio": 0.25, "tags": ["a", "b"]},
        write_key="name",
        write_value="y",
        faults=BYZANTINE_PLAN,
    )
    yield "scenario/uniform-latency", ScenarioSpec(
        latency=UniformLatency(0.5, 1.0), seed=3
    )
    yield "scenario/constant-latency", ScenarioSpec(latency=ConstantLatency(2.0))
    yield "scenario/permanent", ScenarioSpec(
        partition=PartitionSchedule.simple(3.75, [1], [2, 3])
    )
    yield "scenario/empty-partition", ScenarioSpec(partition=PartitionSchedule.none())
    yield "scenario/fault-plan-none", ScenarioSpec(faults=FaultPlan.none())
    yield "scenario/horizon-int", ScenarioSpec(horizon=8)
    yield "scenario/horizon-integral-float", ScenarioSpec(horizon=8.0)
    yield "scenario/horizon-fraction", ScenarioSpec(horizon=8.125)
    write_values = {
        "int": 7,
        "negative-zero": -0.0,
        "float": 0.1,
        "integral-float": 100.0,
        "str": "100",
        "bool": True,
        "none": None,
        "list": [1, "a", 2.5],
        "tuple": (1, (2, 3)),
        "set": {3, 1, 2},
        "frozenset": frozenset({"b", "a"}),
        "dict": {"k": 1, "j": [None, False]},
        "int-keyed-dict": {2: "b", 1: "a"},
        "enum": VictimPolicy.OLDEST,
        "dataclass": RetryPolicy(),
    }
    for label, value in write_values.items():
        yield f"scenario/write-value-{label}", ScenarioSpec(write_value=value)
    yield "scenario/initial-data-mixed", ScenarioSpec(
        initial_data={"a": 1, "b": 2.0, "c": -0.0, "d": None, "e": {"nested": (1,)}}
    )


def _throughput_rows():
    yield "throughput/default", ThroughputSpec()
    yield "throughput/optional-at-defaults", ThroughputSpec(
        faults=FaultPlan.none(), lock_transport="direct"
    )
    yield "throughput/network-transport", ThroughputSpec(lock_transport="network")
    yield "throughput/faults", ThroughputSpec(
        faults=FaultPlan.lossy(0.1, retransmit=RetransmitPolicy(), seed=2)
    )
    yield "throughput/every-field", ThroughputSpec(
        n_sites=4,
        n_transactions=64,
        tx_rate=2.0,
        arrival="poisson",
        read_fraction=0.5,
        operations_per_site=2,
        n_keys=4,
        participants_per_transaction=3,
        hotspot=1.0,
        op_delay=0.1,
        partition=TRANSIENT,
        crashes=CrashSchedule.single(3, 2.0, recover_at=5.0),
        latency=UniformLatency(0.5, 1.0),
        model=PESSIMISTIC,
        deadlock=DeadlockPolicy(
            detect_cycles=False, wait_timeout=4.0, victim=VictimPolicy.FEWEST_LOCKS
        ),
        retry=RetryPolicy(max_attempts=3, backoff=1.0, backoff_factor=1.5, jitter=0.0),
        horizon=100.0,
        seed=5,
        faults=FaultPlan(byzantine=(ByzantineSpec(site=2),), seed=1),
        lock_transport="network",
    )


def _modelcheck_rows():
    yield "modelcheck/default", ModelCheckSpec()
    yield "modelcheck/no-voters-none", ModelCheckSpec(n_sites=4, no_voters=None)
    yield "modelcheck/no-voters-set", ModelCheckSpec(n_sites=4, no_voters=frozenset({2, 4}))
    yield "modelcheck/budgets", ModelCheckSpec(
        fault="lossy-retransmit", max_states=5000, max_depth=12, seed=3
    )


def _grid():
    grid = {}
    for rows, protocol in (
        (_scenario_rows(), "terminating-three-phase-commit"),
        (_throughput_rows(), "two-phase-commit"),
        (_modelcheck_rows(), "three-phase-commit"),
    ):
        for row_id, spec in rows:
            grid[row_id] = (protocol, spec)
    return grid


#: row id -> (protocol, spec).
GRID = _grid()


def golden_rows():
    """row id -> spec hash, over every row of ``GRID``."""
    return {row_id: spec_hash(protocol, spec) for row_id, (protocol, spec) in GRID.items()}


def main() -> None:
    GOLDEN_PATH.write_text(
        json.dumps(golden_rows(), indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"wrote {len(GRID)} rows to {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
