"""Regenerate ``golden_throughput.json`` for test_throughput_golden.py.

Run only when the scheduler's observable behaviour changes *on purpose*
(a lock-queue rule, a victim policy, a retry or crash semantics change)::

    PYTHONPATH=src python tests/txn/regen_golden_throughput.py

The golden pins, per row of a small grid that really deadlocks (three
sites, six keys, two operations per site, half reads so upgrades occur),
the SHA-256 of the row's canonical :class:`ThroughputSummary` JSON bytes:
every victim policy x both lock transports x with / without a lock-wait
timeout x with / without one crash + recovery and one transient partition.
The ``sparse/`` rows run two terminating protocols on four sites with three
participants per transaction, fault-free and with the crash and partition,
so the roles see slave ids that skip a site.
A performance change to the lock table or the deadlock detector must leave
the file byte-identical; ``deadlock_aborts`` rides along so a diff says
more than "the hash moved".  ``GRID`` and ``golden_rows`` are imported by
the test, so the two cannot drift apart.
"""

import hashlib
import json
import pathlib

from repro.sim.failures import CrashSchedule
from repro.sim.partition import PartitionSchedule
from repro.txn import DeadlockPolicy, RetryPolicy, ThroughputSpec, VictimPolicy
from repro.txn.runner import run_throughput_scenario

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden_throughput.json"

#: The commit protocol each lock transport's rows run under.
PROTOCOL_OF_TRANSPORT = {
    "direct": "terminating-three-phase-commit",
    "network": "two-phase-commit",
}


def _spec(victim, transport, wait_timeout, faulty) -> ThroughputSpec:
    return ThroughputSpec(
        n_sites=3,
        n_transactions=60,
        tx_rate=1.0,
        arrival="poisson",
        read_fraction=0.5,
        operations_per_site=2,
        n_keys=6,
        hotspot=0.5,
        op_delay=0.1,
        deadlock=DeadlockPolicy(
            detect_cycles=True, wait_timeout=wait_timeout, victim=victim
        ),
        retry=RetryPolicy(max_attempts=3, backoff=1.0),
        crashes=CrashSchedule.single(2, 14.0, recover_at=20.0) if faulty else None,
        partition=(
            PartitionSchedule.transient(30.0, 35.0, (1, 2), (3,)) if faulty else None
        ),
        lock_transport=transport,
        seed=11,
    )


#: row id -> (protocol, spec); the row id names every axis value.
GRID = {
    f"{victim.value}/{transport}/"
    f"{'timeout' if wait_timeout else 'no-timeout'}/"
    f"{'crash+partition' if faulty else 'fault-free'}": (
        PROTOCOL_OF_TRANSPORT[transport],
        _spec(victim, transport, wait_timeout, faulty),
    )
    for victim in VictimPolicy
    for transport in ("direct", "network")
    for wait_timeout in (None, 4.0)
    for faulty in (False, True)
}


def _sparse_spec(faulty) -> ThroughputSpec:
    """Four sites, three per transaction: slave ids skip a site."""
    return ThroughputSpec(
        n_sites=4,
        n_transactions=60,
        tx_rate=1.0,
        arrival="poisson",
        read_fraction=0.5,
        operations_per_site=2,
        n_keys=6,
        participants_per_transaction=3,
        hotspot=0.5,
        op_delay=0.1,
        deadlock=DeadlockPolicy(detect_cycles=True),
        retry=RetryPolicy(max_attempts=3, backoff=1.0),
        crashes=CrashSchedule.single(2, 14.0, recover_at=20.0) if faulty else None,
        partition=(
            PartitionSchedule.transient(30.0, 35.0, (1, 2), (3, 4)) if faulty else None
        ),
        seed=11,
    )


#: Terminating protocols on transactions whose slaves are not numbered
#: contiguously (e.g. sites 1, 3 and 4).
GRID.update({
    f"sparse/{protocol}/{'crash+partition' if faulty else 'fault-free'}": (
        protocol,
        _sparse_spec(faulty),
    )
    for protocol in (
        "terminating-quorum-commit",
        "terminating-three-phase-commit-no-transient",
    )
    for faulty in (False, True)
})


def golden_rows(*, collect_trace: bool = False) -> dict:
    """Run the grid; one ``{sha256, deadlock_aborts}`` entry per row id.

    The trace never feeds the summary, so ``collect_trace=True`` must
    produce the same rows.
    """
    rows = {}
    for row_id, (protocol, spec) in GRID.items():
        summary = run_throughput_scenario(
            protocol, spec, collect_trace=collect_trace
        ).summary
        rows[row_id] = {
            "sha256": hashlib.sha256(summary.to_json_bytes()).hexdigest(),
            "deadlock_aborts": summary.deadlock_aborts,
        }
    return rows


def main() -> None:
    rows = golden_rows()
    GOLDEN_PATH.write_text(
        json.dumps(rows, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"wrote {GOLDEN_PATH} ({len(rows)} rows)")


if __name__ == "__main__":
    main()
