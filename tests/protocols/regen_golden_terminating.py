"""Regenerate ``golden_terminating.json`` for test_terminating_golden.py.

Run only when a terminating protocol's observable behaviour changes *on
purpose* (a new termination rule, a different timer, a changed send)::

    PYTHONPATH=src python tests/protocols/regen_golden_terminating.py

The golden pins, per simulated run of terminating 3PC, its no-transient
variant and terminating quorum commit, the SHA-256 of the run's canonical
:class:`~repro.protocols.runner.RunSummary` JSON bytes and of its trace
records with the free-text ``reason`` and the transaction id dropped
(everything else -- time, category, site, every other detail field, record
order -- is hashed).  Rows cover
n = 3, 4 x every simple split x an onset grid of permanent and transient
partitions (the Section 6 4.25 -> 5.25 heal included) x all-yes and
one-slave-no vote scripts, the skewed-link 3.7 partition of the Fig. 8
scenario at n = 4, a master that votes no, the pessimistic network, and
the dup / reorder / loss-with-retransmission / Byzantine fault plans.  A
refactor of the termination protocol must leave the file byte-identical.
``GRID`` and ``golden_rows`` are imported by the test, so the two cannot
drift apart.
"""

import hashlib
import json
import pathlib

from repro.cli.faults import parse_fault_clauses
from repro.core.reachability import simple_splits
from repro.protocols.registry import create_protocol
from repro.protocols.runner import ScenarioSpec, run_scenario
from repro.sim.latency import PerLinkLatency
from repro.sim.network import PESSIMISTIC
from repro.sim.partition import PartitionSchedule

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden_terminating.json"

PROTOCOLS = (
    "terminating-three-phase-commit",
    "terminating-three-phase-commit-no-transient",
    "terminating-quorum-commit",
)

#: Permanent partition onsets, in units of T.
ONSETS = (0.5, 1.25, 1.5, 2.25, 2.5, 3.0, 3.25, 3.5, 3.75, 4.25, 5.5, 7.0)

#: Transient partitions (onset, heal); 4.25 -> 5.25 is Section 6's case 3.2.2.2.
TRANSIENTS = ((2.5, 3.5), (3.25, 5.25), (3.5, 4.5), (4.25, 5.25))

#: The Fig. 8 scenario's slow master -> site 4 link.
SKEWED = PerLinkLatency(1.0, {(1, 4): 1.5})

VOTE_SCRIPTS = (frozenset(), frozenset({2}))

FAULT_PLANS = (
    "dup=0.3",
    "reorder=1:4,seed=0",
    "loss=0.2,retransmit=on",
    "byzantine=1",
    "byzantine=1:arbitrary",
    "byzantine=2:arbitrary",
)


def _split_label(split) -> str:
    return "|".join(",".join(map(str, group)) for group in split)


def _votes_label(no_voters) -> str:
    return "no=" + (",".join(map(str, sorted(no_voters))) or "-")


def _scenarios():
    """(row id suffix, ScenarioSpec) for one protocol."""
    for n_sites in (3, 4):
        splits = simple_splits(n_sites)
        for split in splits:
            g1, g2 = split
            for no_voters in VOTE_SCRIPTS:
                prefix = f"n={n_sites}/{_split_label(split)}/{_votes_label(no_voters)}"
                for at in ONSETS:
                    yield f"{prefix}/at={at}", ScenarioSpec(
                        n_sites=n_sites,
                        partition=PartitionSchedule.simple(at, g1, g2),
                        no_voters=no_voters,
                    )
                for at, heal in TRANSIENTS:
                    yield f"{prefix}/at={at}-{heal}", ScenarioSpec(
                        n_sites=n_sites,
                        partition=PartitionSchedule.transient(at, heal, g1, g2),
                        no_voters=no_voters,
                        horizon=80.0,
                    )
                if n_sites == 4:
                    yield f"{prefix}/skewed/at=3.7", ScenarioSpec(
                        n_sites=n_sites,
                        partition=PartitionSchedule.simple(3.7, g1, g2),
                        no_voters=no_voters,
                        latency=SKEWED,
                    )
        yield f"n={n_sites}/master-no", ScenarioSpec(
            n_sites=n_sites, no_voters=frozenset({1})
        )
        yield f"n={n_sites}/failure-free", ScenarioSpec(n_sites=n_sites)
    for g1, g2 in simple_splits(3):
        split = _split_label((g1, g2))
        for at in (2.5, 3.5, 4.5):
            yield f"n=3/{split}/pessimistic/at={at}", ScenarioSpec(
                n_sites=3,
                partition=PartitionSchedule.simple(at, g1, g2),
                model=PESSIMISTIC,
            )
            for clauses in FAULT_PLANS:
                yield f"n=3/{split}/{clauses}/at={at}", ScenarioSpec(
                    n_sites=3,
                    partition=PartitionSchedule.simple(at, g1, g2),
                    faults=parse_fault_clauses([clauses]),
                )


#: row id -> (protocol, spec); the row id names every axis value.
GRID = {
    f"{protocol}/{suffix}": (protocol, spec)
    for protocol in PROTOCOLS
    for suffix, spec in _scenarios()
}


#: Detail fields left out of the trace digest: the free-text reason, and the
#: transaction id (drawn from a process-wide counter, so it depends on how
#: many transactions the process built before this run).
_UNPINNED_DETAIL = frozenset({"reason", "transaction"})


def _trace_bytes(trace) -> bytes:
    records = [
        [
            record.time,
            record.category,
            record.site,
            {
                key: value
                for key, value in record.detail.items()
                if key not in _UNPINNED_DETAIL
            },
        ]
        for record in trace
    ]
    return json.dumps(records, sort_keys=True, separators=(",", ":")).encode("utf-8")


def golden_rows() -> dict:
    """Run the grid; one ``{summary_sha256, trace_sha256}`` entry per row."""
    rows = {}
    for row_id, (protocol, spec) in GRID.items():
        result = run_scenario(create_protocol(protocol), spec)
        rows[row_id] = {
            "summary_sha256": hashlib.sha256(result.to_json_bytes()).hexdigest(),
            "trace_sha256": hashlib.sha256(_trace_bytes(result.trace)).hexdigest(),
        }
    return rows


def main() -> None:
    rows = golden_rows()
    GOLDEN_PATH.write_text(json.dumps(rows, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN_PATH} ({len(rows)} rows)")


if __name__ == "__main__":
    main()
