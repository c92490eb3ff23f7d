"""Regenerate ``golden_graphs.json`` for test_graph_golden.py.

Run only when the explorer's observable behaviour changes *on purpose*
(a new edge rule, a different successor order, a changed envelope)::

    PYTHONPATH=src python tests/modelcheck/regen_golden_graphs.py

The golden pins, per row, the whole explored global-state graph of one
checkable protocol: state, edge and frontier-depth counts, ``complete``,
every invariant verdict and the SHA-256 of the visit order, of the edge
list (``describe()`` plus the target state, in discovery order) and of the
reception relation the sender sets are built from.  Rows cover every
checkable protocol at n = 2, 3, 4 under every fault envelope, plus
scripted-vote partition checks at n = 3.  A refactor of the transition
relation must leave the file byte-identical.  ``GRID`` and ``golden_rows``
are imported by the test, so the two cannot drift apart.
"""

import hashlib
import json
import pathlib

from repro.core.reachability import ALL_FAULT_ENVELOPES, PARTITION
from repro.modelcheck.checker import check_model
from repro.modelcheck.protocols import checkable_protocols
from repro.modelcheck.spec import ModelCheckSpec

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden_graphs.json"

#: Scripted vote patterns of the n = 3 partition rows.
VOTE_PATTERNS = (frozenset(), frozenset({2}), frozenset({2, 3}))


def _votes_label(no_voters) -> str:
    if no_voters is None:
        return "both-votes"
    return "no=" + (",".join(map(str, sorted(no_voters))) or "-")


#: row id -> (protocol, spec); the row id names every axis value.
GRID = {
    f"{protocol}/n={n_sites}/{fault}/{_votes_label(no_voters)}": (
        protocol,
        ModelCheckSpec(n_sites=n_sites, fault=fault, no_voters=no_voters),
    )
    for protocol in checkable_protocols()
    for n_sites, fault, no_voters in [
        *((n, fault, None) for n in (2, 3, 4) for fault in ALL_FAULT_ENVELOPES),
        *((3, PARTITION, votes) for votes in VOTE_PATTERNS),
    ]
}


def _sha(lines) -> str:
    digest = hashlib.sha256()
    for line in lines:
        digest.update(line.encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


def golden_rows() -> dict:
    """Explore the grid; one entry of counts, verdicts and digests per row."""
    rows = {}
    for row_id, (protocol, spec) in GRID.items():
        result = check_model(protocol, spec)
        graph = result.graph
        rows[row_id] = {
            "states": graph.state_count,
            "edges": len(graph.edges),
            "frontier_depth": graph.frontier_depth,
            "complete": graph.complete,
            "verdicts": {name: v.verdict for name, v in sorted(result.verdicts.items())},
            "visit_order_sha256": _sha(str(state) for state in graph.visit_order),
            "edges_sha256": _sha(
                f"{edge.describe()} => {edge.target}" for edge in graph.edges
            ),
            "receptions_sha256": _sha(
                f"{receiver} <- {sorted(senders)}"
                for receiver, senders in sorted(graph.receptions.items())
            ),
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
