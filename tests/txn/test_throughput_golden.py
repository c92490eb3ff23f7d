"""Cross-commit golden for :class:`ThroughputSummary` bytes.

``golden_throughput.json`` pins the SHA-256 of the canonical summary bytes
of a small deadlocking grid (see ``regen_golden_throughput.py``, which owns
the grid).  The determinism suites compare runs *within* one commit; this
file is what lets a lock-table or deadlock-detector optimisation prove it
changed no cycle choice, victim choice or grant order *across* commits.
Regenerate only for a deliberate behaviour change::

    PYTHONPATH=src python tests/txn/regen_golden_throughput.py
"""

import json

import pytest

from regen_golden_throughput import GOLDEN_PATH, GRID, golden_rows
from repro.txn import VictimPolicy


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def rows():
    return golden_rows()


def test_golden_covers_exactly_the_grid(golden):
    assert sorted(golden) == sorted(GRID)


@pytest.mark.parametrize("row_id", sorted(GRID))
def test_summary_bytes_match_golden(row_id, golden, rows):
    assert rows[row_id] == golden[row_id]


@pytest.mark.parametrize("victim", list(VictimPolicy))
def test_every_victim_policy_really_breaks_deadlocks(victim, golden):
    """The grid is only a detector golden if the detector fires in it."""
    aborts = [
        entry["deadlock_aborts"]
        for row_id, entry in golden.items()
        if row_id.startswith(f"{victim.value}/")
    ]
    assert len(aborts) == 8
    assert max(aborts) > 0
    # Both transports and the crash + partition rows deadlock too.
    for axis in ("/direct/", "/network/", "/crash+partition"):
        assert any(
            entry["deadlock_aborts"] > 0
            for row_id, entry in golden.items()
            if row_id.startswith(f"{victim.value}/") and axis in row_id
        ), axis
