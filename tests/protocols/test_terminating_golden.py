"""Cross-commit golden for the terminating protocols' runs.

``golden_terminating.json`` pins the SHA-256 of the summary bytes and of
the reason-free trace of every run in a grid of terminating 3PC, its
no-transient variant and terminating quorum commit, plus the other five
protocols at n = 3 (see ``regen_golden_terminating.py``, which owns the
grid).  It is what lets a
rewrite of the termination protocol prove it moved no send, timer,
transition, decision or note *across* commits.  Regenerate only for a
deliberate behaviour change::

    PYTHONPATH=src python tests/protocols/regen_golden_terminating.py
"""

import json

import pytest

from regen_golden_terminating import GOLDEN_PATH, GRID, PROTOCOLS, golden_rows


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def rows():
    return golden_rows()


def test_golden_covers_exactly_the_grid(golden):
    assert sorted(golden) == sorted(GRID)


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_runs_match_golden(protocol, golden, rows):
    mismatched = sorted(
        row_id
        for row_id in GRID
        if row_id.startswith(f"{protocol}/") and rows[row_id] != golden[row_id]
    )
    assert not mismatched, f"{len(mismatched)} runs moved, first: {mismatched[:5]}"
