"""Cross-commit golden for the explored global-state graphs.

``golden_graphs.json`` pins counts, verdicts and SHA-256 digests of the
visit order, edge list and reception relation of every checkable protocol
under every fault envelope (see ``regen_golden_graphs.py``, which owns the
grid).  The explorer property tests compare runs *within* one commit; this
file is what lets a change to the transition relation prove it moved no
state, edge, discovery order or sender set *across* commits.  Regenerate
only for a deliberate behaviour change::

    PYTHONPATH=src python tests/modelcheck/regen_golden_graphs.py
"""

import json

import pytest

from regen_golden_graphs import GOLDEN_PATH, GRID, golden_rows


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def rows():
    return golden_rows()


def test_golden_covers_exactly_the_grid(golden):
    assert sorted(golden) == sorted(GRID)


@pytest.mark.parametrize("row_id", sorted(GRID))
def test_graph_matches_golden(row_id, golden, rows):
    assert rows[row_id] == golden[row_id]
