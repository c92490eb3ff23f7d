"""Cross-commit golden for spec hashes.

Every result-cache file name, JSONL spill and shard result log is keyed by
:func:`~repro.engine.hashing.spec_hash`; ``golden_spec_hashes.json`` pins
its value for every row of ``regen_golden_spec_hashes.GRID`` so a change to
the canonical form cannot silently orphan existing caches.  Regenerate only
for a deliberate format change::

    PYTHONPATH=src python tests/engine/regen_golden_spec_hashes.py
"""

import json

import pytest

from regen_golden_spec_hashes import GOLDEN_PATH, GRID, golden_rows


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def rows():
    return golden_rows()


def test_golden_covers_exactly_the_grid(golden):
    assert sorted(golden) == sorted(GRID)


@pytest.mark.parametrize("row_id", sorted(GRID))
def test_spec_hash_matches_golden(row_id, golden, rows):
    assert rows[row_id] == golden[row_id]


@pytest.mark.parametrize(
    "left, right",
    [
        ("scenario/horizon-int", "scenario/horizon-integral-float"),
        ("scenario/default", "scenario/fault-plan-none"),
        ("scenario/default", "scenario/write-value-integral-float"),
        ("throughput/default", "throughput/optional-at-defaults"),
    ],
)
def test_equal_specs_share_one_key(left, right, golden):
    assert golden[left] == golden[right]
