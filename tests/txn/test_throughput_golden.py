"""Cross-commit golden for :class:`ThroughputSummary` bytes.

``golden_throughput.json`` pins the SHA-256 of the canonical summary bytes
and of the trace of a small deadlocking grid (see
``regen_golden_throughput.py``, which owns the grid).  The determinism suites compare runs *within* one commit; this
file is what lets a lock-table or deadlock-detector optimisation prove it
changed no cycle choice, victim choice or grant order *across* commits.
Every row runs twice, without the trace (the default) and with
``collect_trace=True``; both summaries must match the golden, and the
traced run's records must match its ``trace_sha256``.
Regenerate only for a deliberate behaviour change::

    PYTHONPATH=src python tests/txn/regen_golden_throughput.py
"""

import json

import pytest

from regen_golden_throughput import GOLDEN_PATH, GRID, golden_rows
from repro.sim.trace import NullTrace
from repro.txn import VictimPolicy, run_throughput_scenario


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def rows():
    return golden_rows()


@pytest.fixture(scope="module")
def traced_rows():
    return golden_rows(collect_trace=True)


def test_golden_covers_exactly_the_grid(golden):
    assert sorted(golden) == sorted(GRID)


@pytest.mark.parametrize("row_id", sorted(GRID))
def test_summary_bytes_match_golden(row_id, golden, rows):
    expected = {key: value for key, value in golden[row_id].items() if key != "trace_sha256"}
    assert rows[row_id] == expected


@pytest.mark.parametrize("row_id", sorted(GRID))
def test_traced_run_summary_bytes_match_golden(row_id, golden, traced_rows):
    """Collecting the trace changes what is recorded, never the schedule;
    the trace digest pins the event order and the multiplexed timer names."""
    assert traced_rows[row_id] == golden[row_id]


def test_trace_is_opt_in():
    protocol, spec = GRID[sorted(GRID)[0]]
    assert isinstance(run_throughput_scenario(protocol, spec).cluster.trace, NullTrace)
    traced = run_throughput_scenario(protocol, spec, collect_trace=True).cluster.trace
    assert not isinstance(traced, NullTrace)
    assert traced.count("admit") > 0


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
