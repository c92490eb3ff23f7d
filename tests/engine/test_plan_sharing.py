"""The compiled-plan memo is invisible in results and derives each key once.

`repro.protocols.plan.compiled_plan` amortizes the Rule (a)/(b) derivation to
once per (protocol, n) per process, and `termination_plan` the Theorem 10
derivation to once per spec.  These tests pin the two halves of that
contract: the derivation really runs at most once, and no output byte
depends on whether, where or in which process it ran.
"""

from collections import Counter

import pytest

from repro.core import generalize, rules
from repro.engine import JsonlSink, ScenarioGrid, SweepEngine
from repro.engine.grid import simple_partition_axis
from repro.protocols.plan import compiled_plan, termination_plan
from repro.protocols.registry import available_protocols
from repro.txn.runner import ThroughputSpec, run_throughput_scenario


@pytest.fixture(scope="module")
def grid():
    """64 scenarios over all eight protocols at n = 4."""
    grid = ScenarioGrid(
        protocols=tuple(available_protocols()),
        n_sites=4,
        partitions=(None, *simple_partition_axis(4, times=[1.5])),
    )
    assert len(grid) >= 60
    return grid


@pytest.fixture
def analyze_calls(monkeypatch):
    """Count `core.concurrency.analyze` calls per (spec name, n) from a cold memo."""
    calls: Counter = Counter()
    real = rules.analyze

    def spy(spec, n_sites, **kwargs):
        calls[(spec.name, n_sites)] += 1
        return real(spec, n_sites, **kwargs)

    # The derivations look `analyze` up in their own module namespaces.
    monkeypatch.setattr(rules, "analyze", spy)
    monkeypatch.setattr(generalize, "analyze", spy)
    compiled_plan.cache_clear()
    termination_plan.cache_clear()
    yield calls
    compiled_plan.cache_clear()
    termination_plan.cache_clear()


class TestDerivedOncePerKey:
    def test_all_protocol_sweep_analyzes_each_protocol_once(self, grid, analyze_calls):
        SweepEngine(workers=1).run(grid)
        # extended 2PC and naive extended 3PC at n = 4; the Theorem 10 plans
        # of 3PC (shared by both terminating 3PC variants) and quorum commit
        # at their fixed derivation size; the plain three derive nothing.
        assert len(analyze_calls) == 4
        assert set(analyze_calls.values()) == {1}
        SweepEngine(workers=1).run(grid)
        assert set(analyze_calls.values()) == {1}

    def test_throughput_run_analyzes_once_for_all_its_transactions(self, analyze_calls):
        result = run_throughput_scenario(
            "extended-two-phase-commit", ThroughputSpec(n_transactions=50)
        )
        assert result.summary.offered == 50
        assert sum(analyze_calls.values()) == 1


def _spill(grid, path, **engine_kwargs):
    SweepEngine(**engine_kwargs).run_streaming(grid, sinks=JsonlSink(path))
    return path.read_bytes()


class TestByteIdentity:
    def test_cold_and_warm_memo_spill_identical_bytes(self, grid, tmp_path):
        compiled_plan.cache_clear()
        cold = _spill(grid, tmp_path / "cold.jsonl", workers=1)
        assert compiled_plan.cache_info().currsize > 0
        warm = _spill(grid, tmp_path / "warm.jsonl", workers=1)
        assert cold == warm

    def test_worker_count_and_start_method_do_not_change_bytes(self, grid, tmp_path):
        serial = _spill(grid, tmp_path / "serial.jsonl", workers=1)
        forked = _spill(grid, tmp_path / "fork.jsonl", workers=2, mp_context="fork")
        spawned = _spill(grid, tmp_path / "spawn.jsonl", workers=2, mp_context="spawn")
        assert serial == forked == spawned
