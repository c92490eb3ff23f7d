"""Spec-kind registry conformance: every kind honors the engine contracts.

The parametrized conformance classes run against *every* kind in the table
(via its ``sample_task``), so a row added later is automatically held to
the same bar: summary->JSON->summary round trips byte-identically (the
cache and shard-merge byte-identity guarantees depend on it), cache keys
are stable across processes and pickling, and resolution failures name the
offending kind.

``TestToyThirdKind`` runs a kind ``src/`` never names -- installed for one
test by the ``install_kind`` fixture -- through the engine, the result
cache, the JSONL spill format and shard/merge, so none of them special-cases
the three built-in kinds.
"""

import dataclasses
import json
import pickle
import re
from dataclasses import dataclass, field
from typing import Any, Mapping

import pytest

from repro.core.canonical import canonical_json_bytes
from repro.engine import (
    JsonlSink,
    SpecKind,
    SweepEngine,
    SweepTask,
    UnknownSpecKindError,
    kind_by_name,
    kind_for_payload,
    kind_for_spec,
    kind_for_tag,
    merge_result_log,
    read_jsonl,
    registered_kinds,
    run_shard_log,
    summary_from_json_dict,
)
from repro.engine.sink import SummarySink

KINDS = {kind.name: kind for kind in registered_kinds()}


@pytest.fixture(scope="module")
def sample_summaries(tmp_path_factory):
    """One executed summary per kind (engine path, cold cache)."""
    summaries = {}
    for name, kind in KINDS.items():
        task = kind.sample_task()
        cache_dir = tmp_path_factory.mktemp(f"cache-{name}")
        engine = SweepEngine(workers=1, cache=cache_dir)
        result = engine.run([task])
        summaries[name] = (task, result.summaries[0], engine.cache)
    return summaries


class TestBuiltinRegistrations:
    def test_both_builtin_kinds_register(self):
        assert {"scenario", "throughput"} <= set(KINDS)

    def test_kind_surface_is_complete(self):
        for kind in KINDS.values():
            assert kind.spec_type is not None
            assert kind.summary_type is not None
            assert callable(kind.execute)
            assert callable(kind.decode)
            assert callable(kind.make_sink)
            assert callable(kind.sample_task)

    def test_scenario_kind_owns_the_untagged_payload_format(self):
        assert KINDS["scenario"].json_tag is None
        assert kind_for_tag(None).name == "scenario"

    def test_default_sinks_expose_table_rows(self):
        for kind in KINDS.values():
            assert hasattr(kind.make_sink(), "rows")


@pytest.mark.parametrize("name", sorted(KINDS))
class TestKindConformance:
    """The per-kind contracts the cache / spill / shard formats rely on."""

    def test_sample_task_resolves_to_its_kind(self, name):
        kind = KINDS[name]
        task = kind.sample_task()
        assert kind_for_spec(task.spec) is kind

    def test_summary_json_round_trip_is_byte_identical(self, name, sample_summaries):
        _, summary, _ = sample_summaries[name]
        data = summary.to_json_bytes()
        clone = summary_from_json_dict(json.loads(data.decode("utf-8")))
        assert type(clone) is KINDS[name].summary_type
        assert clone.to_json_bytes() == data

    def test_payload_tag_selects_the_kind(self, name, sample_summaries):
        _, summary, _ = sample_summaries[name]
        assert kind_for_payload(summary.to_json_dict()).name == name

    def test_cache_entry_bytes_equal_summary_bytes(self, name, sample_summaries):
        task, summary, cache = sample_summaries[name]
        cached = cache.get_bytes(task.spec_hash, task.spec.seed, record=False)
        assert cached == summary.to_json_bytes()

    def test_cache_key_is_stable_across_pickling(self, name):
        task = KINDS[name].sample_task()
        clone = pickle.loads(pickle.dumps(task))
        assert clone.spec_hash == task.spec_hash

    def test_cache_key_is_stable_across_reconstruction(self, name):
        assert KINDS[name].sample_task().spec_hash == KINDS[name].sample_task().spec_hash

    def test_cache_key_covers_the_seed(self, name):
        task = KINDS[name].sample_task()
        reseeded = SweepTask(
            protocol=task.protocol,
            spec=dataclasses.replace(task.spec, seed=task.spec.seed + 1),
        )
        assert reseeded.spec_hash != task.spec_hash


class TestUnknownKindErrors:
    """Resolution failures must name the kind so they self-diagnose."""

    def test_unknown_name_names_the_kind(self):
        with pytest.raises(UnknownSpecKindError, match="mystery-kind"):
            kind_by_name("mystery-kind")

    @pytest.mark.parametrize(
        "tag",
        ["mystery-tag", ["throughput"], {"kind": "throughput"}, 7, 1.5, True],
        ids=["string", "list", "object", "int", "float", "bool"],
    )
    def test_unknown_tag_names_the_tag(self, tag):
        with pytest.raises(UnknownSpecKindError, match=re.escape(repr(tag))):
            kind_for_tag(tag)

    @pytest.mark.parametrize(
        "tag",
        ["mystery-tag", ["throughput"], {"kind": "throughput"}, 7],
        ids=["string", "list", "object", "number"],
    )
    def test_unknown_payload_names_the_tag(self, tag):
        with pytest.raises(UnknownSpecKindError, match=re.escape(repr(tag))):
            summary_from_json_dict({"kind": tag})

    def test_unknown_spec_type_names_the_type(self):
        with pytest.raises(UnknownSpecKindError, match="float"):
            kind_for_spec(3.14)

    def test_error_lists_the_registered_kinds(self):
        with pytest.raises(UnknownSpecKindError, match="scenario"):
            kind_by_name("nope")


# ----------------------------------------------------------------------
# The toy kind: a kind src/ never names, installed for one test.
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ToySpec:
    """A trivial spec: 'compute value * factor' (no simulator involved)."""

    value: int = 1
    factor: int = 2
    seed: int = 0


@dataclass
class ToySummary:
    """The toy kind's summary record, with the canonical-JSON contract."""

    protocol: str
    spec_hash: str
    seed: int
    product: int
    metrics: dict[str, Any] = field(default_factory=dict)

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "kind": "toy",
            "protocol": self.protocol,
            "spec_hash": self.spec_hash,
            "seed": self.seed,
            "product": self.product,
            "metrics": self.metrics,
        }

    @classmethod
    def from_json_dict(cls, payload: Mapping[str, Any]) -> "ToySummary":
        return cls(
            protocol=payload["protocol"],
            spec_hash=payload["spec_hash"],
            seed=payload["seed"],
            product=payload["product"],
            metrics=dict(payload["metrics"]),
        )

    def to_json_bytes(self) -> bytes:
        return canonical_json_bytes(self.to_json_dict())


class ToySumSink(SummarySink):
    """The toy kind's default aggregate: a running product total."""

    def __init__(self) -> None:
        self.total = 0
        self.count = 0

    def accept(self, index: int, summary) -> None:
        if isinstance(summary, ToySummary):
            self.total += summary.product
            self.count += 1

    def rows(self):
        return [{"records": self.count, "total": self.total}]


def _execute_toy(protocol, spec, *, spec_hash, measures=()):
    return ToySummary(
        protocol=protocol,
        spec_hash=spec_hash,
        seed=spec.seed,
        product=spec.value * spec.factor,
    )


@pytest.fixture
def toy_kind(install_kind):
    """Install the toy kind for one test."""
    return install_kind(
        SpecKind(
            name="toy",
            spec_type=ToySpec,
            summary_type=ToySummary,
            execute=_execute_toy,
            decode=ToySummary.from_json_dict,
            json_tag="toy",
            make_sink=ToySumSink,
            sample_task=lambda: SweepTask(protocol="noop", spec=ToySpec()),
        )
    )


@pytest.fixture
def toy_tasks():
    return [
        SweepTask(protocol="noop", spec=ToySpec(value=value, seed=value))
        for value in range(1, 7)
    ]


class TestToyThirdKind:
    """A kind outside the table runs on every engine surface unchanged."""

    def test_engine_runs_toy_tasks(self, toy_kind, toy_tasks):
        result = SweepEngine(workers=1).run(toy_tasks)
        assert [s.product for s in result.summaries] == [2, 4, 6, 8, 10, 12]

    def test_cache_round_trips_toy_summaries(self, toy_kind, toy_tasks, tmp_path):
        engine = SweepEngine(workers=1, cache=tmp_path / "cache")
        cold = engine.run(toy_tasks)
        warm = engine.run(toy_tasks)
        assert (warm.executed, warm.cache_hits) == (0, len(toy_tasks))
        assert [s.to_json_bytes() for s in warm.summaries] == [
            s.to_json_bytes() for s in cold.summaries
        ]

    def test_jsonl_spill_round_trips_toy_summaries(self, toy_kind, toy_tasks, tmp_path):
        path = tmp_path / "toy.jsonl"
        SweepEngine(workers=1).run_streaming(toy_tasks, sinks=JsonlSink(path))
        records = list(read_jsonl(path))
        assert all(isinstance(record, ToySummary) for record in records)
        assert [record.product for record in records] == [2, 4, 6, 8, 10, 12]

    def test_shard_merge_matches_single_machine_run(self, toy_kind, toy_tasks, tmp_path):
        single = tmp_path / "single.jsonl"
        SweepEngine(workers=1).run_streaming(toy_tasks, sinks=JsonlSink(single))
        for index in range(3):
            run_shard_log(
                toy_tasks, index, 3, tmp_path / "log", engine=SweepEngine(workers=1)
            )
        merged = tmp_path / "merged.jsonl"
        result = merge_result_log(tmp_path / "log", jsonl=merged)
        assert merged.read_bytes() == single.read_bytes()
        assert result.kind_sinks["toy"].rows() == [{"records": 6, "total": 42}]

    def test_unregistering_restores_the_unknown_kind_error(self, toy_tasks):
        # Outside the fixture the toy kind must be gone again.
        with pytest.raises(UnknownSpecKindError, match="ToySpec"):
            kind_for_spec(toy_tasks[0].spec)
