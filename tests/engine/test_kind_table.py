"""The engine's fixed table of three spec kinds.

One row per kind pins what the engine resolves for it -- name, spec type,
summary type, JSON ``kind`` tag and default sink.
"""

import pytest

from repro.engine import kind_by_name, registered_kinds
from repro.engine.sink import VerdictCounterSink
from repro.modelcheck.sink import ModelCheckSink
from repro.modelcheck.spec import ModelCheckSpec
from repro.modelcheck.summary import ModelCheckSummary
from repro.protocols.runner import RunSummary, ScenarioSpec
from repro.txn.runner import ThroughputSpec
from repro.txn.sink import ThroughputSink
from repro.txn.summary import ThroughputSummary

KIND_ROWS = [
    ("scenario", ScenarioSpec, RunSummary, None, VerdictCounterSink),
    ("throughput", ThroughputSpec, ThroughputSummary, "throughput", ThroughputSink),
    ("modelcheck", ModelCheckSpec, ModelCheckSummary, "modelcheck", ModelCheckSink),
]


@pytest.mark.parametrize(
    "name, spec_type, summary_type, json_tag, sink_type",
    KIND_ROWS,
    ids=[row[0] for row in KIND_ROWS],
)
def test_kind_row(name, spec_type, summary_type, json_tag, sink_type):
    kind = kind_by_name(name)
    assert (kind.name, kind.spec_type, kind.summary_type, kind.json_tag) == (
        name,
        spec_type,
        summary_type,
        json_tag,
    )
    assert type(kind.make_sink()) is sink_type


def test_the_kind_table_has_exactly_three_rows():
    assert [kind.name for kind in registered_kinds()] == [
        row[0] for row in KIND_ROWS
    ]
