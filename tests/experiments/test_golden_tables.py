"""Golden-table regression tests for the figure experiments.

``golden_tables.json`` was captured from the pre-engine (sequential)
implementation of every figure experiment, and later extended to the
SEC6 / SEC7 / THM10 / AVAIL / MSG / MULTI experiments; these tests pin the
reproduced numbers -- every table row and every headline -- so a rewrite
of the harness or of a protocol provably changed no reproduced result.
The invocations live in ``regen_golden_tables.py`` (``RUNS``).

If an experiment's *numbers* legitimately change (e.g. a protocol fix), the
goldens must be regenerated deliberately::

    PYTHONPATH=src python tests/experiments/regen_golden_tables.py
"""

import json

import pytest

from regen_golden_tables import GOLDEN_PATH, RUNS


@pytest.fixture(scope="module")
def goldens():
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


@pytest.mark.parametrize("figure", sorted(RUNS))
def test_figure_matches_golden(figure, goldens):
    golden = goldens[figure]
    report = RUNS[figure]()
    assert report.experiment == golden["experiment"]
    assert report.title == golden["title"]
    assert report.headline == golden["headline"]
    assert report.table == golden["table"]


def test_goldens_cover_fig1_through_fig9(goldens):
    assert sorted(goldens) == sorted(RUNS)
    for figure, golden in goldens.items():
        assert golden["table"], f"{figure} golden has an empty table"
        assert golden["headline"], f"{figure} golden has an empty headline"
