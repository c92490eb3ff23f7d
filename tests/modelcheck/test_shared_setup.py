"""The checker's shared setups against one-off explorations.

``check_model`` walks the setup its protocol plan keeps per vote script
(:meth:`~repro.protocols.plan.ProtocolPlan.model_setup`), so the compiled
tables and the memo of moves that one check fills serve every later check,
under any envelope.  ``explore_model`` compiles a setup of its own per
call.  These tests pin that sharing changes nothing observable:

* every graph ``check_model`` explores has the counts and digests (visit
  order, edges, receptions; see ``regen_golden_graphs.py``) of a one-off
  ``explore_model`` of the same protocol, size, envelope and vote script;
* the order in which envelopes are checked does not change a summary's
  bytes, across fresh interpreters;
* a result's ``edges`` and ``receptions`` stay its own after the setup
  walked other envelopes.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from regen_golden_graphs import graph_digests
from repro.core.reachability import ALL_FAULT_ENVELOPES, explore_model
from repro.modelcheck.checker import check_model
from repro.modelcheck.protocols import checkable_plan, checkable_protocols, resolve_protocol
from repro.modelcheck.spec import ModelCheckSpec


@pytest.mark.parametrize("no_voters", [None, frozenset({2})], ids=["both-votes", "no=2"])
@pytest.mark.parametrize("n_sites", [2, 3, 4])
@pytest.mark.parametrize("protocol", checkable_protocols())
def test_shared_setup_explores_the_one_off_graph(protocol, n_sites, no_voters):
    spec, augmentation = resolve_protocol(protocol, n_sites)
    setup = checkable_plan(protocol, n_sites).model_setup(no_voters)
    for fault in ALL_FAULT_ENVELOPES:
        shared = check_model(
            protocol, ModelCheckSpec(n_sites=n_sites, fault=fault, no_voters=no_voters)
        ).graph
        assert shared.walk.setup is setup
        one_off = explore_model(
            spec, n_sites, augmentation=augmentation, fault=fault, no_voters=no_voters
        )
        assert one_off.walk.setup is not setup
        assert graph_digests(shared) == graph_digests(one_off), fault


_ORDER_SCRIPT = """
import json, sys
from repro.core.reachability import ALL_FAULT_ENVELOPES
from repro.modelcheck.checker import check_model
from repro.modelcheck.protocols import checkable_protocols
from repro.modelcheck.spec import ModelCheckSpec

faults = ALL_FAULT_ENVELOPES[::-1] if sys.argv[1] == "reversed" else ALL_FAULT_ENVELOPES
summaries = {}
for protocol in checkable_protocols():
    for n_sites in (3, 4):
        for fault in faults:
            spec = ModelCheckSpec(n_sites=n_sites, fault=fault)
            summary = check_model(protocol, spec).as_summary(spec_hash="order-probe")
            summaries[f"{protocol}/n={n_sites}/{fault}"] = summary.to_json_bytes().decode()
print(json.dumps(summaries, sort_keys=True))
"""


def test_envelope_order_does_not_change_summary_bytes():
    """Forward and reverse envelope order, each in a fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(__file__).resolve().parents[2] / "src")}
    forward, backward = (
        json.loads(
            subprocess.run(
                [sys.executable, "-c", _ORDER_SCRIPT, order],
                capture_output=True,
                env=env,
                check=True,
            ).stdout
        )
        for order in ("forward", "reversed")
    )
    assert len(forward) == len(checkable_protocols()) * 2 * len(ALL_FAULT_ENVELOPES)
    assert forward == backward


@pytest.mark.parametrize("protocol", checkable_protocols())
def test_results_keep_their_envelope_after_other_checks(protocol):
    """``edges`` and ``receptions`` read late equal the values read at once."""
    for fault in ALL_FAULT_ENVELOPES:
        spec = ModelCheckSpec(n_sites=3, fault=fault)
        at_once = check_model(protocol, spec).graph
        expected = (at_once.edges, at_once.receptions)
        late = check_model(protocol, spec).graph
        for other in ALL_FAULT_ENVELOPES:
            if other != fault:
                check_model(protocol, ModelCheckSpec(n_sites=3, fault=other))
        assert (late.edges, late.receptions) == expected, fault
