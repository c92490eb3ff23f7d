"""The CI overhead gate's verdict and exit-code contract (tools/check_overhead.py).

The measurement itself is the ledger's (``bench/``) and runs in CI; here
the verdict is driven with synthetic timings so an over-budget bound is
shown to fail the gate and be named on stderr.
"""

import importlib.util
import pathlib

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent.parent


def _load_gate():
    spec = importlib.util.spec_from_file_location(
        "check_overhead", REPO_ROOT / "tools" / "check_overhead.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


GATE = _load_gate()

# 1000 scenarios of 300 us; the real gate is ~0.05 us and metrics cost a few %.
WITHIN = {
    "gate_us": 0.05,
    "scenarios": 1000,
    "disabled_pass_us": 300_000.0,
    "enabled_pass_us": 312_000.0,
}


@pytest.mark.parametrize(
    "overrides, status, named",
    [
        ({}, 0, []),
        ({"enabled_pass_us": 345_000.0}, 1, ["enabled-path overhead 15.00% exceeds 10%"]),
        ({"gate_us": 0.5}, 1, ["disabled-path overhead bound 5.333% exceeds 3%"]),
        (
            {"gate_us": 0.5, "enabled_pass_us": 345_000.0},
            1,
            ["disabled-path overhead bound", "enabled-path overhead"],
        ),
    ],
)
def test_gate_exit_code_names_each_exceeded_bound(
    monkeypatch, capsys, overrides, status, named
):
    monkeypatch.setattr(GATE, "measure", lambda: {**WITHIN, **overrides})
    assert GATE.main() == status
    captured = capsys.readouterr()
    assert [message for message in named if message not in captured.err] == []
    assert ("overhead gate: OK" in captured.out) == (status == 0)
    assert (captured.err == "") == (status == 0)
