"""Named in-worker measurements over a run's trace.

The trace of a run is too heavy to ship across process boundaries, so any
quantity the experiments derive from it (the Figs. 5-7 / 9 timing bounds)
must be computed *inside* the worker and returned as plain JSON-able data in
:attr:`RunSummary.metrics <repro.engine.summary.RunSummary.metrics>`.

Measures are referenced *by name* in sweep tasks (names pickle; closures do
not).  Each measure maps a full
:class:`~repro.protocols.runner.TransactionRunResult` to a JSON-able value;
site-keyed mappings use string keys so cached and fresh summaries compare
equal after a JSON round-trip.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable

from repro.analysis.timing import (
    measure_master_probe_window,
    measure_protocol_timeouts,
    measure_wait_after_timeout_in_p,
    measure_wait_after_timeout_in_w,
)
from repro.engine.registry import bump_registry_generation
from repro.protocols.runner import TransactionRunResult

Measure = Callable[[TransactionRunResult], Any]

MEASURES: dict[str, Measure] = {}


def register_measure(name: str) -> Callable[[Measure], Measure]:
    """Decorator registering a measure under ``name``."""

    def _register(fn: Measure) -> Measure:
        if name in MEASURES:
            raise ValueError(f"measure {name!r} already registered")
        MEASURES[name] = fn
        bump_registry_generation()
        return fn

    return _register


def resolve_measures(names: Iterable[str]) -> tuple[str, ...]:
    """Validate measure names early (in the parent, before dispatch)."""
    names = tuple(names)
    unknown = [n for n in names if n not in MEASURES]
    if unknown:
        raise KeyError(f"unknown measure(s) {unknown}; available: {sorted(MEASURES)}")
    return names


def apply_measures(result: TransactionRunResult, names: Iterable[str]) -> dict[str, Any]:
    """Evaluate the named measures against one run."""
    return {name: MEASURES[name](result) for name in names}


@register_measure("timeouts")
def _measure_timeouts(result: TransactionRunResult) -> dict[str, Any]:
    """Fig. 5: master round-trip and slave inter-command waits."""
    return measure_protocol_timeouts(result)


@register_measure("probe_window")
def _measure_probe_window(result: TransactionRunResult) -> dict[str, Any]:
    """Fig. 6: UD(prepare) -> last probe gap, plus whether a window opened."""
    return {
        "gap": measure_master_probe_window(result),
        "window_open": result.trace.first("probe-window-open") is not None,
    }


@register_measure("wait_in_w")
def _measure_wait_in_w(result: TransactionRunResult) -> dict[str, float]:
    """Fig. 7: per-slave wait from a timeout in ``w`` to the decision."""
    waits = measure_wait_after_timeout_in_w(result)
    return {str(site): wait for site, wait in sorted(waits.items())}


@register_measure("wait_in_p")
def _measure_wait_in_p(result: TransactionRunResult) -> dict[str, float]:
    """Fig. 9: per-slave wait from a timeout in ``p`` to the decision."""
    waits = measure_wait_after_timeout_in_p(result)
    return {str(site): wait for site, wait in sorted(waits.items())}
