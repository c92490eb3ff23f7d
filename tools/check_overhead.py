"""CI overhead gate for the observability layer.

The obs design contract (docs/observability.md) is *zero-cost when off*:
every instrumentation point is gated behind one cached ``is None`` check,
so a run without ``--metrics-json`` must cost within 3% of the
pre-instrumentation engine, and a metrics-enabled run within 10% of a
disabled one.  This gate holds both bounds and nothing else: the input is
the ledger's ``sweep_serial`` workload (``bench/workloads.py``, seed 0) and
every timing is ``bench.harness.median_us``.

* **enabled-path bound** -- the median ``sweep_serial`` pass with
  ``metrics=MetricsRegistry()`` against the median pass with metrics off
  (what a traced ledger run reports as
  ``obs.metrics.enabled_overhead_share``); fails above 10%.
* **disabled-path bound** -- the disabled path's *only* added work is the
  gate itself (a module-global read plus an ``is None`` branch), so its
  cost is measured directly and multiplied by a deliberately generous
  per-scenario gate count.  Fails when that exceeds 3% of the measured
  per-scenario time.  A 3% wall-clock diff between two sweeps is within CI
  jitter; this bound is stable to a few percent.

Run directly (exit 0 within both bounds, 1 naming each bound exceeded)::

    python3 tools/check_overhead.py
"""

from __future__ import annotations

import pathlib
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

#: Gate evaluations charged per scenario for the disabled-path bound.  The
#: real disabled serial path evaluates a handful (one kernel-hook check per
#: ``Simulator.run``, one or two ``metrics is None`` checks per task, one
#: cache-probe gate when a cache is configured); 32 is a safety factor of
#: roughly ten on top of that.
GATES_PER_SCENARIO = 32

DISABLED_BOUND = 0.03
ENABLED_BOUND = 0.10

#: Timed batches per ``median_us`` call.
REPEAT = 5


def overhead_failures(disabled_overhead: float, enabled_overhead: float) -> list[str]:
    """The bounds the two overhead shares exceed, one message each (empty = pass)."""
    failures = []
    if disabled_overhead > DISABLED_BOUND:
        failures.append(
            f"disabled-path overhead bound {100.0 * disabled_overhead:.3f}% "
            f"exceeds {100.0 * DISABLED_BOUND:.0f}%"
        )
    if enabled_overhead > ENABLED_BOUND:
        failures.append(
            f"enabled-path overhead {100.0 * enabled_overhead:.2f}% "
            f"exceeds {100.0 * ENABLED_BOUND:.0f}%"
        )
    return failures


def measure() -> dict[str, float]:
    """Time the gate and the ``sweep_serial`` pass with metrics off and on."""
    for entry in (REPO_ROOT, REPO_ROOT / "src"):
        if str(entry) not in sys.path:
            sys.path.insert(0, str(entry))
    from bench.harness import median_us, scratch_dir
    from bench.workloads import SweepSerial
    from repro.obs.metrics import MetricsRegistry, get_active

    def gate() -> None:
        # The extra call frame only overstates the gate: the bound stays safe.
        if get_active() is not None:  # pragma: no cover - metrics are off here
            raise RuntimeError("metrics unexpectedly active")

    workload = SweepSerial(0)
    with scratch_dir() as scratch:
        workload.setup(scratch)
        scenarios = workload.run_pass(scratch).ops  # warms plans and imports
        disabled_pass_us = median_us(lambda: workload.run_pass(scratch), repeat=REPEAT)
        enabled_pass_us = median_us(
            lambda: workload.run_pass(scratch, metrics=MetricsRegistry()), repeat=REPEAT
        )
    return {
        "gate_us": median_us(gate, repeat=REPEAT, inner=200_000),
        "scenarios": scenarios,
        "disabled_pass_us": disabled_pass_us,
        "enabled_pass_us": enabled_pass_us,
    }


def main() -> int:
    measured = measure()
    gate_us = measured["gate_us"]
    scenario_us = measured["disabled_pass_us"] / measured["scenarios"]
    disabled_overhead = GATES_PER_SCENARIO * gate_us / scenario_us
    enabled_overhead = measured["enabled_pass_us"] / measured["disabled_pass_us"] - 1.0
    print(
        f"sweep_serial seed 0, median of {REPEAT} passes: "
        f"metrics off {measured['disabled_pass_us'] / 1e6:.4f}s "
        f"({scenario_us:.0f}us/scenario), on {measured['enabled_pass_us'] / 1e6:.4f}s"
    )
    print(
        f"enabled-path overhead: {100.0 * enabled_overhead:+.2f}% "
        f"(bound {100.0 * ENABLED_BOUND:.0f}%)"
    )
    print(
        f"disabled gate: {gate_us * 1e3:.0f}ns x {GATES_PER_SCENARIO}/scenario "
        f"= {100.0 * disabled_overhead:.3f}% of {scenario_us:.0f}us/scenario "
        f"(bound {100.0 * DISABLED_BOUND:.0f}%)"
    )
    failures = overhead_failures(disabled_overhead, enabled_overhead)
    if failures:
        print("; ".join(failures), file=sys.stderr)
        return 1
    print("overhead gate: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
