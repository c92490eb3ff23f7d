"""Write ``BENCH_sweep.json``: the per-commit sweep-engine perf snapshot.

CI's benchmarks job runs this and uploads the JSON as an artifact, so the
performance trajectory of the engine's three hot paths is tracked commit
by commit:

* **cold throughput** -- scenarios/s of a cold streaming sweep;
* **warm cache** -- scenarios/s and hit rate of the identical re-sweep
  (must be 100% hits, zero executions);
* **shard-merge** -- seconds to fold a 3-shard result log back into
  aggregates, plus a byte-identity check against the single-machine spill;
* **open-loop txn throughput** -- simulated transactions/s of the
  concurrent-transaction scheduler under Poisson arrivals, hot-spot skew,
  victim retries and a crash/recovery schedule (the RETRY workload shape).

Run directly::

    PYTHONPATH=src python tools/bench_sweep.py [--out BENCH_sweep.json]

The grid is deliberately modest (hundreds of scenarios, seconds of wall
clock) so the job stays cheap; the numbers are for *trajectory*, not
absolute benchmarking (see benchmarks/ for those).
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys
import tempfile
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

SHARD_COUNT = 3


def openloop_txn_pass():
    """Time the scheduler on the RETRY-shaped open-loop workload.

    Returns ``(transactions, elapsed_seconds, committed)`` for one
    contended 200-transaction run with Poisson arrivals, hot-spot skew,
    a retry budget, lock-wait timeouts and a mid-run crash/recovery --
    the open-loop txn/s figure tracked per commit.
    """
    from repro.sim.failures import CrashSchedule
    from repro.txn import (
        DeadlockPolicy,
        RetryPolicy,
        ThroughputSpec,
        run_throughput_scenario,
    )

    spec = ThroughputSpec(
        n_sites=3,
        n_transactions=200,
        tx_rate=2.0,
        arrival="poisson",
        hotspot=1.0,
        n_keys=8,
        op_delay=0.1,
        crashes=CrashSchedule.single(2, 60.0, recover_at=68.0),
        deadlock=DeadlockPolicy(detect_cycles=True, wait_timeout=4.0),
        retry=RetryPolicy(max_attempts=3, backoff=1.0),
        seed=7,
    )
    started = time.perf_counter()
    summary = run_throughput_scenario("terminating-three-phase-commit", spec).summary
    elapsed = time.perf_counter() - started
    return summary.offered, elapsed, summary.committed


def build_tasks():
    """The benchmark grid: 2 protocols x standard onsets x 3 simple splits."""
    from repro.engine import ScenarioGrid

    tasks = []
    for protocol in ("two-phase-commit", "terminating-three-phase-commit"):
        grid = ScenarioGrid.from_partition_sweep(
            protocol, 3, times=[t * 0.25 for t in range(1, 17)]
        )
        tasks.extend(grid.tasks())
    return tasks


def usable_cpus() -> int:
    """CPUs this process may actually run on (affinity-aware).

    ``os.cpu_count()`` reports the machine; CI containers and cgroup limits
    often allow far fewer.  A multi-worker "speedup" measured with more
    workers than usable CPUs is time-slicing, not parallelism -- the
    snapshot records this number so such comparisons are annotated rather
    than misread as engine regressions.
    """
    getaffinity = getattr(os, "sched_getaffinity", None)
    if getaffinity is not None:
        try:
            return len(getaffinity(0)) or 1
        except OSError:
            pass
    return os.cpu_count() or 1


def check_against_baseline(payload: dict, baseline_path: pathlib.Path, tolerance: float):
    """Compare the single-core rate against a committed baseline snapshot.

    Returns an error string when ``serial_scenarios_per_second`` regressed
    by more than ``tolerance`` (a fraction, e.g. ``0.2``), ``None`` when
    within bounds.  Only the serial rate is gated: it is the one number
    that is meaningful regardless of how many CPUs the runner happens to
    expose.
    """
    baseline = json.loads(baseline_path.read_text())
    reference = baseline.get("serial_scenarios_per_second")
    if not reference:
        return f"baseline {baseline_path} has no serial_scenarios_per_second"
    current = payload["serial_scenarios_per_second"]
    floor = reference * (1.0 - tolerance)
    if current < floor:
        return (
            f"single-core regression: {current:.1f} scenarios/s is more than "
            f"{tolerance:.0%} below the baseline {reference:.1f} "
            f"(floor {floor:.1f}, from {baseline_path})"
        )
    return None


def worker_metrics(snapshot: dict) -> dict:
    """Fold an obs snapshot into the bench fields for the cold pass.

    Returns ``dispatch_overhead_share`` (the fraction of ``elapsed x
    workers`` not spent executing scenarios -- the number ROADMAP item 1
    blames for workers=4 losing to workers=1) and per-worker utilization,
    straight from the gauges the engine finalizes per run.
    """
    gauges = snapshot.get("gauges", {})
    utilization = {}
    for name, value in gauges.items():
        prefix, _, quantity = name.rpartition(".")
        if quantity == "utilization" and prefix.startswith("engine.worker."):
            utilization[prefix[len("engine.worker."):]] = round(value, 4)
    return {
        "dispatch_overhead_share": round(
            gauges.get("engine.dispatch_overhead_share", 0.0), 4
        ),
        "worker_utilization": utilization,
    }


def main(argv=None) -> int:
    """Run the timed passes and write the JSON snapshot."""
    from repro.engine import JsonlSink, SweepEngine, merge_result_log, run_shard_log
    from repro.obs.metrics import MetricsRegistry

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_sweep.json", metavar="PATH")
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument(
        "--check",
        metavar="BASELINE",
        default=None,
        help="compare serial scenarios/s against this committed BENCH_sweep.json "
        "and fail on regression beyond --tolerance",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.2,
        help="allowed fractional regression for --check (default 0.2 = 20%%)",
    )
    args = parser.parse_args(argv)

    cpus = usable_cpus()
    tasks = build_tasks()
    with tempfile.TemporaryDirectory(prefix="bench-sweep-") as scratch:
        scratch = pathlib.Path(scratch)
        cache = scratch / "cache"
        cold_metrics = MetricsRegistry()
        engine = SweepEngine(workers=args.workers, cache=cache, metrics=cold_metrics)

        # Serial pass first, uncached: the one rate comparable across any
        # runner, and the number the perf-smoke --check gates on.
        serial = SweepEngine(workers=1).run_streaming(
            tasks, sinks=JsonlSink(scratch / "serial.jsonl")
        )

        cold = engine.run_streaming(tasks, sinks=JsonlSink(scratch / "cold.jsonl"))
        # Snapshot before the warm pass: the per-run gauges (utilization,
        # dispatch-overhead share) must describe the cold sweep alone.
        cold_snapshot = cold_metrics.snapshot()
        warm = engine.run_streaming(tasks, sinks=JsonlSink(scratch / "warm.jsonl"))

        shard_started = time.perf_counter()
        for index in range(SHARD_COUNT):
            run_shard_log(
                tasks,
                index,
                SHARD_COUNT,
                scratch / "log",
                engine=SweepEngine(workers=args.workers, cache=cache),
            )
        shard_elapsed = time.perf_counter() - shard_started

        merge_started = time.perf_counter()
        result = merge_result_log(scratch / "log", jsonl=scratch / "merged.jsonl")
        merge_elapsed = time.perf_counter() - merge_started
        byte_identical = (
            (scratch / "merged.jsonl").read_bytes()
            == (scratch / "cold.jsonl").read_bytes()
        )

    openloop_offered, openloop_elapsed, openloop_committed = openloop_txn_pass()

    parallel_meaningful = args.workers <= cpus
    payload = {
        "scenarios": cold.total,
        "workers": args.workers,
        "usable_cpus": cpus,
        "serial_elapsed_seconds": round(serial.elapsed, 4),
        "serial_scenarios_per_second": round(serial.throughput, 1),
        # False when workers exceed usable CPUs: the cold-vs-serial ratio is
        # then time-slicing overhead, not a parallel speedup measurement.
        "parallel_comparison_meaningful": parallel_meaningful,
        "cold_elapsed_seconds": round(cold.elapsed, 4),
        "cold_scenarios_per_second": round(cold.throughput, 1),
        "warm_elapsed_seconds": round(warm.elapsed, 4),
        "warm_scenarios_per_second": round(warm.throughput, 1),
        "cache_hit_rate": round(warm.cache_hits / warm.total, 4) if warm.total else 0.0,
        "warm_executed": warm.executed,
        "shard_count": SHARD_COUNT,
        "shard_run_seconds": round(shard_elapsed, 4),
        "shard_merge_seconds": round(merge_elapsed, 4),
        "merged_records": result.records,
        "merged_byte_identical": byte_identical,
        "openloop_transactions": openloop_offered,
        "openloop_committed": openloop_committed,
        "openloop_elapsed_seconds": round(openloop_elapsed, 4),
        "openloop_txn_per_second": round(openloop_offered / openloop_elapsed, 1)
        if openloop_elapsed
        else 0.0,
        **worker_metrics(cold_snapshot),
    }
    out = pathlib.Path(args.out)
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(json.dumps(payload, indent=2, sort_keys=True))
    if not parallel_meaningful:
        print(
            f"note: workers={args.workers} exceeds usable_cpus={cpus}; "
            "multi-worker numbers measure time-slicing, not parallel speedup",
            file=sys.stderr,
        )

    failures = []
    if warm.executed != 0:
        failures.append(f"warm re-sweep executed {warm.executed} scenario(s)")
    if not byte_identical:
        failures.append("merged result log differs from the single-machine spill")
    if args.check is not None:
        error = check_against_baseline(payload, pathlib.Path(args.check), args.tolerance)
        if error is not None:
            failures.append(error)
    if failures:
        print("; ".join(failures), file=sys.stderr)
        return 1
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
