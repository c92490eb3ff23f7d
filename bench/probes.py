"""Per-layer metrics of the traced run.

Two sources feed the per-layer numbers, both driven from here and never
from inside ``src/``:

* **probes** -- small timed loops around one layer's public function
  (``Simulator.schedule``/``run``, ``run_scenario``, ``spec_hash``,
  ``to_json_bytes``, ``ResultCache.put_bytes`` ...), run on inputs taken
  from the workload that is being traced;
* **the traced pass** -- counts and gauges from the engine's own
  ``metrics=MetricsRegistry()`` snapshot, and span totals from the replay
  ledger.

A workload reports the metrics of the layers it exercises; every other
declared per-layer metric reads 0 for that workload ("layer not run").
Counts that repeat exactly under one seed are listed in
``bench.harness.EXACT_COUNTS``.
"""

from __future__ import annotations

import pathlib
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, replace
from typing import Any, Callable, Sequence

from repro.core import catalog
from repro.core.concurrency import analyze
from repro.core.reachability import explore_model
from repro.db.locks import LockManager, LockMode
from repro.engine import (
    DecisionTimeHistogramSink,
    JsonlSink,
    ResultCache,
    SweepEngine,
    VerdictCounterSink,
    execute_task,
    read_segment,
    write_segment,
)
from repro.engine.resultlog import SegmentHeader
from repro.engine.summary import summary_from_json_bytes
from repro.modelcheck.checker import check_model
from repro.modelcheck.protocols import resolve_protocol
from repro.protocols.registry import available_protocols, create_protocol
from repro.protocols.runner import run_scenario
from repro.sim.kernel import Simulator
from repro.workloads.transactions import generate_transactions

from bench.harness import ROOT, SpanLedger, median_us
from bench.workloads import PassResult, Workload, scenario_tasks

ABBREVIATIONS = {
    "two-phase-commit": "2pc",
    "extended-two-phase-commit": "x2pc",
    "three-phase-commit": "3pc",
    "naive-extended-three-phase-commit": "n3pc",
    "terminating-three-phase-commit": "t3pc",
    "terminating-three-phase-commit-no-transient": "t3pc-nt",
    "quorum-commit": "qc",
    "terminating-quorum-commit": "tqc",
}

@dataclass
class TraceContext:
    """Everything a workload's per-layer function may read."""

    workload: Workload
    scratch: pathlib.Path
    snapshot: dict[str, Any]  # registry snapshot of the traced pass
    traced: PassResult
    traced_seconds: float
    ledger: SpanLedger
    smoke: bool

    @property
    def repeat(self) -> int:
        """Timed batches per probe (1 in smoke runs)."""
        return 1 if self.smoke else 5

    def counter(self, name: str) -> float:
        return self.snapshot.get("counters", {}).get(name, 0)

    def histogram_total(self, name: str) -> float:
        return self.snapshot.get("histograms", {}).get(name, {}).get("total", 0.0)

    def histogram_mean_ms(self, name: str) -> float:
        payload = self.snapshot.get("histograms", {}).get(name)
        if not payload or not payload["count"]:
            return 0.0
        return payload["total"] / payload["count"] * 1e3

    def span_us_per(self, name: str, per: int) -> float:
        """Total ledger time of span ``name`` spread over ``per`` operations."""
        return self.ledger.total_seconds(name) / per * 1e6 if per else 0.0


# ----------------------------------------------------------------------
# probes: one layer's public function in a timed loop
# ----------------------------------------------------------------------
def kernel_events_per_s(ctx: TraceContext) -> float:
    """No-op events through ``Simulator.schedule`` + ``run``."""
    count = 5_000 if ctx.smoke else 200_000

    def noop() -> None:
        pass

    def one_run() -> None:
        sim = Simulator()
        for index in range(count):
            sim.schedule(index * 1e-3, noop)
        sim.run()

    return count / (median_us(one_run, repeat=1 if ctx.smoke else 3) / 1e6)


def sim_counts(ctx: TraceContext, scenarios: int, messages: int) -> dict[str, float]:
    """Kernel and network counts per simulated scenario, from the registry."""
    scheduled = ctx.counter("sim.events_scheduled")
    return {
        "sim.kernel.events_per_scenario": ctx.counter("sim.events_executed") / scenarios,
        "sim.kernel.cancelled_share": (
            ctx.counter("sim.events_cancelled") / scheduled if scheduled else 0.0
        ),
        "sim.network.messages_per_scenario": messages / scenarios,
    }


def _sample(tasks: Sequence, limit: int) -> list:
    """Up to ``limit`` tasks spread evenly over the list."""
    step = max(1, len(tasks) // limit)
    return list(tasks[::step])[:limit]


def runner_metrics(ctx: TraceContext, tasks: Sequence) -> dict[str, float]:
    """``run_scenario`` whole, and with a zero horizon (build + harvest only).

    A fresh protocol object per call, as the engine's executor makes one:
    the extended protocols memoize their Rule (a)/(b) tables per object.
    """
    sample = _sample(tasks, 8 if ctx.smoke else 48)
    whole, setup_only = [], []
    for task in sample:
        stub = replace(task.spec, horizon=1e-9)
        for spec, bucket in ((task.spec, whole), (stub, setup_only)):
            bucket.append(
                median_us(
                    lambda: run_scenario(create_protocol(task.protocol), spec, collect_trace=False),
                    repeat=ctx.repeat,
                )
            )
    scenario_us = statistics.median(whole)
    setup_us = statistics.median(setup_only)
    return {
        "protocols.runner.scenario_us": scenario_us,
        "protocols.runner.setup_us": setup_us,
        "protocols.runner.simulate_share": 1.0 - setup_us / scenario_us,
    }


def per_protocol_scenario_us(ctx: TraceContext, workload) -> dict[str, float]:
    """Median ``run_scenario`` per registered protocol on the workload's grid shape."""
    p = workload.params
    out = {}
    for protocol in available_protocols():
        tasks = scenario_tasks(
            [protocol], p["n_sites"], p["onsets"][:2], p["votes"][:2], p["spec_seeds"]
        )
        samples = [
            median_us(
                lambda: run_scenario(create_protocol(protocol), task.spec, collect_trace=False),
                repeat=1,
            )
            for task in _sample(tasks, 4 if ctx.smoke else 14)
        ]
        out[f"protocols.scenario_us.{ABBREVIATIONS[protocol]}"] = statistics.median(samples)
    return out


def analyze_ms(ctx: TraceContext, n_sites: int) -> float:
    """``core.concurrency.analyze`` of 3PC: what each extended role re-derives."""
    spec = catalog.three_phase_commit()
    return median_us(lambda: analyze(spec, n_sites), repeat=ctx.repeat) / 1e3


def grid_and_hash(ctx: TraceContext, build: Callable[[], list]) -> dict[str, float]:
    """Task enumeration rate, and ``spec_hash`` on never-hashed task objects."""
    build_us = median_us(build, repeat=ctx.repeat)
    tasks = build()
    started = time.perf_counter()
    for task in tasks:
        task.spec_hash
    hash_us = (time.perf_counter() - started) / len(tasks) * 1e6
    return {
        "engine.grid.tasks_per_s": len(tasks) / (build_us / 1e6),
        "engine.hashing.spec_hash_us": hash_us,
    }


def codec_metrics(ctx: TraceContext, summaries: Sequence) -> dict[str, float]:
    """Canonical JSON encode / decode of real summaries."""
    encoded = [summary.to_json_bytes() for summary in summaries]
    encode_us = median_us(
        lambda: [summary.to_json_bytes() for summary in summaries], repeat=ctx.repeat
    ) / len(summaries)
    decode_us = median_us(
        lambda: [summary_from_json_bytes(data) for data in encoded], repeat=ctx.repeat
    ) / len(encoded)
    return {
        "engine.summary.encode_us": encode_us,
        "engine.summary.decode_us": decode_us,
        "engine.summary.bytes_per_record": sum(map(len, encoded)) / len(encoded),
    }


def cache_metrics(ctx: TraceContext, summaries: Sequence) -> dict[str, float]:
    """``put_bytes`` into a fresh cache directory, then ``get_bytes`` back."""
    records = [(s.spec_hash, s.seed, s.to_json_bytes()) for s in summaries]
    puts = []
    for round_index in range(ctx.repeat):
        cache = ResultCache(ctx.scratch / f"probe-cache-{round_index}")
        started = time.perf_counter()
        for key, seed, data in records:
            cache.put_bytes(key, seed, data)
        puts.append((time.perf_counter() - started) / len(records))
    get_us = median_us(
        lambda: [cache.get_bytes(key, seed, record=False) for key, seed, _ in records],
        repeat=ctx.repeat,
    ) / len(records)
    return {
        "engine.cache.put_us": statistics.median(puts) * 1e6,
        "engine.cache.get_us": get_us,
    }


def sink_metrics(ctx: TraceContext, summaries: Sequence) -> dict[str, float]:
    """Aggregate fold (verdict counter + histogram) and JSONL spill per summary."""

    def fold() -> None:
        sinks = (VerdictCounterSink(), DecisionTimeHistogramSink())
        for index, summary in enumerate(summaries):
            for sink in sinks:
                sink.accept(index, summary)

    def spill() -> None:
        sink = JsonlSink(ctx.scratch / "probe-spill.jsonl")
        for index, summary in enumerate(summaries):
            sink.accept(index, summary)
        sink.close()

    return {
        "engine.sink.fold_us": median_us(fold, repeat=ctx.repeat) / len(summaries),
        "engine.sink.jsonl_us": median_us(spill, repeat=ctx.repeat) / len(summaries),
    }


def pool_spinup_ms(ctx: TraceContext, tasks: Sequence) -> float:
    """A 2-task run at ``workers=2`` minus the same run at ``workers=1``."""
    pair = list(tasks[:2])
    two = median_us(lambda: SweepEngine(workers=2).run(pair), repeat=ctx.repeat)
    one = median_us(lambda: SweepEngine(workers=1).run(pair), repeat=ctx.repeat)
    return (two - one) / 1e3


def parallel_speedup(ctx: TraceContext, workload) -> float:
    """Same pass at ``workers=1`` over ``workers=2``, interleaved, medians."""
    one, two = [], []
    for round_index in range(1 if ctx.smoke else 2):
        for workers, bucket in ((1, one), (2, two)):
            pass_dir = ctx.scratch / f"speedup-{workers}-{round_index}"
            started = time.perf_counter()
            workload.run_pass(pass_dir, workers=workers)
            bucket.append(time.perf_counter() - started)
    return statistics.median(one) / statistics.median(two)


def dispatch_metrics(ctx: TraceContext, workers: int) -> dict[str, float]:
    """Chunk transport numbers from the engine's own registry."""
    busy = ctx.histogram_total("engine.chunk.execute_seconds")
    gauges = ctx.snapshot.get("gauges", {})
    utilization = [
        value for name, value in gauges.items()
        if name.startswith("engine.worker.") and name.endswith(".utilization")
    ]
    return {
        # Worker-slot capacity of the traced pass not spent executing chunks.
        "engine.dispatch.overhead_share": 1.0 - busy / (ctx.traced_seconds * workers),
        "engine.dispatch.worker_utilization_min": min(utilization, default=0.0),
        "engine.dispatch.chunks": ctx.counter("engine.chunks"),
        "engine.dispatch.queue_wait_ms": ctx.histogram_mean_ms("engine.chunk.queue_wait_seconds"),
        "engine.dispatch.decode_ms": ctx.histogram_mean_ms("engine.chunk.decode_seconds"),
    }


def resultlog_metrics(ctx: TraceContext, summaries: Sequence) -> dict[str, float]:
    """Seal (fsync + rename) and verified read of one 256-record segment."""
    records = [(index, s.to_json_dict()) for index, s in enumerate(summaries[:256])]
    header = SegmentHeader(
        shard_index=0, shard_count=1, total_tasks=len(records), segment_index=0
    )
    path = ctx.scratch / "probe-segment.jsonl"
    return {
        "engine.resultlog.seal_ms": median_us(
            lambda: write_segment(path, header, records), repeat=ctx.repeat
        ) / 1e3,
        "engine.resultlog.read_segment_ms": median_us(
            lambda: read_segment(path), repeat=ctx.repeat
        ) / 1e3,
    }


def lock_request_release_us(ctx: TraceContext) -> float:
    """Uncontended exclusive ``request`` + ``release_all`` on one lock table."""
    locks = LockManager(1)
    keys = [f"key-{index}" for index in range(8)]

    def cycle() -> None:
        for index, key in enumerate(keys):
            locks.request(f"txn-{index}", key, LockMode.EXCLUSIVE)
        for index in range(len(keys)):
            locks.release_all(f"txn-{index}")

    return median_us(cycle, repeat=ctx.repeat, inner=1 if ctx.smoke else 200) / len(keys)


def reachability_metrics(ctx: TraceContext, tasks: Sequence) -> dict[str, float]:
    """``explore_model`` alone against ``check_model`` on the largest config."""
    task = max(tasks, key=lambda t: (t.spec.n_sites, t.spec.fault == "partition"))
    fsa_spec, augmentation = resolve_protocol(task.protocol, task.spec.n_sites)

    def explore():
        return explore_model(
            fsa_spec,
            task.spec.n_sites,
            augmentation=augmentation,
            fault=task.spec.fault,
            no_voters=task.spec.no_voters,
            max_states=task.spec.max_states,
        )

    states = explore().state_count  # the graph itself is dropped before timing
    explore_us = median_us(explore, repeat=ctx.repeat)
    check_us = median_us(lambda: check_model(task.protocol, task.spec), repeat=ctx.repeat)
    return {
        "core.reachability.explore_states_per_s": states / (explore_us / 1e6),
        "modelcheck.checker.check_share": 1.0 - explore_us / check_us,
    }


def main_metrics(ctx: TraceContext) -> dict[str, float]:
    """CLI cold start (``python -m repro list``) and bare package import."""
    env = {"PYTHONPATH": str(ROOT / "src"), "PATH": "/usr/bin:/bin"}

    def spawn(*argv: str) -> Callable[[], None]:
        return lambda: subprocess.run(
            [sys.executable, *argv], env=env, check=True, capture_output=True, cwd=ROOT
        )

    repeat = 1 if ctx.smoke else 5
    return {
        "main.cold_start_ms": median_us(spawn("-m", "repro", "list"), repeat=repeat) / 1e3,
        "main.import_ms": median_us(spawn("-c", "import repro.engine"), repeat=repeat) / 1e3,
    }


def _executed_summaries(tasks: Sequence, limit: int) -> list:
    """Real summaries to feed the codec / cache / sink probes."""
    return [
        execute_task(task.protocol, task.spec, spec_hash=task.spec_hash)
        for task in _sample(tasks, limit)
    ]


# ----------------------------------------------------------------------
# which layers each workload reports
# ----------------------------------------------------------------------
def sweep_serial(ctx: TraceContext) -> dict[str, float]:
    w = ctx.workload
    tasks = w.build_tasks()
    summaries = _executed_summaries(tasks, 16 if ctx.smoke else 64)
    out = {"sim.kernel.events_per_s": kernel_events_per_s(ctx)}
    out.update(sim_counts(ctx, ctx.traced.ops, ctx.traced.counts["messages"]))
    out.update(runner_metrics(ctx, tasks))
    out.update(per_protocol_scenario_us(ctx, w))
    out["core.concurrency.analyze_ms"] = analyze_ms(ctx, w.params["n_sites"])
    out.update(grid_and_hash(ctx, w.build_tasks))
    out["engine.sink.fold_us"] = sink_metrics(ctx, summaries)["engine.sink.fold_us"]
    out.update(main_metrics(ctx))
    return out


def sweep_parallel(ctx: TraceContext) -> dict[str, float]:
    w = ctx.workload
    tasks = w.build_tasks()
    summaries = _executed_summaries(tasks, 16 if ctx.smoke else 128)
    out = runner_metrics(ctx, tasks)
    out.update(grid_and_hash(ctx, w.build_tasks))
    out.update(codec_metrics(ctx, summaries))
    out.update(cache_metrics(ctx, summaries))
    out.update(sink_metrics(ctx, summaries))
    out.update(dispatch_metrics(ctx, w.workers))
    out["engine.dispatch.pool_spinup_ms"] = pool_spinup_ms(ctx, tasks)
    out["engine.dispatch.parallel_speedup"] = parallel_speedup(ctx, w)
    out["engine.dispatch.first_result_ms"] = ctx.traced.counts["first_result_ms"]
    out["engine.dispatch.max_buffered"] = ctx.traced.counts["max_buffered"]
    return out


def refine_batches(ctx: TraceContext) -> dict[str, float]:
    w = ctx.workload
    counts = ctx.traced.counts
    probe_tasks = scenario_tasks(
        w.params["protocols"][:1], w.params["n_sites"], [1.0, 2.0], [[]], [1, 2]
    )
    out = dispatch_metrics(ctx, w.workers)
    # Worker labels restart with every batch's pool, so the registry's
    # per-worker gauges describe single batches, not the pass.
    out["engine.dispatch.worker_utilization_min"] = 0.0
    out["engine.dispatch.pool_spinup_ms"] = pool_spinup_ms(ctx, probe_tasks)
    out["engine.dispatch.parallel_speedup"] = parallel_speedup(ctx, w)
    out["engine.refine.batches"] = counts["batches"]
    out["engine.refine.batch_ms"] = ctx.traced_seconds / counts["batches"] * 1e3
    out["engine.refine.scenarios_per_boundary"] = (
        ctx.traced.ops / counts["boundaries"] if counts["boundaries"] else 0.0
    )
    return out


def resweep_warm(ctx: TraceContext) -> dict[str, float]:
    w = ctx.workload
    tasks = w.build_tasks()
    summaries = _executed_summaries(tasks, 16 if ctx.smoke else 128)
    lookups = ctx.counter("engine.cache.hits") + ctx.counter("engine.cache.misses")
    out = grid_and_hash(ctx, w.build_tasks)
    out.update(codec_metrics(ctx, summaries))
    out.update(cache_metrics(ctx, summaries))
    out["engine.cache.hit_share"] = ctx.counter("engine.cache.hits") / lookups if lookups else 0.0
    out["engine.sink.fold_us"] = sink_metrics(ctx, summaries)["engine.sink.fold_us"]
    return out


def txn_openloop(ctx: TraceContext) -> dict[str, float]:
    w = ctx.workload
    summaries = ctx.traced.output["summaries"]
    offered = sum(s.offered for s in summaries)
    config = w.spec().workload_config()
    out = {"sim.kernel.events_per_s": kernel_events_per_s(ctx)}
    out.update(sim_counts(ctx, len(summaries), sum(s.messages_sent for s in summaries)))
    out["workloads.transactions.generate_us_per_txn"] = (
        median_us(lambda: generate_transactions(config), repeat=ctx.repeat)
        / config.n_transactions
    )
    out["db.locks.request_release_us"] = lock_request_release_us(ctx)
    out["txn.scheduler.events_per_txn"] = ctx.traced.counts["events"] / offered
    out["txn.scheduler.committed_share"] = sum(s.committed for s in summaries) / offered
    out["txn.scheduler.retries_per_txn"] = sum(s.retries for s in summaries) / offered
    out["txn.scheduler.peak_waiting"] = ctx.traced.counts["peak_waiting"]
    out["txn.summary.encode_us"] = median_us(
        lambda: [s.to_json_bytes() for s in summaries], repeat=ctx.repeat
    ) / len(summaries)
    return out


def modelcheck_exhaustive(ctx: TraceContext) -> dict[str, float]:
    w = ctx.workload
    out = reachability_metrics(ctx, w.build_tasks())
    out["core.reachability.edges_per_state"] = ctx.traced.counts["edges"] / ctx.traced.ops
    out["modelcheck.states_total"] = ctx.traced.ops
    out["core.concurrency.analyze_ms"] = analyze_ms(ctx, w.params["configs"][0][1])
    return out


def shard_merge_log(ctx: TraceContext) -> dict[str, float]:
    w = ctx.workload
    summaries = _executed_summaries(w.tasks, 16 if ctx.smoke else 256)
    records = ctx.traced.ops
    out = resultlog_metrics(ctx, summaries)
    out["engine.resultlog.shard_us_per_record"] = ctx.span_us_per(
        "engine.resultlog.run_shard_log", records
    )
    out["engine.resultlog.merge_us_per_record"] = ctx.span_us_per(
        "engine.resultlog.merge_result_log", records
    )
    out["engine.resultlog.segments"] = ctx.traced.counts["segments"]
    out["engine.resultlog.checkpoint_commits"] = ctx.counter("resultlog.checkpoint.commits")
    codec = codec_metrics(ctx, summaries)
    out["engine.summary.decode_us"] = codec["engine.summary.decode_us"]
    out["engine.summary.bytes_per_record"] = codec["engine.summary.bytes_per_record"]
    out["engine.cache.get_us"] = cache_metrics(ctx, summaries)["engine.cache.get_us"]
    out["engine.sink.jsonl_us"] = sink_metrics(ctx, summaries)["engine.sink.jsonl_us"]
    return out


LAYER_METRICS: dict[str, Callable[[TraceContext], dict[str, float]]] = {
    fn.__name__: fn
    for fn in (
        sweep_serial,
        sweep_parallel,
        refine_batches,
        resweep_warm,
        txn_openloop,
        modelcheck_exhaustive,
        shard_merge_log,
    )
}
