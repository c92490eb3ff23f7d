"""The seven benchmark workloads.

Each workload turns ``--seed`` into inputs, runs one *pass* (the unit that
is timed), checks the pass's outputs and reduces them to a semantic digest.
A workload only ever calls the program's public functions; the traced
``replay`` re-runs the pass as an explicit loop around the same calls so
that every layer boundary gets a span.

Why these seven, and which layer each one stresses, is recorded in
``BENCHMARK.json`` and ``bench/README.md``; the sizes below are chosen so a
pass lasts between one and two seconds on a 2-vCPU sandbox.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import random
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence

from repro.engine import (
    CallbackSink,
    DecisionTimeHistogramSink,
    JsonlSink,
    RefinementDriver,
    ResultCache,
    ScenarioGrid,
    SweepEngine,
    SweepTask,
    VerdictCounterSink,
    execute_task,
    merge_result_log,
    read_jsonl,
    run_shard_log,
)
from repro.engine.grid import simple_partition_axis
from repro.engine.summary import summary_from_json_bytes
from repro.modelcheck.protocols import checkable_protocols
from repro.modelcheck.sink import ModelCheckSink
from repro.modelcheck.spec import ModelCheckSpec
from repro.obs.metrics import MetricsRegistry, activate
from repro.protocols.registry import available_protocols
from repro.sim.failures import CrashSchedule
from repro.sim.latency import UniformLatency
from repro.sim.partition import PartitionSchedule
from repro.txn import DeadlockPolicy, RetryPolicy, ThroughputSpec, run_throughput_scenario

from bench.harness import SpanLedger

#: The five protocols whose roles are cheap to build (~0.3 ms a scenario);
#: the other three re-run ``core.concurrency.analyze`` per scenario.
CHEAP_PROTOCOLS = (
    "two-phase-commit",
    "three-phase-commit",
    "quorum-commit",
    "terminating-three-phase-commit",
    "terminating-three-phase-commit-no-transient",
)
BLOCKING_PROTOCOLS = ("two-phase-commit", "three-phase-commit", "quorum-commit")

#: Latest decision, in T after submission, a terminating protocol may take:
#: at most 4 T to reach the last protocol state plus Theorem 9's 6 T.
TERMINATION_BOUND_T = 10.0

SHARD_COUNT = 3


@dataclass
class Failure:
    """One failed output check: which check, how many operations, why."""

    check: str
    failed_ops: int
    detail: str


@dataclass
class PassResult:
    """What one pass produced.

    ``ops`` is the pass's work in the workload's unit; ``output`` holds
    whatever the checks and the digest read; ``counts`` are exact-repeat
    counts the traced run reports.
    """

    ops: int
    output: dict[str, Any]
    counts: dict[str, float] = field(default_factory=dict)
    #: Digest of the pass's summaries as canonical JSON bytes (``capture`` only).
    bytes_sha: Optional[str] = None


def file_sha256(path: pathlib.Path) -> str:
    """Hex digest of a file's bytes."""
    return hashlib.sha256(path.read_bytes()).hexdigest()


class _BytesDigest:
    """Running SHA-256 over summaries' canonical JSON bytes, in order."""

    def __init__(self) -> None:
        self._hash = hashlib.sha256()

    def add(self, index: int, summary: Any) -> None:
        self._hash.update(summary.to_json_bytes() + b"\n")

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


def _digest_of(summaries: Sequence[Any]) -> str:
    """SHA-256 over the canonical JSON bytes of ``summaries``, in order."""
    digest = _BytesDigest()
    for index, summary in enumerate(summaries):
        digest.add(index, summary)
    return digest.hexdigest()


def _direct(name: str, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
    """Call ``fn`` with no span: the untraced twin of ``SpanLedger.call``."""
    return fn(*args, **kwargs)


def _verdict_table(verdicts: VerdictCounterSink, times: DecisionTimeHistogramSink) -> dict:
    """Per-protocol verdict counts plus the worst decision-time bin (in T)."""
    table = {}
    for row in verdicts.rows():
        protocol = row["protocol"]
        bins = times.bins.get(protocol)
        table[protocol] = {
            **{k: v for k, v in row.items() if k != "protocol"},
            "undecided": times.undecided.get(protocol, 0),
            # Lower edge of the worst occupied bin: the true worst latency
            # lies in [edge, edge + bin width).
            "worst_decision_T": max(bins) * times.bin_width if bins else None,
        }
    return table


def _fold_jsonl(path: pathlib.Path) -> dict:
    """The verdict table of a JSONL spill (decodes every line)."""
    verdicts, times = VerdictCounterSink(), DecisionTimeHistogramSink()
    for index, summary in enumerate(read_jsonl(path)):
        verdicts.accept(index, summary)
        times.accept(index, summary)
    return _verdict_table(verdicts, times)


def _differing_lines(left: pathlib.Path, right: pathlib.Path) -> int:
    """Number of line positions at which two files differ."""
    a = left.read_bytes().split(b"\n")
    b = right.read_bytes().split(b"\n")
    return sum(x != y for x, y in zip(a, b)) + abs(len(a) - len(b))


class Workload:
    """Base class: seed-derived inputs plus the pass / check / digest hooks."""

    name = ""
    op = ""

    def __init__(self, seed: int, *, smoke: bool = False) -> None:
        self.seed = seed
        self.smoke = smoke
        self.rng = random.Random(f"repro-bench:{self.name}:{seed}")
        self.params: dict[str, Any] = {}
        self.derive_inputs()

    # -- inputs ---------------------------------------------------------
    def derive_inputs(self) -> None:
        """Fill ``self.params`` from ``self.rng`` (pure, cheap, no program calls)."""
        raise NotImplementedError

    def fingerprint(self) -> str:
        """Hash of the generated inputs (same seed, same hash)."""
        text = json.dumps(self.params, sort_keys=True)
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    def _onsets(self, count: int, horizon: float = 8.0) -> list[float]:
        """``count`` partition onsets over ``(0, horizon)``, seed-shifted.

        The grid keeps its spacing under every seed (so the work per pass
        stays comparable); the seed moves it by a 2-decimal offset.
        """
        step = horizon / count
        offset = round(self.rng.uniform(0.03, step - 0.03), 2)
        return [round(step * i + offset, 2) for i in range(count)]

    def _votes(self, n_sites: int) -> list[list[int]]:
        """Three vote patterns: all yes, one seed-chosen no, two seed-chosen noes."""
        slaves = list(range(2, n_sites + 1))
        return [[], [self.rng.choice(slaves)], sorted(self.rng.sample(slaves, 2))]

    # -- lifecycle ------------------------------------------------------
    def setup(self, scratch: pathlib.Path) -> None:
        """Populate caches and run one untimed warm-up pass on a reduced input."""

    def run_pass(
        self,
        pass_dir: pathlib.Path,
        *,
        metrics: Optional[MetricsRegistry] = None,
        capture: bool = False,
    ) -> PassResult:
        """One timed pass.  ``capture`` adds a digest of the summaries' bytes."""
        raise NotImplementedError

    def check(self, result: PassResult, scratch: pathlib.Path) -> list[Failure]:
        """Invariant checks on one pass's output (empty list = correct)."""
        raise NotImplementedError

    def digest(self, result: PassResult) -> dict:
        """The semantic verdict table compared with ``bench/expected``."""
        raise NotImplementedError

    def replay(self, ledger: SpanLedger, pass_dir: pathlib.Path) -> tuple[int, str]:
        """Re-run one pass as spans around public calls; ``(ops, bytes digest)``."""
        raise NotImplementedError


def scenario_tasks(
    protocols: Sequence[str],
    n_sites: int,
    onsets: Sequence[float],
    votes: Sequence[Sequence[int]],
    spec_seeds: Sequence[int],
) -> list[SweepTask]:
    """Protocol x onset x simple split x vote pattern, via ``ScenarioGrid``.

    Even-indexed onsets use the default constant delay ``T = 1`` (the
    kernel's no-RNG fast path); odd-indexed ones draw delays from
    ``UniformLatency(0.5 T, T)`` under a seed-derived spec seed.
    """
    vote_sets = [frozenset(v) for v in votes]
    tasks: list[SweepTask] = []
    for protocol in protocols:
        for index, onset in enumerate(onsets):
            uniform = index % 2 == 1
            grid = ScenarioGrid(
                protocols=(protocol,),
                n_sites=n_sites,
                partitions=simple_partition_axis(n_sites, times=[onset]),
                no_voter_options=vote_sets,
                latencies=(UniformLatency(0.5, 1.0),) if uniform else (None,),
                seeds=(spec_seeds[index],) if uniform else (0,),
            )
            tasks.extend(grid.tasks())
    return tasks


class _ScenarioWorkload(Workload):
    """Shared input derivation for the workloads that sweep scenario grids."""

    protocols: Sequence[str] = ()
    n_sites = 4
    onset_count = 0
    smoke_onsets = 2

    def derive_inputs(self) -> None:
        count = self.smoke_onsets if self.smoke else self.onset_count
        self.params = {
            "protocols": list(self.protocols),
            "n_sites": 3 if self.smoke else self.n_sites,
            # Smoke grids stay inside the first 4 T, where every verdict class occurs.
            "onsets": self._onsets(count, 4.0 if self.smoke else 8.0),
            "votes": self._votes(3 if self.smoke else self.n_sites),
            "spec_seeds": [self.rng.randrange(1, 2**31) for _ in range(count)],
        }

    def build_tasks(self, *, reduced: bool = False) -> list[SweepTask]:
        """Fresh task objects (spec hashes not yet computed)."""
        p = self.params
        onsets = p["onsets"][:2] if reduced else p["onsets"]
        votes = p["votes"][:1] if reduced else p["votes"]
        return scenario_tasks(p["protocols"], p["n_sites"], onsets, votes, p["spec_seeds"])


# ----------------------------------------------------------------------
# 1. sweep_serial
# ----------------------------------------------------------------------
class SweepSerial(_ScenarioWorkload):
    """``repro sweep --protocol all`` on one core: construction + sim dominate."""

    name = "sweep_serial"
    op = "scenario"
    protocols = tuple(available_protocols())
    onset_count = 6
    smoke_onsets = 4

    def setup(self, scratch: pathlib.Path) -> None:
        SweepEngine(workers=1).run_streaming(
            self.build_tasks(reduced=True), sinks=[VerdictCounterSink()]
        )

    def run_pass(self, pass_dir, *, metrics=None, capture=False) -> PassResult:
        verdicts, times = VerdictCounterSink(), DecisionTimeHistogramSink()
        sinks: list = [verdicts, times]
        digest = _BytesDigest()
        messages = [0]
        if capture:
            sinks.append(CallbackSink(digest.add))
        if metrics is not None:  # exact message count, traced passes only

            def count_messages(index: int, summary) -> None:
                messages[0] += summary.messages_sent

            sinks.append(CallbackSink(count_messages))
        stats = SweepEngine(workers=1, metrics=metrics).run_streaming(
            self.build_tasks(), sinks=sinks
        )
        return PassResult(
            ops=stats.total,
            output={"table": _verdict_table(verdicts, times), "executed": stats.executed},
            counts={"messages": messages[0]},
            bytes_sha=digest.hexdigest() if capture else None,
        )

    def check(self, result, scratch) -> list[Failure]:
        failures = []
        table = result.output["table"]
        for protocol, row in table.items():
            if protocol.startswith("terminating-"):
                bad = row["violations"] + row["blocked"]
                if bad:
                    failures.append(
                        Failure("terminating-consistent", bad,
                                f"{protocol}: {row['violations']} violated, {row['blocked']} blocked")
                    )
                worst = row["worst_decision_T"]
                if worst is None or worst > TERMINATION_BOUND_T:
                    failures.append(
                        Failure("termination-bound", 1,
                                f"{protocol}: worst decision {worst} T > {TERMINATION_BOUND_T} T")
                    )
        for protocol in BLOCKING_PROTOCOLS:
            if table[protocol]["blocked"] == 0:
                failures.append(Failure("blocking-nonvacuous", 1, f"{protocol} never blocked"))
        if table["naive-extended-three-phase-commit"]["violations"] == 0:
            failures.append(
                Failure("violation-nonvacuous", 1, "naive-extended-3PC never violated atomicity")
            )
        if result.output["executed"] != result.ops:
            failures.append(
                Failure("all-executed", result.ops - result.output["executed"],
                        "an uncached sweep must execute every scenario")
            )
        return failures

    def digest(self, result) -> dict:
        return {"scenarios": result.ops, "table": result.output["table"]}

    def replay(self, ledger, pass_dir) -> tuple[int, str]:
        summaries = []
        sinks = [VerdictCounterSink(), DecisionTimeHistogramSink()]
        tasks = ledger.call("engine.grid.tasks", self.build_tasks)
        for task in tasks:  # the engine hashes every task before it executes any
            ledger.call("engine.hashing.spec_hash", getattr, task, "spec_hash")
        for index, task in enumerate(tasks):
            summary = ledger.call(
                "engine.execute_task",
                execute_task, task.protocol, task.spec, spec_hash=task.spec_hash,
            )
            for sink in sinks:
                ledger.call("engine.sink.accept", sink.accept, index, summary)
            summaries.append(summary)
        return len(tasks), _digest_of(summaries)


# ----------------------------------------------------------------------
# 2. sweep_parallel
# ----------------------------------------------------------------------
class SweepParallel(_ScenarioWorkload):
    """Cheap protocols on two workers into a JSONL sink: dispatch dominates.

    No result cache: creating one file per scenario costs 75 us on an idle
    sandbox disk and 400 us on a busy one, which made the rate bimodal
    (1450/s against 3180/s).  Cache writes are timed by the
    ``engine.cache.put_us`` probe and by the set-up of the two warm-cache
    workloads instead.
    """

    name = "sweep_parallel"
    op = "scenario"
    protocols = CHEAP_PROTOCOLS
    onset_count = 40
    workers = 2

    def setup(self, scratch: pathlib.Path) -> None:
        SweepEngine(workers=self.workers).run_streaming(
            self.build_tasks(reduced=True), sinks=[JsonlSink(scratch / "warmup.jsonl")]
        )

    def run_pass(self, pass_dir, *, metrics=None, capture=False, workers=None) -> PassResult:
        jsonl = pass_dir / "out.jsonl"
        first_result: list[float] = []
        sinks: list = [JsonlSink(jsonl)]
        if metrics is not None:  # traced passes also time the first delivery

            def note_first(index: int, summary) -> None:
                if not first_result:
                    first_result.append(time.perf_counter())

            sinks.append(CallbackSink(note_first))
        started = time.perf_counter()
        stats = SweepEngine(workers=workers or self.workers, metrics=metrics).run_streaming(
            self.build_tasks(), sinks=sinks
        )
        return PassResult(
            ops=stats.total,
            output={"jsonl": jsonl, "executed": stats.executed},
            counts={
                "max_buffered": stats.max_buffered,
                "first_result_ms": (first_result[0] - started) * 1e3 if first_result else 0.0,
            },
            bytes_sha=file_sha256(jsonl) if capture else None,
        )

    def check(self, result, scratch) -> list[Failure]:
        failures = []
        reference = scratch / "reference.jsonl"
        SweepEngine(workers=1).run_streaming(self.build_tasks(), sinks=[JsonlSink(reference)])
        differing = _differing_lines(reference, result.output["jsonl"])
        if differing:
            failures.append(
                Failure("jsonl-identical-to-serial", differing,
                        f"{differing} JSONL line(s) differ from the workers=1 run")
            )
        if result.output["executed"] != result.ops:
            failures.append(
                Failure("all-executed", abs(result.ops - result.output["executed"]),
                        f"{result.output['executed']} executed of {result.ops} tasks")
            )
        return failures

    def digest(self, result) -> dict:
        return {"scenarios": result.ops, "table": _fold_jsonl(result.output["jsonl"])}

    def replay(self, ledger, pass_dir) -> tuple[int, str]:
        """The same data path on one process: what two workers share out."""
        sink = JsonlSink(pass_dir / "out.jsonl")
        tasks = ledger.call("engine.grid.tasks", self.build_tasks)
        for index, task in enumerate(tasks):
            key = ledger.call("engine.hashing.spec_hash", getattr, task, "spec_hash")
            summary = ledger.call(
                "engine.execute_task", execute_task, task.protocol, task.spec, spec_hash=key
            )
            # What crosses the process boundary: encoded in the worker,
            # decoded in the parent.
            data = ledger.call("engine.summary.encode", summary.to_json_bytes)
            decoded = ledger.call("engine.summary.decode", summary_from_json_bytes, data)
            ledger.call("engine.sink.jsonl", sink.accept, index, decoded)
        ledger.call("engine.sink.close", sink.close)
        return len(tasks), file_sha256(pass_dir / "out.jsonl")


# ----------------------------------------------------------------------
# 3. refine_batches
# ----------------------------------------------------------------------
class RefineBatches(Workload):
    """Boundary refinement: hundreds of tiny engine batches on two workers."""

    name = "refine_batches"
    op = "scenario"
    workers = 2

    def derive_inputs(self) -> None:
        n_sites = 3 if self.smoke else 4
        slaves = list(range(2, n_sites + 1))
        self.params = {
            # The no-transient variant refines to the same lines as terminating-3PC.
            "protocols": list(CHEAP_PROTOCOLS[:1] if self.smoke else CHEAP_PROTOCOLS[:4]),
            "n_sites": n_sites,
            "votes": [[], [self.rng.choice(slaves)]][: 1 if self.smoke else 2],
            # The coarse grid starts at a seed-shifted onset.
            "lo": round(0.25 + self.rng.uniform(0.0, 0.2), 2),
            "hi": 4.0 if self.smoke else 8.0,
            "resolution": 0.05 if self.smoke else 0.01,
        }

    def _refine(self, engine: SweepEngine, protocols: Sequence[str]):
        p = self.params
        driver = RefinementDriver(engine, resolution=p["resolution"])
        return [
            result
            for protocol in protocols
            for result in driver.refine_partition_boundaries(
                protocol,
                p["n_sites"],
                no_voter_options=[frozenset(v) for v in p["votes"]],
                lo=p["lo"],
                hi=p["hi"],
            )
        ]

    def setup(self, scratch: pathlib.Path) -> None:
        self._refine(SweepEngine(workers=self.workers), self.params["protocols"][:1])

    @staticmethod
    def _boundaries(results) -> dict[str, list]:
        return {
            r.line.label(): [[b.lo, b.hi, b.lo_class, b.hi_class] for b in r.boundaries]
            for r in results
        }

    @classmethod
    def _boundaries_sha(cls, results) -> str:
        """Refinement returns boundaries, not summaries: they are the output."""
        text = json.dumps(cls._boundaries(results), sort_keys=True)
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    def run_pass(self, pass_dir, *, metrics=None, capture=False, workers=None) -> PassResult:
        results = self._refine(
            SweepEngine(workers=workers or self.workers, metrics=metrics),
            self.params["protocols"],
        )
        scenarios = sum(r.scenarios_run for r in results)
        batches = sum(r.rounds + 1 for r in results)
        return PassResult(
            ops=scenarios,
            output={"boundaries": self._boundaries(results)},
            counts={
                "batches": batches,
                "boundaries": sum(len(r.boundaries) for r in results),
            },
            bytes_sha=self._boundaries_sha(results) if capture else None,
        )

    def check(self, result, scratch) -> list[Failure]:
        serial = self._boundaries(self._refine(SweepEngine(workers=1), self.params["protocols"]))
        found = result.output["boundaries"]
        wrong = [label for label in serial if serial[label] != found.get(label)]
        wrong += [label for label in found if label not in serial]
        if wrong:
            return [
                Failure("boundaries-equal-serial", len(wrong),
                        f"{len(wrong)} line(s) differ from the workers=1 result, first {wrong[0]!r}")
            ]
        if not any(found.values()):
            return [Failure("boundaries-nonvacuous", 1, "no verdict flip was located")]
        return []

    def digest(self, result) -> dict:
        return {
            "scenarios": result.ops,
            "batches": result.counts["batches"],
            "boundaries": result.output["boundaries"],
        }

    def replay(self, ledger, pass_dir) -> tuple[int, str]:
        """Serial refinement with each engine batch in a span."""

        class SpannedEngine(SweepEngine):
            def run(self, tasks, **kwargs):
                return ledger.call("engine.run", super().run, tasks, **kwargs)

        results = self._refine(SpannedEngine(workers=1), self.params["protocols"])
        return sum(r.scenarios_run for r in results), self._boundaries_sha(results)


# ----------------------------------------------------------------------
# 4. resweep_warm  /  7. shard_merge_log share the warm cache
# ----------------------------------------------------------------------
class _WarmCacheWorkload(_ScenarioWorkload):
    """Set-up executes the grid once into a result cache; passes only read it."""

    #: All eight protocols: executing an entry (~1 ms) must outweigh writing
    #: it (75 to 400 us depending on how busy the disk is) or ``setup_s``
    #: would measure the disk.
    protocols = tuple(available_protocols())
    n_sites = 3
    onset_count = 7

    def setup(self, scratch: pathlib.Path) -> None:
        self.cache_dir = scratch / "cache"
        verdicts, times = VerdictCounterSink(), DecisionTimeHistogramSink()
        stats = SweepEngine(workers=1, cache=ResultCache(self.cache_dir)).run_streaming(
            self.build_tasks(), sinks=[verdicts, times]
        )
        self.populated = {"table": _verdict_table(verdicts, times), "tasks": stats.total}


class ResweepWarm(_WarmCacheWorkload):
    """Identical re-sweeps against a warm cache: hashing, reads, decode, fold."""

    name = "resweep_warm"
    op = "lookup"
    resweeps = 32

    def setup(self, scratch: pathlib.Path) -> None:
        super().setup(scratch)
        self._resweep(self.build_tasks(reduced=True), None, [VerdictCounterSink()])

    def _resweep(self, tasks, metrics, sinks):
        return SweepEngine(
            workers=1, cache=ResultCache(self.cache_dir), metrics=metrics
        ).run_streaming(tasks, sinks=sinks)

    def run_pass(self, pass_dir, *, metrics=None, capture=False) -> PassResult:
        digest = _BytesDigest()
        total = executed = hits = 0
        for _ in range(2 if self.smoke else self.resweeps):
            verdicts, times = VerdictCounterSink(), DecisionTimeHistogramSink()
            sinks: list = [verdicts, times]
            if capture:
                sinks.append(CallbackSink(digest.add))
            stats = self._resweep(self.build_tasks(), metrics, sinks)
            total += stats.total
            executed += stats.executed
            hits += stats.cache_hits
        return PassResult(
            ops=total,
            output={"table": _verdict_table(verdicts, times), "executed": executed, "hits": hits},
            bytes_sha=digest.hexdigest() if capture else None,
        )

    def check(self, result, scratch) -> list[Failure]:
        failures = []
        out = result.output
        if out["executed"]:
            failures.append(
                Failure("executed-zero", out["executed"],
                        f"a warm re-sweep executed {out['executed']} scenario(s)")
            )
        if out["hits"] != result.ops:
            failures.append(
                Failure("all-hits", result.ops - out["hits"],
                        f"{out['hits']} cache hits for {result.ops} lookups")
            )
        if out["table"] != self.populated["table"]:
            failures.append(
                Failure("aggregates-equal-populate", 1,
                        "re-sweep aggregates differ from the run that filled the cache")
            )
        return failures

    def digest(self, result) -> dict:
        return {"lookups": result.ops, "table": result.output["table"]}

    def replay(self, ledger, pass_dir) -> tuple[int, str]:
        # The digest is taken over the bytes as read, after the spans: a
        # cache entry is the summary's canonical JSON, so it must equal the
        # engine-side digest of the decoded summaries re-encoded.
        blobs = []
        cache = ResultCache(self.cache_dir)
        for _ in range(2 if self.smoke else self.resweeps):
            sinks = [VerdictCounterSink(), DecisionTimeHistogramSink()]
            tasks = ledger.call("engine.grid.tasks", self.build_tasks)
            # Two phases, as in the engine: scan (hash + probe) every task,
            # then deliver (read + decode + fold) in task order.
            for task in tasks:
                key = ledger.call("engine.hashing.spec_hash", getattr, task, "spec_hash")
                ledger.call("engine.cache.probe", cache.probe, key, task.spec.seed)
            for index, task in enumerate(tasks):
                data = ledger.call(
                    "engine.cache.get_bytes",
                    cache.get_bytes, task.spec_hash, task.spec.seed, record=False,
                )
                summary = ledger.call("engine.summary.decode", summary_from_json_bytes, data)
                for sink in sinks:
                    ledger.call("engine.sink.accept", sink.accept, index, summary)
                blobs.append(data)
        return len(blobs), hashlib.sha256(b"".join(blob + b"\n" for blob in blobs)).hexdigest()


class ShardMergeLog(_WarmCacheWorkload):
    """Shards seal segments from a warm cache; a checkpointed merge folds them."""

    name = "shard_merge_log"
    op = "record"
    cycles = 14
    segment_records = 64
    batch_records = 128

    def setup(self, scratch: pathlib.Path) -> None:
        super().setup(scratch)
        self.tasks = self.build_tasks()
        self._cycle(scratch / "warmup-log", self.tasks[: len(self.tasks) // 8], None)

    def _cycle(self, log_dir: pathlib.Path, tasks, metrics, call=_direct):
        """Three shards into ``log_dir``, then one checkpointed merge."""
        segments = 0
        for shard in range(SHARD_COUNT):
            segments += call(
                "engine.resultlog.run_shard_log",
                run_shard_log,
                tasks,
                shard,
                SHARD_COUNT,
                log_dir,
                engine=SweepEngine(workers=1, cache=ResultCache(self.cache_dir), metrics=metrics),
                segment_records=8 if self.smoke else self.segment_records,
            ).segments_sealed
        merged = call(
            "engine.resultlog.merge_result_log",
            merge_result_log,
            log_dir,
            jsonl=log_dir / "merged.jsonl",
            checkpoint=log_dir / "merge-checkpoint.json",
            batch_records=32 if self.smoke else self.batch_records,
        )
        return merged, segments

    def run_pass(self, pass_dir, *, metrics=None, capture=False) -> PassResult:
        records = deduped = segments = 0
        # The merge reads the process-wide registry, not an engine argument.
        with activate(metrics) if metrics is not None else nullcontext():
            for cycle in range(1 if self.smoke else self.cycles):
                log_dir = pass_dir / f"log-{cycle}"
                merged, sealed = self._cycle(log_dir, self.tasks, metrics)
                records += merged.records
                deduped += merged.deduped
                segments += sealed
        return PassResult(
            ops=records,
            output={
                "merged": log_dir / "merged.jsonl",
                "log_dir": log_dir,
                "last_records": merged.records,
                "deduped": deduped,
            },
            counts={"segments": segments},
            bytes_sha=file_sha256(log_dir / "merged.jsonl") if capture else None,
        )

    def check(self, result, scratch) -> list[Failure]:
        failures = []
        out = result.output
        reference = scratch / "single-machine.jsonl"
        SweepEngine(workers=1, cache=ResultCache(self.cache_dir)).run_streaming(
            self.tasks, sinks=[JsonlSink(reference)]
        )
        differing = _differing_lines(reference, out["merged"])
        if differing:
            failures.append(
                Failure("merged-identical-to-single-machine", differing,
                        f"{differing} merged JSONL line(s) differ from the single-machine spill")
            )
        if out["last_records"] != len(self.tasks):
            failures.append(
                Failure("records-equal-tasks", abs(out["last_records"] - len(self.tasks)),
                        f"{out['last_records']} merged records for {len(self.tasks)} tasks")
            )
        if out["deduped"]:
            failures.append(
                Failure("zero-dedups", out["deduped"], f"{out['deduped']} duplicate record(s) folded")
            )
        return failures

    def digest(self, result) -> dict:
        return {
            "records": result.ops,
            "segments": result.counts["segments"],
            "table": _fold_jsonl(result.output["merged"]),
        }

    def replay(self, ledger, pass_dir) -> tuple[int, str]:
        records = 0
        for cycle in range(1 if self.smoke else self.cycles):
            log_dir = pass_dir / f"log-{cycle}"
            merged, _ = self._cycle(log_dir, self.tasks, None, call=ledger.call)
            records += merged.records
        return records, file_sha256(log_dir / "merged.jsonl")


# ----------------------------------------------------------------------
# 5. txn_openloop
# ----------------------------------------------------------------------
class TxnOpenLoop(Workload):
    """Two long open-loop transaction runs: kernel, network, locks, scheduler."""

    name = "txn_openloop"
    op = "transaction"
    protocols = ("terminating-three-phase-commit", "two-phase-commit")

    def derive_inputs(self) -> None:
        n = 60 if self.smoke else 1200
        span = n / 2.0  # admission span in T at 2 txn/T
        crash_at = round(span * self.rng.uniform(0.25, 0.35), 2)
        split_at = round(span * self.rng.uniform(0.55, 0.65), 2)
        self.params = {
            "n_transactions": n,
            "spec_seed": self.rng.randrange(1, 2**31),
            "crash": [2, crash_at, round(crash_at + 8.0, 2)],
            "partition": [split_at, round(split_at + 6.0, 2)],
        }

    def spec(self, n_transactions: Optional[int] = None) -> ThroughputSpec:
        p = self.params
        site, crash_at, recover_at = p["crash"]
        split_at, heal_at = p["partition"]
        return ThroughputSpec(
            n_sites=3,
            n_transactions=n_transactions or p["n_transactions"],
            tx_rate=2.0,
            arrival="poisson",
            hotspot=1.0,
            n_keys=8,
            op_delay=0.1,
            crashes=CrashSchedule.single(site, crash_at, recover_at=recover_at),
            partition=PartitionSchedule.transient(split_at, heal_at, (1, 2), (3,)),
            deadlock=DeadlockPolicy(detect_cycles=True, wait_timeout=4.0),
            retry=RetryPolicy(max_attempts=3, backoff=1.0),
            seed=p["spec_seed"],
        )

    def setup(self, scratch: pathlib.Path) -> None:
        warm = self.spec(max(20, self.params["n_transactions"] // 12))
        for protocol in self.protocols:
            run_throughput_scenario(protocol, warm)

    def _run(self, call) -> tuple[list, dict[str, float]]:
        spec = self.spec()
        summaries = []
        counts = {"events": 0.0, "peak_waiting": 0.0}
        for protocol in self.protocols:
            run = call("txn.run_throughput_scenario", run_throughput_scenario, protocol, spec)
            summaries.append(run.summary)
            counts["events"] += run.cluster.sim.events_executed
            counts["peak_waiting"] = max(counts["peak_waiting"], run.summary.peak_waiting)
        return summaries, counts

    def run_pass(self, pass_dir, *, metrics=None, capture=False) -> PassResult:
        with activate(metrics) if metrics is not None else nullcontext():
            summaries, counts = self._run(_direct)
        return PassResult(
            ops=sum(s.offered for s in summaries),
            output={"summaries": summaries},
            counts=counts,
            bytes_sha=_digest_of(summaries) if capture else None,
        )

    def check(self, result, scratch) -> list[Failure]:
        failures = []
        for s in result.output["summaries"]:
            in_flight = s.blocked + s.stalled + s.violated
            if s.offered != self.params["n_transactions"]:
                failures.append(
                    Failure("offered-equals-input", abs(s.offered - self.params["n_transactions"]),
                            f"{s.protocol}: offered {s.offered}")
                )
            if s.offered != s.committed + s.exhausted + in_flight:
                failures.append(
                    Failure("outcomes-sum", abs(s.offered - s.committed - s.exhausted - in_flight),
                            f"{s.protocol}: offered {s.offered} != committed {s.committed} + "
                            f"exhausted {s.exhausted} + in flight {in_flight}")
                )
            causes = s.aborted_deadlock + s.aborted_timeout + s.aborted_crash + s.aborted_partition
            if causes != s.aborted:
                failures.append(
                    Failure("abort-causes-sum", abs(causes - s.aborted),
                            f"{s.protocol}: per-cause aborts {causes} != aborted {s.aborted}")
                )
            if s.committed != s.committed_first_try + s.committed_after_retry:
                failures.append(
                    Failure("commit-split-sum", 1, f"{s.protocol}: commit split does not sum")
                )
            if s.violated:
                failures.append(
                    Failure("no-violations", s.violated, f"{s.protocol}: {s.violated} violated")
                )
        return failures

    def digest(self, result) -> dict:
        keys = (
            "offered", "committed", "aborted", "blocked", "stalled", "violated", "retries",
            "aborted_deadlock", "aborted_timeout", "aborted_crash", "aborted_partition",
            "crashes", "recoveries", "messages_sent",
        )
        return {
            s.protocol: {**{k: getattr(s, k) for k in keys}, "goodput_per_T": round(s.goodput, 6)}
            for s in result.output["summaries"]
        }

    def replay(self, ledger, pass_dir) -> tuple[int, str]:
        summaries, _ = self._run(ledger.call)
        return sum(s.offered for s in summaries), _digest_of(summaries)


# ----------------------------------------------------------------------
# 6. modelcheck_exhaustive
# ----------------------------------------------------------------------
class ModelcheckExhaustive(Workload):
    """Exhaustive state-graph exploration through the engine: no simulator."""

    name = "modelcheck_exhaustive"
    op = "state"
    envelopes = ("failure-free", "single-crash", "partition", "lossy", "lossy-retransmit")

    def derive_inputs(self) -> None:
        n_sites = 3 if self.smoke else 4
        slaves = list(range(2, n_sites + 1))
        configs = [
            [protocol, n_sites, fault, None]
            for protocol in checkable_protocols()
            for fault in self.envelopes
        ]
        if not self.smoke:
            configs += [["two-phase-commit", 5, fault, None] for fault in self.envelopes]
        # Scripted-vote checks: the seed picks which slave votes no.
        configs += [
            [protocol, n_sites, "partition", [self.rng.choice(slaves)]]
            for protocol in checkable_protocols()
        ]
        self.params = {"configs": configs, "spec_seed": self.seed}

    def build_tasks(self, *, reduced: bool = False) -> list[SweepTask]:
        """One task per configuration; ``reduced`` keeps the exhaustive ones at n=3."""
        tasks = []
        for protocol, n_sites, fault, no_voters in self.params["configs"]:
            if reduced and (n_sites > 4 or no_voters is not None):
                continue
            tasks.append(
                SweepTask(
                    protocol=protocol,
                    spec=ModelCheckSpec(
                        n_sites=3 if reduced else n_sites,
                        fault=fault,
                        no_voters=None if no_voters is None else frozenset(no_voters),
                        seed=self.params["spec_seed"],
                    ),
                )
            )
        return tasks

    def setup(self, scratch: pathlib.Path) -> None:
        SweepEngine(workers=1).run_streaming(
            self.build_tasks(reduced=True), sinks=[ModelCheckSink()]
        )

    def run_pass(self, pass_dir, *, metrics=None, capture=False) -> PassResult:
        rows: list[dict] = []
        digest = _BytesDigest()

        def collect(index: int, summary) -> None:
            rows.append(
                {
                    "protocol": summary.protocol,
                    "sites": summary.n_sites,
                    "fault": summary.fault,
                    "states": summary.states_explored,
                    "edges": summary.edges_explored,
                    "verdict": summary.verdict,
                    "complete": summary.complete,
                }
            )
            if capture:
                digest.add(index, summary)

        table = ModelCheckSink()
        stats = SweepEngine(workers=1, metrics=metrics).run_streaming(
            self.build_tasks(), sinks=[table, CallbackSink(collect)]
        )
        return PassResult(
            ops=sum(row["states"] for row in rows),
            output={"rows": rows, "table_rows": len(table.rows())},
            counts={"edges": sum(row["edges"] for row in rows)},
            bytes_sha=digest.hexdigest() if capture else None,
        )

    #: protocol -> verdict under a fault that separates or silences sites.
    EXPECTED_UNDER_FAULT = {
        "two-phase-commit": "blocked",
        "three-phase-commit": "blocked",
        "quorum-commit": "blocked",
        "extended-two-phase-commit": "violated",
        "naive-extended-three-phase-commit": "violated",
    }

    def check(self, result, scratch) -> list[Failure]:
        failures = []
        configs = self.params["configs"]
        for row, (_, _, _, no_voters) in zip(result.output["rows"], configs):
            if not row["complete"]:
                failures.append(Failure("exploration-complete", 1, f"{row} was truncated"))
            if row["fault"] in ("failure-free", "lossy-retransmit"):
                expected = "consistent"
            elif no_voters is not None:
                continue  # scripted votes prune branches; only the digest pins them
            else:
                expected = self.EXPECTED_UNDER_FAULT[row["protocol"]]
            if row["verdict"] != expected:
                failures.append(
                    Failure("paper-verdict", row["states"],
                            f"{row['protocol']} n={row['sites']} under {row['fault']}: "
                            f"{row['verdict']}, expected {expected}")
                )
        if len(result.output["rows"]) != len(configs):
            failures.append(
                Failure("all-checked", abs(len(result.output["rows"]) - len(configs)),
                        f"{len(result.output['rows'])} results for {len(configs)} configurations")
            )
        return failures

    def digest(self, result) -> dict:
        return {"states_total": result.ops, "rows": result.output["rows"]}

    def replay(self, ledger, pass_dir) -> tuple[int, str]:
        summaries = []
        table = ModelCheckSink()
        tasks = ledger.call("engine.grid.tasks", self.build_tasks)
        for index, task in enumerate(tasks):
            key = ledger.call("engine.hashing.spec_hash", getattr, task, "spec_hash")
            summary = ledger.call(
                "engine.execute_task", execute_task, task.protocol, task.spec, spec_hash=key
            )
            ledger.call("engine.sink.accept", table.accept, index, summary)
            summaries.append(summary)
        return sum(s.states_explored for s in summaries), _digest_of(summaries)


WORKLOADS: dict[str, Callable[..., Workload]] = {
    cls.name: cls
    for cls in (
        SweepSerial,
        SweepParallel,
        RefineBatches,
        ResweepWarm,
        TxnOpenLoop,
        ModelcheckExhaustive,
        ShardMergeLog,
    )
}
