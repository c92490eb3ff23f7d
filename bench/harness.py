"""Timing loop, scratch hygiene, span ledger and resource metrics.

The harness owns everything that is *not* a workload: where scratch files
live, how passes are timed and summarized, how traced spans are recorded
and reduced to per-layer self times, and how memory is read.  Workloads
(:mod:`bench.workloads`) only build inputs, run one pass and check it.
"""

from __future__ import annotations

import contextlib
import json
import os
import pathlib
import resource
import shutil
import statistics
import tempfile
import time
from array import array
from typing import Any, Callable, Iterator, Optional

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: Parent of every scratch directory.  Inside the checkout (the benchmark
#: may write nowhere else) and named in ``.gitignore``; each run owns one
#: ``repro-bench-*`` child and removes it on exit.
SCRATCH_PARENT = ROOT / ".bench_scratch"

#: Per-layer metrics that are counts of work and repeat exactly for one
#: seed; they are reported as counts and never read as speed-ups.
EXACT_COUNTS = (
    "sim.kernel.events_per_scenario",
    "sim.kernel.cancelled_share",
    "sim.network.messages_per_scenario",
    "engine.summary.bytes_per_record",
    "engine.cache.hit_share",
    "engine.refine.batches",
    "engine.refine.scenarios_per_boundary",
    "engine.resultlog.segments",
    "engine.resultlog.checkpoint_commits",
    "txn.scheduler.events_per_txn",
    "txn.scheduler.committed_share",
    "txn.scheduler.retries_per_txn",
    "txn.scheduler.peak_waiting",
    "core.reachability.edges_per_state",
    "modelcheck.states_total",
)


@contextlib.contextmanager
def scratch_dir() -> Iterator[pathlib.Path]:
    """One ``repro-bench-*`` directory per run, removed on any exit.

    Removal runs in a ``finally`` so a failed check, an exception or
    Ctrl-C leaves nothing behind; the shared parent goes too once the last
    concurrent run has left it.
    """
    SCRATCH_PARENT.mkdir(exist_ok=True)
    path = pathlib.Path(tempfile.mkdtemp(prefix="repro-bench-", dir=SCRATCH_PARENT))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            SCRATCH_PARENT.rmdir()


def usable_cpus() -> int:
    """CPUs this process may run on (affinity-aware, never 0)."""
    getaffinity = getattr(os, "sched_getaffinity", None)
    if getaffinity is not None:
        with contextlib.suppress(OSError):
            return len(getaffinity(0)) or 1
    return os.cpu_count() or 1


def peak_rss_mb() -> float:
    """Peak resident set of this process or its largest reaped child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # Linux reports KiB


def median_us(fn: Callable[[], Any], *, repeat: int, inner: int = 1) -> float:
    """Median microseconds of one ``fn()`` call over ``repeat`` timed batches."""
    samples = []
    for _ in range(repeat):
        started = time.perf_counter()
        for _ in range(inner):
            fn()
        samples.append((time.perf_counter() - started) / inner)
    return statistics.median(samples) * 1e6


def steady_rate(rates: list[float]) -> float:
    """The upper quartile of a run's pass rates.

    Other tenants of the machine only ever slow a pass down, so the faster
    passes estimate the program and the slower ones the neighbours: on the
    builder's sandbox the upper quartile repeats run to run within 5 %
    where the median moves by 9 to 15 % (bench/README.md has the numbers).
    """
    if len(rates) < 2:
        return rates[0]
    return statistics.quantiles(rates, n=4)[2]


class SpanLedger:
    """In-memory spans around calls into the program's public functions.

    One span per call: name, start, end and parent span, all sharing the
    ledger's ``run_id``.  Spans live in flat typed arrays (no per-span
    Python object for the garbage collector to walk), so recording costs
    two clock reads and four appends -- cheap enough to wrap a 15
    microsecond cache read a hundred thousand times.  :meth:`self_times`
    charges each span's duration minus its children's to its own name.
    """

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._name = array("H")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("l")
        self._stack: list[int] = []

    def __len__(self) -> int:
        return len(self._name)

    def call(self, name: str, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        index = len(self._name)
        self._name.append(name_id)
        self._parent.append(self._stack[-1] if self._stack else -1)
        self._start.append(0.0)
        self._end.append(0.0)
        self._stack.append(index)
        started = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self._end[index] = time.perf_counter()
            self._start[index] = started
            self._stack.pop()

    def self_times(self) -> dict[str, float]:
        """Seconds of self time per span name (duration minus child spans)."""
        own = [end - start for start, end in zip(self._start, self._end)]
        for index, parent in enumerate(self._parent):
            if parent >= 0:
                own[parent] -= self._end[index] - self._start[index]
        totals = dict.fromkeys(self.names, 0.0)
        for name_id, seconds in zip(self._name, own):
            totals[self.names[name_id]] += seconds
        return totals

    def total_seconds(self, name: str) -> float:
        """Summed duration (children included) of every span called ``name``."""
        name_id = self._name_ids.get(name)
        return sum(
            end - start
            for this, start, end in zip(self._name, self._start, self._end)
            if this == name_id
        )

    def write_ndjson(self, path: pathlib.Path) -> None:
        """One JSON object per span: run id, index, name, start, end, parent."""
        with open(path, "w", encoding="utf-8") as handle:
            for index, name_id in enumerate(self._name):
                parent = self._parent[index]
                handle.write(
                    json.dumps(
                        {
                            "run": self.run_id,
                            "index": index,
                            "span": self.names[name_id],
                            "start": self._start[index],
                            "end": self._end[index],
                            "parent": parent if parent >= 0 else None,
                        }
                    )
                    + "\n"
                )


def timed_passes(
    run_pass: Callable[[pathlib.Path], Any],
    scratch: pathlib.Path,
    *,
    seconds: float,
    min_passes: int,
) -> list[tuple[float, Any]]:
    """Closed loop, one client: run passes back to back for ``seconds``.

    A pass starts when the previous one ends.  At least ``min_passes`` run;
    after that a new pass starts only while it is expected (by the median
    pass so far) to end inside the budget.  Each pass gets a fresh
    directory; the previous pass's directory is removed between passes,
    outside the timed region, and the last one is kept for the checks.
    """
    results: list[tuple[float, Any]] = []
    began = time.perf_counter()
    previous: Optional[pathlib.Path] = None
    while True:
        pass_dir = pathlib.Path(tempfile.mkdtemp(prefix="pass-", dir=scratch))
        started = time.perf_counter()
        result = run_pass(pass_dir)
        results.append((time.perf_counter() - started, result))
        if previous is not None:
            shutil.rmtree(previous, ignore_errors=True)
        previous = pass_dir
        if len(results) >= min_passes:
            typical = statistics.median(duration for duration, _ in results)
            if time.perf_counter() - began + typical > seconds:
                return results
