"""Kill-point crash harness for the result log and the result cache.

The paper's sites fail by halting silently, at any point.  This tool holds
the repo's durable writers to the same fault, after Pillai et al., "All
File Systems Are Not Created Equal" (OSDI 2014): kill the process between
every pair of file operations, then check that re-running recovers.

It forks one child per *kill point*.  The child patches only its own
``open`` for writing (``io.open``, which ``os.fdopen`` and ``pathlib``
call), the ``write`` of each file it returns, ``os.fsync``, ``os.replace``
and ``os.truncate``, and calls ``os._exit`` just before the k-th of those
operations; a write gives a second kill point, after half of its bytes are
flushed.  Nothing
is flushed or closed on the way out, as with ``kill -9``: bytes a buffered
writer still holds are lost.  The parent then re-runs the same operation
and checks that the result is byte-identical to a single-machine
:class:`~repro.engine.sink.JsonlSink` spill, or that it fails with a typed
error (:class:`~repro.engine.resultlog.ResultLogError`,
:class:`~repro.engine.cache.CacheEntryError`) naming a file.

Four phases, on the 18-task grid of ``tests/engine/test_resultlog.py``
(two protocols x three onsets x three splits at three sites; three shards,
four records per segment, two records per checkpoint batch):

* ``seal`` -- the three ``run_shard_log`` calls from an empty log; the
  parent re-runs them, then merges;
* ``merge`` -- ``merge_result_log`` of the sealed log into a merged spill,
  committing its checkpoint; the parent resumes it (``resume=True``);
* ``cache-put`` -- ``ResultCache.put_bytes`` of every summary; the parent
  reads back what survived (a torn entry would raise), puts everything
  again and reads every entry;
* ``cached-sweep`` -- a ``run_streaming`` sweep with a result cache into a
  JSONL spill; the parent runs the same sweep on the same cache.

Run every phase (exit 1 on any divergence)::

    PYTHONPATH=src python tools/kill_points.py

Or kill one CLI command at one kill point (exit 0 when the child was
killed there, 1 when it finished first)::

    PYTHONPATH=src python tools/kill_points.py --kill-at 40 -- \\
        merge --log resultlog/ --jsonl resumed.jsonl --batch-records 2

The contract checked is a process crash's: the kernel keeps every byte
handed to it.  Power loss, which may drop un-fsynced data and renames, is
not modelled.
"""

from __future__ import annotations

import argparse
import builtins
import io
import json
import os
import pathlib
import shutil
import sys
import tempfile
import traceback
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from repro.engine import (
    JsonlSink,
    ResultCache,
    ResultLogError,
    ScenarioGrid,
    SweepEngine,
    merge_result_log,
    run_shard_log,
)
from repro.engine.cache import CacheEntryError

#: The child's exit status at a kill point (that of a SIGKILLed process).
KILLED = 137

N_SHARDS = 3
SEGMENT_RECORDS = 4
BATCH_RECORDS = 2


def default_tasks() -> list:
    """2 protocols x 3 onsets x 3 simple splits = 18 scenario tasks."""
    tasks = []
    for protocol in ("two-phase-commit", "terminating-three-phase-commit"):
        grid = ScenarioGrid.from_partition_sweep(protocol, 3, times=[0.5, 1.5, 2.5])
        tasks.extend(grid.tasks())
    return tasks


def _arm(kill_at: Optional[int], labels: list[str], *, announce: bool = False) -> None:
    """Route this process's file operations through a counter.

    Each kill point appends its label to ``labels``; at point ``kill_at``
    the process halts.  Only ever called in a forked child.
    """
    names: dict[int, str] = {}

    def point(label: str) -> bool:
        labels.append(label)
        return len(labels) == kill_at

    def halt() -> None:
        if announce:
            os.write(2, f"killed at kill point {kill_at}: {labels[-1]}\n".encode())
        os._exit(KILLED)

    def before(label: str) -> None:
        if point(label):
            halt()

    class Killable:
        """A file open for writing whose writes are kill points."""

        def __init__(self, handle, name: str) -> None:
            self._handle, self._name = handle, name

        def write(self, data):
            before(f"write {self._name}")
            if point(f"half-write {self._name}"):
                self._handle.write(data[: len(data) // 2])
                self._handle.flush()
                halt()
            return self._handle.write(data)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info) -> None:
            self._handle.close()

        def __getattr__(self, name: str):
            return getattr(self._handle, name)

    def opener(real: Callable) -> Callable:
        # One wrapper: os.fdopen opens through io.open, so it needs none.
        def patched(file, mode="r", *args, **kwargs):
            if not any(flag in mode for flag in "wax+"):
                return real(file, mode, *args, **kwargs)
            name = f"fd {file}" if isinstance(file, int) else pathlib.Path(file).name
            before(f"open {name}")
            handle = real(file, mode, *args, **kwargs)
            names[handle.fileno()] = name
            return Killable(handle, name)

        return patched

    def fd_op(op: str, real: Callable) -> Callable:
        def patched(fd, *args):
            before(f"{op} {names.get(fd, f'fd {fd}')}")
            return real(fd, *args)

        return patched

    def path_op(op: str, real: Callable) -> Callable:
        def patched(path, *args):
            target = args[0] if args and op == "replace" else path
            before(f"{op} {pathlib.Path(target).name}")
            return real(path, *args)

        return patched

    builtins.open = io.open = opener(io.open)
    os.fsync = fd_op("fsync", os.fsync)
    os.replace = path_op("replace", os.replace)
    os.truncate = path_op("truncate", os.truncate)


def run_killed(
    operation: Callable[[], object],
    kill_at: Optional[int],
    *,
    announce: bool = False,
) -> tuple[bool, list[str]]:
    """Run ``operation`` in a forked child halted at kill point ``kill_at``.

    Returns whether the child was killed, and -- when it ran to the end --
    the labels of every kill point it passed (``kill_at=None`` counts
    them).  An exception in the child is a :class:`RuntimeError` here.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child: never returns
        status = 1
        try:
            os.close(read_end)
            labels: list[str] = []
            _arm(kill_at, labels, announce=announce)
            result = operation()
            status = result if isinstance(result, int) else 0
            # os.write is not a kill point: the report costs none.
            data = "\n".join(labels).encode()
            while data:
                data = data[os.write(write_end, data) :]
        except BaseException:
            traceback.print_exc()
        finally:
            sys.stdout.flush()
            sys.stderr.flush()
            os._exit(status)
    os.close(write_end)
    with open(read_end, "r") as report:
        passed = report.read()
    _, wait_status = os.waitpid(pid, 0)
    code = os.waitstatus_to_exitcode(wait_status)
    if code == KILLED:
        return True, []
    if code != 0:
        raise RuntimeError(f"kill point {kill_at}: the child failed with exit {code}")
    return False, passed.split("\n") if passed else []


def kill_point_labels(operation: Callable[[], object]) -> list[str]:
    """The labels of every kill point ``operation`` passes, in order."""
    return run_killed(operation, None)[1]


def kill_before(
    operation: Callable[[], object],
    label: str,
    nth: int = 1,
    *,
    outputs: Sequence[os.PathLike] = (),
) -> None:
    """Kill ``operation`` just before its ``nth`` operation labelled ``label``.

    A counting run in another child finds the kill point first; ``outputs``
    -- the files that complete run wrote -- are deleted before the killed
    run, so that what is left on disk is the killed run's alone.
    """
    labels = kill_point_labels(operation)
    kill_at = [k for k, seen in enumerate(labels, start=1) if seen == label][nth - 1]
    for path in outputs:
        pathlib.Path(path).unlink(missing_ok=True)
    killed, _ = run_killed(operation, kill_at)
    if not killed:
        raise RuntimeError(f"kill point {kill_at} ({label} #{nth}) was never reached")


@dataclass
class Phase:
    """One durable path: how to set it up, kill it and recover it."""

    name: str
    #: Build the state the operation starts from, in an empty directory.
    prepare: Callable[[pathlib.Path], None]
    #: The operation a child is killed in.
    run: Callable[[pathlib.Path], None]
    #: The re-run in the parent; returns the bytes to compare.
    recover: Callable[[pathlib.Path], bytes]


@dataclass
class PhaseReport:
    """What every kill point of one phase came to."""

    name: str
    operations: int
    points: int
    converged: int = 0
    refused: list[str] = field(default_factory=list)
    diverged: list[str] = field(default_factory=list)

    def line(self) -> str:
        return (
            f"{self.name}: {self.operations} file operations, {self.points} kill "
            f"points: {self.converged} converged, {len(self.refused)} refused "
            f"with a typed error naming the file, {len(self.diverged)} diverged"
        )


class Harness:
    """The four phases over one task list, against its single-machine spill."""

    def __init__(self, root: pathlib.Path, tasks: Optional[Sequence] = None) -> None:
        self.root = pathlib.Path(root)
        self.tasks = list(tasks) if tasks is not None else default_tasks()
        single = self.root / "single.jsonl"
        SweepEngine(workers=1).run_streaming(self.tasks, sinks=JsonlSink(single))
        self.expected = single.read_bytes()
        self.sealed = self.root / "sealed-log"
        self.seal(self.sealed)
        self.entries = [
            (record["spec_hash"], record["seed"], line)
            for line in self.expected.splitlines()
            for record in [json.loads(line)]
        ]

    def seal(self, log: pathlib.Path) -> None:
        """Run every shard of the grid into ``log``."""
        for index in range(N_SHARDS):
            run_shard_log(
                self.tasks, index, N_SHARDS, log,
                engine=SweepEngine(workers=1), segment_records=SEGMENT_RECORDS,
            )

    def merge(self, work: pathlib.Path, *, resume: bool = False) -> bytes:
        """Merge ``work``'s log into ``work/merged.jsonl``; its bytes."""
        merge_result_log(
            work / "log", jsonl=work / "merged.jsonl",
            batch_records=BATCH_RECORDS, resume=resume,
        )
        return (work / "merged.jsonl").read_bytes()

    def copy_sealed(self, work: pathlib.Path) -> None:
        """Give ``work`` its own copy of the sealed log."""
        shutil.copytree(self.sealed, work / "log")

    def _empty(self, work: pathlib.Path) -> None:
        work.mkdir(parents=True)

    def _seal_into(self, work: pathlib.Path) -> None:
        self.seal(work / "log")

    def _recover_seal(self, work: pathlib.Path) -> bytes:
        self.seal(work / "log")
        return self.merge(work)

    def _resume(self, work: pathlib.Path) -> bytes:
        return self.merge(work, resume=True)

    def _cached_sweep(self, work: pathlib.Path) -> bytes:
        engine = SweepEngine(workers=1, cache=ResultCache(work / "cache"))
        engine.run_streaming(self.tasks, sinks=JsonlSink(work / "spill.jsonl"))
        return (work / "spill.jsonl").read_bytes()

    def _put_all(self, work: pathlib.Path) -> None:
        cache = ResultCache(work / "cache")
        for spec_hash, seed, data in self.entries:
            cache.put_bytes(spec_hash, seed, data)

    def _recover_puts(self, work: pathlib.Path) -> bytes:
        cache = ResultCache(work / "cache")
        for spec_hash, seed, _ in self.entries:
            cache.get_record(spec_hash, seed)  # a torn survivor raises here
        self._put_all(work)
        if len(cache) != len(self.entries):
            raise AssertionError(f"{len(cache)} cache entries for {len(self.entries)} keys")
        return b"".join(cache.get_record(h, s)[1] + b"\n" for h, s, _ in self.entries)

    def phases(self) -> dict[str, Phase]:
        return {
            phase.name: phase
            for phase in (
                Phase("seal", self._empty, self._seal_into, self._recover_seal),
                Phase("merge", self.copy_sealed, self.merge, self._resume),
                Phase("cache-put", self._empty, self._put_all, self._recover_puts),
                Phase("cached-sweep", self._empty, self._cached_sweep, self._cached_sweep),
            )
        }

    def sweep(self, phase: Phase) -> PhaseReport:
        """Kill ``phase``'s operation at every kill point and recover each."""
        base = self.root / phase.name
        counting = base / "count"
        phase.prepare(counting)
        labels = kill_point_labels(lambda: phase.run(counting))
        report = PhaseReport(
            phase.name,
            operations=sum(not label.startswith("half-write") for label in labels),
            points=len(labels),
        )
        for kill_at in range(1, len(labels) + 1):
            work = base / f"k{kill_at:04d}"
            phase.prepare(work)
            where = f"kill point {kill_at} ({labels[kill_at - 1]})"
            killed, _ = run_killed(lambda: phase.run(work), kill_at)
            if not killed:
                report.diverged.append(f"{where}: the operation was not killed")
                continue
            try:
                recovered = phase.recover(work)
            except (ResultLogError, CacheEntryError) as exc:
                if str(work) in str(exc):
                    report.refused.append(f"{where}: {exc}")
                else:
                    report.diverged.append(f"{where}: error names no file: {exc}")
            except Exception as exc:  # every other outcome diverges
                report.diverged.append(f"{where}: {type(exc).__name__}: {exc}")
            else:
                if recovered == self.expected:
                    report.converged += 1
                else:
                    report.diverged.append(f"{where}: output differs from the single-machine spill")
            shutil.rmtree(work)
        shutil.rmtree(base)
        return report


def _kill_command(kill_at: int, argv: Sequence[str]) -> int:
    from repro.cli import main

    command = " ".join(["repro", *argv])
    try:
        killed, _ = run_killed(lambda: main(list(argv)), kill_at, announce=True)
    except RuntimeError as exc:
        print(f"{command}: {exc}", file=sys.stderr)
        return 1
    if not killed:
        print(f"{command} finished before kill point {kill_at}", file=sys.stderr)
        return 1
    print(f"{command} was killed at kill point {kill_at}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python tools/kill_points.py", description=__doc__.split("\n\n")[0]
    )
    parser.add_argument(
        "--kill-at", type=int, metavar="K",
        help="run the repro command after -- in a child killed at kill point K",
    )
    parser.add_argument("command", nargs="*", help="the repro command for --kill-at")
    args = parser.parse_args(argv)
    if args.kill_at is not None:
        if args.kill_at < 1 or not args.command:
            parser.error("--kill-at needs K >= 1 and a repro command after --")
        return _kill_command(args.kill_at, args.command)
    if args.command:
        parser.error("a command is only run with --kill-at")
    with tempfile.TemporaryDirectory(prefix="kill-points-") as root:
        harness = Harness(pathlib.Path(root))
        reports = [harness.sweep(phase) for phase in harness.phases().values()]
    for report in reports:
        print(report.line())
        for problem in report.diverged:
            print(f"  DIVERGED {problem}")
    return 1 if any(report.diverged for report in reports) else 0


if __name__ == "__main__":
    sys.exit(main())
