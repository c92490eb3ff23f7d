"""Distributed sweeps: shard partition, durable result log, resumable merge.

A sweep that outgrows one machine splits into *shards*: deterministic
slices of the task list that any number of machines (or CI jobs) run
independently, each appending its results to a shared log directory.
:func:`merge_result_log` then folds the log -- in global task order --
through each spec kind's default aggregation sink, producing aggregates
(and an optional merged JSONL spill) **byte-identical** to a single-machine
streaming run of the whole task list.  The sealed segment is the only
on-disk result unit; producer and consumer follow the outbox /
commit-offset pattern:

* **Membership is content-addressed.**  A task belongs to shard
  ``int(spec_hash[:16], 16) % shard_count`` (:func:`shard_of`), so the
  partition is stable under task-list reordering and is
  cache-compatible: shards share the same ``(spec-hash, seed)`` result
  cache keys as single-machine runs, and a warm cache serves any shard.
* **Sealed segments.**  A shard appends fixed-size *segment* files to a
  shared log directory.  Each segment is a header line, up to
  ``segment_records`` record lines, and a footer carrying the record count
  and a SHA-256 content hash.  Segments are written to a temporary name and
  atomically renamed into place only after the footer is fsynced, so a
  crash never leaves an ambiguous artifact: a file matching the segment
  name pattern is complete and verifiable, anything else is ignorable
  debris.  A record line frames the summary's canonical bytes as the
  engine delivered them (a cache entry, a worker frame), and the merge
  copies them from the verified line into the merged spill, so no record
  is encoded on the way.
* **Producer resume.**  :func:`run_shard_log` scans the shard's sealed
  segments before executing anything and runs only the tasks with no
  sealed record yet -- a killed shard restarts from its last sealed
  segment instead of from scratch, with or without a result cache.
* **Consumer offsets.**  :func:`merge_result_log` folds records in global
  task order through each spec kind's default sink (the exact fold of a
  single-machine streaming run) and commits a :class:`MergeCursor`
  checkpoint -- records folded, merged-JSONL byte offset and a rolling
  hash of the folded prefix -- *after* each batch is folded and flushed, outbox-style.  A merge killed
  at any point resumes from the checkpoint: the already-merged JSONL bytes
  are kept (truncated back to the committed offset), sink aggregates are
  rebuilt by replaying the committed prefix from the log (a decode-only
  replay; no scenario re-executes), and the fold continues -- producing
  aggregates and JSONL byte-identical to an uninterrupted run.
* **Exactly-once folding.**  Late or re-run shards may seal duplicate
  records.  The merge deduplicates by ``(global task index, spec hash)``,
  folding each task exactly once; the same index carrying *different* spec
  hashes (shards run against different grids) is rejected with an error
  naming the index.

All three spec kinds of :mod:`repro.engine.registry` shard, log and merge
through the same code -- sweep, throughput and modelcheck grids share one
record framing; the CI pipeline's matrix-sharded sweep is the first
multi-machine consumer.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import re
import time
from dataclasses import dataclass
from typing import Any, IO, Mapping, Optional, Sequence, Union

from repro.core.canonical import canonical_json_bytes
from repro.engine.engine import StreamStats, SweepEngine, TaskBatch
from repro.engine.grid import SweepTask
from repro.engine.registry import SpecKind, kind_for_payload
from repro.engine.sink import SummarySink
from repro.obs.metrics import COUNT_BUCKETS, activate, get_active as _active_metrics

#: Version stamp of the segment / checkpoint format; bumped on
#: incompatible layout changes.
SEGMENT_FORMAT = 1

#: Records per sealed segment (the producer's durability granularity).
DEFAULT_SEGMENT_RECORDS = 64

#: Records folded between checkpoint commits (the consumer's granularity).
DEFAULT_BATCH_RECORDS = 256

#: Default checkpoint file name, resolved inside the log directory.
CHECKPOINT_NAME = "merge-checkpoint.json"

_HEADER_KIND = "segment-header"
_FOOTER_KIND = "segment-footer"
_CHECKPOINT_KIND = "merge-checkpoint"

_SEGMENT_RE = re.compile(r"^shard-(\d{4})-seg-(\d{6})\.jsonl$")

#: The head of a record line in the canonical frame; the summary's canonical
#: bytes follow it, then ``}`` and the newline.
_RECORD_HEAD = re.compile(rb'\{"index":(0|[1-9][0-9]*),"summary":')


class ResultLogError(ValueError):
    """A result-log artifact (segment, checkpoint, or set) is invalid."""


def shard_of(spec_hash: str, shard_count: int) -> int:
    """The shard owning one task, derived from its stable spec hash alone.

    Content-addressed assignment keeps the partition independent of task
    order: reordering or interleaving grids never moves a task between
    shards, and the assignment is reproducible on any machine.
    """
    if shard_count < 1:
        raise ValueError(f"shard_count must be >= 1, got {shard_count}")
    return int(spec_hash[:16], 16) % shard_count


def shard_tasks(
    tasks: TaskBatch, shard_index: int, shard_count: int
) -> list[tuple[int, SweepTask]]:
    """The ``(global index, task)`` pairs belonging to one shard.

    Global indices refer to positions in the *full* task list; the merge
    step uses them to restore global task order across shards.
    """
    if shard_count < 1:
        raise ValueError(f"shard_count must be >= 1, got {shard_count}")
    if not 0 <= shard_index < shard_count:
        raise ValueError(
            f"shard_index must be in [0, {shard_count}), got {shard_index}"
        )
    task_list = SweepEngine._materialize(tasks)
    return [
        (index, task)
        for index, task in enumerate(task_list)
        if shard_of(task.spec_hash, shard_count) == shard_index
    ]


def segment_name(shard_index: int, segment_index: int) -> str:
    """The canonical file name of one sealed segment."""
    return f"shard-{shard_index:04d}-seg-{segment_index:06d}.jsonl"


def _atomic_write(path: pathlib.Path, data: bytes) -> None:
    """Write ``data`` to ``path`` via temp-then-rename (fsynced first).

    A crash before the rename leaves only a dot-prefixed ``.tmp`` file the
    segment discovery ignores; a crash after it leaves the complete file.
    There is no intermediate state.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.parent / f".{path.name}.tmp-{os.getpid()}"
    with open(tmp, "wb") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)


def _json_object(text: bytes, where: str) -> dict[str, Any]:
    """Decode one artifact line, which must hold a JSON object.

    Segments and checkpoints arrive from other machines; anything that is
    not an object is a :class:`ResultLogError` naming ``where``, never an
    ``AttributeError`` further down.
    """
    try:
        payload = json.loads(text)
    except ValueError as exc:
        raise ResultLogError(f"{where}: not JSON ({exc})") from exc
    if not isinstance(payload, dict):
        raise ResultLogError(
            f"{where}: expected a JSON object, got {type(payload).__name__}"
        )
    return payload


def _content_hash(record_lines: Sequence[bytes]) -> str:
    """SHA-256 over the record lines (newlines included), hex-encoded."""
    digest = hashlib.sha256()
    for line in record_lines:
        digest.update(line)
    return digest.hexdigest()


@dataclass(frozen=True)
class SegmentHeader:
    """The self-describing first line of a sealed segment."""

    shard_index: int
    shard_count: int
    total_tasks: int
    segment_index: int
    format: int = SEGMENT_FORMAT

    def to_json_dict(self) -> dict[str, Any]:
        """The header's JSON payload (tagged so readers can recognize it)."""
        return {
            "kind": _HEADER_KIND,
            "format": self.format,
            "shard_index": self.shard_index,
            "shard_count": self.shard_count,
            "total_tasks": self.total_tasks,
            "segment_index": self.segment_index,
        }

    @classmethod
    def from_json_dict(cls, payload: Mapping[str, Any]) -> "SegmentHeader":
        """Rebuild a header, rejecting future format versions."""
        if payload.get("kind") != _HEADER_KIND:
            raise ResultLogError(
                f"expected a {_HEADER_KIND!r} payload, got kind={payload.get('kind')!r}"
            )
        if payload.get("format") != SEGMENT_FORMAT:
            raise ResultLogError(
                f"unsupported segment format {payload.get('format')!r} "
                f"(this build reads format {SEGMENT_FORMAT})"
            )
        for name in ("shard_index", "shard_count", "total_tasks", "segment_index"):
            if not isinstance(payload.get(name), int):
                raise ResultLogError(
                    f"malformed {_HEADER_KIND}: {name}={payload.get(name)!r} "
                    f"(expected an integer)"
                )
        return cls(
            shard_index=payload["shard_index"],
            shard_count=payload["shard_count"],
            total_tasks=payload["total_tasks"],
            segment_index=payload["segment_index"],
            format=payload["format"],
        )


@dataclass(frozen=True)
class SegmentFooter:
    """The sealing last line of a segment: record count plus content hash."""

    records: int
    content_hash: str

    def to_json_dict(self) -> dict[str, Any]:
        """The footer's JSON payload."""
        return {
            "kind": _FOOTER_KIND,
            "records": self.records,
            "content_hash": self.content_hash,
        }

    @classmethod
    def from_json_dict(cls, payload: Mapping[str, Any]) -> "SegmentFooter":
        """Rebuild a footer, validating field types."""
        if payload.get("kind") != _FOOTER_KIND:
            raise ResultLogError(
                f"expected a {_FOOTER_KIND!r} payload, got kind={payload.get('kind')!r}"
            )
        if not isinstance(payload.get("records"), int):
            raise ResultLogError(
                f"malformed {_FOOTER_KIND}: records={payload.get('records')!r}"
            )
        if not isinstance(payload.get("content_hash"), str):
            raise ResultLogError(
                f"malformed {_FOOTER_KIND}: "
                f"content_hash={payload.get('content_hash')!r}"
            )
        return cls(
            records=payload["records"], content_hash=payload["content_hash"]
        )


def _record_line(index: int, data: bytes) -> bytes:
    """One record line: the canonical frame around summary bytes ``data``.

    Canonical JSON sorts ``index`` before ``summary`` and nests, so this is
    byte for byte ``canonical_json_bytes({"index": index, "summary": ...})``
    of the summary ``data`` encodes -- segment format 1 unchanged.
    """
    return b'{"index":%d,"summary":%s}\n' % (index, data)


def write_segment(
    path: Union[str, os.PathLike],
    header: SegmentHeader,
    records: Sequence[tuple[int, Mapping[str, Any]]],
) -> None:
    """Seal one segment at ``path``: header, records, hashed footer.

    ``records`` are ``(global task index, summary payload)`` pairs.  The
    whole segment is assembled in memory and written temp-then-rename, so
    it either exists complete or not at all.
    """
    _seal_lines(
        path,
        header,
        [
            _record_line(index, canonical_json_bytes(dict(payload)))
            for index, payload in records
        ],
    )


def _seal_lines(
    path: Union[str, os.PathLike], header: SegmentHeader, record_lines: list[bytes]
) -> None:
    """Seal one segment from record lines already in the canonical frame."""
    footer = SegmentFooter(
        records=len(record_lines), content_hash=_content_hash(record_lines)
    )
    data = b"".join(
        [
            canonical_json_bytes(header.to_json_dict()) + b"\n",
            *record_lines,
            canonical_json_bytes(footer.to_json_dict()) + b"\n",
        ]
    )
    _atomic_write(pathlib.Path(path), data)


def read_segment(
    path: Union[str, os.PathLike]
) -> tuple[SegmentHeader, SegmentFooter, list[tuple[int, dict[str, Any]]]]:
    """Parse one sealed segment, verifying the footer's count and hash.

    Raises :class:`ResultLogError` on a missing header or footer (an
    unsealed or truncated file), a record-count or content-hash mismatch,
    a duplicate task index within the segment, out-of-range indices, or a
    record line outside the canonical ``{"index":N,"summary":{...}}`` frame.
    """
    header, footer, records = _read_sealed(path)
    return header, footer, [(index, summary) for index, summary, _ in records]


def _read_sealed(
    path: Union[str, os.PathLike]
) -> tuple[SegmentHeader, SegmentFooter, list[tuple[int, dict[str, Any], bytes]]]:
    """:func:`read_segment` keeping each record's sealed summary bytes.

    Every record line must be exactly ``{"index":N,"summary":`` + one JSON
    object + ``}``: that is the line :class:`ResultLogWriter` frames, and it
    makes the bytes between the head and the closing brace the summary's
    sealed encoding, which the merge writes verbatim.
    """
    path = pathlib.Path(path)
    header: Optional[SegmentHeader] = None
    footer: Optional[SegmentFooter] = None
    records: list[tuple[int, dict[str, Any], bytes]] = []
    record_lines: list[bytes] = []
    seen: set[int] = set()
    with open(path, "rb") as handle:
        for number, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line:
                continue
            if footer is not None:
                raise ResultLogError(f"{path}:{number}: data after the footer")
            if header is None:
                payload = _json_object(line, f"{path}:{number}")
                header = SegmentHeader.from_json_dict(payload)
                continue
            framed = _framed_record(raw)
            if framed is None:
                # The footer, or a record line to name the fault of.
                payload = _json_object(line, f"{path}:{number}")
                if payload.get("kind") == _FOOTER_KIND:
                    footer = SegmentFooter.from_json_dict(payload)
                    continue
                if "index" not in payload or "summary" not in payload:
                    raise ResultLogError(
                        f"{path}:{number}: record lacks index/summary keys"
                    )
                index = payload["index"]
                if not isinstance(index, int):
                    raise ResultLogError(
                        f"{path}:{number}: task index {index!r} is not an integer"
                    )
                if not isinstance(payload["summary"], dict):
                    raise ResultLogError(
                        f"{path}:{number}: summary of task index {index} is not "
                        f"a JSON object"
                    )
                raise ResultLogError(
                    f"{path}:{number}: record is not in the canonical "
                    f'{{"index":N,"summary":{{...}}}} frame'
                )
            index, summary, data = framed
            if not 0 <= index < header.total_tasks:
                raise ResultLogError(
                    f"{path}:{number}: task index {index} outside "
                    f"[0, {header.total_tasks})"
                )
            if index in seen:
                raise ResultLogError(
                    f"{path}:{number}: task index {index} appears twice in "
                    f"one segment"
                )
            seen.add(index)
            records.append((index, summary, data))
            record_lines.append(raw)
    if header is None:
        raise ResultLogError(f"{path}: empty segment (no {_HEADER_KIND} line)")
    if footer is None:
        raise ResultLogError(
            f"{path}: unsealed segment (no {_FOOTER_KIND} line; "
            f"interrupted write?)"
        )
    if footer.records != len(records):
        raise ResultLogError(
            f"{path}: footer promises {footer.records} record(s) but "
            f"{len(records)} were read (truncated segment?)"
        )
    actual = _content_hash(record_lines)
    if footer.content_hash != actual:
        raise ResultLogError(
            f"{path}: content hash mismatch (footer {footer.content_hash}, "
            f"records hash to {actual}; corrupt segment?)"
        )
    return header, footer, records


def _framed_record(raw: bytes) -> Optional[tuple[int, dict[str, Any], bytes]]:
    """``(index, summary, summary bytes)`` of a canonically framed record line.

    ``None`` when ``raw`` is not ``{"index":N,"summary":{...}}`` plus a
    newline with nothing around the summary object, so the caller can name
    the fault.  The summary bytes are parsed here; they must start and end
    as one object, so a successful parse proves the frame holds nothing else.
    """
    match = _RECORD_HEAD.match(raw)
    if match is None or not raw.endswith(b"}\n"):
        return None
    data = raw[match.end() : -2]
    if data[:1] != b"{" or data[-1:] != b"}":
        return None
    try:
        summary = json.loads(data.decode("utf-8"))
    except ValueError:
        return None
    return int(match.group(1)), summary, data


def discover_segments(
    log_dir: Union[str, os.PathLike]
) -> dict[int, list[tuple[int, pathlib.Path]]]:
    """Map each shard to its ordered, gap-free sealed segment paths.

    Only files matching the segment name pattern participate; checkpoint
    files, merged spills and temp debris are ignored.  A gap in a shard's
    segment numbering (a deleted or lost segment) is an error, because a
    resumed producer always appends sequentially.
    """
    log_dir = pathlib.Path(log_dir)
    by_shard: dict[int, list[tuple[int, pathlib.Path]]] = {}
    if not log_dir.is_dir():
        return by_shard
    for entry in sorted(log_dir.iterdir()):
        match = _SEGMENT_RE.match(entry.name)
        if match is None:
            continue
        shard_index, segment_index = int(match.group(1)), int(match.group(2))
        by_shard.setdefault(shard_index, []).append((segment_index, entry))
    for shard_index, segments in by_shard.items():
        segments.sort()
        expected = list(range(len(segments)))
        actual = [segment_index for segment_index, _ in segments]
        if actual != expected:
            missing = sorted(set(expected) - set(actual))
            raise ResultLogError(
                f"{log_dir}: shard {shard_index} has a segment-numbering gap "
                f"(missing segment(s) {missing or actual}; was a sealed "
                f"segment deleted?)"
            )
    return by_shard


class ResultLogWriter(SummarySink):
    """Appends one shard's summaries to the log as sealed segments.

    The engine delivers summaries by local (within-run) index; the writer
    maps them to global task indices, buffers ``segment_records`` of them,
    and seals each full segment atomically.  ``close()`` seals the final
    partial segment -- and, for a shard that produced nothing and has no
    prior segments, an empty segment so the merge still sees the shard.
    Each record line frames the summary's canonical bytes as the engine
    delivered them; the summary is encoded only when none came with it.
    """

    def __init__(
        self,
        log_dir: Union[str, os.PathLike],
        *,
        shard_index: int,
        shard_count: int,
        total_tasks: int,
        global_indices: Sequence[int],
        segment_records: int = DEFAULT_SEGMENT_RECORDS,
        start_segment: int = 0,
    ) -> None:
        if segment_records < 1:
            raise ValueError(
                f"segment_records must be >= 1, got {segment_records}"
            )
        self.log_dir = pathlib.Path(log_dir)
        self.shard_index = shard_index
        self.shard_count = shard_count
        self.total_tasks = total_tasks
        self.global_indices = list(global_indices)
        self.segment_records = segment_records
        self.start_segment = start_segment
        self.appended = 0
        self.segments_sealed = 0
        self._next_segment = start_segment
        self._buffer: list[bytes] = []

    def accept(self, index: int, summary) -> None:
        """Buffer one summary; seal a segment once the buffer fills."""
        self.accept_record(index, summary, None)

    def accept_record(self, index: int, summary, data: Optional[bytes]) -> None:
        """Buffer one record line framing ``data`` (encoded if ``None``)."""
        if data is None:
            data = summary.to_json_bytes()
        self._buffer.append(_record_line(self.global_indices[index], data))
        self.appended += 1
        if len(self._buffer) >= self.segment_records:
            self._seal()

    def _seal(self) -> None:
        header = SegmentHeader(
            shard_index=self.shard_index,
            shard_count=self.shard_count,
            total_tasks=self.total_tasks,
            segment_index=self._next_segment,
        )
        path = self.log_dir / segment_name(self.shard_index, self._next_segment)
        records = self._buffer
        self._buffer = []
        _seal_lines(path, header, records)
        self._next_segment += 1
        self.segments_sealed += 1
        metrics = _active_metrics()
        if metrics is not None:
            metrics.counter("resultlog.segments.sealed").inc()
            metrics.counter("resultlog.records.appended").inc(len(records))

    def close(self) -> None:
        """Seal the trailing partial segment (or an empty marker segment)."""
        if self._buffer or (self.segments_sealed == 0 and self.start_segment == 0):
            self._seal()


def _scan_shard_segments(
    log_dir: pathlib.Path,
    shard_index: int,
    *,
    shard_count: int,
    total_tasks: int,
) -> tuple[set[int], int]:
    """The shard's already-sealed global indices plus its next segment index.

    Every sealed segment is verified (hash + count) and its header checked
    against the grid being run, so resuming against a log directory from a
    different grid fails loudly instead of interleaving records.
    """
    covered: set[int] = set()
    segments = discover_segments(log_dir).get(shard_index, [])
    for _, path in segments:
        header, _, records = read_segment(path)
        if header.shard_index != shard_index:
            raise ResultLogError(
                f"{path}: header names shard {header.shard_index}, expected "
                f"{shard_index}"
            )
        if (header.shard_count, header.total_tasks) != (shard_count, total_tasks):
            raise ResultLogError(
                f"{path}: sealed for a different grid "
                f"(shard_count={header.shard_count}, "
                f"total_tasks={header.total_tasks}; this run has "
                f"shard_count={shard_count}, total_tasks={total_tasks})"
            )
        for index, _ in records:
            covered.add(index)
    return covered, len(segments)


@dataclass
class ShardLogResult:
    """The outcome of one (possibly resumed) shard-to-log run."""

    stats: StreamStats
    shard_tasks: int
    skipped: int
    appended: int
    segments_sealed: int
    log_dir: pathlib.Path


def run_shard_log(
    tasks: TaskBatch,
    shard_index: int,
    shard_count: int,
    log_dir: Union[str, os.PathLike],
    *,
    engine: Optional[SweepEngine] = None,
    segment_records: int = DEFAULT_SEGMENT_RECORDS,
) -> ShardLogResult:
    """Execute one shard, appending sealed segments to ``log_dir``.

    Resume is implicit: tasks whose records are already sealed (by an
    earlier, possibly interrupted run of the same shard) are skipped
    without executing, and new segments append after the last sealed one.
    A log directory sealed for a different grid is rejected.
    """
    task_list = SweepEngine._materialize(tasks)
    selected = shard_tasks(task_list, shard_index, shard_count)
    log_dir = pathlib.Path(log_dir)
    covered, next_segment = _scan_shard_segments(
        log_dir, shard_index, shard_count=shard_count, total_tasks=len(task_list)
    )
    owned = {index for index, _ in selected}
    stray = covered - owned
    if stray:
        preview = ", ".join(map(str, sorted(stray)[:5]))
        raise ResultLogError(
            f"{log_dir}: shard {shard_index} has sealed record(s) for task "
            f"index(es) {preview} that are not in this shard of this grid; "
            f"was the log produced from a different task list?"
        )
    remaining = [(index, task) for index, task in selected if index not in covered]
    engine = engine or SweepEngine()
    metrics = engine.metrics if engine.metrics is not None else _active_metrics()
    if metrics is not None:
        metrics.counter("resultlog.resume.skipped").inc(len(covered))
        metrics.counter("shard.tasks").inc(len(remaining))
        # Skew: this shard's load relative to a perfectly even partition
        # (1.0 = exactly its fair share).  Content-addressed assignment is
        # balanced only in expectation; this gauge shows the actual spread.
        ideal = len(task_list) / shard_count
        if ideal > 0:
            metrics.gauge("shard.skew").set(len(selected) / ideal)
    writer = ResultLogWriter(
        log_dir,
        shard_index=shard_index,
        shard_count=shard_count,
        total_tasks=len(task_list),
        global_indices=[index for index, _ in remaining],
        segment_records=segment_records,
        start_segment=next_segment,
    )
    # The engine keeps its registry active only while the stream runs; the
    # writer seals its trailing segment in close(), after that.
    with activate(metrics):
        stats = engine.run_streaming([task for _, task in remaining], sinks=writer)
    return ShardLogResult(
        stats=stats,
        shard_tasks=len(selected),
        skipped=len(covered),
        appended=writer.appended,
        segments_sealed=writer.segments_sealed,
        log_dir=log_dir,
    )


@dataclass
class MergeCursor:
    """The merge's durable consumer position, committed outbox-style.

    ``records_folded`` and ``fold_hash`` (a rolling SHA-256 over the folded
    ``index:spec_hash`` prefix) are the authoritative resume point;
    ``jsonl_bytes`` is the merged spill's committed byte offset.
    """

    shard_count: int
    total_tasks: int
    records_folded: int = 0
    jsonl_bytes: int = 0
    fold_hash: str = ""
    format: int = SEGMENT_FORMAT

    def to_json_dict(self) -> dict[str, Any]:
        """The checkpoint's canonical JSON payload."""
        return {
            "kind": _CHECKPOINT_KIND,
            "format": self.format,
            "shard_count": self.shard_count,
            "total_tasks": self.total_tasks,
            "records_folded": self.records_folded,
            "jsonl_bytes": self.jsonl_bytes,
            "fold_hash": self.fold_hash,
        }

    @classmethod
    def from_json_dict(cls, payload: Mapping[str, Any]) -> "MergeCursor":
        """Rebuild a checkpoint, rejecting foreign or future payloads."""
        if payload.get("kind") != _CHECKPOINT_KIND:
            raise ResultLogError(
                f"expected a {_CHECKPOINT_KIND!r} payload, "
                f"got kind={payload.get('kind')!r}"
            )
        if payload.get("format") != SEGMENT_FORMAT:
            raise ResultLogError(
                f"unsupported checkpoint format {payload.get('format')!r} "
                f"(this build reads format {SEGMENT_FORMAT})"
            )
        for name in ("shard_count", "total_tasks", "records_folded", "jsonl_bytes"):
            if not isinstance(payload.get(name), int):
                raise ResultLogError(
                    f"malformed {_CHECKPOINT_KIND}: {name}={payload.get(name)!r}"
                )
        return cls(
            shard_count=payload["shard_count"],
            total_tasks=payload["total_tasks"],
            records_folded=payload["records_folded"],
            jsonl_bytes=payload["jsonl_bytes"],
            fold_hash=payload.get("fold_hash", ""),
            format=payload["format"],
        )

    @classmethod
    def load(cls, path: Union[str, os.PathLike]) -> Optional["MergeCursor"]:
        """Read a checkpoint, or ``None`` when the file does not exist."""
        path = pathlib.Path(path)
        if not path.exists():
            return None
        return cls.from_json_dict(_json_object(path.read_bytes(), f"{path}"))

    def save(self, path: Union[str, os.PathLike]) -> None:
        """Commit the checkpoint atomically (temp-then-rename, fsynced)."""
        _atomic_write(
            pathlib.Path(path), canonical_json_bytes(self.to_json_dict()) + b"\n"
        )


@dataclass
class MergeResult:
    """The outcome of folding a result log back together.

    ``kind_sinks`` maps each spec kind seen in the log to its default
    sink, fully folded in global task order -- the same aggregates a
    single-machine streaming run of the whole task list would leave.
    ``shard_records`` counts, per shard present in the log, the records it
    contributed to the fold (duplicates count for the shard sealed first).
    """

    records: int
    kind_sinks: dict[str, Any]
    shard_count: int
    total_tasks: int
    shard_records: dict[int, int]
    jsonl_path: Optional[pathlib.Path] = None
    elapsed: float = 0.0
    deduped: int = 0
    replayed: int = 0
    segments: int = 0
    checkpoint_path: Optional[pathlib.Path] = None


def _fold_hash_line(index: int, spec_hash: str) -> bytes:
    """What the rolling fold hash takes in for one folded record."""
    return f"{index}:{spec_hash}\n".encode("utf-8")


def _fold_hash_prefix(
    order: Sequence[int], merged: Mapping[int, tuple[Any, ...]], count: int
) -> str:
    """The rolling hash of the first ``count`` records of the fold order."""
    digest = hashlib.sha256()
    for index in order[:count]:
        digest.update(_fold_hash_line(index, merged[index][0]))
    return digest.hexdigest()


def _decode_record(
    path: pathlib.Path, index: int, payload: Mapping[str, Any]
) -> tuple[SpecKind, Any]:
    """Decode one sealed record to its kind and summary.

    The error names the segment file, the task index and the fault in the
    result cache's words (missing field / malformed field).  A record of an
    unknown kind raises :class:`~repro.engine.registry.UnknownSpecKindError`
    naming its tag.
    """
    kind = kind_for_payload(payload)
    try:
        return kind, kind.decode(payload)
    except KeyError as exc:
        fault = f"missing field {exc}"
    except (AttributeError, TypeError, ValueError) as exc:
        fault = f"malformed field: {exc}"
    raise ResultLogError(f"{path}: task index {index}: {fault}")


def merge_result_log(
    log_dir: Union[str, os.PathLike],
    *,
    sinks: Sequence[SummarySink] = (),
    jsonl: Union[str, os.PathLike, None] = None,
    checkpoint: Union[str, os.PathLike, None] = None,
    resume: bool = False,
    require_complete: bool = True,
    batch_records: int = DEFAULT_BATCH_RECORDS,
) -> MergeResult:
    """Fold a result log into single-machine-identical aggregates, resumably.

    Records from every sealed segment are deduplicated by ``(global task
    index, spec hash)`` -- late or re-run shards fold exactly once; the same
    index under two *different* spec hashes is an error -- then sorted by
    global index and folded through (a) the default sink of each record's
    spec kind, (b) every sink in ``sinks``, and (c) the optional
    merged JSONL spill whose bytes equal a single-machine
    :class:`~repro.engine.sink.JsonlSink` spill of the same task list.

    With ``require_complete`` (the default), the log must cover every shard
    and every task index; errors name the missing shards or indices.  Pass
    ``require_complete=False`` to fold a partial log (aggregates then cover
    only the shards present).

    After every ``batch_records`` folded records the merged JSONL is flushed
    and a :class:`MergeCursor` checkpoint is committed atomically (the
    outbox order: fold, flush, then commit).  With ``resume=True`` and an
    existing checkpoint, the committed prefix is *replayed* from the log
    into the sinks (decode-only -- nothing re-executes), the JSONL is
    truncated back to the committed byte offset, and folding continues;
    the final aggregates and JSONL are byte-identical to an uninterrupted
    merge.  A checkpoint whose folded prefix no longer matches the log
    (e.g. a late shard inserted earlier records into an incomplete set) is
    rejected -- restart without ``resume`` for byte-identical output.
    """
    if batch_records < 1:
        raise ValueError(f"batch_records must be >= 1, got {batch_records}")
    log_dir = pathlib.Path(log_dir)
    started = time.perf_counter()
    metrics = _active_metrics()
    by_shard = discover_segments(log_dir)
    if not by_shard:
        raise ResultLogError(f"{log_dir}: no sealed segments to merge")

    # Scan: read every sealed segment, decode every record, dedup
    # exactly-once.
    first_header: Optional[SegmentHeader] = None
    # index -> (spec hash, kind, summary, sealed summary bytes)
    merged: dict[int, tuple[Any, SpecKind, Any, bytes]] = {}
    shard_records: dict[int, int] = {}
    deduped = 0
    segment_count = 0
    for shard_index in sorted(by_shard):
        shard_records[shard_index] = 0
        for _, path in by_shard[shard_index]:
            before = time.perf_counter()
            header, _, records = _read_sealed(path)
            if metrics is not None:
                metrics.histogram("merge.read_seconds").observe(
                    time.perf_counter() - before
                )
            if first_header is None:
                first_header = header
            elif (header.shard_count, header.total_tasks) != (
                first_header.shard_count,
                first_header.total_tasks,
            ):
                raise ResultLogError(
                    f"{path}: shard_count={header.shard_count}/"
                    f"total_tasks={header.total_tasks} disagrees with the "
                    f"log's first segment "
                    f"(shard_count={first_header.shard_count}, "
                    f"total_tasks={first_header.total_tasks})"
                )
            segment_count += 1
            for index, payload, data in records:
                # An unknown kind or a record that does not decode fails
                # here, before the fold has written or committed anything.
                kind, summary = _decode_record(path, index, payload)
                current = payload.get("spec_hash")
                if index in merged:
                    previous = merged[index][0]
                    if previous != current:
                        raise ResultLogError(
                            f"{path}: task index {index} re-sealed with a "
                            f"different spec hash ({current!r} vs "
                            f"{previous!r}); were the shards run against "
                            f"different grids?"
                        )
                    deduped += 1
                    continue
                merged[index] = (current, kind, summary, data)
                shard_records[shard_index] += 1

    assert first_header is not None
    shard_count = first_header.shard_count
    total_tasks = first_header.total_tasks
    if require_complete:
        missing = sorted(set(range(shard_count)) - set(by_shard))
        if missing:
            raise ResultLogError(
                f"incomplete result log: missing shard(s) "
                f"{', '.join(map(str, missing))} of {shard_count} "
                f"(pass require_complete=False to merge a partial log)"
            )
        missing_tasks = sorted(set(range(total_tasks)) - set(merged))
        if missing_tasks:
            preview = ", ".join(map(str, missing_tasks[:5]))
            if len(missing_tasks) > 5:
                preview += ", ..."
            raise ResultLogError(
                f"incomplete result log: {len(missing_tasks)} of "
                f"{total_tasks} task(s) have no sealed record "
                f"(missing indices {preview}); are the shard runs complete?"
            )
    order = sorted(merged)

    # Resume point: load and validate the committed cursor.
    checkpoint_path = pathlib.Path(
        checkpoint if checkpoint is not None else log_dir / CHECKPOINT_NAME
    )
    cursor = MergeCursor.load(checkpoint_path) if resume else None
    if cursor is not None:
        if (cursor.shard_count, cursor.total_tasks) != (shard_count, total_tasks):
            raise ResultLogError(
                f"{checkpoint_path}: checkpoint covers a different grid "
                f"(shard_count={cursor.shard_count}, "
                f"total_tasks={cursor.total_tasks})"
            )
        if cursor.records_folded > len(order):
            raise ResultLogError(
                f"{checkpoint_path}: checkpoint folded "
                f"{cursor.records_folded} record(s) but the log holds only "
                f"{len(order)}; was a sealed segment deleted?"
            )
        if (
            _fold_hash_prefix(order, merged, cursor.records_folded)
            != cursor.fold_hash
        ):
            raise ResultLogError(
                f"{checkpoint_path}: the folded prefix no longer matches "
                f"the log (new records sorted into already-folded "
                f"territory?); restart the merge without resume"
            )
    else:
        cursor = MergeCursor(shard_count=shard_count, total_tasks=total_tasks)
    replay_count = cursor.records_folded

    # Open the merged JSONL at the committed offset.
    jsonl_path = pathlib.Path(jsonl) if jsonl is not None else None
    handle: Optional[IO[bytes]] = None
    if jsonl_path is not None:
        if replay_count > 0 and cursor.jsonl_bytes == 0:
            # The mirror of the no-target guard below: appending only the
            # un-replayed suffix would leave a spill missing its prefix.
            raise ResultLogError(
                f"{checkpoint_path}: resuming a merge that folded "
                f"{replay_count} record(s) with no --jsonl target, so "
                f"{jsonl_path} cannot be completed from the checkpoint; drop "
                f"--jsonl or restart the merge without resume"
            )
        jsonl_path.parent.mkdir(parents=True, exist_ok=True)
        if replay_count > 0:
            if not jsonl_path.exists():
                raise ResultLogError(
                    f"{jsonl_path}: resuming a merge that committed "
                    f"{cursor.jsonl_bytes} byte(s) but the merged spill is "
                    f"missing; restart the merge without resume"
                )
            size = jsonl_path.stat().st_size
            if size < cursor.jsonl_bytes:
                raise ResultLogError(
                    f"{jsonl_path}: merged spill holds {size} byte(s), "
                    f"shorter than the committed {cursor.jsonl_bytes}; "
                    f"restart the merge without resume"
                )
            # Bytes past the commit were folded but never checkpointed
            # (a crash mid-batch); drop them, they re-fold now.
            os.truncate(jsonl_path, cursor.jsonl_bytes)
            handle = open(jsonl_path, "ab")
        else:
            handle = open(jsonl_path, "wb")
    elif cursor.jsonl_bytes > 0:
        # Folding on would commit a "complete" checkpoint beside the
        # partial spill the interrupted merge left behind.
        raise ResultLogError(
            f"{checkpoint_path}: resuming a merge that committed "
            f"{cursor.jsonl_bytes} byte(s) of merged JSONL but this merge "
            f"has no --jsonl target; pass the same --jsonl or restart the "
            f"merge without resume"
        )

    kind_sinks: dict[str, Any] = {}
    extra = list(sinks)
    digest = hashlib.sha256()
    folded = 0
    new_folds = 0
    uncommitted = 0

    def commit() -> None:
        """Outbox commit: flush+fsync the spill, then the cursor."""
        nonlocal uncommitted
        if handle is not None:
            handle.flush()
            os.fsync(handle.fileno())
            cursor.jsonl_bytes = handle.tell()
        cursor.records_folded = folded
        cursor.fold_hash = digest.hexdigest()
        cursor.save(checkpoint_path)
        uncommitted = 0
        if metrics is not None:
            metrics.counter("resultlog.checkpoint.commits").inc()

    fold_started = time.perf_counter()
    try:
        for position, index in enumerate(order):
            spec_hash, kind, summary, data = merged[index]
            sink = kind_sinks.get(kind.name)
            if sink is None:
                sink = kind_sinks[kind.name] = kind.make_sink()
            sink.accept_record(index, summary, data)
            for extra_sink in extra:
                extra_sink.accept_record(index, summary, data)
            digest.update(_fold_hash_line(index, spec_hash))
            folded += 1
            if position < replay_count:
                # Replay of the committed prefix: sink state only, the
                # JSONL bytes are already on disk.
                continue
            if handle is not None:
                # The sealed bytes, verbatim: the record was framed from
                # the summary's canonical encoding and hash-verified since.
                handle.write(data + b"\n")
            new_folds += 1
            uncommitted += 1
            if uncommitted >= batch_records:
                commit()
        if uncommitted > 0 or folded == 0 or not resume:
            commit()
    finally:
        if handle is not None:
            handle.close()
        for sink in (*kind_sinks.values(), *extra):
            sink.close()
    if metrics is not None:
        metrics.histogram("merge.fold_seconds").observe(
            time.perf_counter() - fold_started
        )
        metrics.counter("merge.records").inc(new_folds)
        metrics.counter("merge.shards").inc(len(by_shard))
        metrics.counter("resultlog.records.deduped").inc(deduped)
        metrics.counter("resultlog.resume.replayed").inc(replay_count)
        mean = len(order) / len(by_shard)
        metrics.histogram(
            "merge.records_per_shard", bounds=COUNT_BUCKETS
        ).observe(mean)
        if mean > 0:
            # Skew across the merged shards: heaviest shard over the mean
            # (1.0 = perfectly even).  The number that says whether the
            # matrix's wall clock is gated on one overloaded shard.
            metrics.gauge("merge.skew").set(max(shard_records.values()) / mean)
    return MergeResult(
        records=len(order),
        kind_sinks=kind_sinks,
        shard_count=shard_count,
        total_tasks=total_tasks,
        shard_records=shard_records,
        jsonl_path=jsonl_path,
        elapsed=time.perf_counter() - started,
        deduped=deduped,
        replayed=replay_count,
        segments=segment_count,
        checkpoint_path=checkpoint_path,
    )
