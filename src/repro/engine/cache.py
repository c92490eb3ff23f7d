"""On-disk result cache for incremental re-sweeps.

Every completed run is stored as canonical JSON under
``<root>/<hash[:2]>/<hash>-<seed>.json``, keyed by the task's stable spec
hash plus its seed.  Re-running a sweep with a warm cache returns
byte-identical summaries without executing a single scenario; changing any
scenario field (or the protocol) changes the hash and re-executes only the
affected points.

A warm re-sweep reads every entry, so the read side is kept lean: each key
formats one ``str`` path, :meth:`ResultCache.probe` is one ``stat`` and
:meth:`ResultCache.get_bytes` one ``open``.  :meth:`ResultCache.get_record`
trusts no entry: a record that is not JSON, not an object, misses a
field, was stored under another ``(spec-hash, seed)`` key or spans more
than one line raises
:class:`CacheEntryError` naming the file, instead of a traceback or a
silently wrong table.  An entry that passes is returned with its bytes,
which the engine hands on verbatim instead of re-encoding the summary.
"""

from __future__ import annotations

import json
import os
import pathlib
import tempfile
from typing import Optional, Union

from repro.engine.registry import UnknownSpecKindError
from repro.engine.summary import RunSummary, summary_from_json_dict
from repro.obs.metrics import get_active as _active_metrics


class CacheEntryError(ValueError):
    """A cache entry that cannot stand for its key.

    The message names the entry's path and the fault: not JSON, not a JSON
    object, a missing or malformed field, a record whose own
    ``(spec_hash, seed)`` differs from the key its file name encodes, or a
    line break inside the entry.
    """

    def __init__(self, path: str, fault: str) -> None:
        super().__init__(f"cache entry {path}: {fault}")
        self.path = path
        self.fault = fault


class ResultCache:
    """A directory of canonical-JSON summary records.

    Stores the summary records of all three spec kinds (the entry's
    ``kind`` tag selects the codec through
    :mod:`repro.engine.registry` -- single-transaction :class:`RunSummary`
    records, concurrent-workload throughput records and model-check
    records); the key space is shared because the spec hash covers the
    spec's dataclass name.
    """

    def __init__(self, root: Union[str, os.PathLike]) -> None:
        self.root = pathlib.Path(root)
        self._prefix = str(self.root) + os.sep
        self.hits = 0
        self.misses = 0

    def path(self, spec_hash: str, seed: int) -> pathlib.Path:
        """Cache file location for one ``(spec-hash, seed)`` key."""
        return pathlib.Path(self._file(spec_hash, seed))

    def _file(self, spec_hash: str, seed: int) -> str:
        """:meth:`path` as a plain string, for the per-key reads."""
        return f"{self._prefix}{spec_hash[:2]}{os.sep}{spec_hash}-{seed}.json"

    def probe(self, spec_hash: str, seed: int) -> bool:
        """Existence check counted like a lookup, without reading the entry.

        The engine's streaming scan uses this to learn *whether* a point is
        cached (the full entry is read lazily at delivery time), so a warm
        sweep reads and parses each entry exactly once.
        """
        metrics = _active_metrics()
        if os.path.isfile(self._file(spec_hash, seed)):
            self.hits += 1
            if metrics is not None:
                metrics.counter("engine.cache.hits").inc()
            return True
        self.misses += 1
        if metrics is not None:
            metrics.counter("engine.cache.misses").inc()
        return False

    def get_bytes(
        self, spec_hash: str, seed: int, *, record: bool = True
    ) -> Optional[bytes]:
        """Raw cached bytes, or ``None`` on a miss.

        ``record=False`` leaves the hit/miss counters untouched -- for
        internal re-reads of entries already counted by :meth:`probe`.
        """
        metrics = _active_metrics()
        try:
            with open(self._file(spec_hash, seed), "rb") as handle:
                data = handle.read()
        except FileNotFoundError:
            if record:
                self.misses += 1
                if metrics is not None:
                    metrics.counter("engine.cache.misses").inc()
            return None
        if record:
            self.hits += 1
            if metrics is not None:
                metrics.counter("engine.cache.hits").inc()
        if metrics is not None:
            metrics.counter("engine.cache.bytes_read").inc(len(data))
        return data

    def get_record(
        self, spec_hash: str, seed: int, *, record: bool = True
    ) -> Optional[tuple[RunSummary, bytes]]:
        """The cached summary together with the entry's bytes, or ``None``.

        The bytes are returned only once they have decoded to the record of
        exactly this key, so callers may write them verbatim wherever the
        summary's canonical encoding belongs (a JSONL spill line, a log
        segment record).  An entry holding a line break would split such a
        line and raises :class:`CacheEntryError` like any other fault.

        Callers that need only the bytes still pay the decode: it is the
        entry's field validation.  A bytes-only path would hand on an
        entry whose fields were never checked, to be sealed into a result
        log segment whose content hash is valid.
        """
        data = self.get_bytes(spec_hash, seed, record=record)
        if data is None:
            return None
        try:
            payload = json.loads(data.decode("utf-8"))
        except ValueError:
            raise CacheEntryError(self._file(spec_hash, seed), "not JSON") from None
        if not isinstance(payload, dict):
            raise CacheEntryError(
                self._file(spec_hash, seed),
                f"not a JSON object (a {type(payload).__name__})",
            )
        try:
            summary = summary_from_json_dict(payload)
        except UnknownSpecKindError:
            raise
        except KeyError as exc:
            raise CacheEntryError(
                self._file(spec_hash, seed), f"missing field {exc}"
            ) from None
        except (AttributeError, TypeError, ValueError) as exc:
            raise CacheEntryError(
                self._file(spec_hash, seed), f"malformed field: {exc}"
            ) from None
        if summary.spec_hash != spec_hash or summary.seed != seed:
            raise CacheEntryError(
                self._file(spec_hash, seed),
                f"holds the record of key ({summary.spec_hash}, {summary.seed})",
            )
        if b"\n" in data:
            raise CacheEntryError(
                self._file(spec_hash, seed),
                "holds a line break (canonical JSON is one line)",
            )
        return summary, data

    def put(self, summary: RunSummary) -> pathlib.Path:
        """Store ``summary`` (atomic write; last writer wins)."""
        return self.put_bytes(summary.spec_hash, summary.seed, summary.to_json_bytes())

    def put_bytes(self, spec_hash: str, seed: int, data: bytes) -> pathlib.Path:
        """Store pre-encoded canonical summary bytes (atomic write).

        The engine stores every summary through this, with the bytes a
        worker frame already holds or that it encoded once for the cache
        and the sinks alike; ``data`` must be the summary's
        :meth:`~RunSummary.to_json_bytes` output so cache entries stay
        byte-identical to :meth:`put`'s.
        """
        path = self.path(spec_hash, seed)
        metrics = _active_metrics()
        if metrics is not None:
            metrics.counter("engine.cache.puts").inc()
            metrics.counter("engine.cache.bytes_written").inc(len(data))
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(data)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        return path

    def __len__(self) -> int:
        if not self.root.exists():
            return 0
        return sum(1 for _ in self.root.glob("*/*.json"))
