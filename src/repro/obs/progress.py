"""The live ``--progress`` line: done/total, scenarios/s, hit rate, ETA.

Driven by the engine's streaming path: every in-order delivery ticks
:meth:`ProgressLine.update`, which rewrites one stderr line (throttled to
:attr:`ProgressLine.min_interval` so a fast sweep is not dominated by
terminal writes).  The line is observability-only -- stdout, summaries and
the metrics document are untouched, so piping a sweep's stdout stays clean.
"""

from __future__ import annotations

import sys
import time
from typing import Optional, TextIO


class ProgressLine:
    """Rewrites one ``\\r``-terminated status line as a run progresses."""

    #: Seconds between repaints (the final repaint always happens).
    min_interval = 0.1

    def __init__(
        self,
        total: int,
        *,
        label: str = "progress",
        stream: Optional[TextIO] = None,
    ) -> None:
        self.total = total
        self.label = label
        self.stream = stream if stream is not None else sys.stderr
        self.started = time.perf_counter()
        self._last_paint = 0.0
        self._painted = False

    def update(
        self, done: int, *, executed: int = 0, cache_hits: int = 0, force: bool = False
    ) -> None:
        """Repaint the line for ``done`` completed tasks (throttled)."""
        now = time.perf_counter()
        if not force and done < self.total and now - self._last_paint < self.min_interval:
            return
        self._last_paint = now
        elapsed = now - self.started
        rate = done / elapsed if elapsed > 0 else 0.0
        remaining = self.total - done
        eta = remaining / rate if rate > 0 else 0.0
        looked_up = executed + cache_hits
        hit_rate = cache_hits / looked_up if looked_up else 0.0
        self.stream.write(
            f"\r{self.label}: {done}/{self.total} "
            f"({rate:.0f} scenarios/s, cache {hit_rate:.0%}, "
            f"eta {eta:.1f}s)"
        )
        self.stream.flush()
        self._painted = True

    def close(self) -> None:
        """Finish the line (newline) if anything was painted."""
        if self._painted:
            self.stream.write("\n")
            self.stream.flush()
