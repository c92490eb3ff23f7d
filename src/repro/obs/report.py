"""Render a ``--metrics-json`` document as human-readable tables.

``repro report METRICS.json`` is the read side of the observability layer:
it takes the canonical-JSON metrics document a run wrote and renders

* a **run header** (command, elapsed, workers, scenarios);
* a **phase breakdown** -- every ``*_seconds`` histogram as a timing row
  (count, total, mean, min/max, share of wall clock), the view that says
  where a sweep's time went;
* a **distributions** table -- the remaining histograms (simulated-time
  waits, per-shard record counts) with raw numbers, since duration
  formatting would misstate their units;
* a **worker breakdown** -- per-worker task counts, busy seconds and
  utilization, plus the dispatch-overhead share: the numbers ROADMAP
  item 1 needs to quantify the workers=4-loses-to-workers=1 gap;
* the remaining **counters and gauges** verbatim.

Rendering goes through :func:`format_table`, the dependency-free renderer
every experiment report, sweep table and boundary listing uses (the
golden-table tests pin its exact output).
"""

from __future__ import annotations

from typing import Any, Mapping, Optional, Sequence

#: Prefix of the per-worker instruments the engine emits.
WORKER_PREFIX = "engine.worker."


def format_table(
    rows: Sequence[Mapping[str, Any]],
    *,
    columns: Optional[Sequence[str]] = None,
    title: Optional[str] = None,
) -> str:
    """Render a list of dict rows as an aligned text table."""
    if not rows:
        return title or "(no rows)"
    keys = list(columns) if columns is not None else list(rows[0].keys())
    widths = {key: len(str(key)) for key in keys}
    for row in rows:
        for key in keys:
            widths[key] = max(widths[key], len(str(row.get(key, ""))))
    lines = []
    if title:
        lines.append(title)
    header = " | ".join(f"{key:<{widths[key]}}" for key in keys)
    lines.append(header)
    lines.append("-+-".join("-" * widths[key] for key in keys))
    for row in rows:
        lines.append(" | ".join(f"{str(row.get(key, '')):<{widths[key]}}" for key in keys))
    return "\n".join(lines)


def _fmt_seconds(seconds: float) -> str:
    """Human scale for durations: us under 1ms, ms under 1s, else s."""
    if seconds < 1e-3:
        return f"{seconds * 1e6:.1f}us"
    if seconds < 1.0:
        return f"{seconds * 1e3:.2f}ms"
    return f"{seconds:.3f}s"


def phase_rows(
    metrics: Mapping[str, Any], *, elapsed: Optional[float] = None
) -> list[dict[str, Any]]:
    """Timing-histogram rows (one per ``*_seconds`` histogram), largest first."""
    rows = []
    for name, payload in metrics.get("histograms", {}).items():
        if not name.endswith("_seconds") or not payload["count"]:
            continue
        total = payload["total"]
        row = {
            "phase": name[: -len("_seconds")],
            "count": payload["count"],
            "total": _fmt_seconds(total),
            "mean": _fmt_seconds(total / payload["count"]),
            "min": _fmt_seconds(payload["min"] or 0.0),
            "max": _fmt_seconds(payload["max"] or 0.0),
        }
        if elapsed:
            row["share"] = f"{100.0 * total / elapsed:.1f}%"
        rows.append((total, row))
    return [row for _, row in sorted(rows, key=lambda item: -item[0])]


def distribution_rows(metrics: Mapping[str, Any]) -> list[dict[str, Any]]:
    """Rows for the non-wall-clock histograms (sim-time waits, counts).

    Everything :func:`phase_rows` skips -- histograms whose unit is not
    wall-clock seconds, like ``txn.lock_wait_simtime`` (simulated time)
    or ``merge.records_per_shard`` (plain counts) -- rendered with raw
    numbers instead of duration formatting.
    """
    rows = []
    for name in sorted(metrics.get("histograms", {})):
        payload = metrics["histograms"][name]
        if name.endswith("_seconds") or not payload["count"]:
            continue
        total = payload["total"]
        rows.append(
            {
                "distribution": name,
                "count": payload["count"],
                "total": round(total, 6),
                "mean": round(total / payload["count"], 6),
                "min": round(payload["min"] or 0.0, 6),
                "max": round(payload["max"] or 0.0, 6),
            }
        )
    return rows


def worker_rows(metrics: Mapping[str, Any]) -> list[dict[str, Any]]:
    """Per-worker breakdown rows built from the ``engine.worker.*`` names."""
    counters = metrics.get("counters", {})
    gauges = metrics.get("gauges", {})
    workers: dict[str, dict[str, Any]] = {}
    for source, field in ((counters, None), (gauges, None)):
        for name, value in source.items():
            if not name.startswith(WORKER_PREFIX):
                continue
            label, _, quantity = name[len(WORKER_PREFIX):].partition(".")
            workers.setdefault(label, {})[quantity] = value
    rows = []
    for label in sorted(workers):
        data = workers[label]
        row: dict[str, Any] = {"worker": label}
        if "tasks" in data:
            row["tasks"] = int(data["tasks"])
        if "chunks" in data:
            row["chunks"] = int(data["chunks"])
        if "busy_seconds" in data:
            row["busy"] = _fmt_seconds(data["busy_seconds"])
        if "utilization" in data:
            row["utilization"] = f"{100.0 * data['utilization']:.1f}%"
        rows.append(row)
    return rows


def _scalar_rows(
    table: Mapping[str, Any], *, skip_prefix: str = WORKER_PREFIX
) -> list[dict[str, Any]]:
    rows = []
    for name in sorted(table):
        if name.startswith(skip_prefix):
            continue
        value = table[name]
        if isinstance(value, float):
            value = round(value, 6)
        rows.append({"name": name, "value": value})
    return rows


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _checked_snapshot(document: Any) -> Mapping[str, Any]:
    """The registry snapshot inside ``document``, shape-checked.

    The document comes from a file, so every field the tables read is
    checked first; ``ValueError`` names the first one that is not what
    :meth:`~repro.obs.metrics.MetricsRegistry.snapshot` writes.
    """
    if not isinstance(document, Mapping):
        raise ValueError("expected a JSON object")
    metrics = document.get("metrics", document)
    if not isinstance(metrics, Mapping):
        raise ValueError('"metrics" is not a JSON object')
    if not _is_number(document.get("elapsed", 0)):
        raise ValueError('"elapsed" is not a number')
    for section in ("counters", "gauges", "histograms"):
        if not isinstance(metrics.get(section, {}), Mapping):
            raise ValueError(f'"{section}" is not a JSON object')
    for section in ("counter", "gauge"):
        for name, value in metrics.get(section + "s", {}).items():
            if not _is_number(value):
                raise ValueError(f'{section} "{name}" is not a number')
    for name, payload in metrics.get("histograms", {}).items():
        if not isinstance(payload, Mapping):
            raise ValueError(f'histogram "{name}" is not a JSON object')
        for field in ("count", "total", "min", "max"):
            value = payload.get(field)
            # An empty histogram snapshots its min / max as null.
            if not _is_number(value) and (value is not None or field in ("count", "total")):
                raise ValueError(f'histogram "{name}" has no numeric "{field}"')
    return metrics


def render_metrics_document(document: Any) -> str:
    """The full ``repro report`` rendering of one metrics document.

    ``document`` is what ``--metrics-json`` wrote: run metadata plus the
    registry snapshot under ``"metrics"``.  A bare registry snapshot (as
    produced by :meth:`~repro.obs.metrics.MetricsRegistry.snapshot`) is
    accepted too.  Raises ``ValueError`` naming the field when the
    document is not shaped like one.
    """
    metrics = _checked_snapshot(document)
    elapsed = document.get("elapsed")
    sections: list[str] = []

    header = {
        key: document[key]
        for key in ("command", "total", "workers", "elapsed", "schema_version")
        if key in document
    }
    if header:
        sections.append(format_table([header], title="run"))

    phases = phase_rows(metrics, elapsed=elapsed)
    if phases:
        sections.append(format_table(phases, title="phase breakdown"))

    distributions = distribution_rows(metrics)
    if distributions:
        sections.append(format_table(distributions, title="distributions"))

    workers = worker_rows(metrics)
    if workers:
        rows = list(workers)
        overhead = metrics.get("gauges", {}).get("engine.dispatch_overhead_share")
        title = "worker breakdown"
        if overhead is not None:
            title += f" (dispatch overhead share {100.0 * overhead:.1f}%)"
        sections.append(format_table(rows, title=title))

    counters = _scalar_rows(metrics.get("counters", {}))
    if counters:
        sections.append(format_table(counters, title="counters"))
    gauges = _scalar_rows(metrics.get("gauges", {}))
    if gauges:
        sections.append(format_table(gauges, title="gauges"))

    if not sections:
        return "(empty metrics document)"
    return "\n\n".join(sections)
