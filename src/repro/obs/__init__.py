"""Observability: mergeable metrics, progress, reporting.

The layer every execution path reports into, and the first-class answer
to "where does the time go":

* :mod:`repro.obs.metrics` -- counters, high-watermark gauges and
  fixed-bucket histograms in a :class:`MetricsRegistry` whose canonical
  snapshots merge associatively and commutatively (worker snapshots ride
  home in the engine's batched chunk frames, strictly out-of-band from
  summary bytes);
* :mod:`repro.obs.progress` -- the ``--progress`` live stderr line;
* :mod:`repro.obs.report` -- the ``repro report`` rendering.

The contract inherited from ``NullTrace``: **zero cost when off**
(one ``is None`` check per gated site, scenario-or-coarser granularity)
and **byte-identical results always** (metrics describe a run, they never
participate in it).
"""

from repro.obs.metrics import (
    COUNT_BUCKETS,
    SIM_TIME_BUCKETS,
    TIME_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    activate,
    get_active,
    set_active,
)
from repro.obs.progress import ProgressLine
from repro.obs.report import render_metrics_document

__all__ = [
    "COUNT_BUCKETS",
    "SIM_TIME_BUCKETS",
    "TIME_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "ProgressLine",
    "activate",
    "get_active",
    "render_metrics_document",
    "set_active",
]
