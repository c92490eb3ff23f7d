"""Adaptive refinement of verdict boundaries along the partition-onset axis.

The paper's sweeps quantify over *when* the partition strikes; the
interesting physics is concentrated where the verdict flips -- e.g. the
onset instant past which the terminating protocol's sweep turns from
all-abort to all-commit (the commit point becoming established), or where a
blocking protocol starts to block.  A uniform grid pays for every point
between boundaries; :class:`RefinementDriver` instead runs a coarse grid,
finds adjacent onset pairs whose verdict class differs, and recursively
bisects only those intervals until each flip is bracketed to a
``resolution`` floor (0.01 T by default) -- locating every boundary with a
small fraction of the scenarios.

Invariants:

* Every evaluated onset flows through the normal engine path, so a
  :class:`~repro.engine.cache.ResultCache` makes refinement rounds
  incremental: a warm re-refinement executes **zero** new scenarios.
* Onsets are rounded to a fixed decimal precision so bisection midpoints
  hash stably (cache keys are canonical -- see :mod:`repro.engine.hashing`).
* Rounds are level-synchronous across a *family* of lines
  (:meth:`RefinementDriver.refine_lines`): one engine batch holds every
  line's coarse grid, then one batch per bisection round holds every line's
  pending midpoints, so refinement parallelizes across lines and intervals
  and a family costs as many engine batches as its deepest line has rounds.
  Classification happens in the parent as the engine streams the compact
  summaries back; no summary list is kept.

Paper anchor: Theorem 9's quantification over onset times (Section 5) and
the Section 6 transient rule; the default verdict classes are the Section 2
vocabulary (consistent / blocked / violated) split by outcome.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Optional, Sequence

from repro.core.reachability import simple_splits
from repro.engine.engine import StreamStats, SweepEngine
from repro.engine.grid import SweepTask
from repro.engine.summary import RunSummary
from repro.protocols.runner import ScenarioSpec
from repro.sim.partition import PartitionSchedule

# Onset times are rounded to this many decimals so bisection midpoints
# produce stable spec hashes across rounds and processes.
TIME_DECIMALS = 6

Classifier = Callable[[RunSummary], str]


def verdict_class(summary: RunSummary) -> str:
    """The default verdict class of one run.

    ``violated`` / ``blocked`` (Section 2's failure vocabulary), with
    consistent runs split into ``consistent:commit`` and
    ``consistent:abort`` -- the flip between those two is the commit-point
    boundary the terminating protocol moves as the onset crosses it.  A
    consistent run has every site decided and no mixed outcome, so it is
    all-commit or all-abort.
    """
    verdict = summary.verdict
    if verdict != "consistent":
        return verdict
    return "consistent:commit" if summary.all_committed else "consistent:abort"


def verdict_class_with_bound(summary: RunSummary) -> str:
    """Verdict class refined by the decision-time bound, in whole T.

    Appends ``<=kT`` (the worst decision latency rounded up to an integer
    multiple of the maximum message delay) so refinement also brackets the
    onsets where a protocol crosses one of the paper's 2T/3T/5T/6T decision
    bounds, not just where the outcome flips.
    """
    base = verdict_class(summary)
    latency = summary.max_decision_latency()
    if latency is None or summary.blocked:
        return base
    unit = summary.max_delay or 1.0
    # Round before ceiling so 3.0000000001 (float noise) stays in the 3T bin.
    bound = math.ceil(round(latency / unit, TIME_DECIMALS))
    return f"{base}:<={bound}T"


@dataclass(frozen=True)
class OnsetLine:
    """One refinement line: a scenario family parameterized by onset time.

    Everything but the partition onset is fixed -- protocol, system size,
    the simple split ``(g1, g2)``, the vote pattern, permanence
    (``heal_after``) and the base spec -- so the line is a scalar function
    from onset time to verdict class whose discontinuities the driver
    brackets.
    """

    protocol: str
    n_sites: int
    g1: tuple[int, ...]
    g2: tuple[int, ...]
    no_voters: frozenset[int] = frozenset()
    heal_after: Optional[float] = None
    base_spec: ScenarioSpec = field(default_factory=ScenarioSpec)

    def task_at(self, time: float) -> SweepTask:
        """The sweep task of this line at one onset time."""
        time = round(time, TIME_DECIMALS)
        if self.heal_after is None:
            schedule = PartitionSchedule.simple(time, self.g1, self.g2)
        else:
            schedule = PartitionSchedule.transient(
                time, round(time + self.heal_after, TIME_DECIMALS), self.g1, self.g2
            )
        spec = replace(
            self.base_spec,
            n_sites=self.n_sites,
            partition=schedule,
            no_voters=self.no_voters,
        )
        return SweepTask(protocol=self.protocol, spec=spec)

    def label(self) -> str:
        """Compact human-readable identity for tables."""
        split = f"{list(self.g1)}|{list(self.g2)}"
        votes = f" no-voters={sorted(self.no_voters)}" if self.no_voters else ""
        heal = f" heal+{self.heal_after}" if self.heal_after is not None else ""
        return f"{self.protocol} {split}{votes}{heal}"


@dataclass(frozen=True)
class Boundary:
    """One bracketed verdict flip: class changes between ``lo`` and ``hi``."""

    lo: float
    hi: float
    lo_class: str
    hi_class: str

    @property
    def width(self) -> float:
        """Size of the bracketing interval."""
        return round(self.hi - self.lo, TIME_DECIMALS)

    @property
    def midpoint(self) -> float:
        """Best point estimate of the flip (error <= width / 2)."""
        return round((self.lo + self.hi) / 2, TIME_DECIMALS)


@dataclass
class RefinementResult:
    """The outcome of refining one :class:`OnsetLine`.

    ``scenarios_run`` counts every evaluated grid point (executed or served
    from cache); :meth:`uniform_equivalent` is what a uniform grid at the
    same resolution over the same interval would have cost --
    ``tests/engine/test_refine.py`` asserts their ratio.
    """

    line: OnsetLine
    resolution: float
    lo: float
    hi: float
    classes: dict[float, str] = field(default_factory=dict)
    boundaries: list[Boundary] = field(default_factory=list)
    scenarios_run: int = 0
    executed: int = 0
    cache_hits: int = 0
    rounds: int = 0

    def uniform_equivalent(self) -> int:
        """Points of the uniform grid at ``resolution`` over ``[lo, hi]``."""
        return int(round((self.hi - self.lo) / self.resolution)) + 1

    def rows(self) -> list[dict[str, object]]:
        """One table row per located boundary."""
        return [
            {
                "line": self.line.label(),
                "boundary": f"{b.midpoint:g}",
                "interval": f"[{b.lo:g}, {b.hi:g}]",
                "below": b.lo_class,
                "above": b.hi_class,
                "width (xT)": f"{b.width:g}",
            }
            for b in self.boundaries
        ]


class RefinementDriver:
    """Locates verdict boundaries by coarse scan + recursive bisection.

    Args:
        engine: the :class:`~repro.engine.engine.SweepEngine` to execute on
            (its cache makes refinement rounds and re-refinements
            incremental).
        resolution: stop bisecting an interval once it is this narrow
            (default 0.01, i.e. 0.01 T with the default constant-T latency).
        classify: maps a summary to its verdict class; intervals whose
            endpoint classes differ are bisected.  Defaults to
            :func:`verdict_class`.
        max_rounds: hard cap on bisection rounds (a safety net; the
            geometric shrink reaches any practical resolution long before).
    """

    def __init__(
        self,
        engine: Optional[SweepEngine] = None,
        *,
        resolution: float = 0.01,
        classify: Classifier = verdict_class,
        max_rounds: int = 64,
    ) -> None:
        if resolution <= 0:
            raise ValueError(f"resolution must be > 0, got {resolution}")
        if max_rounds < 1:
            raise ValueError(f"max_rounds must be >= 1, got {max_rounds}")
        self.engine = engine if engine is not None else SweepEngine(workers=1)
        self.resolution = resolution
        self.classify = classify
        self.max_rounds = max_rounds

    # ------------------------------------------------------------------
    # refinement
    # ------------------------------------------------------------------
    def refine(
        self,
        line: OnsetLine,
        *,
        lo: float = 0.25,
        hi: float = 8.0,
        coarse_step: float = 0.25,
    ) -> RefinementResult:
        """Bracket every verdict flip of ``line`` on ``[lo, hi]``.

        The one-line case of :meth:`refine_lines`.
        """
        return self.refine_lines([line], lo=lo, hi=hi, coarse_step=coarse_step)[0]

    def refine_lines(
        self,
        lines: Sequence[OnsetLine],
        *,
        lo: float = 0.25,
        hi: float = 8.0,
        coarse_step: float = 0.25,
    ) -> list[RefinementResult]:
        """Bracket every verdict flip of every line on ``[lo, hi]``.

        Runs the coarse grid (``coarse_step`` spacing, the classic 0.25 T
        default) of all lines as one engine batch, then repeatedly bisects
        every adjacent pair with differing classes until each flip interval
        is at most ``resolution`` wide; each round evaluates the pending
        midpoints of all lines in one engine batch.  Lines do not influence
        one another: every result -- ``rounds`` included, which counts the
        rounds *that line* had midpoints in -- is what refining the line on
        its own yields.
        """
        if hi <= lo:
            raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
        if coarse_step <= 0:
            raise ValueError(f"coarse_step must be > 0, got {coarse_step}")
        results = [
            RefinementResult(
                line=line,
                resolution=self.resolution,
                lo=round(lo, TIME_DECIMALS),
                hi=round(hi, TIME_DECIMALS),
            )
            for line in lines
        ]
        steps = max(1, int(round((hi - lo) / coarse_step)))
        coarse = sorted(
            {round(lo + i * coarse_step, TIME_DECIMALS) for i in range(steps)}
            | {round(hi, TIME_DECIMALS)}
        )
        self._run_round([(result, time) for result in results for time in coarse])
        for _ in range(self.max_rounds):
            pending = []
            for result in results:
                midpoints = [
                    round((t1 + t2) / 2, TIME_DECIMALS)
                    for t1, t2 in self._flips(result.classes)
                    if (t2 - t1) > self.resolution * (1 + 1e-9)
                ]
                midpoints = [t for t in midpoints if t not in result.classes]
                if midpoints:
                    result.rounds += 1
                    pending.extend((result, time) for time in midpoints)
            if not pending:
                break
            self._run_round(pending)
        for result in results:
            result.boundaries = [
                Boundary(t1, t2, result.classes[t1], result.classes[t2])
                for t1, t2 in self._flips(result.classes)
            ]
        return results

    def refine_partition_boundaries(
        self,
        protocol: str,
        n_sites: int,
        *,
        no_voter_options: Sequence[frozenset[int]] = (frozenset(),),
        heal_after: Optional[float] = None,
        lo: float = 0.25,
        hi: float = 8.0,
        coarse_step: float = 0.25,
        base_spec: Optional[ScenarioSpec] = None,
        splits: Optional[Iterable[tuple[tuple[int, ...], tuple[int, ...]]]] = None,
    ) -> list[RefinementResult]:
        """Refine one line per (simple split x vote pattern) of a protocol.

        The family analogue of the Theorem 9 sweep: instead of a uniform
        onset grid per split, each split/vote line gets its boundaries
        bracketed adaptively, all lines advancing round by round together.
        """
        base = base_spec if base_spec is not None else ScenarioSpec()
        lines = [
            OnsetLine(
                protocol=protocol,
                n_sites=n_sites,
                g1=g1,
                g2=g2,
                no_voters=frozenset(no_voters),
                heal_after=heal_after,
                base_spec=base,
            )
            for g1, g2 in (splits if splits is not None else simple_splits(n_sites))
            for no_voters in no_voter_options
        ]
        return self.refine_lines(lines, lo=lo, hi=hi, coarse_step=coarse_step)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _run_round(self, points: Sequence[tuple[RefinementResult, float]]) -> None:
        """Run one batch of (line, onset) points and classify them as they
        stream back, each into its own line's result."""
        stats = StreamStats()
        stream = self.engine.stream(
            [result.line.task_at(time) for result, time in points], stats=stats
        )
        hits = 0
        # ``stream`` first: zip must exhaust the generator, not abandon it.
        for summary, (result, time) in zip(stream, points):
            result.classes[time] = self.classify(summary)
            result.scenarios_run += 1
            # The engine bumps exactly one of its two counters per summary
            # before yielding it.
            if stats.cache_hits > hits:
                hits = stats.cache_hits
                result.cache_hits += 1
            else:
                result.executed += 1

    @staticmethod
    def _flips(classes: dict[float, str]) -> list[tuple[float, float]]:
        """Adjacent onset pairs whose verdict class differs."""
        times = sorted(classes)
        return [
            (t1, t2)
            for t1, t2 in zip(times, times[1:])
            if classes[t1] != classes[t2]
        ]
