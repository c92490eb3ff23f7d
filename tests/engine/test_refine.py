"""Adaptive boundary refinement: agreement with uniform grids, cache reuse,
and the scenario-count advantage the engine exists to deliver."""

import pytest

from repro.core.reachability import simple_splits
from repro.engine import (
    OnsetLine,
    RefinementDriver,
    SweepEngine,
    verdict_class,
    verdict_class_with_bound,
)
from repro.protocols.runner import RunSummary, ScenarioSpec

TERMINATING = "terminating-three-phase-commit"


@pytest.fixture(scope="module")
def line():
    """The pinned FIG8 line: 3 sites, master-side majority, slave 3 isolated."""
    return OnsetLine(protocol=TERMINATING, n_sites=3, g1=(1, 2), g2=(3,))


def uniform_classes(line, lo, hi, step, engine=None):
    """Classify a uniform onset grid (the brute-force reference)."""
    engine = engine or SweepEngine(workers=1)
    steps = int(round((hi - lo) / step))
    times = [round(lo + i * step, 6) for i in range(steps + 1)]
    sweep = engine.run([line.task_at(t) for t in times])
    return {t: verdict_class(s) for t, s in zip(times, sweep.summaries)}


class TestBoundaryLocation:
    def test_finds_same_boundary_as_fine_uniform_grid(self, line):
        # Uniform reference over the commit-point neighbourhood at 0.01 T.
        reference = uniform_classes(line, 2.5, 3.5, 0.01)
        times = sorted(reference)
        flips = [
            (t1, t2)
            for t1, t2 in zip(times, times[1:])
            if reference[t1] != reference[t2]
        ]
        assert len(flips) == 1  # abort -> commit at the commit point

        driver = RefinementDriver(resolution=0.01)
        result = driver.refine(line, lo=2.5, hi=3.5, coarse_step=0.25)
        assert len(result.boundaries) == 1
        boundary = result.boundaries[0]
        uniform_lo, uniform_hi = flips[0]
        # The refined bracket and the uniform flip interval must overlap and
        # agree to within one resolution step.
        assert boundary.lo_class == reference[uniform_lo]
        assert boundary.hi_class == reference[uniform_hi]
        assert abs(boundary.midpoint - (uniform_lo + uniform_hi) / 2) <= 0.01
        assert boundary.width <= 0.01

    def test_executes_under_a_quarter_of_the_uniform_grid(self, line):
        driver = RefinementDriver(resolution=0.01)
        result = driver.refine(line, lo=2.5, hi=3.5, coarse_step=0.25)
        assert result.uniform_equivalent() == 101
        assert result.scenarios_run < 0.25 * result.uniform_equivalent()

    def test_flat_line_needs_only_the_coarse_scan(self):
        # 2PC blocks at every onset in this window: no flip, no bisection.
        line = OnsetLine(protocol="two-phase-commit", n_sites=3, g1=(1,), g2=(2, 3))
        driver = RefinementDriver(resolution=0.01)
        result = driver.refine(line, lo=0.5, hi=2.0, coarse_step=0.25)
        assert result.boundaries == []
        assert result.rounds == 0
        assert result.scenarios_run == 7  # just the coarse points

    def test_classes_cover_endpoints(self, line):
        result = RefinementDriver(resolution=0.05).refine(
            line, lo=2.5, hi=3.5, coarse_step=0.5
        )
        assert 2.5 in result.classes
        assert 3.5 in result.classes


class TestCacheReuse:
    def test_warm_refinement_executes_zero_new_scenarios(self, line, tmp_path):
        engine = SweepEngine(workers=1, cache=tmp_path)
        driver = RefinementDriver(engine, resolution=0.01)
        cold = driver.refine(line, lo=2.5, hi=3.5)
        assert cold.executed == cold.scenarios_run
        warm = driver.refine(line, lo=2.5, hi=3.5)
        assert warm.executed == 0
        assert warm.cache_hits == warm.scenarios_run
        assert warm.boundaries == cold.boundaries

    def test_refining_to_finer_resolution_reuses_coarser_rounds(self, line, tmp_path):
        engine = SweepEngine(workers=1, cache=tmp_path)
        coarse = RefinementDriver(engine, resolution=0.05).refine(line, lo=2.5, hi=3.5)
        fine = RefinementDriver(engine, resolution=0.01).refine(line, lo=2.5, hi=3.5)
        # Every point the coarse pass evaluated is a cache hit for the fine one.
        assert fine.cache_hits >= coarse.scenarios_run
        assert fine.boundaries[0].width <= 0.01


class TestClassifiers:
    def test_verdict_class_vocabulary(self, line):
        abort = SweepEngine(workers=1).run([line.task_at(1.0)]).summaries[0]
        commit = SweepEngine(workers=1).run([line.task_at(6.0)]).summaries[0]
        assert verdict_class(abort) == "consistent:abort"
        assert verdict_class(commit) == "consistent:commit"

    def test_blocked_runs_classify_as_blocked(self):
        blocked_line = OnsetLine(
            protocol="two-phase-commit", n_sites=3, g1=(1,), g2=(2, 3)
        )
        summary = SweepEngine(workers=1).run([blocked_line.task_at(1.5)]).summaries[0]
        assert verdict_class(summary) == "blocked"
        assert verdict_class_with_bound(summary) == "blocked"

    def test_violation_dominates_blocking(self):
        summary = RunSummary(
            protocol="p",
            spec_hash="",
            seed=0,
            n_sites=3,
            decisions={1: "commit", 2: "abort", 3: None},
            decision_times={1: 1.0, 2: 2.0, 3: None},
        )
        assert verdict_class(summary) == summary.verdict == "violated"
        assert verdict_class_with_bound(summary) == "violated"

    def test_bound_classifier_appends_whole_t_bound(self, line):
        summary = SweepEngine(workers=1).run([line.task_at(6.0)]).summaries[0]
        label = verdict_class_with_bound(summary)
        assert label.startswith("consistent:commit:<=")
        assert label.endswith("T")


class TestLineAndDriverValidation:
    def test_transient_lines_build_healing_schedules(self):
        line = OnsetLine(
            protocol=TERMINATING, n_sites=3, g1=(1, 2), g2=(3,), heal_after=2.0
        )
        schedule = line.task_at(1.5).spec.partition
        times = [event.time for event in schedule]
        assert times == [1.5, 3.5]

    def test_line_carries_base_spec_fields(self):
        line = OnsetLine(
            protocol=TERMINATING,
            n_sites=4,
            g1=(1, 2, 3),
            g2=(4,),
            no_voters=frozenset({2}),
            base_spec=ScenarioSpec(seed=7),
        )
        spec = line.task_at(2.0).spec
        assert (spec.n_sites, spec.seed, spec.no_voters) == (4, 7, frozenset({2}))

    def test_driver_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            RefinementDriver(resolution=0.0)
        with pytest.raises(ValueError):
            RefinementDriver(max_rounds=0)
        driver = RefinementDriver()
        line = OnsetLine(protocol=TERMINATING, n_sites=3, g1=(1, 2), g2=(3,))
        with pytest.raises(ValueError):
            driver.refine(line, lo=2.0, hi=1.0)
        with pytest.raises(ValueError):
            driver.refine(line, lo=1.0, hi=2.0, coarse_step=0.0)

    def test_refine_partition_boundaries_covers_every_split(self):
        driver = RefinementDriver(resolution=0.1)
        results = driver.refine_partition_boundaries(
            TERMINATING, 3, lo=2.5, hi=3.5, coarse_step=0.5
        )
        assert len(results) == 3  # the 3 simple splits of 3 sites
        for result in results:
            assert result.boundaries  # each split has a commit-point flip
            assert result.boundaries[0].width <= 0.1


FAMILY_PROTOCOLS = (
    "two-phase-commit",
    "three-phase-commit",
    "quorum-commit",
    TERMINATING,
)
VOTES = (frozenset(), frozenset({2}))


def family_lines(protocol, n_sites):
    """The lines ``refine_partition_boundaries`` builds, in its order."""
    return [
        OnsetLine(protocol=protocol, n_sites=n_sites, g1=g1, g2=g2, no_voters=votes)
        for g1, g2 in simple_splits(n_sites)
        for votes in VOTES
    ]


class TestFamilyRoundsEqualPerLineRefinement:
    """Batching rounds across a family changes the cost, never a result."""

    WINDOW = dict(lo=0.3, hi=6.0, coarse_step=0.25)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("n_sites", [3, 4])
    @pytest.mark.parametrize("protocol", FAMILY_PROTOCOLS)
    def test_every_field_matches_independent_refinement(
        self, protocol, n_sites, workers
    ):
        with SweepEngine(workers=workers) as engine:
            family = RefinementDriver(engine, resolution=0.02).refine_partition_boundaries(
                protocol, n_sites, no_voter_options=VOTES, **self.WINDOW
            )
        alone = RefinementDriver(resolution=0.02)
        lines = family_lines(protocol, n_sites)
        assert [result.line for result in family] == lines
        for result, line in zip(family, lines):
            expected = alone.refine(line, **self.WINDOW)
            assert result.classes == expected.classes
            assert result.boundaries == expected.boundaries
            assert result.rounds == expected.rounds
            assert result.scenarios_run == expected.scenarios_run
            assert (result.executed, result.cache_hits) == (result.scenarios_run, 0)

    def test_lines_of_different_depth_keep_their_own_round_counts(self):
        # The window's last coarse interval, (2.8, 3.1], is wider than the
        # others, so a flip at 3 T needs one round more than a flip at 2 T;
        # the third line is flat over the whole window.
        lines = [
            OnsetLine("extended-two-phase-commit", 3, (1, 2), (3,)),
            OnsetLine(TERMINATING, 3, (1, 2), (3,)),
            OnsetLine(TERMINATING, 3, (1, 2), (3,), no_voters=frozenset({2})),
        ]
        window = dict(lo=0.3, hi=3.1, coarse_step=0.25)
        driver = RefinementDriver(resolution=0.016)
        family = driver.refine_lines(lines, **window)
        assert [result.rounds for result in family] == [4, 5, 0]
        for result, line in zip(family, lines):
            expected = driver.refine(line, **window)
            assert result.classes == expected.classes
            assert result.boundaries == expected.boundaries
            assert result.rounds == expected.rounds
            assert result.scenarios_run == expected.scenarios_run

    def test_one_engine_batch_per_round_not_per_line(self):
        batches = []

        class CountingEngine(SweepEngine):
            def stream(self, tasks, **kwargs):
                batches.append(len(tasks))
                return super().stream(tasks, **kwargs)

        family = RefinementDriver(
            CountingEngine(workers=1), resolution=0.02
        ).refine_partition_boundaries(TERMINATING, 4, no_voter_options=VOTES, **self.WINDOW)
        assert len(batches) == 1 + max(result.rounds for result in family)
        assert sum(batches) == sum(result.scenarios_run for result in family)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_mixed_cache_attributes_hits_and_executions_per_line(
        self, workers, tmp_path
    ):
        lines = family_lines(TERMINATING, 4)
        warm_lines = lines[::2]
        with SweepEngine(workers=workers, cache=tmp_path) as engine:
            driver = RefinementDriver(engine, resolution=0.02)
            for line in warm_lines:
                driver.refine(line, **self.WINDOW)
            family = driver.refine_lines(lines, **self.WINDOW)
            for result in family:
                assert result.scenarios_run > 0
                if result.line in warm_lines:
                    assert (result.executed, result.cache_hits) == (
                        0,
                        result.scenarios_run,
                    )
                else:
                    assert (result.executed, result.cache_hits) == (
                        result.scenarios_run,
                        0,
                    )
            rerun = driver.refine_lines(lines, **self.WINDOW)
        assert sum(result.executed for result in rerun) == 0
        assert [r.cache_hits for r in rerun] == [r.scenarios_run for r in family]
        assert [r.boundaries for r in rerun] == [r.boundaries for r in family]

    def test_refine_lines_validates_like_refine_and_accepts_no_lines(self):
        driver = RefinementDriver()
        assert driver.refine_lines([], lo=1.0, hi=2.0) == []
        with pytest.raises(ValueError):
            driver.refine_lines([], lo=2.0, hi=1.0)
