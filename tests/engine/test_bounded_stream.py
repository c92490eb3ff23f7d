"""A parallel sweep longer than the chunk ceiling streams in bounded memory.

The parent submits at most ``WINDOW_PER_WORKER * workers`` chunks of at
most ``CHUNK_CEILING`` tasks that are not yet delivered, ships uncached
tasks without their spec hash (the workers compute it), and still spills
byte for byte what the in-process loop spills.  The window itself and
the cache-on-arrival rule are observed with probe tasks in
``test_engine.py`` (``TestBoundedWindow``).
"""

import hashlib

from repro.analysis.scenarios import simple_partition_schedules, simple_split_specs
from repro.core.reachability import simple_splits
from repro.engine import JsonlSink, ScenarioGrid, SweepEngine, read_jsonl
from repro.engine.engine import CHUNK_CEILING, WINDOW_PER_WORKER


def long_sweep() -> list:
    """1 120 cheap tasks: enough for the default chunk size to hit the
    ceiling at two workers (1 120 // 8 > 128)."""
    grid = ScenarioGrid(
        protocols=("two-phase-commit", "three-phase-commit"),
        n_sites=4,
        partitions=simple_partition_schedules(
            4, times=[round(0.2 * i + 0.1, 2) for i in range(40)]
        ),
        no_voter_options=(frozenset(), frozenset({3})),
    )
    return list(grid.tasks())


class TestLongParallelSweep:
    def test_spills_like_the_serial_loop_and_never_hashes_in_the_parent(
        self, tmp_path
    ):
        serial, parallel = tmp_path / "w1.jsonl", tmp_path / "w2.jsonl"
        SweepEngine(workers=1).run_streaming(long_sweep(), sinks=JsonlSink(serial))
        tasks = long_sweep()
        with SweepEngine(workers=2) as engine:
            stats = engine.run_streaming(tasks, sinks=JsonlSink(parallel))
        assert parallel.read_bytes() == serial.read_bytes()
        # No cache to key: the parent shipped every task unhashed ...
        assert not any("spec_hash" in vars(task) for task in tasks)
        # ... and the workers labelled each summary with the task's hash.
        summaries = list(read_jsonl(parallel))
        assert len(summaries) == len(tasks) == stats.executed
        assert [s.spec_hash for s in summaries] == [t.spec_hash for t in tasks]

    def test_chunks_stop_at_the_ceiling_and_the_buffer_at_the_window(
        self, tmp_path
    ):
        tasks = long_sweep()
        assert len(tasks) // (2 * 4) > CHUNK_CEILING
        with SweepEngine(workers=2) as engine:
            stats = engine.run_streaming(
                tasks, sinks=JsonlSink(tmp_path / "out.jsonl")
            )
        assert stats.chunk_count == -(-len(tasks) // CHUNK_CEILING)
        assert 0 < stats.max_buffered <= WINDOW_PER_WORKER * 2 * CHUNK_CEILING

    def test_an_explicit_chunk_size_still_decides(self, tmp_path):
        tasks = long_sweep()[:300]
        with SweepEngine(workers=2, chunk_size=200) as engine:
            stats = engine.run_streaming(
                tasks, sinks=JsonlSink(tmp_path / "out.jsonl")
            )
        assert stats.chunk_count == 2
        assert stats.max_buffered <= 300


class TestSharedSplitSpecs:
    def test_every_onset_and_call_shares_one_spec_per_split(self):
        shared = simple_split_specs(4)
        assert len(shared) == len(simple_splits(4))
        for heal_after in (None, 1.5):
            first = simple_partition_schedules(
                4, times=[0.5, 1.5, 2.5], heal_after=heal_after
            )
            again = simple_partition_schedules(4, times=[3.5], heal_after=heal_after)
            schedules = first + again
            assert len(schedules) == 4 * len(shared)
            for position, schedule in enumerate(schedules):
                assert schedule.events[0].spec is shared[position % len(shared)]
        healing = again[0].events
        assert [event.time for event in healing] == [3.5, 5.0]
        assert healing[1].spec is None

    def test_grid_spec_hashes_are_unchanged(self):
        # Literal values captured before the specs were shared: hashing is
        # by value, so sharing one spec object changes no key.
        expected = {
            None: (
                "5322468b6a995068569dc426c583967ef3bb22f59de9cdb9b51f3747fa2dad66",
                "759880caf8ab0e0d396e56557e0f27efb85865188330d204955898c1c0ee79fc",
            ),
            1.5: (
                "3be8fa45dd6b1d284556a80d3a5a6f2365184695754b2206df17ff36f00f5540",
                "a4517173df53466b711b2ee65a2fa7e2486142e1b7504266a0c26e6e201ba1fb",
            ),
        }
        for heal_after, (first, digest) in expected.items():
            grid = ScenarioGrid.from_partition_sweep(
                "terminating-three-phase-commit",
                4,
                times=[0.5, 2.5],
                heal_after=heal_after,
                no_voter_options=(frozenset(), frozenset({3})),
            )
            hashes = [task.spec_hash for task in grid.tasks()]
            assert len(hashes) == 28 and hashes[0] == first
            assert hashlib.sha256("\n".join(hashes).encode()).hexdigest() == digest
