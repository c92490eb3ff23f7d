"""Shard partition: content-addressed, order-independent, exhaustive.

A task's shard comes from its spec hash alone, so the partition must be
stable under task-list reordering (and therefore share cache keys with
unsharded runs) and cover every task exactly once.  What shards write and
how the merge folds it is ``test_resultlog.py``'s subject.
"""

import random

import pytest

from repro.engine import ScenarioGrid, shard_of, shard_tasks

N_SHARDS = 3


@pytest.fixture(scope="module")
def sweep_tasks():
    """2 protocols x 3 onsets x 3 simple splits = 18 scenario tasks."""
    tasks = []
    for protocol in ("two-phase-commit", "terminating-three-phase-commit"):
        grid = ScenarioGrid.from_partition_sweep(
            protocol, 3, times=[0.5, 1.5, 2.5]
        )
        tasks.extend(grid.tasks())
    return tasks


class TestShardPartition:
    def test_shards_cover_every_task_exactly_once(self, sweep_tasks):
        seen = []
        for index in range(N_SHARDS):
            seen.extend(shard_tasks(sweep_tasks, index, N_SHARDS))
        assert sorted(global_index for global_index, _ in seen) == list(
            range(len(sweep_tasks))
        )

    def test_partition_is_stable_under_reordering(self, sweep_tasks):
        shuffled = list(sweep_tasks)
        random.Random(7).shuffle(shuffled)
        for index in range(N_SHARDS):
            original = {t.spec_hash for _, t in shard_tasks(sweep_tasks, index, N_SHARDS)}
            reordered = {t.spec_hash for _, t in shard_tasks(shuffled, index, N_SHARDS)}
            assert original == reordered

    def test_single_shard_owns_everything(self, sweep_tasks):
        assert len(shard_tasks(sweep_tasks, 0, 1)) == len(sweep_tasks)

    def test_membership_comes_from_the_spec_hash_alone(self, sweep_tasks):
        for global_index, task in shard_tasks(sweep_tasks, 1, N_SHARDS):
            assert shard_of(task.spec_hash, N_SHARDS) == 1

    def test_invalid_parameters_are_rejected(self, sweep_tasks):
        with pytest.raises(ValueError, match="shard_count"):
            shard_tasks(sweep_tasks, 0, 0)
        with pytest.raises(ValueError, match="shard_index"):
            shard_tasks(sweep_tasks, 3, 3)
        with pytest.raises(ValueError, match="shard_index"):
            shard_tasks(sweep_tasks, -1, 3)
        with pytest.raises(ValueError, match="shard_count"):
            shard_of("ff", 0)
