"""Kill-anywhere crash tests for every durable write (``tools/kill_points.py``).

The paper's sites fail by halting silently at any point, and so may the
processes that seal shards, merge the result log or fill the result cache.
The harness forks one child per kill point -- just before each ``open``
for writing, ``write``, ``os.fsync``, ``os.replace`` and ``os.truncate``,
and once more halfway through each write -- and halts it with ``os._exit``,
so no ``finally`` runs and no buffer is flushed.  The parent re-runs the
same operation (``resume=True`` for a merge).  The tool also accepts a
typed error naming the file, but every writer swept here must end
byte-identical to the single-machine spill at every kill point.  A harness
that cannot tell a torn write from a whole one would pass anything, so one
test feeds it a writer that is not crash-safe.
"""

import pytest

from repro.engine import ResultLogError


@pytest.fixture(scope="module")
def harness(kill_points, tmp_path_factory):
    """The 18-task grid of ``tools/kill_points.py`` (and of test_resultlog)."""
    return kill_points.Harness(tmp_path_factory.mktemp("kill-points"))


@pytest.fixture(scope="module")
def small_harness(kill_points, tmp_path_factory):
    """Six tasks for the cache phases: every entry repeats one put, so more
    tasks add kill points but no new kind of state."""
    return kill_points.Harness(
        tmp_path_factory.mktemp("kill-points-small"), kill_points.default_tasks()[:6]
    )


@pytest.mark.parametrize(
    "phase, grid",
    [
        ("seal", "harness"),
        ("merge", "harness"),
        ("cache-put", "small_harness"),
        ("cached-sweep", "small_harness"),
    ],
)
def test_every_kill_point_converges(request, phase, grid):
    harness = request.getfixturevalue(grid)
    report = harness.sweep(harness.phases()[phase])
    # Every writer here is atomic or resumable, so even a typed refusal
    # would be a regression: each kill point must converge.
    assert report.diverged == [] and report.refused == []
    assert report.converged == report.points
    # Every write is a second kill point, halfway through its bytes.
    assert report.operations < report.points < 2 * report.operations
    # Each phase writes at least one file per task.
    assert report.operations >= len(harness.tasks)


def test_merge_kill_points_fall_between_fsync_and_rename(kill_points, harness):
    work = _fresh_copy(harness, "labels")
    labels = kill_points.kill_point_labels(lambda: harness.merge(work))
    # Each commit fsyncs the spill, then writes, fsyncs and renames the
    # checkpoint; a kill can fall between the last two.
    commits = [k for k, label in enumerate(labels) if label == "replace merge-checkpoint.json"]
    assert len(commits) == len(harness.tasks) // 2 + 1  # one per batch of 2, one closing
    assert all(labels[k - 1].startswith("fsync .merge-checkpoint.json.tmp-") for k in commits)
    assert labels[0] == "open merged.jsonl"


def test_a_half_write_leaves_half_the_bytes(kill_points, tmp_path):
    target = tmp_path / "torn.txt"

    def write():
        with open(target, "wb") as handle:
            handle.write(b"0123456789")

    assert kill_points.kill_point_labels(write) == [
        "open torn.txt", "write torn.txt", "half-write torn.txt",
    ]
    killed, _ = kill_points.run_killed(write, 3)
    assert killed and target.read_bytes() == b"01234"
    # Before the write, a buffered writer had nothing to flush: a real kill
    # loses whatever a `finally` would have written.
    killed, _ = kill_points.run_killed(write, 2)
    assert killed and target.read_bytes() == b""


@pytest.fixture
def tiny_harness(kill_points, tmp_path):
    return kill_points.Harness(tmp_path, kill_points.default_tasks()[:3])


def _in_place_phase(kill_points, harness, recover):
    """A spill written line by line into its final name: not crash-safe."""

    def write(work):
        with open(work / "spill.jsonl", "wb") as handle:
            for line in harness.expected.splitlines(keepends=True):
                handle.write(line)
                handle.flush()

    def prepare(work):
        work.mkdir(parents=True)

    return kill_points.Phase("in-place", prepare, write, recover(write))


def test_a_writer_that_is_not_crash_safe_diverges(kill_points, tiny_harness):
    def keep_what_survived(write):
        # A re-run that trusts an existing spill, as a resume without a
        # commit record would.
        def recover(work):
            spill = work / "spill.jsonl"
            if not spill.exists():
                write(work)
            return spill.read_bytes()

        return recover

    report = tiny_harness.sweep(_in_place_phase(kill_points, tiny_harness, keep_what_survived))
    assert report.points == 1 + 2 * len(tiny_harness.tasks)
    assert len(report.diverged) == report.points - 1  # all but the kill before open
    assert "differs from the single-machine spill" in report.diverged[0]


@pytest.mark.parametrize("names_the_file", [True, False])
def test_only_a_typed_error_naming_the_file_is_a_refusal(
    kill_points, tiny_harness, names_the_file
):
    def refuse(write):
        def recover(work):
            where = work / "spill.jsonl" if names_the_file else "the spill"
            raise ResultLogError(f"{where}: refused")

        return recover

    report = tiny_harness.sweep(_in_place_phase(kill_points, tiny_harness, refuse))
    assert len(report.refused if names_the_file else report.diverged) == report.points


class TestKillOneCommand:
    def test_a_killed_merge_resumes_from_its_checkpoint(
        self, kill_points, harness, tmp_path, capsys
    ):
        from repro.cli import main

        work = _fresh_copy(harness, "cli")
        argv = ["merge", "--log", str(work / "log"), "--jsonl", str(work / "merged.jsonl"),
                "--batch-records", "2"]
        assert kill_points.main(["--kill-at", "40", "--", *argv]) == 0
        assert "was killed at kill point 40" in capsys.readouterr().out
        assert main([*argv, "--resume"]) == 0
        assert "replayed from checkpoint" in capsys.readouterr().out
        assert (work / "merged.jsonl").read_bytes() == harness.expected

    def test_a_command_that_finishes_first_fails(self, kill_points, harness, capsys):
        work = _fresh_copy(harness, "cli-late")
        argv = ["merge", "--log", str(work / "log"), "--batch-records", "2"]
        assert kill_points.main(["--kill-at", "100000", "--", *argv]) == 1
        assert "finished before kill point 100000" in capsys.readouterr().err


def _fresh_copy(harness, name):
    work = harness.root / name
    harness.copy_sealed(work)
    return work
