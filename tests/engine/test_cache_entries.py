"""A cache entry is trusted only when it decodes to the record of its key.

Each fault a damaged or misplaced entry can have -- not JSON, not a JSON
object, a missing field, a malformed field, or a record stored under
another ``(spec-hash, seed)`` -- raises :class:`CacheEntryError` naming the
file; the CLI turns it into one stderr line and exit 2.  A copied-over
entry used to be served silently, changing a table with 0 executed runs.
"""

import json
import os

import pytest

from repro.cli import main
from repro.engine import CacheEntryError, ResultCache, SweepEngine
from repro.engine.grid import ScenarioGrid

SWEEP = ["sweep", "--protocol", "two-phase-commit", "--times", "0.5", "1.5"]


@pytest.fixture
def warm(tmp_path):
    """A cache filled by a small 2PC grid, plus its tasks."""
    tasks = list(
        ScenarioGrid.from_partition_sweep("two-phase-commit", 3, times=[0.5, 1.5]).tasks()
    )
    cache = ResultCache(tmp_path / "cache")
    SweepEngine(workers=1, cache=cache).run(tasks)
    return cache, tasks


def _entry(cache, task):
    return cache.path(task.spec_hash, task.spec.seed)


def _get(cache, task):
    entry = cache.get_record(task.spec_hash, task.spec.seed)
    return None if entry is None else entry[0]


def test_intact_entries_decode_to_their_own_key(warm):
    cache, tasks = warm
    for task in tasks:
        summary = _get(cache, task)
        assert (summary.spec_hash, summary.seed) == (task.spec_hash, task.spec.seed)


def test_path_is_the_file_probe_and_read_use(warm):
    cache, tasks = warm
    task = tasks[0]
    path = _entry(cache, task)
    assert cache.probe(task.spec_hash, task.spec.seed)
    assert cache.get_bytes(task.spec_hash, task.spec.seed) == path.read_bytes()
    path.unlink()
    assert not cache.probe(task.spec_hash, task.spec.seed)
    assert cache.get_bytes(task.spec_hash, task.spec.seed) is None


def test_truncated_entry_is_not_json(warm):
    cache, tasks = warm
    path = _entry(cache, tasks[0])
    path.write_bytes(path.read_bytes()[:40])
    with pytest.raises(CacheEntryError, match="not JSON") as caught:
        _get(cache, tasks[0])
    assert caught.value.path == str(path)


def test_non_utf8_entry_is_not_json(warm):
    cache, tasks = warm
    _entry(cache, tasks[0]).write_bytes(b"\xff\xfe")
    with pytest.raises(CacheEntryError, match="not JSON"):
        _get(cache, tasks[0])


def test_array_entry_is_not_an_object(warm):
    cache, tasks = warm
    _entry(cache, tasks[0]).write_bytes(b"[1,2]")
    with pytest.raises(CacheEntryError, match="not a JSON object"):
        _get(cache, tasks[0])


def test_entry_missing_a_field_names_it(warm):
    cache, tasks = warm
    path = _entry(cache, tasks[0])
    payload = json.loads(path.read_bytes())
    del payload["votes"]
    path.write_text(json.dumps(payload))
    with pytest.raises(CacheEntryError, match="missing field 'votes'"):
        _get(cache, tasks[0])


def test_entry_with_a_malformed_field(warm):
    cache, tasks = warm
    path = _entry(cache, tasks[0])
    payload = json.loads(path.read_bytes())
    payload["decisions"] = 5
    path.write_text(json.dumps(payload))
    with pytest.raises(CacheEntryError, match="malformed field"):
        _get(cache, tasks[0])


def test_entry_copied_over_another_is_a_key_mismatch(warm):
    cache, tasks = warm
    source, target = tasks[0], tasks[-1]
    _entry(cache, target).write_bytes(_entry(cache, source).read_bytes())
    with pytest.raises(CacheEntryError, match=source.spec_hash) as caught:
        _get(cache, target)
    assert caught.value.path == str(_entry(cache, target))
    assert "holds the record of key" in caught.value.fault


def test_entry_under_another_seed_is_a_key_mismatch(warm):
    cache, tasks = warm
    task = tasks[0]
    os.replace(_entry(cache, task), cache.path(task.spec_hash, 7))
    with pytest.raises(CacheEntryError, match=r"holds the record of key \(\w+, 0\)"):
        cache.get_record(task.spec_hash, 7)


@pytest.mark.parametrize(
    "rewrite",
    [lambda data: data + b"\n", lambda data: json.dumps(json.loads(data), indent=1).encode()],
    ids=["trailing-newline", "pretty-printed"],
)
def test_entry_spanning_lines_is_rejected(rewrite, warm):
    # The entry decodes to its own key, but its bytes go verbatim into spill
    # and segment lines, where a line break would split the record.
    cache, tasks = warm
    path = _entry(cache, tasks[0])
    path.write_bytes(rewrite(path.read_bytes()))
    with pytest.raises(CacheEntryError, match="line break") as caught:
        _get(cache, tasks[0])
    assert caught.value.path == str(path)


def test_cli_reports_a_copied_entry_in_one_line(capsys, tmp_path):
    cached = SWEEP + ["--cache", str(tmp_path)]
    assert main(cached) == 0
    entries = sorted(tmp_path.glob("*/*.json"))
    entries[-1].write_bytes(entries[0].read_bytes())
    capsys.readouterr()
    assert main(cached) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("sweep failed: cache entry ")
    assert str(entries[-1]) in lines[0]


def test_cli_reports_a_truncated_entry_in_one_line(capsys, tmp_path):
    cached = SWEEP + ["--cache", str(tmp_path), "--workers", "2"]
    assert main(cached) == 0
    entry = sorted(tmp_path.glob("*/*.json"))[2]
    entry.write_bytes(entry.read_bytes()[:-10])
    capsys.readouterr()
    assert main(cached) == 2
    assert capsys.readouterr().err == f"sweep failed: cache entry {entry}: not JSON\n"
