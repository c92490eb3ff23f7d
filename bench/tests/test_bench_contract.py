"""Contract tests for the benchmark, at ``--smoke`` scale.

They pin what a later PR relies on: every metric declared in
``BENCHMARK.json`` is printed with its unit, outputs are checked (and the
checks are not vacuous), exact-repeat counts repeat, inputs follow the
seed, and a run leaves nothing behind in the working tree.
"""

from __future__ import annotations

import json
import pathlib
import re
import shutil
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from bench import compare, harness, run as bench_run, workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [entry["name"] for entry in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def run_smoke(capsys, *argv: str) -> tuple[int, dict, str]:
    """Run ``bench/run.py --smoke`` in-process; ``(exit code, result, stderr)``."""
    code = bench_run.main(["--smoke", *argv])
    captured = capsys.readouterr()
    return code, json.loads(captured.out.strip().splitlines()[-1]), captured.err


def test_benchmark_json_meets_the_schema():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert SPEC["paths"] == ["bench"] and SPEC["command"][-1] == "bench/run.py"
    assert len(WORKLOADS) == 7 and set(WORKLOADS) == set(workloads.WORKLOADS)
    assert 1 <= SPEC["run_seconds"] <= 60
    names = WORKLOADS + [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"} and len(workload["why"]) <= 200
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]) and metric["better"] in ("higher", "lower")
    assert {"name": "setup_s", "unit": "s", "better": "lower"}.items() <= next(
        m for m in SPEC["end_to_end"] if m["name"] == "setup_s"
    ).items()
    assert 1 <= len(SPEC["per_layer"]) <= 128
    assert set(harness.EXACT_COUNTS) <= {m["name"] for m in SPEC["per_layer"]}


@pytest.mark.parametrize("name", WORKLOADS)
def test_plain_run_prints_every_end_to_end_metric(name, capsys):
    code, result, _ = run_smoke(capsys, "--workload", name, "--trace", "0")
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]
    }
    assert all(metric["value"] > 0 for metric in result["metrics"].values())


@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_run_prints_every_per_layer_metric_and_counts_repeat(name, capsys, tmp_path):
    spans = tmp_path / "spans.ndjson"
    argv = ("--workload", name, "--trace", "1", "--trace-out", str(spans))
    code, first, _ = run_smoke(capsys, *argv)
    assert code == 0 and first["correct"] is True and first["failed"] == 0
    assert {k: v["unit"] for k, v in first["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]
    }
    for line in spans.read_text().splitlines():
        span = json.loads(line)
        assert set(span) == {"run", "index", "span", "start", "end", "parent"}
        assert span["end"] >= span["start"] and span["run"].startswith(name)
    _, second, _ = run_smoke(capsys, *argv)
    counts = {key: first["metrics"][key]["value"] for key in harness.EXACT_COUNTS}
    assert counts == {key: second["metrics"][key]["value"] for key in harness.EXACT_COUNTS}
    assert any(counts.values()), "the workload reported no exact-repeat count at all"


@pytest.mark.parametrize("name", WORKLOADS)
def test_inputs_follow_the_seed(name):
    build = workloads.WORKLOADS[name]
    assert build(0, smoke=True).fingerprint() == build(0, smoke=True).fingerprint()
    assert build(0, smoke=True).fingerprint() != build(1, smoke=True).fingerprint()
    assert build(0).fingerprint() != build(1).fingerprint()


def _flip_a_decision_in_the_jsonl(result):
    path = result.output["jsonl"]
    text = path.read_text()
    assert '"commit"' in text
    path.write_text(text.replace('"commit"', '"abort"', 1))


def _drop_a_merged_record(result):
    path = result.output["merged"]
    path.write_bytes(b"".join(path.read_bytes().splitlines(keepends=True)[:-1]))


def _turn_a_terminating_run_into_a_violation(result):
    result.output["table"]["terminating-three-phase-commit"]["violations"] += 1


def _move_a_boundary(result):
    boundaries = next(b for b in result.output["boundaries"].values() if b)
    boundaries[0][0] += 0.5


def _lose_a_transaction(result):
    result.output["summaries"][0].committed -= 1


def _acquit_a_blocking_protocol(result):
    row = next(r for r in result.output["rows"] if r["verdict"] == "blocked")
    row["verdict"] = "consistent"


TAMPERINGS = {
    "sweep_serial": (_turn_a_terminating_run_into_a_violation, "terminating-consistent"),
    "sweep_parallel": (_flip_a_decision_in_the_jsonl, "jsonl-identical-to-serial"),
    "refine_batches": (_move_a_boundary, "boundaries-equal-serial"),
    "resweep_warm": (None, "executed-zero"),  # forces one cache miss instead
    "txn_openloop": (_lose_a_transaction, "outcomes-sum"),
    "modelcheck_exhaustive": (_acquit_a_blocking_protocol, "paper-verdict"),
    "shard_merge_log": (_drop_a_merged_record, "merged-identical-to-single-machine"),
}


@pytest.mark.parametrize("name", WORKLOADS)
def test_a_tampered_output_fails_the_named_check(name, capsys, monkeypatch):
    tamper, check = TAMPERINGS[name]
    cls = workloads.WORKLOADS[name]
    if tamper is None:
        plain_setup = cls.setup

        def setup_then_evict(self, scratch):
            plain_setup(self, scratch)
            next(self.cache_dir.glob("*/*.json")).unlink()

        monkeypatch.setattr(cls, "setup", setup_then_evict)
    else:
        plain_pass = cls.run_pass

        def tampered_pass(self, pass_dir, **kwargs):
            result = plain_pass(self, pass_dir, **kwargs)
            tamper(result)
            return result

        monkeypatch.setattr(cls, "run_pass", tampered_pass)
    code, result, stderr = run_smoke(capsys, "--workload", name)
    assert code == 1
    assert result["correct"] is False and 0 < result["failed"] <= result["attempted"]
    assert f"FAILED {name}: {check}:" in stderr


def test_every_workload_has_a_committed_seed0_digest():
    for name in WORKLOADS:
        digest = json.loads((ROOT / "bench" / "expected" / f"{name}-seed0.json").read_text())
        assert digest, name


def test_regen_expected_refuses_after_a_failed_check(tmp_path, monkeypatch):
    monkeypatch.setattr(bench_run, "EXPECTED_DIR", tmp_path)
    workload = workloads.WORKLOADS["txn_openloop"](0)

    class Args:
        smoke, seed, regen_expected = False, 0, True

    failing = workloads.Failure("outcomes-sum", 1, "injected")
    monkeypatch.setattr(type(workload), "check", lambda self, result, scratch: [failing])
    result = workloads.PassResult(ops=1, output={"summaries": []})
    assert bench_run._check_pass(workload, result, tmp_path, Args) == [failing]
    assert list(tmp_path.iterdir()) == []
    with pytest.raises(SystemExit):
        bench_run.main(["--regen-expected", "--smoke"])


def test_a_run_leaves_the_working_tree_clean():
    def status() -> str:
        return subprocess.run(
            ["git", "status", "--porcelain"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout

    if shutil.which("git") is None or not (ROOT / ".git").exists():
        pytest.skip("not a git checkout")
    before = status()
    child = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "shard_merge_log", "--smoke",
         "--seed", "3", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True,
    )
    assert child.returncode == 0, child.stderr
    assert json.loads(child.stdout.strip().splitlines()[-1])["correct"] is True
    assert status() == before
    assert not harness.SCRATCH_PARENT.exists()


def test_a_failed_check_still_removes_its_scratch(capsys, monkeypatch):
    cls = workloads.WORKLOADS["resweep_warm"]
    monkeypatch.setattr(cls, "check", lambda self, result, scratch: 1 / 0)
    code, result, stderr = run_smoke(capsys, "--workload", "resweep_warm")
    assert code == 1 and result["failed"] > 0 and "check-raised" in stderr
    assert not harness.SCRATCH_PARENT.exists()


def test_without_the_program_the_benchmark_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    child = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep_serial", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, env={"PATH": "/usr/bin:/bin"},
    )
    assert child.returncode != 0 and child.stdout.strip() == ""
    assert "no program to measure" in child.stderr


def _record(workload: str, value: float, *, seed: int = 0) -> str:
    metrics = {"ops_per_s": {"value": value, "unit": "1/s"}}
    return json.dumps({
        "workload": workload, "seed": seed, "trace": 0, "seconds": 1,
        "result": {"correct": True, "attempted": 1, "failed": 0, "metrics": metrics},
    })


def test_compare_tells_ok_from_regressed_from_unresolved(tmp_path, capsys):
    base, same, slow, noisy = (tmp_path / f"{n}.json" for n in ("a", "b", "c", "d"))
    base.write_text("\n".join(_record("sweep_serial", v) for v in (100, 101, 102, 103)))
    same.write_text("\n".join(_record("sweep_serial", v) for v in (99, 100, 101, 104)))
    slow.write_text("\n".join(_record("sweep_serial", v) for v in (50, 51, 52, 53)))
    noisy.write_text("\n".join(_record("sweep_serial", v) for v in (40, 90, 140, 190)))
    assert compare.main([str(base), str(same)]) == 0
    assert " ok " in capsys.readouterr().out
    assert compare.main([str(base), str(slow)]) == 1
    assert " regressed " in capsys.readouterr().out
    assert compare.main([str(base), str(noisy)]) == 0
    assert " unresolved " in capsys.readouterr().out
