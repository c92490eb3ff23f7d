"""Tests for the CLI entry point and the multiple-partitioning experiment."""

import pytest

from repro.cli import EXPERIMENTS, main
from repro.experiments.multiple_partitioning import run_multiple_partitioning, three_way_splits


class TestCli:
    def test_list_prints_every_experiment(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        for experiment_id in EXPERIMENTS:
            assert experiment_id in output

    def test_run_single_experiment(self, capsys):
        assert main(["run", "FIG1"]) == 0
        output = capsys.readouterr().out
        assert "FIG1" in output
        assert "Two-phase commit" in output

    def test_run_is_case_insensitive(self, capsys):
        assert main(["run", "lemma12"]) == 0
        assert "LEMMA12" in capsys.readouterr().out

    def test_run_multiple_ids(self, capsys):
        assert main(["run", "FIG1", "SEC7"]) == 0
        output = capsys.readouterr().out
        assert "FIG1" in output
        assert "SEC7" in output

    def test_unknown_id_returns_error(self, capsys):
        assert main(["run", "NOPE"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_every_registered_id_has_a_callable(self):
        for experiment_id, runner in EXPERIMENTS.items():
            assert callable(runner), experiment_id


class TestSweepCli:
    SWEEP = ["sweep", "--protocol", "two-phase-commit", "--times", "0.5", "1.5"]

    def test_sweep_spills_jsonl(self, capsys, tmp_path):
        from repro.engine import read_jsonl

        spill = tmp_path / "spill.jsonl"
        assert main(self.SWEEP + ["--jsonl", str(spill)]) == 0
        assert "spilled" in capsys.readouterr().out
        assert sum(1 for _ in read_jsonl(spill)) == 6  # 2 onsets x 3 splits

    def test_stats_line_reports_cache_effectiveness(self, capsys, tmp_path):
        cached = self.SWEEP + ["--cache", str(tmp_path)]
        assert main(cached) == 0
        assert "cache: 0 hit(s) / 6 miss(es)" in capsys.readouterr().out
        assert main(cached) == 0
        assert "cache: 6 hit(s) / 0 miss(es)" in capsys.readouterr().out


def _log_shards(log_dir, grid, shards=range(3)):
    """Run the given shards of a 3-way partition of ``grid`` into ``log_dir``."""
    for index in shards:
        assert main(
            [
                "shard",
                "--shard-index", str(index),
                "--shard-count", "3",
                "--log", str(log_dir),
                *grid,
            ]
        ) == 0
    return log_dir


class TestShardMergeCli:
    SWEEP = ["--protocol", "two-phase-commit", "--times", "0.5", "1.5"]

    def test_merge_reproduces_the_single_machine_spill(self, capsys, tmp_path):
        single = tmp_path / "single.jsonl"
        assert main(["sweep", *self.SWEEP, "--jsonl", str(single)]) == 0
        single_table = capsys.readouterr().out.splitlines()[:3]
        log = _log_shards(tmp_path / "log", self.SWEEP)
        capsys.readouterr()
        merged = tmp_path / "merged.jsonl"
        assert main(["merge", "--log", str(log), "--jsonl", str(merged)]) == 0
        merge_out = capsys.readouterr().out
        assert merged.read_bytes() == single.read_bytes()
        # The aggregate table equals the single-shot one, line for line.
        assert merge_out.splitlines()[:3] == single_table

    def test_shards_and_single_runs_share_the_cache(self, capsys, tmp_path):
        import json

        _log_shards(
            tmp_path / "log", [*self.SWEEP, "--cache", str(tmp_path / "cache")]
        )
        metrics = tmp_path / "metrics.json"
        assert main(
            [
                "sweep", *self.SWEEP,
                "--cache", str(tmp_path / "cache"),
                "--metrics-json", str(metrics),
            ]
        ) == 0
        document = json.loads(metrics.read_text())
        counters = document["metrics"]["counters"]
        assert counters["engine.tasks.executed"] == 0
        assert counters["engine.tasks.cache_hits"] == document["total"] == 6

    def test_throughput_stats_json_replaces_the_grep_smoke(self, capsys, tmp_path):
        # The CI warm-cache assertion: parse the executed counter, don't
        # grep stdout.
        import json

        fast = [
            "throughput",
            "--transactions", "10",
            "--protocols", "two-phase-commit",
            "--cache", str(tmp_path / "cache"),
            "--metrics-json", str(tmp_path / "metrics.json"),
        ]

        def run_counts():
            assert main(fast) == 0
            document = json.loads((tmp_path / "metrics.json").read_text())
            assert document["command"] == "throughput"
            counters = document["metrics"]["counters"]
            return counters["engine.tasks.executed"], counters["engine.tasks.cache_hits"]

        assert run_counts() == (1, 0)
        assert run_counts() == (0, 1)

    def test_throughput_kind_shards_build_the_throughput_grid(self, capsys, tmp_path):
        log = tmp_path / "log"
        assert main(
            [
                "shard",
                "--kind", "throughput",
                "--shard-index", "0",
                "--shard-count", "1",
                "--log", str(log),
                "--protocols", "two-phase-commit",
                "--transactions", "10",
            ]
        ) == 0
        capsys.readouterr()
        assert main(["merge", "--log", str(log)]) == 0
        assert "goodput (/T)" in capsys.readouterr().out

    def test_incomplete_merge_names_the_missing_shard(self, capsys, tmp_path):
        log = _log_shards(tmp_path / "log", self.SWEEP, shards=(0, 2))
        capsys.readouterr()
        assert main(["merge", "--log", str(log)]) == 2
        assert "missing shard(s) 1" in capsys.readouterr().err
        assert main(["merge", "--log", str(log), "--allow-partial"]) == 0

    def test_bad_shard_parameters_exit_2(self, capsys, tmp_path):
        base = ["shard", "--log", str(tmp_path / "log"), *self.SWEEP]
        assert main(base + ["--shard-index", "3", "--shard-count", "3"]) == 2
        assert "--shard-index" in capsys.readouterr().err
        assert main(base + ["--shard-index", "0", "--shard-count", "0"]) == 2
        assert "--shard-count" in capsys.readouterr().err
        assert main(
            base + ["--shard-index", "0", "--shard-count", "2", "--protocol", "nope"]
        ) == 2
        assert "unknown protocol" in capsys.readouterr().err

    def test_faults_flag_is_shared_by_every_shard_kind(self, capsys, tmp_path):
        # --faults is NOT kind-specific: a lossy-retransmit sweep shard and
        # a lossy modelcheck shard must both build.
        base = ["shard", "--shard-index", "0", "--shard-count", "1"]
        assert main(
            base
            + ["--log", str(tmp_path / "sweep-log"),
               "--times", "0.5", "--faults", "loss=0.2,retransmit=on,seed=7"]
        ) == 0
        capsys.readouterr()
        assert main(
            base
            + ["--log", str(tmp_path / "mc-log"),
               "--kind", "modelcheck", "--protocol", "two-phase-commit",
               "--faults", "loss=0.5"]
        ) == 0


class TestResultLogCli:
    SWEEP = ["--protocol", "two-phase-commit", "--times", "0.5", "1.5"]

    @staticmethod
    def _kill_merge(kill_points, log, argv, label, nth):
        """Kill ``repro merge --log LOG ARGV`` just before its ``nth`` ``label``."""
        jsonl = argv[argv.index("--jsonl") + 1] if "--jsonl" in argv else None
        kill_points.kill_before(
            lambda: main(["merge", "--log", str(log), *argv]),
            label,
            nth,
            outputs=[log / "merge-checkpoint.json", *filter(None, [jsonl])],
        )

    def test_interrupted_merge_resumes_byte_identical(
        self, capsys, tmp_path, kill_points
    ):
        import json

        single = tmp_path / "single.jsonl"
        assert main(["sweep", *self.SWEEP, "--jsonl", str(single)]) == 0
        log = _log_shards(tmp_path / "log", self.SWEEP)
        merged = tmp_path / "merged.jsonl"
        argv = ["--jsonl", str(merged), "--batch-records", "2"]
        # Killed before the fourth record is written: one batch committed.
        self._kill_merge(kill_points, log, argv, "write merged.jsonl", 4)
        capsys.readouterr()
        metrics = tmp_path / "metrics.json"
        assert main(
            ["merge", "--log", str(log), *argv, "--resume", "--metrics-json", str(metrics)]
        ) == 0
        assert "2 replayed from checkpoint" in capsys.readouterr().out
        assert merged.read_bytes() == single.read_bytes()
        # The run header matches an uninterrupted merge of the same log (its
        # own checkpoint + spill), modulo wall-clock time; counters such as
        # resultlog.resume.replayed may differ.
        fresh_metrics = tmp_path / "fresh-metrics.json"
        assert main(
            [
                "merge", "--log", str(tmp_path / "log"),
                "--jsonl", str(tmp_path / "fresh.jsonl"),
                "--checkpoint", str(tmp_path / "fresh.ckpt"),
                "--metrics-json", str(fresh_metrics),
            ]
        ) == 0

        def header(path):
            document = json.loads(path.read_text())
            del document["metrics"], document["elapsed"]
            return document

        assert header(metrics) == header(fresh_metrics)
        assert header(metrics)["total"] == 6
        assert (tmp_path / "fresh.jsonl").read_bytes() == single.read_bytes()

    def test_shard_rerun_resumes_from_the_log(self, capsys, tmp_path):
        _log_shards(tmp_path / "log", self.SWEEP)
        capsys.readouterr()
        assert main(
            [
                "shard", "--shard-index", "0", "--shard-count", "3",
                "--log", str(tmp_path / "log"), *self.SWEEP,
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "0 of " in out
        assert "already sealed" in out

    def test_manifest_builds_a_mixed_kind_task_list(self, capsys, tmp_path):
        import json

        manifest = tmp_path / "grids.json"
        manifest.write_text(
            json.dumps(
                {
                    "grids": [
                        {"kind": "sweep", "args": self.SWEEP},
                        {
                            "kind": "throughput",
                            "args": [
                                "--protocols", "two-phase-commit",
                                "--transactions", "10",
                            ],
                        },
                    ]
                }
            )
        )
        for index in range(2):
            assert main(
                [
                    "shard",
                    "--shard-index", str(index),
                    "--shard-count", "2",
                    "--log", str(tmp_path / "log"),
                    "--manifest", str(manifest),
                ]
            ) == 0
        metrics = tmp_path / "metrics.json"
        capsys.readouterr()
        assert main(
            [
                "merge", "--log", str(tmp_path / "log"),
                "--metrics-json", str(metrics),
            ]
        ) == 0
        document = json.loads(metrics.read_text())
        assert document["total_tasks"] == 7  # 6 sweep scenarios + 1 workload
        assert document["kinds"] == ["scenario", "throughput"]
        assert document["metrics"]["counters"]["merge.shards"] == 2

    def test_manifest_rejects_command_line_grid_flags(self, capsys, tmp_path):
        import json

        manifest = tmp_path / "grids.json"
        manifest.write_text(json.dumps({"grids": [{"kind": "sweep"}]}))
        assert main(
            [
                "shard", "--shard-index", "0", "--shard-count", "1",
                "--log", str(tmp_path / "log"),
                "--manifest", str(manifest),
                "--protocol", "all",
            ]
        ) == 2
        assert "cannot be combined with --manifest" in capsys.readouterr().err

    def test_manifest_entry_errors_name_the_entry(self, capsys, tmp_path):
        import json

        manifest = tmp_path / "grids.json"
        manifest.write_text(
            json.dumps({"grids": [{"kind": "sweep", "args": ["--protocol", "nope"]}]})
        )
        assert main(
            [
                "shard", "--shard-index", "0", "--shard-count", "1",
                "--log", str(tmp_path / "log"),
                "--manifest", str(manifest),
            ]
        ) == 2
        assert "grids[0]" in capsys.readouterr().err

    def test_resume_without_the_jsonl_target_exits_2(
        self, capsys, tmp_path, kill_points
    ):
        log = _log_shards(tmp_path / "log", self.SWEEP)
        merged = tmp_path / "merged.jsonl"
        self._kill_merge(
            kill_points, log, ["--jsonl", str(merged), "--batch-records", "2"],
            "write merged.jsonl", 4,
        )
        capsys.readouterr()
        assert main(["merge", "--log", str(log), "--resume"]) == 2
        err = capsys.readouterr().err
        assert "merge failed" in err
        assert "no --jsonl target" in err

    def test_resume_onto_a_new_jsonl_target_exits_2(
        self, capsys, tmp_path, kill_points
    ):
        log = _log_shards(tmp_path / "log", self.SWEEP)
        self._kill_merge(
            kill_points, log, ["--batch-records", "2"],
            "replace merge-checkpoint.json", 2,
        )
        capsys.readouterr()
        merged = tmp_path / "merged.jsonl"
        assert main(
            ["merge", "--log", str(log), "--resume", "--jsonl", str(merged)]
        ) == 2
        err = capsys.readouterr().err
        assert err.startswith("merge failed: ")
        assert "merge-checkpoint.json" in err and str(merged) in err
        assert len(err.splitlines()) == 1
        assert not merged.exists()

    @pytest.mark.parametrize(
        "argv, needle",
        [
            # The log directory is the one destination / source of each verb.
            (["shard", "--shard-index", "0", "--shard-count", "1"], "--log"),
            (["merge"], "--log"),
            (["merge", "--jsonl", "m.jsonl"], "--log"),
            # The spill spellings are gone, not aliased.
            (
                ["shard", "--shard-index", "0", "--shard-count", "1",
                 "--log", "log", "--out", "s.jsonl"],
                "--out",
            ),
            (["merge", "--log", "log", "s.jsonl"], "s.jsonl"),
        ],
    )
    def test_usage_errors_exit_2(self, argv, needle, capsys):
        with pytest.raises(SystemExit) as usage:
            main(argv)
        assert usage.value.code == 2
        assert needle in capsys.readouterr().err

    def test_granularity_flag_validation_exits_2(self, capsys, tmp_path):
        log = str(tmp_path / "log")
        base = ["shard", "--shard-index", "0", "--shard-count", "1", *self.SWEEP]
        assert main(base + ["--log", log, "--segment-records", "0"]) == 2
        assert "--segment-records must be >= 1" in capsys.readouterr().err
        assert main(["merge", "--log", log, "--batch-records", "0"]) == 2
        assert "--batch-records must be >= 1" in capsys.readouterr().err


class TestFaultsCli:
    SWEEP = ["sweep", "--protocol", "two-phase-commit", "--times", "0.5"]

    def test_sweep_accepts_the_clause_grammar(self, capsys):
        assert main(self.SWEEP + ["--faults", "loss=0.3,retransmit=on"]) == 0
        assert "resilient" in capsys.readouterr().out

    def test_bad_clause_names_the_clause_and_exits_2(self, capsys):
        assert main(self.SWEEP + ["--faults", "loss=not-a-number"]) == 2
        err = capsys.readouterr().err
        assert "--faults" in err
        assert "clause 'loss=not-a-number'" in err
        assert main(self.SWEEP + ["--faults", "warp=1"]) == 2
        assert "clause 'warp=1'" in capsys.readouterr().err

    def test_plan_is_validated_against_the_site_count(self, capsys):
        assert main(self.SWEEP + ["--faults", "byzantine=9"]) == 2
        assert "site" in capsys.readouterr().err

    def test_throughput_accepts_crash_clauses(self, capsys):
        assert main(
            [
                "throughput",
                "--transactions", "5",
                "--protocols", "two-phase-commit",
                "--faults", "crash=2:20:26",
            ]
        ) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert "goodput (/T)" in captured.out

    def test_modelcheck_maps_clauses_onto_envelopes(self, capsys):
        assert main(
            [
                "modelcheck",
                "--protocol", "two-phase-commit",
                "--faults", "loss=0.5",
                "--faults", "loss=0.5,retransmit=on",
            ]
        ) == 0
        output = capsys.readouterr().out
        assert "lossy" in output
        assert "lossy-retransmit" in output

    def test_modelcheck_maps_reorder_onto_the_rest_of_the_plan(self, capsys):
        # Every delivery order is already explored, and retransmission
        # stretches the timers by the reorder window.
        assert main(
            [
                "modelcheck",
                "--protocol", "extended-two-phase-commit",
                "--faults", "reorder=1:4,retransmit=on,seed=0",
                "--faults", "reorder=1:4,loss=0.5,retransmit=on",
                "--faults", "reorder=1:4,crash=2:3.0,retransmit=on",
            ]
        ) == 0
        output = capsys.readouterr().out
        assert "failure-free" in output
        assert "lossy-retransmit" in output
        assert "single-crash" in output

    @pytest.mark.parametrize(
        "protocol",
        ["extended-two-phase-commit", "naive-extended-three-phase-commit"],
    )
    def test_budget_error_names_the_protocol_checked(self, capsys, protocol):
        # The extended rows explore their base spec's automata; the budget
        # message names the row, not the spec.
        assert main(
            ["modelcheck", "--protocol", protocol, "--sites", "3", "--max-states", "50"]
        ) == 2
        err = capsys.readouterr().err
        assert f"exceeded 50 global states exploring {protocol} (" in err

    def test_modelcheck_names_why_a_terminating_protocol_is_uncheckable(self, capsys):
        assert main(["modelcheck", "--protocol", "terminating-quorum-commit"]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err and len(err.splitlines()) == 1
        assert "'terminating-quorum-commit' is not model-checkable" in err
        assert "named timers and site variables" in err
        assert "checkable protocols: extended-two-phase-commit" in err

    def test_modelcheck_rejects_unmapped_fault_classes(self, capsys):
        assert main(
            ["modelcheck", "--protocol", "two-phase-commit", "--faults", "dup=0.5"]
        ) == 2
        err = capsys.readouterr().err
        assert "no exhaustive envelope" in err
        assert "duplicate" in err

    @pytest.mark.parametrize("text", ["not json\n", "[1]\n", "3\n"])
    def test_merging_a_non_segment_file_exits_2(self, text, capsys, tmp_path):
        # Not JSON, or JSON that is not an object: a typed error naming the
        # file and line, never a traceback.
        bogus = tmp_path / "shard-0000-seg-000000.jsonl"
        bogus.write_text(text)
        assert main(["merge", "--log", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "merge failed" in err
        assert f"{bogus}:1:" in err

    @pytest.mark.parametrize(
        "tag",
        ["alien-kind", ["throughput"], {"kind": "throughput"}, 7],
        ids=["string", "list", "object", "number"],
    )
    def test_merging_an_unregistered_kind_exits_2(self, tag, capsys, tmp_path):
        # A segment whose kind tag names no spec kind -- or is not a string
        # at all -- must fail cleanly here, not with a traceback.
        from repro.engine import write_segment
        from repro.engine.resultlog import SegmentHeader

        write_segment(
            tmp_path / "shard-0000-seg-000000.jsonl",
            SegmentHeader(
                shard_index=0, shard_count=1, total_tasks=1, segment_index=0
            ),
            [(0, {"kind": tag, "spec_hash": "ab", "seed": 0})],
        )
        assert main(["merge", "--log", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "merge failed" in err
        assert repr(tag) in err

    def test_merging_an_undecodable_record_exits_2(self, capsys, tmp_path):
        # The record's kind is known but its fields do not decode: one
        # stderr line naming the segment, and nothing written or committed.
        from repro.engine import write_segment
        from repro.engine.resultlog import CHECKPOINT_NAME, SegmentHeader

        segment = tmp_path / "log" / "shard-0000-seg-000000.jsonl"
        segment.parent.mkdir()
        write_segment(
            segment,
            SegmentHeader(
                shard_index=0, shard_count=1, total_tasks=1, segment_index=0
            ),
            [(0, {"kind": "throughput", "spec_hash": "ab", "seed": 0})],
        )
        merged = tmp_path / "merged.jsonl"
        assert main(
            ["merge", "--log", str(segment.parent), "--jsonl", str(merged)]
        ) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith(f"merge failed: {segment}: task index 0: ")
        assert not merged.exists()
        assert not (segment.parent / CHECKPOINT_NAME).exists()


SMALL_GRIDS = {
    "sweep": ["--protocol", "two-phase-commit", "--times", "0.5"],
    "throughput": [
        "--protocols", "two-phase-commit", "--transactions", "5",
        "--faults", "crash=2:20:26",
    ],
    "modelcheck": ["--protocol", "two-phase-commit", "--sites", "2"],
}

# (kind, grid flags, stderr needle): values the kind's task builder rejects
# with ONE stderr line naming the flag.
REJECTED_VALUES = [
    ("sweep", ["--times", "-1"], "--times"),
    ("sweep", ["--times", "nan"], "--times"),
    ("sweep", ["--heal-after", "0"], "--heal-after"),
    ("sweep", ["--sites", "0"], "--sites"),
    ("sweep", ["--sites", "1"], "--sites"),
    ("sweep", ["--protocol", "nope"], "unknown protocol"),
    ("sweep", ["--no-voters", "x"], "--no-voters"),
    ("sweep", ["--no-voters", "9"], "--no-voters"),
    ("sweep", ["--faults", "warp=1"], "clause 'warp=1'"),
    ("throughput", ["--sites", "0"], "--sites"),
    ("throughput", ["--sites", "1"], "--sites"),
    ("throughput", ["--read-fraction", "1.5"], "--read-fraction"),
    ("throughput", ["--ops-per-site", "0"], "--ops-per-site"),
    ("throughput", ["--tx-rate", "0"], "--tx-rate"),
    ("throughput", ["--transactions", "0"], "--transactions"),
    ("throughput", ["--keys", "0"], "--keys"),
    ("throughput", ["--lock-timeout", "0"], "--lock-timeout"),
    ("throughput", ["--partition-at", "2.0"], "--partition-at"),
    ("throughput", ["--heal-after", "0"], "--heal-after"),
    ("throughput", ["--no-partition", "--permanent"], "--no-partition"),
    ("throughput", ["--hotspot", "-0.5"], "--hotspot"),
    ("throughput", ["--retries", "-1"], "--retries"),
    ("throughput", ["--retry-backoff", "0"], "--retry-backoff"),
    ("throughput", ["--faults", "crash=nonsense"], "--faults"),
    ("throughput", ["--faults", "crash=9:5.0"], "--faults"),
    ("throughput", ["--faults", "crash=2:-5"], "--faults"),
    ("throughput", ["--protocols", "nope"], "unknown protocol"),
    ("modelcheck", ["--sites", "1"], "--sites"),
    ("modelcheck", ["--max-states", "0"], "--max-states"),
    ("modelcheck", ["--max-depth", "0"], "--max-depth"),
    ("modelcheck", ["--no-voters", "1"], "--no-voters"),
    ("modelcheck", ["--protocol", "nope"], "uncheckable protocol"),
    ("modelcheck", ["--protocol", "terminating-three-phase-commit"], "needs explicit time"),
    ("modelcheck", ["--faults", "dup=0.5"], "no exhaustive envelope"),
    ("modelcheck", ["--faults", "reorder=1:4"], "only with retransmit=on"),
]

# (kind, grid flags, flag): spellings no parser of that kind declares --
# removed options and flags that belong to another kind's grid.  Ordinary
# argparse usage errors naming the flag.
UNKNOWN_FLAGS = [
    ("sweep", ["--stream"], "--stream"),
    ("sweep", ["--refine"], "--refine"),
    ("sweep", ["--resolution", "0.01"], "--resolution"),
    ("throughput", ["--crash-schedule", "2:20:26"], "--crash-schedule"),
    ("sweep", ["--protocols", "all"], "--protocols"),
    ("sweep", ["--retries", "3"], "--retries"),
    ("sweep", ["--arrival", "poisson"], "--arrival"),
    ("sweep", ["--lock-transport", "network"], "--lock-transport"),
    ("sweep", ["--max-states", "9"], "--max-states"),
    ("throughput", ["--times", "0.5"], "--times"),
    ("throughput", ["--no-voters", "2"], "--no-voters"),
    ("throughput", ["--max-depth", "3"], "--max-depth"),
    ("modelcheck", ["--times", "0.5"], "--times"),
    ("modelcheck", ["--heal-after", "2"], "--heal-after"),
    ("modelcheck", ["--transactions", "5"], "--transactions"),
]

ROUTES = ("verb", "shard", "manifest")


def _case_id(case):
    return case if isinstance(case, str) else " ".join(case)


def _run_route(route, kind, flags, tmp_path):
    """Exit code of a kind's grid ``flags`` through one entry route: the
    kind's verb, ``shard --kind`` or a one-entry manifest (usage exits too)."""
    import json

    shard = [
        "shard", "--shard-index", "0", "--shard-count", "1",
        "--log", str(tmp_path / "log"),
    ]
    if route == "verb":
        argv = [kind, *flags]
    elif route == "shard":
        argv = [*shard, "--kind", kind, *flags]
    else:
        manifest = tmp_path / "grids.json"
        manifest.write_text(json.dumps({"grids": [{"kind": kind, "args": flags}]}))
        argv = [*shard, "--manifest", str(manifest)]
    try:
        return main(argv)
    except SystemExit as usage:
        return usage.code


@pytest.mark.parametrize("route", ROUTES)
class TestGridFlagMatrix:
    """One declaration per kind: its verb, ``shard --kind`` and a manifest
    entry accept and reject exactly the same grid flags."""

    @pytest.mark.parametrize("kind", sorted(SMALL_GRIDS))
    def test_every_route_runs_the_kinds_grid(self, route, kind, capsys, tmp_path):
        assert _run_route(route, kind, SMALL_GRIDS[kind], tmp_path) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("kind, flags, needle", REJECTED_VALUES, ids=_case_id)
    def test_rejected_values_are_one_line_naming_the_flag(
        self, route, kind, flags, needle, capsys, tmp_path
    ):
        assert _run_route(route, kind, flags, tmp_path) == 2
        err = capsys.readouterr().err
        assert needle in err
        assert len(err.splitlines()) == 1, err
        if route == "manifest":
            assert "grids[0]" in err

    @pytest.mark.parametrize("kind, flags, flag", UNKNOWN_FLAGS, ids=_case_id)
    def test_unknown_flags_are_usage_errors_naming_the_flag(
        self, route, kind, flags, flag, capsys, tmp_path
    ):
        assert _run_route(route, kind, flags, tmp_path) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert f"error: unrecognized arguments: {flag}" in err.splitlines()[-1]
        if route == "manifest":
            assert "grids[0]" in err


class TestRunFailuresExitCleanly:
    """Failures past validation: one ``<verb> failed:`` line, exit 2."""

    SHARD = ["shard", "--shard-index", "0", "--shard-count", "1"]

    @pytest.mark.parametrize(
        "verb, flag",
        [
            (verb, flag)
            for verb in ("sweep", "throughput", "modelcheck", "shard", "boundaries")
            for flag in ("--cache", "--metrics-json")
        ],
    )
    def test_unwritable_path_names_the_file(self, verb, flag, capsys, tmp_path):
        argv = {
            "shard": [*self.SHARD, "--log", str(tmp_path / "log"), *SMALL_GRIDS["sweep"]],
            "boundaries": ["boundaries", "--lo", "2.5", "--hi", "3.0"],
        }.get(verb) or [verb, *SMALL_GRIDS[verb]]
        target = "/proc/nope" if flag == "--cache" else "/proc/nope/x.json"
        assert main([*argv, flag, target]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"{verb} failed: ")
        assert "/proc/nope" in err
        assert len(err.splitlines()) == 1, err

    @pytest.mark.parametrize("verb", sorted(SMALL_GRIDS))
    def test_unwritable_jsonl_names_the_file(self, verb, capsys):
        assert main([verb, *SMALL_GRIDS[verb], "--jsonl", "/proc/nope/x"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"{verb} failed: ")
        assert "/proc/nope" in err
        assert len(err.splitlines()) == 1, err

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--protocol", "two-phase-commit", "--sites", "3"],
            ["boundaries", "--protocol", "two-phase-commit", "--sites", "3"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_dead_worker_is_one_line_and_leaves_no_process(
        self, argv, capsys, monkeypatch
    ):
        import multiprocessing
        import os

        from repro.engine import scenario_kind

        parent = os.getpid()
        real = scenario_kind.run_scenario

        def die_in_a_worker(*args, **kwargs):
            if os.getpid() != parent:
                os._exit(3)
            return real(*args, **kwargs)

        # Forked workers inherit the patched module.
        monkeypatch.setattr(scenario_kind, "run_scenario", die_in_a_worker)
        assert main([*argv, "--workers", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(
            f"{argv[0]} failed: a worker process died mid-run: "
        )
        assert "first undelivered task index 0" in captured.err
        assert len(captured.err.splitlines()) == 1, captured.err
        assert captured.out == ""
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("route", ROUTES)
    def test_exhausted_budget_prints_the_hint(self, route, capsys, tmp_path):
        assert _run_route(route, "modelcheck", ["--max-states", "5"], tmp_path) == 2
        err = capsys.readouterr().err
        assert "exploration budget exceeded" in err
        assert "raise --max-states" in err
        assert len(err.splitlines()) == 1, err

    @pytest.mark.parametrize(
        "flags, needle",
        [(["--workers", "0"], "--workers"), (["--chunk-size", "0"], "--chunk-size")],
    )
    def test_engine_flags_are_checked_once_for_verb_and_shard(
        self, flags, needle, capsys, tmp_path
    ):
        for argv in (
            ["sweep", *flags],
            ["modelcheck", *flags],
            [*self.SHARD, "--log", str(tmp_path / "log"), *flags],
        ):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert needle in err and len(err.splitlines()) == 1, err


class TestBoundariesCli:
    def test_locates_the_commit_point_flip(self, capsys):
        assert main(
            [
                "boundaries",
                "--protocol",
                "terminating-three-phase-commit",
                "--lo",
                "2.5",
                "--hi",
                "3.5",
                "--resolution",
                "0.05",
            ]
        ) == 0
        output = capsys.readouterr().out
        assert "consistent:abort" in output
        assert "consistent:commit" in output
        assert "of uniform cost" in output

    def test_flat_interval_reports_no_flips(self, capsys):
        assert main(
            ["boundaries", "--protocol", "two-phase-commit", "--lo", "1.0", "--hi", "2.0"]
        ) == 0
        assert "no verdict flips" in capsys.readouterr().out

    def test_single_site_is_rejected_naming_the_flag(self, capsys):
        assert main(["boundaries", "--sites", "1", "--lo", "0.5", "--hi", "1.0"]) == 2
        err = capsys.readouterr().err
        assert err.strip() == "--sites must be >= 2, got 1"

    def test_bad_parameters_exit_2(self, capsys):
        assert main(["boundaries", "--lo", "2.0", "--hi", "1.0"]) == 2
        assert "--lo < --hi" in capsys.readouterr().err
        assert main(["boundaries", "--coarse-step", "0"]) == 2
        assert "--coarse-step" in capsys.readouterr().err
        assert main(["boundaries", "--resolution", "0"]) == 2
        assert "--resolution" in capsys.readouterr().err
        assert main(["boundaries", "--protocol", "nope"]) == 2
        assert "unknown protocol" in capsys.readouterr().err
        assert main(["boundaries", "--lo", "-1"]) == 2
        assert "--lo must be >= 0" in capsys.readouterr().err
        assert main(["boundaries", "--heal-after", "0"]) == 2
        assert "--heal-after must be > 0" in capsys.readouterr().err
        assert main(["boundaries", "--workers", "0"]) == 2
        assert "--workers" in capsys.readouterr().err


class TestThreeWaySplits:
    def test_requires_three_sites(self):
        with pytest.raises(ValueError):
            three_way_splits(2)

    def test_splits_are_multiple_partitions(self):
        for spec in three_way_splits(4):
            assert spec.is_multiple
            assert spec.sites == frozenset({1, 2, 3, 4})

    def test_three_sites_fully_isolated_split_present(self):
        splits = three_way_splits(3)
        assert any(len(spec.groups) == 3 and all(len(g) == 1 for g in spec.groups) for spec in splits)


class TestMultiplePartitioningExperiment:
    @pytest.fixture(scope="class")
    def report(self):
        return run_multiple_partitioning(times=[1.5, 2.5, 3.5])

    def test_impossibility_reproduced(self, report):
        for summary in report.details.values():
            assert not summary.resilient
            assert summary.atomicity_violations > 0

    def test_violations_rather_than_silent_divergence(self, report):
        summary = report.details["terminating-three-phase-commit"]
        assert summary.atomicity_violations > 0
        assert summary.violation_witnesses

    def test_report_has_one_row_per_protocol(self, report):
        assert len(report.rows()) == len(report.details)
