"""Documentation guarantees: docstring coverage and verbatim-runnable examples.

Mirrors the CI doc-check job (``tools/check_docs.py``): engine/protocol
modules (and the rest of ``src/repro``) must carry module docstrings, and
every python code block in README.md / docs/ must execute as written.
"""

import importlib.util
import pathlib

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def _load_checker():
    spec = importlib.util.spec_from_file_location(
        "check_docs", REPO_ROOT / "tools" / "check_docs.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


CHECKER = _load_checker()


def test_every_module_has_a_docstring():
    assert CHECKER.missing_docstrings() == []


def test_docs_tree_exists():
    for name in (
        "architecture.md",
        "concurrency.md",
        "paper-map.md",
        "sharding.md",
        "sweep-engine.md",
    ):
        assert (REPO_ROOT / "docs" / name).is_file(), f"docs/{name} missing"


def test_doc_code_blocks_run_verbatim():
    blocks = list(CHECKER.iter_code_blocks())
    assert blocks, "expected executable python blocks in README/docs"
    failures = CHECKER.run_code_blocks()
    assert failures == [], "\n\n".join(failures)


def test_documented_command_lines_parse():
    commands = list(CHECKER.iter_cli_commands())
    assert len(commands) > 50, "expected the docs / CI workflow to show CLI commands"
    failures = CHECKER.check_cli_commands()
    assert failures == [], "\n".join(failures)


def test_a_removed_flag_in_a_doc_fails_the_check(tmp_path):
    doc = tmp_path / "doc.md"
    doc.write_text(
        "```bash\n"
        "for i in 0 1; do PYTHONPATH=src python -m repro shard --shard-index $i \\\n"
        "    --shard-count 2 --log out/ --protocol all --retries 3; done\n"
        "python -m repro sweep --protocol all --stream | tee table.txt\n"
        "python -m repro sweep --protocol all --jsonl s.jsonl   # fine\n"
        "```\n"
        "Sketches only name a verb: `python -m repro merge ...`, "
        "`python -m repro frobnicate ...`.\n"
    )
    failures = CHECKER.check_cli_commands([doc])
    assert len(failures) == 3, failures
    assert "doc.md:2" in failures[0] and "--retries 3" in failures[0]
    assert "doc.md:4" in failures[1] and "--stream" in failures[1]
    assert "doc.md:7" in failures[2] and "frobnicate" in failures[2]


def test_documented_paths_exist():
    assert CHECKER.missing_paths() == []


def test_a_deleted_file_in_a_doc_fails_the_check(tmp_path):
    doc = tmp_path / "doc.md"
    doc.write_text(
        "Run `tools/check_docs.py`, then `PYTHONPATH=src python tools/gone.py --x`.\n"
        "Prose about tools/gone.py outside back-ticks is not read.\n"
        "```bash\n"
        "python -m pytest benchmarks/bench_gone.py -q   # fenced blocks are read\n"
        "python3 bench/run.py --smoke\n"
        "```\n"
        "Globs must match (`bench/expected/*-seed0.json`, `bench/gone/*.json`), "
        "suffixes are cut (`tests/test_docs.py::test_docs_tree_exists`, "
        "`src/repro/gone.py:12`) and patterns are skipped "
        "(`bench/expected/<workload>-seed0.json`).\n"
    )
    missing = CHECKER.missing_paths([doc])
    assert [entry.split(": ")[1] for entry in missing] == [
        "tools/gone.py",
        "benchmarks/bench_gone.py",
        "bench/gone/*.json",
        "src/repro/gone.py",
    ]
    assert "doc.md:1" in missing[0] and "doc.md:4" in missing[1]
