"""Documentation checker: docstring coverage, executable doc examples,
parseable documented command lines and existing documented paths.

Four checks, all enforced by CI (and by ``tests/test_docs.py``):

1. **Docstring coverage** — every module under ``src/repro`` must carry a
   module-level docstring (the repo's convention: state the module's paper
   anchor and its invariants).
2. **Doctested code blocks** — every fenced ```` ```python ```` block in
   ``README.md`` and ``docs/*.md`` must execute verbatim.  Blocks run in a
   temporary working directory (so examples may create cache directories /
   spill files) with ``src`` importable, each in a fresh namespace.
3. **Documented command lines** -- every ``python -m repro ...`` command in
   the docs, the verify skill, the CI workflow and the ``__main__`` usage
   docstring must *parse* with the real CLI parser (nothing is run), so a
   doc or workflow naming a removed flag fails here, not on a reader.
4. **Documented paths** -- every repo-relative path (``tools/...``,
   ``bench/...``, ``benchmarks/...``, ``src/...``, ``docs/...``,
   ``tests/...``) inside back-ticks or a fenced block of ``README.md``,
   ``docs/*.md`` and the verify skill must exist on disk, so a doc naming a
   deleted file fails here too.

Run directly::

    PYTHONPATH=src python tools/check_docs.py
"""

from __future__ import annotations

import ast
import contextlib
import io
import itertools
import os
import pathlib
import re
import shlex
import sys
import tempfile
import traceback

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCE_ROOT = REPO_ROOT / "src" / "repro"
DOC_PATHS = [REPO_ROOT / "README.md", *sorted((REPO_ROOT / "docs").glob("*.md"))]
VERIFY_SKILL = REPO_ROOT / ".claude" / "skills" / "verify" / "SKILL.md"
COMMAND_PATHS = [
    *DOC_PATHS,
    VERIFY_SKILL,
    REPO_ROOT / ".github" / "workflows" / "ci.yml",
    SOURCE_ROOT / "__main__.py",
]
_COMMAND = "python -m repro "
_REPO_PATH = re.compile(
    r"(?<![\w/.-])(?:tools|bench|benchmarks|src|docs|tests)/[\w./*-]*"
)


def missing_docstrings(root: pathlib.Path = SOURCE_ROOT) -> list[str]:
    """Paths (repo-relative) of modules lacking a module docstring."""
    missing = []
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        docstring = ast.get_docstring(tree)
        if not docstring or not docstring.strip():
            missing.append(str(path.relative_to(REPO_ROOT)))
    return missing


def iter_code_blocks(paths=DOC_PATHS):
    """Yield ``(path, first_line_number, code)`` for every ```python block."""
    for path in paths:
        if not path.exists():
            continue
        lines = path.read_text(encoding="utf-8").splitlines()
        block: list[str] | None = None
        start = 0
        for number, line in enumerate(lines, start=1):
            stripped = line.strip()
            if block is None:
                if stripped == "```python":
                    block = []
                    start = number + 1
            elif stripped == "```":
                yield path, start, "\n".join(block)
                block = None
            else:
                block.append(line)


def run_code_blocks(paths=DOC_PATHS) -> list[str]:
    """Execute every python block; return a description of each failure."""
    failures = []
    for path, line, code in iter_code_blocks(paths):
        label = f"{path.relative_to(REPO_ROOT)}:{line}"
        cwd = os.getcwd()
        with tempfile.TemporaryDirectory(prefix="doc-check-") as scratch:
            os.chdir(scratch)
            try:
                exec(compile(code, label, "exec"), {"__name__": f"docblock_{line}"})
            except Exception:
                failures.append(f"{label}\n{traceback.format_exc()}")
            finally:
                os.chdir(cwd)
    return failures


def iter_cli_commands(paths=COMMAND_PATHS):
    """Yield ``(path, line_number, argv, sketch)`` per documented command.

    A command runs from ``python -m repro`` (backslash continuations joined)
    to the first shell operator, closing backtick or comment; shell / CI
    substitutions (``$i``, ``${{ matrix.x }}``) stand in as ``0``.
    ``sketch`` marks lines with an ellipsis or ``<placeholder>``: prose
    shorthand of which only the verb is checkable.
    """
    for path in paths:
        if not path.exists():
            continue
        lines = path.read_text(encoding="utf-8").splitlines()
        for number, line in enumerate(lines, start=1):
            for text in line.split(_COMMAND)[1:]:
                following = iter(lines[number:])
                while text.rstrip().endswith("\\"):
                    text = text.rstrip().rstrip("\\") + " " + next(following, "")
                text = re.sub(r"\$\{\{.*?\}\}|\$\w+", "0", text.split("`")[0])
                lexer = shlex.shlex(text, posix=True, punctuation_chars=True)
                lexer.whitespace_split = True
                argv = list(
                    itertools.takewhile(
                        lambda token: not set(token) <= set("();<>|&"), lexer
                    )
                )
                yield path, number, argv, bool(re.search(r"\.\.\.|…|<\w+>", text))


def check_cli_commands(paths=COMMAND_PATHS) -> list[str]:
    """Parse every documented command; return a description of each failure.

    Grid verbs (and ``shard --kind``) also build their task list, so flag
    *values* the CLI would reject (an unknown protocol, say) fail too.
    """
    from repro.cli import parse_args
    from repro.cli.common import UsageError
    from repro.cli.kinds import GRID_KINDS, grid_kind

    verbs = {kind.verb for kind in GRID_KINDS}
    failures = []
    for path, line, argv, sketch in iter_cli_commands(paths):
        stderr = io.StringIO()
        try:
            with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(stderr):
                # A sketch only names its verb: "<verb> --help" exits 0 iff
                # the verb exists.
                args = parse_args([*argv[:1], "--help"] if sketch else argv)
                if args.command in verbs:
                    grid_kind(args.command).build_tasks(args)
                elif args.command == "shard" and args.manifest is None:
                    grid_kind(args.kind).tasks_from_argv("shard", args.grid_argv)
        except (SystemExit, UsageError) as exc:
            if getattr(exc, "code", None) == 0:
                continue
            detail = stderr.getvalue().strip().splitlines()[-1:] or [str(exc)]
            failures.append(
                f"{os.path.relpath(path, REPO_ROOT)}:{line}: "
                f"python -m repro {' '.join(argv)}\n    {detail[0]}"
            )
    return failures


def missing_paths(paths=(*DOC_PATHS, VERIFY_SKILL)) -> list[str]:
    """``file:line: path`` for every documented repo path that is not on disk.

    Only code is read: inline back-ticked spans and fenced blocks.  A path
    may be a glob (``bench/expected/*-seed0.json`` must match something) and
    may carry a ``::test`` or ``:line`` suffix; one followed by a
    ``<placeholder>`` is a pattern, not a path, and is skipped.
    """
    missing = []
    for path in paths:
        if not path.exists():
            continue
        fenced = False
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
            if line.strip().startswith("```"):
                fenced = not fenced
                continue
            for span in [line] if fenced else re.findall(r"`([^`]+)`", line):
                for match in _REPO_PATH.finditer(span):
                    if span[match.end() : match.end() + 1] == "<":
                        continue
                    target = match.group().rstrip(".:")
                    if not any(REPO_ROOT.glob(target)):
                        missing.append(
                            f"{os.path.relpath(path, REPO_ROOT)}:{number}: {target}"
                        )
    return missing


def main() -> int:
    sys.path.insert(0, str(REPO_ROOT / "src"))
    status = 0

    missing = missing_docstrings()
    if missing:
        status = 1
        print(f"{len(missing)} module(s) missing a module docstring:")
        for path in missing:
            print(f"  {path}")
    else:
        print("docstrings: every src/repro module has one")

    blocks = list(iter_code_blocks())
    failures = run_code_blocks()
    if failures:
        status = 1
        print(f"{len(failures)} of {len(blocks)} doc code block(s) failed:")
        for failure in failures:
            print(failure)
    else:
        print(f"doc examples: all {len(blocks)} python block(s) ran verbatim")

    commands = list(iter_cli_commands())
    failures = check_cli_commands()
    if failures:
        status = 1
        print(f"{len(failures)} of {len(commands)} documented command(s) do not parse:")
        for failure in failures:
            print(failure)
    else:
        print(f"command lines: all {len(commands)} 'python -m repro' line(s) parse")

    missing = missing_paths()
    if missing:
        status = 1
        print(f"{len(missing)} documented path(s) do not exist:")
        for entry in missing:
            print(f"  {entry}")
    else:
        print("paths: every documented repo path exists")
    return status


if __name__ == "__main__":
    sys.exit(main())
