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
4. **Documented paths and names** -- every repo-relative path
   (``tools/...``, ``bench/...``, ``benchmarks/...``, ``src/...``,
   ``docs/...``, ``tests/...``) inside back-ticks or a fenced block of
   ``README.md``, ``docs/*.md`` and the verify skill must exist on disk, and
   every back-ticked dotted name (``repro.a.b`` or ``repro.a.b.attr``) there
   must import and resolve, so a doc naming a deleted file, module or class
   fails here too.  In a module-map row (``| `repro.pkg` | ... |``) a
   back-ticked name inside parentheses is resolved under the row's package:
   ``(`kernel`, `grid.run_grid`)`` must name ``repro.pkg.kernel`` and
   ``repro.pkg.grid.run_grid``.

Run directly::

    PYTHONPATH=src python tools/check_docs.py
"""

from __future__ import annotations

import ast
import contextlib
import functools
import importlib
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
_DOTTED_NAME = re.compile(r"(?<![\w/.-])repro(?:\.\w+)+")
_MODULE_MAP_ROW = re.compile(r"\| `(repro(?:\.\w+)*)` \|(.*)\|")
_RELATIVE_NAME = re.compile(r"\w+(?:\.\w+)*")


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


def _code_spans(paths):
    """Yield ``(where, span, fenced)`` for every inline back-ticked span and
    every fenced-block line of ``paths``; ``where`` is ``file:line``."""
    for path in paths:
        if not path.exists():
            continue
        fenced = False
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
            if line.strip().startswith("```"):
                fenced = not fenced
                continue
            where = f"{os.path.relpath(path, REPO_ROOT)}:{number}"
            for span in [line] if fenced else re.findall(r"`([^`]+)`", line):
                yield where, span, fenced


def missing_paths(paths=(*DOC_PATHS, VERIFY_SKILL)) -> list[str]:
    """``file:line: path`` for every documented repo path that is not on disk.

    Only code is read: inline back-ticked spans and fenced blocks.  A path
    may be a glob (``bench/expected/*-seed0.json`` must match something) and
    may carry a ``::test`` or ``:line`` suffix; one followed by a
    ``<placeholder>`` is a pattern, not a path, and is skipped.
    """
    missing = []
    for where, span, _ in _code_spans(paths):
        for match in _REPO_PATH.finditer(span):
            if span[match.end() : match.end() + 1] == "<":
                continue
            target = match.group().rstrip(".:")
            if not any(REPO_ROOT.glob(target)):
                missing.append(f"{where}: {target}")
    return missing


def resolves(name: str) -> bool:
    """Whether dotted ``name`` resolves: its longest importable module
    prefix imports, and the rest are attributes down from it."""
    parts = name.split(".")
    for cut in range(len(parts), 0, -1):
        module = ".".join(parts[:cut])
        try:
            target = importlib.import_module(module)
        except ModuleNotFoundError as exc:
            # Only a missing prefix of ``name`` itself means "try shorter";
            # a module failing to import one of its own dependencies is broken.
            if exc.name is not None and f"{module}.".startswith(f"{exc.name}."):
                continue
            return False
        try:
            functools.reduce(getattr, parts[cut:], target)
        except AttributeError:
            return False
        return True
    return False


def _module_map_names(paths):
    """Yield ``(where, name)`` for every back-ticked relative name inside the
    parentheses of a module-map row, prefixed with the row's package.

    Parentheses are counted in the text between back-ticked spans only, so
    a span such as `` `Cluster.close()` `` neither opens nor closes one.
    """
    for path in paths:
        if not path.exists():
            continue
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
            row = _MODULE_MAP_ROW.match(line)
            if row is None:
                continue
            package, cells = row.groups()
            depth = 0
            for index, part in enumerate(cells.split("`")):
                if index % 2 == 0:
                    depth += part.count("(") - part.count(")")
                elif depth > 0 and _RELATIVE_NAME.fullmatch(part) and not part.startswith("repro."):
                    yield f"{os.path.relpath(path, REPO_ROOT)}:{number}", f"{package}.{part}"


def unresolved_names(paths=(*DOC_PATHS, VERIFY_SKILL)) -> list[str]:
    """``file:line: name`` for every back-ticked ``repro.…`` dotted name in
    ``paths`` (fenced blocks are check 2's), and every module-map row entry,
    that does not import and resolve."""
    dotted = (
        (where, name)
        for where, span, fenced in _code_spans(paths)
        if not fenced
        for name in _DOTTED_NAME.findall(span)
    )
    return [
        f"{where}: {name}"
        for where, name in itertools.chain(dotted, _module_map_names(paths))
        if not resolves(name)
    ]


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

    unresolved = unresolved_names()
    if unresolved:
        status = 1
        print(f"{len(unresolved)} documented name(s) do not resolve:")
        for entry in unresolved:
            print(f"  {entry}")
    else:
        print("names: every documented repro.* name resolves")
    return status


if __name__ == "__main__":
    sys.exit(main())
