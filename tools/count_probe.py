"""Count the function calls one benchmark pass makes, per ``src/`` module.

Timed pairs on a shared host cannot resolve a 10-20 % change, but the work
a pass does is deterministic.  For each workload of ``bench/workloads.py``
(all seven by default) this runs the workload's set-up on its seed-0
inputs, one warm pass, and then one pass under :mod:`cProfile`, and reports
for that pass:

* the calls it made (cProfile's call counts, builtins included), in total
  and per op, grouped by module of the ``repro`` package (``builtins`` for
  C functions, ``other`` for the standard library and ``bench/``), summed
  over the profiler's raw entries, one per function: ``pstats`` keys
  functions by (file, line, name) and keeps one of those that share a key,
  such as the ``__init__`` methods dataclasses generate (all ``<string>``),
  so its totals move with the order code objects happen to have;
* the garbage collections it triggered, per generation;
* the peak of the memory it allocates (:mod:`tracemalloc`'s peak of the
  traced bytes), from one more warm pass after the counted one, so that
  tracing changes no counted call.

Two more counts witness a workload's ``setup_s`` (an import timing plus
the median of three set-ups): ``modules_imported``, the modules that
``import bench.workloads`` adds to ``sys.modules`` beyond this tool's own
imports, and ``setup_calls``, the calls of one more set-up after the
traced pass, counted under :mod:`cProfile`.  That set-up is a warm one, as
the median of three set-ups is; only the first set-up imports modules
lazily, and an import's calls depend on whether its bytecode is cached.

cProfile sees only this process, and what a parent process does while
worker processes run depends on their timing; so the passes and the
counted set-up of a workload that forks workers (``sweep_parallel``,
``refine_batches``) run at ``workers=1`` here, and the report says so.

Each workload is counted in a fresh interpreter with a fixed hash seed, the
``PYTHONHASHSEED`` this tool runs under or ``0`` when that is unset: set
iteration order (seeded per process) steers a few loops, and caches one
workload fills change the calls of the next.  CI checks that hash seed 1
gives the same counts as seed 0.

``bench/`` is imported read-only; the passes write only to a temporary
directory.  Two runs of the same tree must print the same counts, so a
count that moves between two commits is a change in the work done::

    python3 tools/count_probe.py --workload sweep_serial --workload txn_openloop
    python3 tools/count_probe.py --smoke --out counts.json
    python3 tools/count_probe.py --root ../parent-checkout --out parent.json

``--out`` writes the counts (and nothing that varies run to run) as JSON,
so two runs compare with ``cmp``.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import os
import pathlib
import subprocess
import sys
import tempfile
import tracemalloc
from typing import Any, Optional, Sequence

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def _hash_seed() -> str:
    """The hash seed the counting children run under (``0`` by default)."""
    seed = os.environ.get("PYTHONHASHSEED", "random")
    return "0" if seed == "random" else seed


def _import_checkout(root: pathlib.Path) -> tuple[Any, pathlib.Path, int]:
    """Import ``bench.workloads`` and ``repro`` from the checkout at ``root``.

    Returns the workloads module, the directory of the ``repro`` package
    and the number of modules the import added to ``sys.modules``.
    """
    for entry in (root / "src", root):
        sys.path.insert(0, str(entry))
    before = len(sys.modules)
    from bench import workloads
    import repro

    return workloads, pathlib.Path(repro.__file__).resolve().parent, len(sys.modules) - before


def module_of(code: Any, package_dir: pathlib.Path) -> str:
    """The group a profiled function (a code object, or a builtin's name)
    belongs to."""
    if isinstance(code, str):
        return "builtins"
    path = pathlib.Path(code.co_filename).resolve()
    if path.is_relative_to(package_dir):
        return str(pathlib.PurePosixPath("repro", *path.relative_to(package_dir).parts))
    return "other"


def count_workload(workload: Any, package_dir: pathlib.Path) -> dict[str, Any]:
    """Set up ``workload``, run a warm pass, count one pass, trace the
    memory of one more, then count one more set-up."""
    with tempfile.TemporaryDirectory(prefix="count-probe-") as scratch:
        scratch_path = pathlib.Path(scratch)
        for name in ("setup", "warm", "counted", "peak", "setup-again"):
            (scratch_path / name).mkdir()
        workload.setup(scratch_path / "setup")
        in_process = {"workers": 1} if getattr(workload, "workers", 1) > 1 else {}
        workload.run_pass(scratch_path / "warm", **in_process)
        gc.collect()
        before = [generation["collections"] for generation in gc.get_stats()]
        profile = cProfile.Profile()
        profile.enable()
        result = workload.run_pass(scratch_path / "counted", **in_process)
        profile.disable()
        after = [generation["collections"] for generation in gc.get_stats()]
        gc.collect()
        tracemalloc.start()
        workload.run_pass(scratch_path / "peak", **in_process)
        peak_bytes = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        if in_process:
            workload.workers = 1  # the set-up takes no workers argument
        setup_profile = cProfile.Profile()
        setup_profile.runcall(workload.setup, scratch_path / "setup-again")
        if in_process:
            del workload.workers
    modules: dict[str, int] = {}
    for entry in profile.getstats():
        module = module_of(entry.code, package_dir)
        modules[module] = modules.get(module, 0) + entry.callcount
    calls = sum(modules.values())
    return {
        "op": workload.op,
        "ops": result.ops,
        "counted_at_workers_1": bool(in_process),
        "calls_per_pass": calls,
        "calls_per_op": round(calls / result.ops, 2),
        "setup_calls": sum(entry.callcount for entry in setup_profile.getstats()),
        "gc_collections": [end - start for start, end in zip(before, after)],
        "peak_traced_bytes": peak_bytes,
        "modules": dict(sorted(modules.items(), key=lambda item: (-item[1], item[0]))),
    }


def count_in_child(name: str, args: argparse.Namespace) -> dict[str, Any]:
    """Count workload ``name`` by running this tool on it alone, in a fresh
    interpreter with a fixed hash seed; the child prints its own table."""
    with tempfile.TemporaryDirectory(prefix="count-probe-") as scratch:
        out = pathlib.Path(scratch) / "counts.json"
        command = [
            sys.executable, __file__, "--workload", name, "--root", str(args.root),
            "--out", str(out), *(["--smoke"] if args.smoke else []),
        ]
        subprocess.run(command, check=True, env={**os.environ, "PYTHONHASHSEED": _hash_seed()})
        return json.loads(out.read_text())["workloads"][name]


def render(name: str, counts: dict[str, Any]) -> str:
    """One workload's counts as a plain-text table."""
    ops = counts["ops"]
    gc_text = "/".join(str(n) for n in counts["gc_collections"])
    lines = [
        f"{name}: {ops} {counts['op']}s, {counts['calls_per_pass']} calls "
        f"({counts['calls_per_op']} per {counts['op']}), gc collections {gc_text}, "
        f"tracemalloc peak {counts['peak_traced_bytes']} bytes"
        + (", counted at workers=1" if counts["counted_at_workers_1"] else ""),
        f"  set-up: {counts['setup_calls']} calls, "
        f"{counts['modules_imported']} modules imported by bench.workloads",
    ]
    for module, calls in counts["modules"].items():
        lines.append(f"  {module:<40} {calls:>10} {calls / ops:>10.2f}")
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", action="append", metavar="NAME",
        help="workload to count (repeatable; default: all seven)",
    )
    parser.add_argument("--smoke", action="store_true", help="the workloads' tiny inputs")
    parser.add_argument(
        "--root", type=pathlib.Path, default=REPO_ROOT,
        help="checkout whose src/ and bench/ are imported (default: this one)",
    )
    parser.add_argument("--out", type=pathlib.Path, help="write the counts as JSON here")
    args = parser.parse_args(argv)
    args.root = args.root.resolve()
    workloads, package_dir, modules_imported = _import_checkout(args.root)
    names = args.workload or list(workloads.WORKLOADS)
    unknown = sorted(set(names) - set(workloads.WORKLOADS))
    if unknown:
        parser.error(f"unknown workload(s): {', '.join(unknown)}")
    report: dict[str, Any] = {"smoke": args.smoke, "workloads": {}}
    if len(names) == 1 and os.environ.get("PYTHONHASHSEED") == _hash_seed():
        workload = workloads.WORKLOADS[names[0]](0, smoke=args.smoke)
        counts = count_workload(workload, package_dir)
        counts["modules_imported"] = modules_imported
        report["workloads"][names[0]] = counts
        print(render(names[0], counts), flush=True)
    else:
        for name in names:
            report["workloads"][name] = count_in_child(name, args)
    if args.out is not None:
        args.out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
