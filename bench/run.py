"""Run the benchmark: one workload per process, or all seven in turn.

Driver form (one run, one fresh interpreter)::

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1

prints the metrics by name and unit and, as the last line of standard
output, one JSON object ``{"correct", "attempted", "failed", "metrics"}``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Without ``--workload`` every workload runs, each in its own
child process, and ``--out FILE`` appends one JSON line per run for
``bench/compare.py``.  See ``bench/README.md`` for the method.
"""

from __future__ import annotations

import time

_PROCESS_STARTED = time.perf_counter()

import argparse
import json
import pathlib
import shutil
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [entry["name"] for entry in SPEC["workloads"]]
END_TO_END = {entry["name"]: entry["unit"] for entry in SPEC["end_to_end"]}
PER_LAYER = {entry["name"]: entry["unit"] for entry in SPEC["per_layer"]}
EXPECTED_DIR = ROOT / "bench" / "expected"

SETUP_REPEATS = 3
MIN_PASSES = 3


def _find_program() -> None:
    """Put ``src/`` on ``sys.path``; exit 2 where there is no program to measure.

    The program (and ``bench.workloads`` / ``bench.probes``, which import
    it) is imported by the run functions, after this check.
    """
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        print(f"bench: no program to measure: {source / 'repro'} is missing", file=sys.stderr)
        raise SystemExit(2)
    if str(source) not in sys.path:
        sys.path.insert(0, str(source))


def _check_pass(workload, result, scratch, args) -> list:
    """Invariant checks plus, for seed 0 at full scale, the committed digest."""
    from bench.workloads import Failure

    try:
        failures = workload.check(result, scratch)
    except Exception as exc:  # a check that raises is a failed check
        failures = [Failure("check-raised", result.ops, f"{type(exc).__name__}: {exc}")]
    if failures or args.smoke or args.seed != 0:
        return failures
    # Through JSON and back, so the digest compares equal to the file's.
    digest = json.loads(json.dumps(workload.digest(result)))
    path = EXPECTED_DIR / f"{workload.name}-seed0.json"
    if args.regen_expected:
        path.write_text(json.dumps(digest, indent=1, sort_keys=True) + "\n")
    elif not path.is_file():
        failures.append(Failure("expected-digest", 1, f"{path} is missing; run --regen-expected"))
    elif json.loads(path.read_text()) != digest:
        failures.append(
            Failure("expected-digest", 1, f"seed-0 verdict table differs from {path.name}")
        )
    return failures


def _report(workload_name: str, metrics: dict, units: dict, failures: list, attempted: int) -> int:
    """Print metrics by name and unit, failures, and the final JSON line."""
    for name, value in metrics.items():
        print(f"{workload_name}  {name} = {value:.6g} {units[name]}")
    failed = min(attempted, sum(f.failed_ops for f in failures))
    for failure in failures:
        print(
            f"bench: FAILED {workload_name}: {failure.check}: {failure.detail}", file=sys.stderr
        )
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]} for name, value in metrics.items()
                },
            }
        )
    )
    return 1 if failures else 0


def run_plain(args) -> int:
    """End-to-end run: repeated set-up, timed passes, checks."""
    from bench import harness, workloads

    import_seconds = time.perf_counter() - _PROCESS_STARTED if args.fresh_process else 0.0
    workload = workloads.WORKLOADS[args.workload](args.seed, smoke=args.smoke)
    with harness.scratch_dir() as scratch:
        setup_seconds = []
        for index in range(1 if args.smoke else SETUP_REPEATS):
            setup_dir = scratch / f"setup-{index}"
            setup_dir.mkdir()
            started = time.perf_counter()
            workload.setup(setup_dir)
            setup_seconds.append(time.perf_counter() - started)
            if index:
                shutil.rmtree(scratch / f"setup-{index - 1}", ignore_errors=True)
        passes = harness.timed_passes(
            workload.run_pass,
            scratch,
            seconds=0.0 if args.smoke else args.seconds,
            min_passes=1 if args.smoke else MIN_PASSES,
        )
        last = passes[-1][1]
        failures = _check_pass(workload, last, scratch, args)
        if len({result.ops for _, result in passes}) != 1:
            failures.append(workloads.Failure("passes-agree", 1, "passes did different amounts of work"))
    rates = [result.ops / seconds for seconds, result in passes]
    print(
        f"{workload.name}  seed {args.seed}  {len(passes)} passes of {last.ops} {workload.op}s, "
        f"{sum(s for s, _ in passes):.2f} s measured, usable_cpus {harness.usable_cpus()}, "
        f"inputs {workload.fingerprint()[:12]}"
    )
    metrics = {
        "ops_per_s": harness.steady_rate(rates),
        "setup_s": import_seconds + statistics.median(setup_seconds),
        "peak_rss_mb": harness.peak_rss_mb(),
    }
    attempted = sum(result.ops for _, result in passes)
    return _report(workload.name, metrics, END_TO_END, failures, attempted)


def run_traced(args) -> int:
    """Traced run: registry passes, a span-ledger replay, and layer probes."""
    from bench import harness, probes, workloads
    from repro.obs.metrics import MetricsRegistry

    workload = workloads.WORKLOADS[args.workload](args.seed, smoke=args.smoke)
    ledger = harness.SpanLedger(f"{workload.name}-seed{args.seed}")
    with harness.scratch_dir() as scratch:
        setup_dir = scratch / "setup"
        setup_dir.mkdir()
        workload.setup(setup_dir)

        def one_pass(label: str, **kwargs):
            pass_dir = scratch / label
            pass_dir.mkdir()
            started = time.perf_counter()
            result = workload.run_pass(pass_dir, **kwargs)
            return time.perf_counter() - started, result, pass_dir

        # Untraced and registry-traced passes interleaved; their medians
        # give the tracing overhead.  The last untraced pass runs after the
        # replay, so the replay is compared with passes on both sides of it
        # (a disk that has been busy for ten seconds is slower than an idle one).
        untraced, traced = [], []
        for round_index in range(1 if args.smoke else 2):
            untraced.append(one_pass(f"plain-{round_index}"))
            registry = MetricsRegistry()
            traced.append(one_pass(f"traced-{round_index}", metrics=registry))
        captured_seconds, captured, _ = one_pass("captured", capture=True)
        replay_dir = scratch / "replay"
        replay_dir.mkdir()
        replay_ops, replay_sha = ledger.call(
            "bench.replay", workload.replay, ledger, replay_dir
        )
        if not args.smoke:
            untraced.append(one_pass("plain-last"))

        failures = _check_pass(workload, captured, scratch, args)
        if replay_sha != captured.bytes_sha or replay_ops != captured.ops:
            failures.append(
                workloads.Failure("replay-bytes-identical", captured.ops,
                        "the span-ledger replay's summaries differ from the engine's")
            )

        traced_seconds, traced_result, _ = traced[-1]
        untraced_seconds = statistics.median(seconds for seconds, _, _ in untraced)
        context = probes.TraceContext(
            workload=workload,
            scratch=scratch,
            snapshot=registry.snapshot(),
            traced=traced_result,
            traced_seconds=traced_seconds,
            ledger=ledger,
            smoke=args.smoke,
        )
        metrics = dict.fromkeys(PER_LAYER, 0.0)
        metrics.update(probes.LAYER_METRICS[workload.name](context))

    self_seconds = sum(
        seconds for name, seconds in ledger.self_times().items() if name != "bench.replay"
    )
    rates = [result.ops / seconds for seconds, result, _ in untraced]
    # The share of an untraced pass that the replay's layer calls do not
    # account for: the program's own orchestration, or overlap between workers.
    metrics["bench.ledger_residual_share"] = 1.0 - self_seconds / untraced_seconds
    metrics["bench.pass_spread"] = (max(rates) - min(rates)) / statistics.median(rates)
    metrics["obs.metrics.enabled_overhead_share"] = (
        statistics.median(seconds for seconds, _, _ in traced) / untraced_seconds - 1.0
    )
    if args.trace_out:
        ledger.write_ndjson(pathlib.Path(args.trace_out))
    print(
        f"{workload.name}  seed {args.seed}  traced: {len(ledger)} spans, "
        f"captured pass {captured_seconds:.2f} s, inputs {workload.fingerprint()[:12]}"
    )
    return _report(workload.name, {k: float(v) for k, v in metrics.items()},
                   PER_LAYER, failures, captured.ops)


def run_all(args) -> int:
    """Every workload in its own fresh interpreter; optional NDJSON record."""
    status = 0
    for name in WORKLOAD_NAMES:
        command = [
            sys.executable, str(pathlib.Path(__file__).resolve()),
            "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        command += ["--smoke"] if args.smoke else []
        command += ["--regen-expected"] if args.regen_expected else []
        if args.trace_out:
            command += ["--trace-out", f"{args.trace_out}.{name}"]
        child = subprocess.run(command, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        sys.stdout.write(child.stdout)
        status = status or child.returncode
        lines = child.stdout.strip().splitlines()
        if args.out and child.returncode in (0, 1) and lines:
            record = {
                "workload": name, "seed": args.seed, "trace": args.trace,
                "seconds": args.seconds, "result": json.loads(lines[-1]),
            }
            with open(args.out, "a", encoding="utf-8") as handle:
                handle.write(json.dumps(record) + "\n")
    return status


def main(argv=None, *, fresh_process: bool = False) -> int:
    """Parse arguments and run; the exit code is non-zero on a failed check."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, default=None,
                        help="run one workload in this process (default: all, one child each)")
    parser.add_argument("--seed", type=int, default=0, help="input seed (default 0)")
    parser.add_argument("--seconds", type=float, default=float(SPEC["run_seconds"]),
                        help="seconds of timed passes per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 = traced run printing the per-layer metrics")
    parser.add_argument("--traced", dest="trace", action="store_const", const=1,
                        help="same as --trace 1")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, one pass: exercises every code path in well under a second")
    parser.add_argument("--trace-out", metavar="PATH", default=None,
                        help="write the traced run's spans here as NDJSON")
    parser.add_argument("--out", metavar="FILE", default=None,
                        help="(all workloads) append one JSON line per run for bench/compare.py")
    parser.add_argument("--regen-expected", action="store_true",
                        help="rewrite bench/expected/*-seed0.json; refused unless every invariant check passes")
    args = parser.parse_args(argv)
    args.fresh_process = fresh_process
    if args.regen_expected and (args.seed != 0 or args.smoke):
        parser.error("--regen-expected needs --seed 0 at full scale")
    _find_program()
    if args.workload is None:
        return run_all(args)
    return run_traced(args) if args.trace else run_plain(args)


if __name__ == "__main__":
    sys.exit(main(fresh_process=True))
