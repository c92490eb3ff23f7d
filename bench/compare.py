"""Compare two sets of benchmark runs under the bounds of ``BENCHMARK.json``.

    python3 bench/compare.py A.json B.json

``A.json`` (the base) and ``B.json`` (the change) are the files
``bench/run.py --out`` appends to: one JSON line per run.  For every
(end-to-end metric, workload) pair the medians are compared in the
metric's own direction and the row reads

* ``ok``          -- B's median is no worse than A's by more than the bound;
* ``regressed``   -- it is worse by more than the bound;
* ``unresolved``  -- the run-to-run spread of either side (interquartile
  range over median) is wider than the bound, so the runs cannot tell,
  unless every run of B reads better than every run of A.

Every ratio is printed with its base (A's median).  Exact-repeat counts of
traced runs must be identical between the two files.  Exit code 1 on a
regression or a count mismatch, 0 otherwise.  Comparing a file with itself
prints each metric's spread, the number the bounds were sized from.
"""

from __future__ import annotations

import json
import pathlib
import statistics
import sys
from collections import defaultdict

ROOT = pathlib.Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from bench.harness import EXACT_COUNTS  # noqa: E402  (needs ROOT on sys.path)

def load(path: str) -> list[dict]:
    """The runs recorded in one ``--out`` file."""
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def spread(values: list[float]) -> float:
    """Interquartile range over the median (0 with fewer than two runs)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(statistics.median(values))


def end_to_end_values(runs: list[dict]) -> dict[tuple[str, str], list[float]]:
    """``(workload, metric) -> values`` over the untraced runs."""
    values: dict[tuple[str, str], list[float]] = defaultdict(list)
    for run in runs:
        if run["trace"]:
            continue
        for name, metric in run["result"]["metrics"].items():
            values[(run["workload"], name)].append(metric["value"])
    return values


def exact_counts(runs: list[dict]) -> dict[tuple[str, int, str], float]:
    """``(workload, seed, metric) -> count`` over the traced runs."""
    counts = {}
    for run in runs:
        if not run["trace"]:
            continue
        for name in EXACT_COUNTS:
            metric = run["result"]["metrics"].get(name)
            if metric is not None:
                counts[(run["workload"], run["seed"], name)] = metric["value"]
    return counts


def main(argv: list[str]) -> int:
    """Print one row per (workload, end-to-end metric); 1 on a regression."""
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs_a, runs_b = load(argv[0]), load(argv[1])
    values_a, values_b = end_to_end_values(runs_a), end_to_end_values(runs_b)
    status = 0
    for run in runs_a + runs_b:
        if not run["result"]["correct"]:
            print(f"FAILED CHECK  {run['workload']} seed {run['seed']}: outputs were wrong")
            status = 1
    print(f"{'workload':<22} {'metric':<12} {'A median':>12} {'B median':>12} "
          f"{'B/A':>7} {'spread A':>9} {'spread B':>9} {'bound':>6}  verdict")
    for workload in (entry["name"] for entry in spec["workloads"]):
        for metric in spec["end_to_end"]:
            a = values_a.get((workload, metric["name"]), [])
            b = values_b.get((workload, metric["name"]), [])
            if not a or not b:
                continue
            median_a, median_b = statistics.median(a), statistics.median(b)
            higher = metric["better"] == "higher"
            worse_by = (median_a - median_b if higher else median_b - median_a) / median_a
            all_better = min(b) > max(a) if higher else max(b) < min(a)
            spread_a, spread_b = spread(a), spread(b)
            if max(spread_a, spread_b) > metric["bound"] and not all_better:
                verdict = "unresolved"
            elif worse_by > metric["bound"]:
                verdict = "regressed"
                status = 1
            else:
                verdict = "ok"
            print(f"{workload:<22} {metric['name']:<12} {median_a:>12.6g} {median_b:>12.6g} "
                  f"{median_b / median_a:>7.3f} {spread_a:>9.3f} {spread_b:>9.3f} "
                  f"{metric['bound']:>6.2f}  {verdict} (n={len(a)}/{len(b)}, base A)")
    counts_a, counts_b = exact_counts(runs_a), exact_counts(runs_b)
    mismatched = [key for key in counts_a.keys() & counts_b.keys() if counts_a[key] != counts_b[key]]
    for workload, seed, name in sorted(mismatched):
        print(f"COUNT MISMATCH  {workload} seed {seed} {name}: "
              f"A {counts_a[(workload, seed, name)]!r} != B {counts_b[(workload, seed, name)]!r}")
        status = 1
    shared = len(counts_a.keys() & counts_b.keys())
    print(f"exact-repeat counts: {shared - len(mismatched)} of {shared} shared counts identical")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
