"""Regenerate ``golden_tables.json`` for test_golden_tables.py.

Run only when an experiment's numbers change *on purpose*::

    PYTHONPATH=src python tests/experiments/regen_golden_tables.py

``test_golden_tables.py`` imports ``RUNS`` from here, so the invocations
the goldens were captured with and the ones the test replays cannot drift
apart.
"""

import json
import pathlib

from repro import experiments as ex

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden_tables.json"

QUICK_TIMES = [0.5, 1.5, 2.25, 2.5, 3.25, 3.75, 4.5]

RUNS = {
    "FIG1": lambda: ex.run_fig1_two_phase(),
    "FIG2": lambda: ex.run_fig2_extended_two_phase(),
    "FIG3": lambda: ex.run_fig3_three_phase(),
    "FIG5": lambda: ex.run_fig5_timeouts(site_counts=(3, 4)),
    "FIG6": lambda: ex.run_fig6_probe_window(times=QUICK_TIMES),
    "FIG7": lambda: ex.run_fig7_wait_in_w(times=QUICK_TIMES),
    "FIG8": lambda: ex.run_fig8_termination(site_counts=(3,)),
    "FIG9": lambda: ex.run_fig9_wait_in_p(times=QUICK_TIMES),
    "SEC6": lambda: ex.run_sec6_cases(),
    "SEC7": lambda: ex.run_sec7_assumptions(),
    "THM10": lambda: ex.run_thm10_generalization(),
    "AVAIL": lambda: ex.run_availability_comparison(),
    "MSG": lambda: ex.run_message_overhead(),
    "MULTI": lambda: ex.run_multiple_partitioning(),
}


def main() -> None:
    golden = {}
    for name, fn in RUNS.items():
        report = fn()
        golden[name] = {
            "experiment": report.experiment,
            "title": report.title,
            "headline": report.headline,
            "table": report.table,
        }
    GOLDEN_PATH.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN_PATH} ({len(golden)} experiments)")


if __name__ == "__main__":
    main()
