"""Working with the formal model: concurrency sets, rules, lemmas, Theorem 10.

The paper's structural results are computed, not quoted: this example
explores the reachable global states of the catalogued commit protocols,
prints their concurrency and sender sets, applies Rule (a)/(b) to regenerate
the extended protocol of Fig. 2, evaluates Lemma 1 / Lemma 2, and derives the
Theorem 10 termination plan for the quorum-commit skeleton.

Run with::

    python examples/formal_model_analysis.py
"""

from repro.core import (
    analyze,
    augment_with_rules,
    check_nonblocking_conditions,
    check_theorem10_conditions,
    quorum_commit,
    three_phase_commit,
    two_phase_commit,
)
from repro.core.concurrency import format_analysis


def main() -> None:
    print("=== concurrency analysis: two-phase commit, 3 sites ===")
    analysis_2pc = analyze(two_phase_commit(), 3)
    print(format_analysis(analysis_2pc))
    print()

    print("=== concurrency analysis: three-phase commit, 3 sites ===")
    analysis_3pc = analyze(three_phase_commit(), 3)
    print(format_analysis(analysis_3pc))
    print()

    print("=== Rule (a)/(b) augmentation (reproduces Fig. 2 for two sites) ===")
    print(augment_with_rules(two_phase_commit(), 2).describe())
    print()
    print("=== the same rules applied to 3PC (the Section 3 'naive' extension) ===")
    print(augment_with_rules(three_phase_commit(), 3).describe())
    print()

    print("=== Lemma 1 / Lemma 2 ===")
    for spec in (two_phase_commit(), three_phase_commit(), quorum_commit()):
        print(" ", check_nonblocking_conditions(spec, 3).summary())
    print()

    print("=== Theorem 10: deriving the termination plan for the quorum protocol ===")
    report = check_theorem10_conditions(quorum_commit(), 3)
    plan = report.plan
    print(f"  structural conditions hold: {report.structural_conditions_hold}")
    print(f"  promotion message m        : {plan.promotion_message}")
    print(f"  acknowledgement            : {plan.acknowledgement}")
    print(f"  noncommittable -> committable: {plan.noncommittable_state} -> {plan.committable_state}")
    print(
        "\nThe executable protocol 'terminating-quorum-commit' is built from exactly this plan; "
        "run `python -m repro run THM10` for its resilience sweep."
    )


if __name__ == "__main__":
    main()
