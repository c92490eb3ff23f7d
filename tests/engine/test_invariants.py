"""Seeded randomized cross-protocol invariant suite.

From one fixed seed this module generates 240 random scenarios -- permanent
and transient simple partitions, failure-free runs, pessimistic-model runs
and slave crashes, over 3-6 sites with random splits, onset times, latency
models, vote patterns and simulator seeds -- and runs *every* protocol in
the registry over all of them through the sweep engine, and once more with
full traces (``traced_runs``) for the timing bounds.

The assertions encode the paper's claims per protocol class:

* every protocol, every scenario: committed stores never diverge;
* every protocol except the (deliberately broken) extended 2PC: a commit
  anywhere implies no site voted "no";
* the terminating protocols (Theorem 9 / Theorem 10): consistent on every
  optimistic simple partition, with every decision inside the 2T / 3T / 5T
  / 6T bounds of Figs. 5-7 and 9;
* the Section 6 rule: the transient-aware protocols also terminate
  transient partitions, while the no-transient variant blocks on one;
* the blocking protocols (2PC, 3PC, quorum): block but never violate
  atomicity under optimistic partitions;
* the Lemma 3 augmentations (extended 2PC, naive extended 3PC): violate
  atomicity somewhere in the random set.

Everything is deterministic: same seed, same scenarios, same verdicts,
regardless of worker count (see test_determinism.py).
"""

import math
import random

import pytest

from repro.analysis.timing import (
    measure_master_probe_window,
    measure_protocol_timeouts,
    measure_wait_after_timeout_in_p,
    measure_wait_after_timeout_in_w,
)
from repro.engine import SweepEngine, SweepTask, spec_hash
from repro.experiments.harness import traced_runs
from repro.protocols.registry import available_protocols
from repro.protocols.runner import ScenarioSpec
from repro.sim.failures import CrashSchedule
from repro.sim.latency import UniformLatency
from repro.sim.partition import PartitionSchedule

SEED = 20260727
EPS = 1e-9

NONBLOCKING = (
    "terminating-three-phase-commit",
    "terminating-three-phase-commit-no-transient",
    "terminating-quorum-commit",
)
TRANSIENT_AWARE = (
    "terminating-three-phase-commit",
    "terminating-quorum-commit",
)
BLOCKING = ("two-phase-commit", "three-phase-commit", "quorum-commit")
BROKEN = ("extended-two-phase-commit", "naive-extended-three-phase-commit")

def _random_split(rng: random.Random, n_sites: int):
    slaves = list(range(2, n_sites + 1))
    g2 = sorted(rng.sample(slaves, rng.randint(1, len(slaves))))
    g1 = sorted(set(range(1, n_sites + 1)) - set(g2))
    return g1, g2


def _random_latency(rng: random.Random):
    if rng.random() < 0.5:
        return None  # the default constant delay of T
    return UniformLatency(round(rng.uniform(0.2, 0.6), 2), 1.0)


def _random_no_voters(rng: random.Random, n_sites: int) -> frozenset[int]:
    return frozenset(s for s in range(2, n_sites + 1) if rng.random() < 0.15)


def generate_scenarios(seed: int = SEED) -> list[tuple[str, ScenarioSpec]]:
    """240 random ``(bucket, spec)`` scenarios from one fixed seed."""
    rng = random.Random(seed)
    scenarios: list[tuple[str, ScenarioSpec]] = []
    for _ in range(120):  # the Theorem 9 class: permanent simple partitions
        n = rng.randint(3, 5)
        g1, g2 = _random_split(rng, n)
        at = round(rng.uniform(0.25, 8.0), 2)
        scenarios.append(
            (
                "theorem9",
                ScenarioSpec(
                    n_sites=n,
                    partition=PartitionSchedule.simple(at, g1, g2),
                    latency=_random_latency(rng),
                    no_voters=_random_no_voters(rng, n),
                    seed=rng.randrange(10**6),
                ),
            )
        )
    for _ in range(48):  # the Section 6 class: transient simple partitions
        n = rng.randint(3, 5)
        g1, g2 = _random_split(rng, n)
        at = round(rng.uniform(0.25, 8.0), 2)
        heal = round(at + rng.uniform(0.5, 6.0), 2)
        scenarios.append(
            (
                "transient",
                ScenarioSpec(
                    n_sites=n,
                    partition=PartitionSchedule.transient(at, heal, g1, g2),
                    latency=_random_latency(rng),
                    no_voters=_random_no_voters(rng, n),
                    seed=rng.randrange(10**6),
                ),
            )
        )
    for _ in range(24):  # failure-free runs (the Fig. 5 timing class)
        n = rng.randint(3, 6)
        scenarios.append(
            (
                "failure_free",
                ScenarioSpec(
                    n_sites=n,
                    latency=_random_latency(rng),
                    no_voters=_random_no_voters(rng, n),
                    seed=rng.randrange(10**6),
                ),
            )
        )
    for _ in range(24):  # outside assumption 1: the pessimistic model
        n = rng.randint(3, 5)
        g1, g2 = _random_split(rng, n)
        at = round(rng.uniform(0.25, 8.0), 2)
        scenarios.append(
            (
                "pessimistic",
                ScenarioSpec(
                    n_sites=n,
                    partition=PartitionSchedule.simple(at, g1, g2),
                    model="pessimistic",
                    latency=_random_latency(rng),
                    no_voters=_random_no_voters(rng, n),
                    seed=rng.randrange(10**6),
                ),
            )
        )
    for _ in range(24):  # outside assumptions 3-4: slave crashes
        n = rng.randint(3, 5)
        site = rng.randint(2, n)
        at = round(rng.uniform(0.25, 8.0), 2)
        recover = round(at + rng.uniform(1.0, 8.0), 2) if rng.random() < 0.5 else None
        partition = None
        if rng.random() < 0.5:
            g1, g2 = _random_split(rng, n)
            partition = PartitionSchedule.simple(
                round(rng.uniform(0.25, 8.0), 2), g1, g2
            )
        scenarios.append(
            (
                "crash",
                ScenarioSpec(
                    n_sites=n,
                    partition=partition,
                    crashes=CrashSchedule.single(site, at=at, recover_at=recover),
                    latency=_random_latency(rng),
                    no_voters=_random_no_voters(rng, n),
                    seed=rng.randrange(10**6),
                ),
            )
        )
    return scenarios


OPTIMISTIC_BUCKETS = ("theorem9", "transient", "failure_free")


@pytest.fixture(scope="module")
def scenarios():
    return generate_scenarios()


@pytest.fixture(scope="module")
def verdicts(scenarios):
    """``protocol -> [(bucket, summary), ...]`` over the whole random set."""
    engine = SweepEngine(workers=1)
    out = {}
    for protocol in available_protocols():
        tasks = [SweepTask(protocol=protocol, spec=spec) for _, spec in scenarios]
        summaries = engine.run(tasks).summaries
        out[protocol] = [
            (bucket, summary)
            for (bucket, _), summary in zip(scenarios, summaries)
        ]
    return out


@pytest.fixture(scope="module")
def timings(scenarios):
    """``protocol -> [(bucket, T, waits), ...]``: the Figs. 5-7 and 9
    quantities of every run, read from its full trace."""
    out = {}
    for protocol in available_protocols():
        tasks = [SweepTask(protocol=protocol, spec=spec) for _, spec in scenarios]
        out[protocol] = [
            (
                bucket,
                result.max_delay,
                {
                    "timeouts": measure_protocol_timeouts(result),
                    "probe_window": measure_master_probe_window(result),
                    "wait_in_w": measure_wait_after_timeout_in_w(result),
                    "wait_in_p": measure_wait_after_timeout_in_p(result),
                },
            )
            for (bucket, _), result in zip(scenarios, traced_runs(tasks))
        ]
    return out


class TestGenerator:
    def test_at_least_200_scenarios_in_every_class(self, scenarios):
        assert len(scenarios) >= 200
        buckets = {bucket for bucket, _ in scenarios}
        assert buckets == {"theorem9", "transient", "failure_free", "pessimistic", "crash"}

    def test_generation_is_deterministic(self, scenarios):
        regenerated = generate_scenarios(SEED)
        assert [
            spec_hash("x", spec) for _, spec in scenarios
        ] == [spec_hash("x", spec) for _, spec in regenerated]

    def test_covers_every_registry_protocol(self, verdicts):
        assert sorted(verdicts) == available_protocols()


class TestUniversalInvariants:
    def test_committed_stores_never_diverge(self, verdicts):
        for protocol, runs in verdicts.items():
            for _, summary in runs:
                assert summary.stores_agree, f"{protocol}: {summary.summary()}"

    def test_commit_implies_unanimous_yes_votes(self, verdicts):
        # Holds for every protocol except extended 2PC, whose Rule (a)
        # timeout-commit from w is exactly the defect Lemma 3 exposes.
        for protocol, runs in verdicts.items():
            if protocol == "extended-two-phase-commit":
                continue
            for _, summary in runs:
                if summary.committed_sites:
                    votes = set(summary.votes.values())
                    assert "no" not in votes, f"{protocol}: {summary.summary()}"

    def test_extended_two_phase_commits_despite_a_no_vote_somewhere(self, verdicts):
        witnesses = [
            summary
            for _, summary in verdicts["extended-two-phase-commit"]
            if summary.committed_sites and "no" in set(summary.votes.values())
        ]
        assert witnesses, "expected the Rule (a)/(b) defect to show up"


class TestNonblockingProtocols:
    def test_consistent_on_every_optimistic_permanent_partition(self, verdicts):
        for protocol in NONBLOCKING:
            for bucket, summary in verdicts[protocol]:
                if bucket not in ("theorem9", "failure_free"):
                    continue
                assert summary.consistent, f"{protocol}: {summary.summary()}"
                assert summary.conflicting_decisions == 0

    def test_transient_rule_terminates_transient_partitions(self, verdicts):
        for protocol in TRANSIENT_AWARE:
            for bucket, summary in verdicts[protocol]:
                if bucket == "transient":
                    assert summary.consistent, f"{protocol}: {summary.summary()}"

    def test_no_transient_variant_blocks_on_some_transient_partition(self, verdicts):
        runs = verdicts["terminating-three-phase-commit-no-transient"]
        blocked = [s for b, s in runs if b == "transient" and s.blocked]
        violated = [s for b, s in runs if b == "transient" and s.atomicity_violated]
        assert blocked, "the Section 6 rule should be load-bearing somewhere"
        assert not violated

    def test_decisions_within_paper_bounds(self, timings):
        # Figs. 6, 7, 9: after an UD(prepare) the master collects probes for
        # at most 5T; a slave that timed out in w decides within 6T; a slave
        # that timed out in p decides within 5T.  Finite waits only: the one
        # unbounded case (3.2.2.2) is the no-transient variant blocking on a
        # transient partition, asserted above.
        for protocol in NONBLOCKING:
            for bucket, bound_t, waits in timings[protocol]:
                if bucket not in OPTIMISTIC_BUCKETS:
                    continue
                for wait in waits["wait_in_w"].values():
                    if not math.isinf(wait):
                        assert wait <= 6 * bound_t + EPS, f"{protocol}: {wait}"
                for wait in waits["wait_in_p"].values():
                    if not math.isinf(wait):
                        assert wait <= 5 * bound_t + EPS, f"{protocol}: {wait}"
                gap = waits["probe_window"]
                if gap is not None:
                    assert gap <= 5 * bound_t + EPS, f"{protocol}: {gap}"

    def test_nothing_blocks_after_a_timeout_on_permanent_partitions(self, timings):
        for protocol in NONBLOCKING:
            for bucket, _, waits in timings[protocol]:
                if bucket not in ("theorem9", "failure_free"):
                    continue
                after_timeout = {**waits["wait_in_w"], **waits["wait_in_p"]}
                assert not any(math.isinf(w) for w in after_timeout.values())


class TestFig5TimeoutIntervals:
    def test_failure_free_rounds_within_2t_and_3t(self, timings):
        for protocol, runs in timings.items():
            for bucket, bound_t, measured in runs:
                if bucket != "failure_free":
                    continue
                waits = measured["timeouts"]
                if waits["master_round_trip"] is not None:
                    assert waits["master_round_trip"] <= 2 * bound_t + EPS, protocol
                if waits["slave_wait"] is not None:
                    assert waits["slave_wait"] <= 3 * bound_t + EPS, protocol


class TestBlockingAndBrokenProtocols:
    def test_blocking_protocols_never_violate_atomicity_under_partitions(self, verdicts):
        for protocol in BLOCKING:
            for bucket, summary in verdicts[protocol]:
                if bucket in OPTIMISTIC_BUCKETS:
                    assert not summary.atomicity_violated, (
                        f"{protocol}: {summary.summary()}"
                    )

    def test_blocking_protocols_do_block_somewhere(self, verdicts):
        for protocol in BLOCKING:
            blocked = [
                s for b, s in verdicts[protocol] if b == "theorem9" and s.blocked
            ]
            assert blocked, f"{protocol} should block under permanent partitions"

    def test_lemma3_augmentations_violate_atomicity_somewhere(self, verdicts):
        for protocol in BROKEN:
            violations = [
                s
                for b, s in verdicts[protocol]
                if b == "theorem9" and s.atomicity_violated
            ]
            assert violations, f"{protocol} should violate atomicity (Lemma 3)"
