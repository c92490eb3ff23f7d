"""The unified ``--faults`` clause grammar, and its mapping onto the
exhaustive checker's fault envelopes for ``modelcheck``.
"""

from __future__ import annotations

import argparse
from typing import Optional

from repro.cli.common import UsageError


def parse_fault_clauses(values: list[str]):
    """The unified ``--faults`` grammar: ``KIND=ARGS`` clauses, comma-joined.

    Every fault-taking subcommand (``sweep``, ``throughput``, ``modelcheck``,
    ``shard``) shares this parser, so one spelling describes the same faults
    everywhere.  Clauses (repeatable, within one occurrence or across
    several)::

        crash=SITE:AT[:RECOVER_AT]       crash SITE at AT (recover later)
        loss=P[:SRC-DST]                 drop matching messages w.p. P
        dup=P[:SRC-DST]                  deliver matching messages twice w.p. P
        reorder=P[:WINDOW]               delay w.p. P by uniform(0, WINDOW*T)
        send-omission=SITE[:P]           SITE's sends vanish w.p. P (default 1)
        recv-omission=SITE[:P]           SITE's receives vanish w.p. P
        byzantine=SITE[:MODE]            MODE: equivocate (default) | arbitrary
        retransmit=on|off|MAX[:INTERVAL] at-least-once retransmission layer
        seed=N                           fault-injection RNG seed

    ``SRC-DST`` names one directed link; ``*`` (or ``0``) wildcards a side.
    Returns a :class:`~repro.sim.failures.FaultPlan`, or ``None`` for no
    values / a plan that normalizes to the identity; raises
    :class:`ValueError` naming the offending clause.
    """
    from repro.sim.failures import (
        BYZANTINE_MODES,
        ByzantineSpec,
        CrashEvent,
        EQUIVOCATE,
        FaultPlan,
        LinkFault,
        OmissionFault,
        RECEIVE_OMISSION,
        RetransmitPolicy,
        SEND_OMISSION,
        normalize_fault_plan,
    )

    if not values:
        return None

    def _site(token: str) -> int:
        return 0 if token == "*" else int(token)

    def _link_sides(token: str) -> tuple[int, int]:
        src, sep, dst = token.partition("-")
        if not sep:
            raise ValueError(f"expected SRC-DST (use '*' to wildcard), got {token!r}")
        return _site(src), _site(dst)

    crashes: list = []
    links: list = []
    omissions: list = []
    byzantine: list = []
    retransmit = None
    seed = 0
    for value in values:
        for clause in value.split(","):
            clause = clause.strip()
            if not clause:
                continue
            kind, sep, rest = clause.partition("=")
            if not sep or not rest:
                raise ValueError(f"expected KIND=ARGS, got {clause!r}")
            parts = rest.split(":")
            try:
                if kind == "crash":
                    if len(parts) not in (2, 3):
                        raise ValueError("expected SITE:AT[:RECOVER_AT]")
                    crashes.append(
                        CrashEvent(
                            time=float(parts[1]),
                            site=int(parts[0]),
                            recover_at=float(parts[2]) if len(parts) == 3 else None,
                        )
                    )
                elif kind in ("loss", "dup"):
                    if len(parts) not in (1, 2):
                        raise ValueError("expected P[:SRC-DST]")
                    src, dst = _link_sides(parts[1]) if len(parts) == 2 else (0, 0)
                    probability = float(parts[0])
                    if kind == "loss":
                        links.append(LinkFault(src=src, dst=dst, loss=probability))
                    else:
                        links.append(LinkFault(src=src, dst=dst, duplicate=probability))
                elif kind == "reorder":
                    if len(parts) not in (1, 2):
                        raise ValueError("expected P[:WINDOW]")
                    links.append(
                        LinkFault(
                            reorder=float(parts[0]),
                            reorder_window=float(parts[1]) if len(parts) == 2 else 1.0,
                        )
                    )
                elif kind in ("send-omission", "recv-omission"):
                    if len(parts) not in (1, 2):
                        raise ValueError("expected SITE[:P]")
                    omissions.append(
                        OmissionFault(
                            site=int(parts[0]),
                            kind=SEND_OMISSION if kind == "send-omission" else RECEIVE_OMISSION,
                            probability=float(parts[1]) if len(parts) == 2 else 1.0,
                        )
                    )
                elif kind == "byzantine":
                    if len(parts) not in (1, 2):
                        raise ValueError("expected SITE[:MODE]")
                    mode = parts[1] if len(parts) == 2 else EQUIVOCATE
                    if mode not in BYZANTINE_MODES:
                        raise ValueError(
                            f"mode must be one of {'/'.join(BYZANTINE_MODES)}, got {mode!r}"
                        )
                    byzantine.append(ByzantineSpec(site=int(parts[0]), mode=mode))
                elif kind == "retransmit":
                    if parts[0] == "off":
                        retransmit = None
                    elif parts[0] == "on":
                        retransmit = RetransmitPolicy()
                    else:
                        if len(parts) not in (1, 2):
                            raise ValueError("expected on|off|MAX_ATTEMPTS[:INTERVAL]")
                        retransmit = RetransmitPolicy(
                            max_attempts=int(parts[0]),
                            interval=float(parts[1]) if len(parts) == 2 else 0.8,
                        )
                elif kind == "seed":
                    seed = int(rest)
                else:
                    raise ValueError(
                        "unknown fault kind (expected crash, loss, dup, reorder, "
                        "send-omission, recv-omission, byzantine, retransmit or seed)"
                    )
            except ValueError as exc:
                raise ValueError(f"clause {clause!r}: {exc}") from None
    return normalize_fault_plan(
        FaultPlan(
            crashes=tuple(crashes),
            links=tuple(links),
            omissions=tuple(omissions),
            byzantine=tuple(byzantine),
            retransmit=retransmit,
            seed=seed,
        )
    )


def add_fault_options(parser: argparse.ArgumentParser) -> None:
    """The unified ``--faults`` flag (one grammar across every subcommand)."""
    parser.add_argument(
        "--faults",
        action="append",
        default=None,
        metavar="KIND=ARGS[,...]",
        help="fault clauses KIND=ARGS, comma-separated and repeatable: "
        "crash=SITE:AT[:RECOVER_AT], loss=P[:SRC-DST], dup=P[:SRC-DST], "
        "reorder=P[:WINDOW], send-omission=SITE[:P], recv-omission=SITE[:P], "
        "byzantine=SITE[:equivocate|arbitrary], "
        "retransmit=on|off|MAX[:INTERVAL], seed=N"
        "; modelcheck additionally accepts exhaustive envelope names "
        "(failure-free, single-crash, partition, lossy, "
        "lossy-retransmit, all) and maps clause plans onto them",
    )


def resolve_fault_plan(values: Optional[list[str]], n_sites: int):
    """The ``--faults`` plan validated for ``n_sites`` (``None`` = fault-free)."""
    try:
        plan = parse_fault_clauses(values or [])
        if plan is not None:
            plan.validate(n_sites)
    except ValueError as exc:
        raise UsageError(f"--faults: {exc}") from None
    return plan


def _envelope_for_plan(plan) -> str:
    """The exhaustive fault envelope covering a ``--faults`` clause plan.

    The checker abstracts probabilities away: any loss clause maps onto the
    ``lossy`` envelope (one adversarial silent loss, anywhere), loss with
    retransmission onto ``lossy-retransmit``, a crash clause onto
    ``single-crash``.  A reorder clause adds no edges -- the explorer
    already delivers outstanding messages in every order -- so it maps onto
    the envelope of the rest of the plan, provided retransmission is on:
    only then do the simulator's timers stretch by the reorder window
    (``effective_max_delay``), and without it a reordered message can land
    after a timeout, a timing failure no untimed envelope covers.  The other
    fault classes (dup / omission / byzantine) are a :class:`UsageError`.
    """
    from repro.core.reachability import (
        FAILURE_FREE,
        LOSSY,
        LOSSY_RETRANSMIT,
        SINGLE_CRASH,
    )

    classes = set(plan.fault_classes()) if plan is not None else set()
    if "reorder" in classes and plan.retransmit is None:
        raise UsageError(
            "--faults: reorder=... maps onto an exhaustive envelope only with "
            "retransmit=on, which stretches the timers by the reorder window; "
            "without it a reordered message can arrive after a timeout, which "
            "no untimed envelope covers (use the simulator -- repro sweep / "
            "repro throughput)"
        )
    classes.discard("reorder")
    unsupported = sorted(classes - {"loss", "crash"})
    if unsupported or classes == {"loss", "crash"}:
        raise UsageError(
            f"--faults: no exhaustive envelope covers "
            f"{unsupported or sorted(classes)}; the checker maps crash=..., "
            f"loss=..., loss=...,retransmit=on and reorder=...,retransmit=on "
            f"(use the simulator -- repro sweep / repro throughput -- for the "
            f"other fault classes)"
        )
    if "loss" in classes:
        if plan.retransmit is not None:
            return LOSSY_RETRANSMIT
        return LOSSY
    if "crash" in classes:
        return SINGLE_CRASH
    # A bare retransmit=on plan: retransmission restores assumption 1, so
    # the graph is the failure-free one by construction.
    return FAILURE_FREE


def modelcheck_envelopes(args: argparse.Namespace) -> list[str]:
    """``--faults`` values as fault envelopes.

    Accepts envelope names (``failure-free`` ... ``lossy-retransmit``,
    ``all`` = the classic trio) directly and maps clause-grammar plans via
    :func:`_envelope_for_plan`, so the unified ``--faults`` spelling works
    against the exhaustive checker too.
    """
    from repro.core.reachability import ALL_FAULT_ENVELOPES
    from repro.experiments.modelcheck import DEFAULT_FAULTS

    envelopes: list[str] = []
    for value in args.faults or ["all"]:
        if value == "all":
            envelopes.extend(DEFAULT_FAULTS)
        elif value in ALL_FAULT_ENVELOPES:
            envelopes.append(value)
        else:
            envelopes.append(
                _envelope_for_plan(resolve_fault_plan([value], args.sites))
            )
    return list(dict.fromkeys(envelopes))
