"""The plain-data record one model-checking run reduces to.

:class:`ModelCheckSummary` is to the MODELCHECK kind what
:class:`~repro.engine.summary.RunSummary` is to the scenario kind: a
picklable, canonically-JSON-serializable record carrying the engine
plumbing fields (``protocol``, ``spec_hash``, ``seed``, ``metrics``) plus
the checker's results -- states/edges explored, frontier depth, a
per-invariant verdict map and the serialized minimal counterexample
traces.  Payloads are tagged ``"kind": "modelcheck"`` so the result cache,
JSONL spills and ``repro merge`` dispatch them to this codec.

Like its siblings, this module imports nothing from :mod:`repro.engine`;
the engine reaches it through the spec-kind registry.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Mapping, NamedTuple

from repro.core.canonical import canonical_json_bytes


class Invariant(NamedTuple):
    """One checked invariant: its name, its verdict class, its table column."""

    name: str
    #: True: a violation makes the verdict ``violated``; False: ``blocked``.
    safety: bool
    #: Column header of the ``repro modelcheck`` table.
    column: str


#: The invariant table, in report order; the checker, the verdicts below and
#: the sink all read it (:mod:`repro.modelcheck.checker` states each one).
INVARIANTS = (
    Invariant("same-decision", True, "same-decision"),
    Invariant("no-commit-after-abort", True, "no commit-after-abort"),
    Invariant("commit-requires-votes", True, "commit-requires-votes"),
    Invariant("no-blocking", False, "non-blocking"),
)


@dataclass
class ModelCheckSummary:
    """The outcome of one exhaustive model-checking run, as plain data."""

    protocol: str
    spec_hash: str
    seed: int
    n_sites: int
    fault: str
    states_explored: int = 0
    edges_explored: int = 0
    frontier_depth: int = 0
    #: False when a ``max_depth`` budget truncated the exploration; the
    #: verdicts then cover only the explored subgraph.
    complete: bool = True
    #: invariant name -> ``"holds"`` | ``"violated"``.
    invariants: dict[str, str] = field(default_factory=dict)
    #: invariant name -> serialized counterexample steps (violated only).
    counterexamples: dict[str, list[dict[str, Any]]] = field(default_factory=dict)
    metrics: dict[str, Any] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # verdicts
    # ------------------------------------------------------------------
    def invariant_holds(self, name: str) -> bool:
        """True when the named invariant was checked and holds."""
        return self.invariants.get(name) == "holds"

    def _violated(self, safety: bool) -> bool:
        return any(
            self.invariants.get(invariant.name) == "violated"
            for invariant in INVARIANTS
            if invariant.safety == safety
        )

    @property
    def atomicity_violated(self) -> bool:
        """True when any safety invariant is violated somewhere reachable."""
        return self._violated(safety=True)

    @property
    def blocked(self) -> bool:
        """True when some terminal state strands a surviving site undecided."""
        return self._violated(safety=False)

    @property
    def consistent(self) -> bool:
        """Every invariant holds over the whole explored graph."""
        return not self.atomicity_violated and not self.blocked

    @property
    def verdict(self) -> str:
        """``violated`` / ``blocked`` / ``consistent``.

        Same precedence as :attr:`~repro.engine.summary.RunSummary.verdict`
        so the differential harness compares like with like; note the
        checker quantifies over *all* reachable executions where one
        simulator run samples a single schedule.
        """
        if self.atomicity_violated:
            return "violated"
        if self.blocked:
            return "blocked"
        return "consistent"

    def counterexample(self, name: str) -> list[dict[str, Any]]:
        """Serialized counterexample steps for ``name`` ([] when it holds)."""
        return self.counterexamples.get(name, [])

    def format_counterexample(self, name: str) -> str:
        """Human-readable rendering of one counterexample trace."""
        steps = self.counterexample(name)
        if not steps:
            return f"  (no counterexample: {name} holds)"
        lines = []
        for step in steps:
            locals_vector = ", ".join(step["locals"])
            lines.append(
                f"  {step['step'] + 1}. site {step['site']} {step['label']}"
                f"  =>  ({locals_vector})"
            )
        return "\n".join(lines)

    def summary(self) -> str:
        """One-line human-readable outcome."""
        violated = sorted(
            name for name, v in self.invariants.items() if v == "violated"
        )
        suffix = f" violating {', '.join(violated)}" if violated else ""
        return (
            f"{self.protocol} [{self.fault}, n={self.n_sites}]: "
            f"{self.states_explored} states / {self.edges_explored} edges "
            f"to depth {self.frontier_depth} -> {self.verdict}{suffix}"
        )

    # ------------------------------------------------------------------
    # canonical JSON (cache + JSONL spill format)
    # ------------------------------------------------------------------
    def to_json_dict(self) -> dict[str, Any]:
        """A JSON-ready dict; ``kind`` tags the record for cache dispatch."""
        return {
            "kind": "modelcheck",
            "protocol": self.protocol,
            "spec_hash": self.spec_hash,
            "seed": self.seed,
            "n_sites": self.n_sites,
            "fault": self.fault,
            "states_explored": self.states_explored,
            "edges_explored": self.edges_explored,
            "frontier_depth": self.frontier_depth,
            "complete": self.complete,
            "invariants": dict(sorted(self.invariants.items())),
            "counterexamples": {
                name: steps
                for name, steps in sorted(self.counterexamples.items())
            },
            "metrics": self.metrics,
        }

    @classmethod
    def from_json_dict(cls, payload: Mapping[str, Any]) -> "ModelCheckSummary":
        """Rebuild a summary from :meth:`to_json_dict` output."""
        data = {k: v for k, v in payload.items() if k != "kind"}
        data["invariants"] = dict(data.get("invariants", {}))
        data["counterexamples"] = {
            name: [dict(step) for step in steps]
            for name, steps in data.get("counterexamples", {}).items()
        }
        data["metrics"] = dict(data.get("metrics", {}))
        return cls(**data)

    def to_json_bytes(self) -> bytes:
        """Canonical JSON bytes (shared contract: :mod:`repro.core.canonical`)."""
        return canonical_json_bytes(self.to_json_dict())

    @classmethod
    def from_json_bytes(cls, data: bytes) -> "ModelCheckSummary":
        """Inverse of :meth:`to_json_bytes`."""
        return cls.from_json_dict(json.loads(data.decode("utf-8")))
