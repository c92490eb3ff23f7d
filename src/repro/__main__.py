"""Command-line entry point: regenerate experiments, or run custom sweeps.

Usage::

    python -m repro list
    python -m repro run FIG8
    python -m repro run SEC6 FIG5 AVAIL
    python -m repro all
    python -m repro sweep --workers 4 --sites 4 --protocol all
    python -m repro sweep --protocol terminating-three-phase-commit \\
        --times 0.5 1.5 2.5 --heal-after 2.0 --cache .sweep-cache
    python -m repro sweep --protocol all --jsonl sweep.jsonl
    python -m repro boundaries --protocol terminating-three-phase-commit \\
        --sites 3 --lo 0.25 --hi 8.0 --resolution 0.01
    python -m repro throughput --protocols all --transactions 200
    python -m repro throughput --protocols two-phase-commit \\
        --tx-rate 2.0 --read-fraction 0.5 --ops-per-site 2 --deadlock both
    python -m repro throughput --arrival poisson --retries 3 --hotspot 0.2 \\
        --faults crash=3:20:28 --deadlock both --lock-timeout 4
    python -m repro throughput --faults loss=0.3,retransmit=on \\
        --lock-transport network
    python -m repro sweep --protocol all --faults byzantine=3:equivocate
    python -m repro modelcheck --protocol all --sites 3
    python -m repro modelcheck --protocol two-phase-commit \\
        --faults single-crash --no-voters 3 --jsonl modelcheck.jsonl
    python -m repro modelcheck --protocol all --faults loss=0.5 \\
        --faults loss=0.5,retransmit=on
    python -m repro shard --shard-index 0 --shard-count 3 \\
        --log results/ --protocol all --cache .sweep-cache
    python -m repro shard --shard-index 0 --shard-count 3 \\
        --log results/ --manifest grids.json --segment-records 64
    python -m repro merge --log results/ --jsonl merged.jsonl \\
        --metrics-json merge-metrics.json
    python -m repro report merge-metrics.json
    python -m repro merge --log results/ --resume --jsonl merged.jsonl

``sweep`` / ``throughput`` / ``modelcheck`` stream one grid kind each
through aggregation sinks (never materialized); ``boundaries`` bisects for
the onset times where the verdict class flips; ``shard`` runs one
deterministic slice of any grid kind (or of a mixed-kind ``--manifest``)
into the durable result log ``--log DIR`` and ``merge`` folds a whole log
(``--resume`` continues an interrupted merge exactly-once) back into
aggregates byte-identical to a single-machine run.  Every mode reports
cache hit/miss counts and scenarios/sec; ``--metrics-json PATH`` writes the
run's one machine-readable record -- a header naming what the run covered
beside every count and timing as a metric -- and ``repro report PATH``
renders it.  The implementation is the :mod:`repro.cli` package.
"""

import sys

from repro.cli import main

if __name__ == "__main__":  # pragma: no cover - exercised via tests calling main()
    sys.exit(main())
