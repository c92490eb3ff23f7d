"""The per-type spec-hash encoders against the recursive function they replaced.

Before :func:`repro.engine.hashing.canonical` compiled one encoder per type,
it was one recursive function that ran an ``isinstance`` cascade on every
value.  That function lives on here as the reference (without its
frozen-value memo), and:

* hypothesis-generated :class:`ScenarioSpec`, :class:`ThroughputSpec` and
  :class:`ModelCheckSpec` values canonicalize to the reference's text;
* so does every task of the ``sweep``, ``throughput`` and ``modelcheck``
  grids, plus partition grids over seeds 0-3 with stochastic latency;
* the vocabulary's corner cases (integral floats, ``-0.0``, ``IntEnum``
  members, ``int``/``str`` subclasses, non-dict mappings, objects without a
  ``__dict__``) agree, errors included;
* the frozen-value memo stays bounded, and no mutable value is memoized, so
  mutating a spec can never make a later hash stale.
"""

import dataclasses
import enum
import hashlib
import types
from typing import Any, Mapping

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cli.kinds import grid_kind
from repro.engine import hashing
from repro.engine.grid import ScenarioGrid, simple_partition_axis
from repro.engine.hashing import canonical, spec_hash
from repro.modelcheck.spec import ModelCheckSpec
from repro.protocols.registry import available_protocols
from repro.protocols.runner import ScenarioSpec
from repro.sim.failures import (
    ARBITRARY,
    EQUIVOCATE,
    ByzantineSpec,
    CrashEvent,
    CrashSchedule,
    FaultPlan,
    LinkFault,
    RetransmitPolicy,
)
from repro.sim.latency import ConstantLatency, PerLinkLatency, UniformLatency
from repro.sim.partition import PartitionSchedule
from repro.txn.deadlock import DeadlockPolicy, VictimPolicy
from repro.txn.retry import RetryPolicy
from repro.txn.runner import ThroughputSpec


# ----------------------------------------------------------------------
# the reference: the recursive isinstance cascade
# ----------------------------------------------------------------------
_ORACLE_FIELDS: dict[type, tuple[tuple[str, ...], dict[str, Any]]] = {}


def oracle(value: Any) -> str:
    """The canonical text as the recursive cascade computed it."""
    tv = type(value)
    if value is None:
        return "None"
    if isinstance(value, enum.Enum):
        return f"{tv.__name__}.{value.name}"
    if isinstance(value, (bool, int, str)):
        return repr(value)
    if isinstance(value, float):
        if value.is_integer():
            return repr(int(value))
        return repr(value)
    if isinstance(value, (set, frozenset)):
        return "{" + ",".join(sorted(oracle(v) for v in value)) + "}"
    if isinstance(value, Mapping):
        items = sorted((oracle(k), oracle(v)) for k, v in value.items())
        return "m{" + ",".join(f"{k}:{v}" for k, v in items) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(oracle(v) for v in value) + "]"
    entry = _ORACLE_FIELDS.get(tv)
    if entry is None and dataclasses.is_dataclass(value) and not isinstance(value, type):
        names = tuple(f.name for f in dataclasses.fields(value))
        optional = {
            f.name: f.default
            for f in dataclasses.fields(value)
            if f.metadata.get("hash_optional") and f.default is not dataclasses.MISSING
        }
        entry = _ORACLE_FIELDS[tv] = (names, optional)
    if entry is not None:
        names, optional = entry
        fields = ",".join(
            f"{name}={oracle(field_value)}"
            for name in names
            for field_value in (getattr(value, name),)
            if not (name in optional and field_value == optional[name])
        )
        return f"{tv.__name__}({fields})"
    state = getattr(value, "__dict__", None)
    if state is not None:
        items = sorted((k, oracle(v)) for k, v in state.items())
        body = ",".join(f"{k}={v}" for k, v in items)
        return f"{tv.__name__}({body})"
    raise TypeError(f"cannot canonicalize {value!r} for hashing")


def oracle_hash(protocol: str, spec: Any) -> str:
    text = f"protocol={protocol};{oracle(spec)}"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# generated specs of all three kinds
# ----------------------------------------------------------------------
PROPERTY = settings(
    deadline=None, max_examples=150, suppress_health_check=[HealthCheck.too_slow]
)

times = st.floats(min_value=0.0, max_value=20.0, allow_nan=False) | st.integers(0, 20)
scalars = (
    st.none()
    | st.booleans()
    | st.integers(-(2**40), 2**40)
    | st.floats(allow_nan=False)
    | st.sampled_from([-0.0, 0.0, 8.0, 1e300])
    | st.text(max_size=6)
    | st.sampled_from(list(VictimPolicy))
)
values = st.recursive(
    scalars,
    lambda inner: (
        st.lists(inner, max_size=3)
        | st.lists(inner, max_size=3).map(tuple)
        | st.frozensets(st.integers(-5, 5) | st.text(max_size=3), max_size=3)
        | st.dictionaries(st.text(max_size=4), inner, max_size=3)
        | st.dictionaries(st.integers(0, 9), inner, max_size=3)
    ),
    max_leaves=8,
)


@st.composite
def partitions(draw, n_sites):
    kind = draw(st.sampled_from(["none", "empty", "permanent", "transient"]))
    if kind == "none":
        return None
    if kind == "empty":
        return PartitionSchedule.none()
    cut = draw(st.integers(1, n_sites - 1))
    group_a, group_b = list(range(1, cut + 1)), list(range(cut + 1, n_sites + 1))
    at = draw(times)
    if kind == "permanent":
        return PartitionSchedule.simple(at, group_a, group_b)
    return PartitionSchedule.transient(at, at + draw(st.floats(0.25, 5.0)), group_a, group_b)


@st.composite
def latencies(draw):
    kind = draw(st.sampled_from(["none", "constant", "uniform", "per-link"]))
    if kind == "none":
        return None
    if kind == "constant":
        return ConstantLatency(draw(st.floats(0.1, 4.0)))
    if kind == "uniform":
        low = draw(st.floats(0.1, 2.0))
        return UniformLatency(low, low + draw(st.floats(0.0, 2.0)))
    links = st.tuples(st.integers(1, 5), st.integers(1, 5))
    return PerLinkLatency(
        draw(st.floats(0.1, 2.0)),
        draw(st.dictionaries(links, st.floats(0.1, 3.0), max_size=3)),
    )


@st.composite
def crash_schedules(draw, n_sites):
    if draw(st.booleans()):
        return None
    events = draw(
        st.lists(
            st.builds(
                CrashEvent,
                time=times,
                site=st.integers(1, n_sites),
                recover_at=st.none(),
            ),
            max_size=2,
        )
    )
    return CrashSchedule(events)


@st.composite
def fault_plans(draw, n_sites):
    if draw(st.booleans()):
        return None
    return FaultPlan(
        links=tuple(
            draw(
                st.lists(
                    st.builds(
                        LinkFault,
                        loss=st.floats(0.0, 1.0),
                        duplicate=st.floats(0.0, 1.0),
                    ),
                    max_size=2,
                )
            )
        ),
        byzantine=tuple(
            ByzantineSpec(site=site, mode=draw(st.sampled_from([EQUIVOCATE, ARBITRARY])))
            for site in draw(st.frozensets(st.integers(2, n_sites), max_size=1))
        ),
        retransmit=draw(
            st.none()
            | st.builds(
                RetransmitPolicy,
                max_attempts=st.integers(1, 8),
                interval=st.floats(0.1, 2.0),
            )
        ),
        seed=draw(st.integers(0, 9)),
    )


@st.composite
def scenario_specs(draw):
    n_sites = draw(st.integers(2, 5))
    return ScenarioSpec(
        n_sites=n_sites,
        partition=draw(partitions(n_sites)),
        crashes=draw(crash_schedules(n_sites)),
        no_voters=draw(st.frozensets(st.integers(1, n_sites))),
        latency=draw(latencies()),
        model=draw(st.sampled_from(["optimistic", "pessimistic"])),
        horizon=draw(st.none() | times),
        seed=draw(st.integers(0, 2**31)),
        initial_data=draw(st.none() | st.dictionaries(st.text(max_size=4), values, max_size=3)),
        write_key=draw(st.text(max_size=6)),
        write_value=draw(values),
        faults=draw(fault_plans(n_sites)),
    )


@st.composite
def throughput_specs(draw):
    n_sites = draw(st.integers(2, 5))
    return ThroughputSpec(
        n_sites=n_sites,
        n_transactions=draw(st.integers(1, 500)),
        tx_rate=draw(st.floats(0.1, 10.0)),
        arrival=draw(st.sampled_from(["uniform", "poisson"])),
        hotspot=draw(st.sampled_from([0.0, 1.0, 0.5])),
        partition=draw(partitions(n_sites)),
        latency=draw(latencies()),
        deadlock=DeadlockPolicy(
            detect_cycles=draw(st.booleans()),
            wait_timeout=draw(st.none() | st.floats(0.5, 10.0)),
            victim=draw(st.sampled_from(list(VictimPolicy))),
        ),
        retry=RetryPolicy(max_attempts=draw(st.integers(1, 4))),
        seed=draw(st.integers(0, 99)),
        faults=draw(fault_plans(n_sites)),
        lock_transport=draw(st.sampled_from(["direct", "network"])),
    )


@st.composite
def modelcheck_specs(draw):
    n_sites = draw(st.integers(2, 5))
    return ModelCheckSpec(
        n_sites=n_sites,
        fault=draw(st.sampled_from(["failure-free", "single-crash", "partition", "lossy"])),
        no_voters=draw(st.none() | st.frozensets(st.integers(2, n_sites))),
        max_states=draw(st.integers(1, 10**6)),
        max_depth=draw(st.none() | st.integers(1, 50)),
        seed=draw(st.integers(0, 9)),
    )


@PROPERTY
@given(spec=scenario_specs() | throughput_specs() | modelcheck_specs())
def test_generated_specs_match_the_oracle(spec):
    assert canonical(spec) == oracle(spec)
    assert spec_hash("two-phase-commit", spec) == oracle_hash("two-phase-commit", spec)


@PROPERTY
@given(value=values)
def test_generated_values_match_the_oracle(value):
    assert canonical(value) == oracle(value)


# ----------------------------------------------------------------------
# every task of the sweep grids
# ----------------------------------------------------------------------
def _grid_tasks():
    tasks = []
    for seed in range(4):
        for sites in (3, 4):
            tasks += grid_kind("sweep").tasks_from_argv(
                "sweep", ["--protocol", "all", "--sites", str(sites)]
            )
            tasks += grid_kind("sweep").tasks_from_argv(
                "sweep",
                ["--protocol", "all", "--sites", str(sites), "--heal-after", "1.5",
                 "--faults", f"dup=0.3,byzantine=2,retransmit=on,seed={seed}"],
            )
        tasks += grid_kind("throughput").tasks_from_argv(
            "throughput", ["--protocols", "all", "--seeds", str(seed)]
        )
        for protocol in available_protocols():
            tasks += ScenarioGrid(
                protocols=(protocol,),
                n_sites=3,
                partitions=simple_partition_axis(3, times=[0.75, 2.5]),
                latencies=(None, UniformLatency(0.5, 1.0)),
                no_voter_options=(frozenset(), frozenset({2})),
                seeds=(seed,),
            ).tasks()
    tasks += grid_kind("modelcheck").tasks_from_argv(
        "modelcheck", ["--protocol", "all", "--no-voters", "none", "--no-voters", "2"]
    )
    return tasks


def test_every_sweep_grid_task_matches_the_oracle():
    tasks = _grid_tasks()
    assert {type(task.spec) for task in tasks} == {ScenarioSpec, ThroughputSpec, ModelCheckSpec}
    for task in tasks:
        assert canonical(task.spec) == oracle(task.spec)
        assert task.spec_hash == oracle_hash(task.protocol, task.spec)


# ----------------------------------------------------------------------
# the vocabulary's corner cases
# ----------------------------------------------------------------------
class Level(enum.IntEnum):
    LOW = 1


class Tag(str):
    pass


class Count(int):
    pass


class Slotted:
    __slots__ = ("x",)

    def __init__(self):
        self.x = 1


@dataclasses.dataclass(frozen=True)
class Empty:
    pass


@dataclasses.dataclass(frozen=True)
class Boxed:
    items: list


@dataclasses.dataclass
class Single:
    only: Any = None


@pytest.mark.parametrize(
    "value",
    [
        8.0, -0.0, 0.5, float("inf"), True, 0, "s", None,
        Level.LOW, Tag("t"), Count(3), VictimPolicy.OLDEST,
        types.MappingProxyType({"b": 1, "a": 2.0}),
        {3, 1}, frozenset({"x"}), (1, [2.0, (3,)]), {(1, 2): 1.5},
        Empty(), Boxed([1, 2]), Single(), Single(Level.LOW),
        UniformLatency(0.5, 1.0), {10: "a", 9: "b"},
    ],
    ids=repr,
)
def test_corner_cases_match_the_oracle(value):
    assert canonical(value) == oracle(value)


def test_intenum_members_are_not_their_int():
    assert canonical(Level.LOW) == "Level.LOW" != canonical(1)


def test_objects_without_state_are_rejected_like_the_oracle():
    with pytest.raises(TypeError, match="cannot canonicalize"):
        oracle(Slotted())
    with pytest.raises(TypeError, match="cannot canonicalize"):
        canonical(Slotted())


# ----------------------------------------------------------------------
# memo discipline
# ----------------------------------------------------------------------
def test_frozen_memo_stays_bounded():
    for max_states in range(1, 2 * hashing._FROZEN_MEMO_MAX + 2):
        canonical(ModelCheckSpec(max_states=max_states))
        assert len(hashing._FROZEN_MEMO) <= hashing._FROZEN_MEMO_MAX
    assert canonical(ModelCheckSpec(max_states=7)) == oracle(ModelCheckSpec(max_states=7))


def _spec():
    return ScenarioSpec(
        partition=PartitionSchedule.transient(2.5, 3.5, [1], [2, 3]),
        initial_data={"balance": 1},
        crashes=CrashSchedule.single(3, 4.0),
    )


def test_mutating_an_equal_spec_never_returns_stale_text():
    first, second = _spec(), _spec()
    assert first == second
    before = canonical(first)
    assert canonical(second) == before
    second.horizon = 9.5
    second.initial_data["balance"] = 2
    second.partition.events.pop()
    second.crashes.add(CrashEvent(time=1.0, site=2))
    assert canonical(second) == oracle(second) != before
    assert canonical(first) == before == oracle(first)


def test_mutating_a_hashed_spec_changes_its_text():
    spec = _spec()
    before = canonical(spec)
    spec.no_voters = frozenset({2})
    assert canonical(spec) == oracle(spec) != before
    spec.no_voters = frozenset()
    assert canonical(spec) == before


def test_no_mutable_value_enters_the_memo():
    hashing._FROZEN_MEMO.clear()
    canonical(_spec())
    assert hashing._FROZEN_MEMO
    assert all(
        dataclasses.is_dataclass(key) and type(key).__dataclass_params__.frozen
        for key in hashing._FROZEN_MEMO
    )
