"""The compiled move table against the per-delivery scan it replaced.

Before the relation was compiled into a :class:`~repro.core.relation.MoveTable`,
the role re-scanned its state's steps on every delivery, over one set of
senders per message kind.  That scan lives on here as the reference, with
its own copy of the read semantics:

* for every protocol at n = 1..4 (one site only where the plan exists: the
  Rule (a)/(b) derivation needs a distributed transaction), every site
  position, every local state, every inbox over the kinds the state reads
  (with the role's other kinds absent and all present), every valuation of
  the state's guard variables and both votes, the role's first enabled move
  is the scan's choice, and the role casts its vote exactly when the scan
  does;
* the checker's explorer branches over exactly the scan's full enumeration
  for the five untimed protocols at n = 2..4;
* a process-wide memo never makes a run depend on what ran before it.
"""

import itertools

import pytest

from regen_golden_terminating import GRID
from repro.core import messages as m
from repro.core.fsa import ANY_SLAVE, EACH_SLAVE, MASTER, MASTER_ROLE, OPERATOR, SLAVE_ROLE
from repro.core.reachability import _bits, _mask
from repro.core.relation import ANY_SITE, N, OPERATOR_SITE, WINDOW, holds
from repro.modelcheck.protocols import checkable_plan, checkable_protocols
from repro.protocols.fsa_role import FSARole
from repro.protocols.registry import available_protocols, create_protocol
from repro.protocols.runner import ScenarioSpec, run_scenario

from tests.protocols.conftest import make_context

#: Protocols whose Rule (a)/(b) tables are derived from a distributed run.
AUGMENTED = ("extended-two-phase-commit", "naive-extended-three-phase-commit")

CASES = [
    (name, n_sites)
    for name in available_protocols()
    for n_sites in range(1 if name not in AUGMENTED else 2, 5)
]


# ----------------------------------------------------------------------
# the reference: the per-delivery scan over per-kind sender sets
# ----------------------------------------------------------------------
def _senders(source, present, master, peers):
    """Every way the senders in ``present`` satisfy a read from ``source``."""
    if source == MASTER:
        return [(master,)] if master in present else []
    if source == OPERATOR:
        return [(OPERATOR_SITE,)] if OPERATOR_SITE in present else []
    if source == EACH_SLAVE:
        return [tuple(peers)] if all(peer in present for peer in peers) else []
    if source == ANY_SLAVE:
        return [(s,) for s in sorted(present) if s not in (master, OPERATOR_SITE)]
    assert source == ANY_SITE, source
    return [(s,) for s in sorted(present) if s != OPERATOR_SITE]


def reference_choices(steps, received, master, peers):
    """Every ``(step, senders)`` way to take one of ``steps``, in scan order."""
    for step in steps:
        present = received.get(step.kind, set())
        # Only an each-slave read can hold over an empty inbox.
        if not present and step.source != EACH_SLAVE:
            continue
        for senders in _senders(step.source, present, master, peers):
            yield step, senders


def reference_choice(steps, received, master, peers, variables, cast):
    """The first step whose read is satisfied, whose guard holds and whose
    vote is the site's (``cast()`` votes, only when a vote step asks)."""
    for step in steps:
        present = received.get(step.kind, set())
        if not present and step.source != EACH_SLAVE:
            continue
        choices = _senders(step.source, present, master, peers)
        if not choices:
            continue
        if step.guard is not None and not holds(step.guard, variables):
            continue
        if step.vote is not None and step.vote != cast():
            continue
        return step, choices[0]
    return None


def _subsets(items):
    return itertools.chain.from_iterable(
        itertools.combinations(items, size) for size in range(len(items) + 1)
    )


def _valuations(steps, slaves):
    """Every valuation of the variables the steps' guards read."""
    names = sorted({step.guard[0] for step in steps if step.guard is not None})
    domains = {N: ((), slaves), WINDOW: (False, True)}
    for values in itertools.product(*(domains[name] for name in names)):
        yield dict(zip(names, values))


# ----------------------------------------------------------------------
# the simulator's role
# ----------------------------------------------------------------------
def _check_role(name, n_sites, site):
    plan = create_protocol(name).plan(n_sites)
    role_name = MASTER_ROLE if site == 1 else SLAVE_ROLE
    _, ctx = make_context(site=site, n_sites=n_sites)
    role = FSARole(ctx, plan, role_name)
    offsets = plan.moves.offsets[role_name]
    slaves = tuple(range(2, n_sites + 1))
    peers = tuple(s for s in slaves if s != site)
    senders = [s for s in range(1, n_sites + 1) if s != site]
    cast = []

    def cast_vote():
        cast.append(True)
        role.vote = vote
        return vote

    role.cast_vote = cast_vote
    checked = 0
    for state, table in plan.relation.role(role_name).items():
        kinds = sorted({step.kind for step in table.steps})
        # Only the master's request comes from the operator.
        bits = [
            (kind, sender)
            for kind in kinds
            for sender in ((OPERATOR_SITE,) if kind == m.REQUEST else senders)
        ]
        noise = [
            (kind, sender) for kind in sorted(set(offsets) - set(kinds)) for sender in senders
        ]
        has_vote = any(step.vote for step in table.steps)
        for inbox in _subsets(bits):
            for extra in ((), noise):
                received = {}
                for kind, sender in (*inbox, *extra):
                    received.setdefault(kind, set()).add(sender)
                mask = sum(1 << (offsets[kind] + sender) for kind, sender in (*inbox, *extra))
                for valuation in _valuations(table.steps, slaves):
                    for vote in ("yes", "no") if has_vote else (None,):
                        variables = dict(role.vars, **valuation)
                        asked = []

                        def reference_cast():
                            if not asked:
                                asked.append(vote)
                            return asked[0]

                        expected = reference_choice(
                            table.steps, received, 1, peers, variables, reference_cast
                        )
                        role.state, role.inbox, role.vote = state, mask, None
                        role.vars.update(valuation)
                        cast.clear()
                        move = role._next_move()
                        if expected is None:
                            assert move is None, (state, inbox, extra, valuation, vote)
                        else:
                            step, chosen = expected
                            consumed = sum(1 << (offsets[step.kind] + s) for s in chosen)
                            assert move == (step, consumed), (state, inbox, valuation, vote)
                        assert bool(cast) == bool(asked), (state, inbox, valuation, vote)
                        checked += 1
    return checked


@pytest.mark.parametrize("name,n_sites", CASES)
def test_role_takes_the_reference_scans_choice(name, n_sites):
    checked = sum(_check_role(name, n_sites, site) for site in range(1, n_sites + 1))
    assert checked > 0


def test_the_lone_terminating_master_times_out_and_aborts():
    """n = 1: no vote can arrive, so the guarded promotion never fires."""
    for name in available_protocols():
        if name.startswith("terminating-"):
            result = run_scenario(create_protocol(name), ScenarioSpec(n_sites=1))
            assert result.decisions == {1: "abort"}, name


# ----------------------------------------------------------------------
# the checker's explorer
# ----------------------------------------------------------------------
def _reference_moves(explorer, i, local, inbox):
    """The explorer's moves as the scan enumerates them."""
    by_kind = {}
    for message_id in _bits(inbox):
        message = explorer.messages[message_id]
        by_kind.setdefault(message.kind, {}).setdefault(message.sender, message_id)
    received = {kind: set(first) for kind, first in by_kind.items()}
    name = explorer.names[i][local]
    scripted = explorer._scripted_vote[i]
    steps = [
        step
        for step in explorer._tables[i][local].steps
        if step.vote is None or scripted is None or step.vote == scripted
    ]
    peers = tuple(s for s in range(2, explorer.n_sites + 1) if s != i + 1)
    return tuple(
        explorer._move(
            i,
            (i + 1, step.transition),
            step,
            name,
            _mask(by_kind[step.kind][sender] for sender in senders),
        )
        for step, senders in reference_choices(steps, received, 1, peers)
    )


@pytest.mark.parametrize("n_sites", [2, 3, 4])
@pytest.mark.parametrize("name", checkable_protocols())
@pytest.mark.parametrize("no_voters", [None, frozenset({2})])
def test_explorer_moves_are_the_reference_enumeration(name, n_sites, no_voters):
    explorer = checkable_plan(name, n_sites).model_setup(no_voters)
    checked = 0
    for i in range(n_sites):
        for local, table in enumerate(explorer._tables[i]):
            kinds = {step.kind for step in table.steps}
            read = [b for b in _bits(explorer._inbox[i]) if explorer.messages[b].kind in kinds]
            other = _mask(b for b in _bits(explorer._inbox[i]) if b not in read)
            assert len(read) <= 12, (name, i, local, len(read))
            for subset in _subsets(read):
                for extra in (0, other):
                    inbox = _mask(subset) | extra
                    expected = _reference_moves(explorer, i, local, inbox)
                    assert explorer._protocol_moves(i, local, inbox) == expected
                    checked += 1
    assert checked > 0


# ----------------------------------------------------------------------
# the process-wide memo
# ----------------------------------------------------------------------
def test_runs_do_not_depend_on_what_ran_before():
    """The terminating grid forward, then reversed, in one process."""
    tasks = list(GRID.items())

    def summaries(order):
        return {
            row_id: run_scenario(create_protocol(protocol), spec).to_json_bytes()
            for row_id, (protocol, spec) in order
        }

    assert summaries(tasks) == summaries(reversed(tasks))
