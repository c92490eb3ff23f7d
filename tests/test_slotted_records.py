"""The per-transaction records a throughput run keeps are slotted.

A run keeps every attempt's scheduler state, every site's pending entry
and every committed version readable after it closes, so these records
carry no instance ``__dict__``.  Slots must not cost them the ways they
are copied: ``pickle`` (engine workers), ``copy.copy`` and
``dataclasses.replace``.
"""

import copy
import dataclasses
import pickle

import pytest

from repro.db.locks import LockMode
from repro.db.site import _PendingTransaction
from repro.db.storage import Version
from repro.db.transactions import Operation, Transaction, TransactionStatus
from repro.protocols.base import Decision
from repro.txn.scheduler import TransactionState, TxnPhase


def _transaction():
    return Transaction.create(
        1,
        [Operation.write(1, "x", "v"), Operation.read(2, "y")],
        transaction_id="txn-7",
        submitted_at=1.5,
    )


def _records():
    transaction = _transaction()
    return [
        Operation.write(2, "k", 3),
        transaction,
        Version(key="k", value=3, transaction_id="txn-7", sequence=4),
        _PendingTransaction(
            transaction=transaction,
            writes={"x": "v"},
            status=TransactionStatus.PREPARED,
            vote="yes",
        ),
        TransactionState(
            transaction=transaction,
            index=0,
            admitted_at=0.5,
            plan=((1, "x", LockMode.EXCLUSIVE), (2, "y", LockMode.SHARED)),
            phase=TxnPhase.DONE,
            decisions={1: Decision.COMMIT, 2: Decision.COMMIT},
            logical_id="txn-7",
        ),
    ]


RECORDS = _records()
IDS = [type(record).__name__ for record in RECORDS]


@pytest.mark.parametrize("record", RECORDS, ids=IDS)
def test_record_has_no_instance_dict(record):
    assert not hasattr(record, "__dict__")
    assert type(record).__slots__


@pytest.mark.parametrize("record", RECORDS, ids=IDS)
def test_record_round_trips_through_pickle(record):
    clone = pickle.loads(pickle.dumps(record))
    assert type(clone) is type(record)
    assert clone == record


@pytest.mark.parametrize("record", RECORDS, ids=IDS)
def test_record_round_trips_through_copy(record):
    clone = copy.copy(record)
    assert clone is not record
    assert clone == record


@pytest.mark.parametrize("record", RECORDS, ids=IDS)
def test_record_round_trips_through_replace(record):
    clone = dataclasses.replace(record)
    assert clone is not record
    assert clone == record


def test_frozen_records_stay_frozen():
    for record in (Operation.read(1, "k"), Version("k", 1, "t", 1)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            record.key = "other"
