"""Tests for the write-ahead log."""

from hypothesis import given, strategies as st

from repro.db.wal import LogRecordKind, WriteAheadLog


class TestAppends:
    def test_lsn_increases(self):
        wal = WriteAheadLog(site=1)
        r1 = wal.log_begin("t1")
        r2 = wal.log_vote("t1", "yes")
        assert (r1.lsn, r2.lsn) == (1, 2)

    def test_records_by_transaction(self):
        wal = WriteAheadLog(site=1)
        wal.log_begin("t1")
        wal.log_begin("t2")
        wal.log_vote("t1", "yes")
        assert [r.kind for r in wal.records("t1")] == [LogRecordKind.BEGIN, LogRecordKind.VOTE]
        assert len(wal.records()) == 3

    def test_last_record(self):
        wal = WriteAheadLog(site=1)
        assert wal.last_record("t1") is None
        wal.log_begin("t1")
        wal.log_vote("t1", "no")
        assert wal.last_record("t1").kind is LogRecordKind.VOTE

    def test_payload_accessor(self):
        wal = WriteAheadLog(site=1)
        record = wal.log_vote("t1", "yes", time=2.0)
        assert record.get("vote") == "yes"
        assert record.get("missing", "x") == "x"
        assert record.time == 2.0


class TestDecisions:
    def test_no_decision_initially(self):
        wal = WriteAheadLog(site=1)
        wal.log_begin("t1")
        assert wal.decision("t1") is None

    def test_commit_decision(self):
        wal = WriteAheadLog(site=1)
        wal.log_begin("t1")
        wal.log_commit("t1", {"x": 1})
        assert wal.decision("t1") == "commit"

    def test_abort_decision(self):
        wal = WriteAheadLog(site=1)
        wal.log_begin("t1")
        wal.log_abort("t1")
        assert wal.decision("t1") == "abort"

    def test_decision_is_per_transaction(self):
        wal = WriteAheadLog(site=1)
        wal.log_commit("t1", {})
        wal.log_abort("t2")
        assert wal.decision("t1") == "commit"
        assert wal.decision("t2") == "abort"

    def test_was_applied(self):
        wal = WriteAheadLog(site=1)
        wal.log_commit("t1", {"x": 1})
        assert not wal.was_applied("t1")
        wal.log_apply("t1")
        assert wal.was_applied("t1")


class TestPreparedWrites:
    def test_prepared_writes_from_prepare_record(self):
        wal = WriteAheadLog(site=1)
        wal.log_prepare("t1", {"x": 5})
        assert wal.prepared_writes("t1") == {"x": 5}

    def test_prepared_writes_from_commit_record(self):
        wal = WriteAheadLog(site=1)
        wal.log_commit("t1", {"y": 9})
        assert wal.prepared_writes("t1") == {"y": 9}

    def test_prepared_writes_missing(self):
        wal = WriteAheadLog(site=1)
        wal.log_begin("t1")
        assert wal.prepared_writes("t1") is None

    def test_latest_writes_win(self):
        wal = WriteAheadLog(site=1)
        wal.log_prepare("t1", {"x": 1})
        wal.log_commit("t1", {"x": 2})
        assert wal.prepared_writes("t1") == {"x": 2}


class TestInventory:
    def test_transactions_in_first_seen_order(self):
        wal = WriteAheadLog(site=1)
        wal.log_begin("b")
        wal.log_begin("a")
        wal.log_vote("b", "yes")
        assert wal.transactions() == ["b", "a"]

    def test_undecided_transactions(self):
        wal = WriteAheadLog(site=1)
        wal.log_begin("t1")
        wal.log_begin("t2")
        wal.log_commit("t1", {})
        assert wal.undecided_transactions() == ["t2"]

    def test_len_and_iter(self):
        wal = WriteAheadLog(site=1)
        wal.log_begin("t1")
        wal.log_vote("t1", "yes")
        assert len(wal) == 2
        assert [r.kind for r in wal] == [LogRecordKind.BEGIN, LogRecordKind.VOTE]


class TestPerTransactionIndex:
    """The per-transaction index answers exactly what a whole-log scan would."""

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(list(LogRecordKind)),
                st.sampled_from(["t1", "t2", "t3", "t4"]),
            ),
            max_size=30,
        )
    )
    def test_property_queries_equal_a_scan_of_the_log(self, appends):
        wal = WriteAheadLog(site=1)
        for kind, txn in appends:
            if kind in (LogRecordKind.PREPARE, LogRecordKind.COMMIT):
                wal.append(kind, txn, writes={"x": len(wal)})
            else:
                wal.append(kind, txn)
        log = list(wal)
        assert [r.lsn for r in log] == list(range(1, len(appends) + 1))
        first_seen = list(dict.fromkeys(r.transaction_id for r in log))
        assert wal.transactions() == first_seen
        for txn in first_seen + ["never-logged"]:
            mine = [r for r in log if r.transaction_id == txn]
            assert wal.records(txn) == tuple(mine)
            assert all(a is b for a, b in zip(wal.records(txn), mine))
            decisions = [
                r.kind.value
                for r in mine
                if r.kind in (LogRecordKind.COMMIT, LogRecordKind.ABORT)
            ]
            assert wal.decision(txn) == (decisions[-1] if decisions else None)
            assert wal.was_applied(txn) == any(
                r.kind is LogRecordKind.APPLY for r in mine
            )
            writes = [r.get("writes") for r in mine if r.get("writes") is not None]
            assert wal.prepared_writes(txn) == (writes[-1] if writes else None)

    def test_recovery_appends_while_iterating_transactions(self):
        # RecoveryManager.recover logs APPLY records while walking
        # transactions(); the walk must be over a snapshot.
        wal = WriteAheadLog(site=1)
        wal.log_commit("t1", {"x": 1})
        for txn in wal.transactions():
            wal.log_apply(txn)
            wal.log_begin("t-new")
        assert wal.transactions() == ["t1", "t-new"]
