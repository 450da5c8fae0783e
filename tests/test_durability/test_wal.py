"""Write-ahead log: append/replay, fsync batching, torn tails, compaction."""

from __future__ import annotations

import json

import pytest

from repro.durability import (
    SnapshotLog,
    WalWriteError,
    WriteAheadLog,
)
from repro.resilience.faults import FaultPlan, fault_injection


@pytest.fixture
def make_log(tmp_path):
    """Open logs on ``tmp_path / "test.wal"``; all are closed on teardown."""
    logs: list[WriteAheadLog] = []

    def make(**kwargs) -> WriteAheadLog:
        log = WriteAheadLog(tmp_path / "test.wal", name="test", **kwargs)
        logs.append(log)
        return log

    yield make
    for log in logs:
        log.close()


class TestAppendReplay:
    def test_roundtrip_preserves_records_in_order(self, make_log):
        log = make_log()
        for index in range(5):
            log.append("graph.put", {"id": f"g{index}"}, sync=True)
        log.close()
        report = log.replay()
        assert [record["data"]["id"] for record in report.records] == [
            f"g{index}" for index in range(5)
        ]
        assert [record["lsn"] for record in report.records] == [1, 2, 3, 4, 5]
        assert report.truncated_bytes == 0
        assert report.corrupt_records == 0

    def test_lines_are_valid_json_with_checksum(self, make_log):
        log = make_log()
        log.append("x", {"a": 1}, sync=True)
        log.close()
        (line,) = log.path.read_bytes().splitlines()
        record = json.loads(line)
        assert record["type"] == "x" and "crc" in record

    def test_replay_of_missing_file_is_empty(self, make_log):
        report = make_log().replay()
        assert report.records == []

    def test_records_count_tracks_appends_across_replay(self, make_log):
        log = make_log()
        log.append("x", {}, sync=True)
        log.close()
        fresh = make_log()
        fresh.replay()
        assert fresh.records == 1
        fresh.append("x", {}, sync=True)
        assert fresh.records == 2


class TestFsyncBatching:
    def test_unsynced_appends_batch_until_interval(self, make_log):
        log = make_log(fsync_every=3)
        log.append("x", {"i": 1})
        log.append("x", {"i": 2})
        assert log.fsyncs == 0
        log.append("x", {"i": 3})
        assert log.fsyncs == 1

    def test_sync_true_forces_immediate_fsync(self, make_log):
        log = make_log(fsync_every=100)
        log.append("x", {}, sync=True)
        assert log.fsyncs == 1

    def test_flush_drains_pending_batch(self, make_log):
        log = make_log(fsync_every=100)
        log.append("x", {})
        log.flush()
        assert log.fsyncs == 1
        log.flush()  # nothing pending: no second fsync
        assert log.fsyncs == 1


class TestTornTail:
    def test_torn_final_line_is_truncated_not_fatal(self, make_log):
        log = make_log()
        log.append("x", {"i": 1}, sync=True)
        log.append("x", {"i": 2}, sync=True)
        log.close()
        with open(log.path, "ab") as handle:
            handle.write(b'{"lsn": 3, "type": "x", "da')  # no newline: torn
        report = log.replay()
        assert len(report.records) == 2
        assert report.corrupt_records == 1
        assert report.truncated_bytes > 0
        # The file was repaired: a second replay is clean.
        again = log.replay()
        assert len(again.records) == 2
        assert again.truncated_bytes == 0

    def test_bad_checksum_stops_replay_at_first_bad_record(self, make_log):
        log = make_log()
        for index in range(4):
            log.append("x", {"i": index}, sync=True)
        log.close()
        lines = log.path.read_bytes().splitlines(keepends=True)
        # Corrupt record 2 in place; records 3-4 become unreachable (a hole
        # may carry dependencies, so replay never skips over it).
        corrupted = lines[1].replace(b'"i":1', b'"i":9')
        log.path.write_bytes(b"".join([lines[0], corrupted] + lines[2:]))
        report = log.replay()
        assert len(report.records) == 1
        assert report.corrupt_records == 1
        assert report.truncated_bytes > 0

    def test_garbage_bytes_are_truncated(self, make_log):
        log = make_log()
        log.append("x", {"i": 1}, sync=True)
        log.close()
        with open(log.path, "ab") as handle:
            handle.write(b"\x00\xffgarbage\n")
        report = log.replay()
        assert len(report.records) == 1
        assert report.truncated_bytes > 0


class TestRewrite:
    def test_rewrite_replaces_contents_atomically(self, make_log):
        log = make_log()
        for index in range(5):
            log.append("x", {"i": index}, sync=True)
        log.rewrite([("x", {"i": "only"})])
        report = log.replay()
        assert len(report.records) == 1
        assert report.records[0]["data"] == {"i": "only"}
        assert not log.path.with_suffix(log.path.suffix + ".tmp").exists()

    def test_truncate_empties_the_log(self, make_log):
        log = make_log()
        log.append("x", {}, sync=True)
        log.truncate()
        assert log.replay().records == []


class TestFaultSeams:
    def test_wal_append_fault_surfaces_as_wal_write_error(self, make_log):
        log = make_log()
        plan = FaultPlan(specs=({"point": "wal.append", "action": "raise"},))
        with fault_injection(plan):
            with pytest.raises(WalWriteError):
                log.append("x", {})
        # The failed record was never acknowledged and never counted.
        assert log.records == 0
        log.append("x", {}, sync=True)
        assert log.records == 1

    def test_wal_fsync_fault_surfaces_as_wal_write_error(self, make_log):
        log = make_log()
        plan = FaultPlan(specs=({"point": "wal.fsync", "action": "raise"},))
        with fault_injection(plan):
            with pytest.raises(WalWriteError):
                log.append("x", {}, sync=True)


class TestSnapshotLog:
    def test_replay_yields_snapshot_then_tail(self, tmp_path):
        log = SnapshotLog(tmp_path, "graphs")
        log.append("graph.put", {"id": "a", "graph": 1}, sync=True)
        log.append("graph.put", {"id": "b", "graph": 1}, sync=True)
        log.compact([("graph.put", {"id": "a", "graph": 1}),
                     ("graph.put", {"id": "b", "graph": 1})])
        log.append("graph.put", {"id": "a", "graph": 2}, sync=True)
        log.close()
        records = SnapshotLog(tmp_path, "graphs").replay().records
        state = {}
        for record in records:
            state[record["data"]["id"]] = record["data"]["graph"]
        # Last-wins: the post-compaction overwrite of "a" lands on top.
        assert state == {"a": 2, "b": 1}

    def test_compact_truncates_the_tail(self, tmp_path):
        log = SnapshotLog(tmp_path, "graphs")
        for index in range(6):
            log.append("graph.put", {"id": f"g{index}"}, sync=True)
        assert log.tail_records == 6
        log.compact([("graph.put", {"id": f"g{index}"}) for index in range(6)])
        assert log.tail_records == 0
        assert log.snapshot.records == 6

    def test_stale_tail_replay_is_idempotent(self, tmp_path):
        # Crash between snapshot replace and tail truncate: the tail's
        # records are already inside the snapshot — last-wins replay must
        # converge on the same state.
        log = SnapshotLog(tmp_path, "graphs")
        log.append("graph.put", {"id": "a", "graph": 7}, sync=True)
        log.snapshot.rewrite([("graph.put", {"id": "a", "graph": 7})])
        log.close()  # tail NOT truncated: simulated crash mid-compaction
        records = SnapshotLog(tmp_path, "graphs").replay().records
        state = {}
        for record in records:
            state[record["data"]["id"]] = record["data"]["graph"]
        assert state == {"a": 7}
