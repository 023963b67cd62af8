"""Workload history: stats store, event journal, regression detection, CLI.

Covers the `repro.obs.history` subsystem in units and through its seams:

* the checksummed journal's crash semantics — torn tails truncate on
  reopen (like the WAL), corrupt records in the middle are *skipped*
  (unlike the WAL, whose replay must stop at a gap);
* per-fingerprint statistics accumulation and the bucketed percentiles;
* the regression detector's baseline/recent window logic;
* the rotating slow-query file sink;
* `QueryService` / bare `Session` feeding history exactly once per query;
* offline replay parity and the `repro history` / `repro top` /
  `repro metrics --format` CLI surfaces.
"""

from __future__ import annotations

import json

import pytest

from repro import QueryService, Session
from repro.cli import main
from repro.obs.history import (
    QueryStatsStore,
    WorkloadHistory,
    plan_hash_of,
    set_history,
)
from repro.obs.journal import (
    JOURNAL_MAGIC,
    EventJournal,
    encode_event,
    read_journal,
    scan_journal,
)
from repro.obs.regress import RegressionDetector
from repro.obs.slowlog import RotatingFileSink, SlowQueryLog, SlowQueryRecord
from repro.storage.disk import save_catalog
from repro.workloads.synthetic import SyntheticConfig, generate_synthetic_catalog

SQL_JOIN = (
    "SELECT * FROM T0 JOIN T1 ON T0.id = T1.fid "
    "WHERE T1.A1 < 0.2 OR (T1.A2 > 0.8 AND T0.A1 < 0.5)"
)
SQL_SCAN = "SELECT * FROM T0 WHERE T0.A1 < 0.3 OR T0.A2 > 0.9"


@pytest.fixture()
def catalog():
    return generate_synthetic_catalog(SyntheticConfig(table_size=400, seed=3))


@pytest.fixture(autouse=True)
def _no_ambient_history():
    """Tests that install an ambient history must not leak it."""
    yield
    set_history(None)


# --------------------------------------------------------------------------- #
# Journal
# --------------------------------------------------------------------------- #
class TestJournal:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "events.journal"
        with EventJournal(path) as journal:
            journal.append("query", fingerprint="abc", rows=3)
            journal.append("replan", fingerprint="abc")
        events = read_journal(path)
        assert [event["kind"] for event in events] == ["query", "replan"]
        assert events[0]["rows"] == 3
        assert [event["seq"] for event in events] == [0, 1]
        assert all("ts" in event for event in events)

    def test_seq_resumes_across_reopen(self, tmp_path):
        path = tmp_path / "events.journal"
        with EventJournal(path) as journal:
            journal.append("query", n=1)
        with EventJournal(path) as journal:
            assert journal.next_seq == 1
            journal.append("query", n=2)
        assert [event["seq"] for event in read_journal(path)] == [0, 1]

    def test_torn_tail_truncated_on_reopen(self, tmp_path):
        """A half-written final record vanishes when a writer reopens."""
        path = tmp_path / "events.journal"
        with EventJournal(path) as journal:
            journal.append("query", n=1)
            journal.append("query", n=2)
        intact_size = path.stat().st_size
        with open(path, "ab") as handle:
            handle.write(encode_event({"kind": "query", "seq": 2})[:11])
        assert path.stat().st_size > intact_size
        with EventJournal(path) as journal:
            assert path.stat().st_size == intact_size
            assert journal.next_seq == 2
            journal.append("query", n=3)
        assert [event["n"] for event in read_journal(path)] == [1, 2, 3]

    def test_trailing_garbage_truncated_on_reopen(self, tmp_path):
        path = tmp_path / "events.journal"
        with EventJournal(path) as journal:
            journal.append("query", n=1)
        intact_size = path.stat().st_size
        with open(path, "ab") as handle:
            handle.write(b"\x00garbage\xff\xfe")
        with EventJournal(path):
            pass
        assert path.stat().st_size == intact_size
        assert len(read_journal(path)) == 1

    def test_corrupt_middle_record_is_skipped(self, tmp_path):
        """Bit rot in the middle skips one record; later records survive.

        This is the deliberate divergence from the WAL, whose scan must
        stop at the first bad record (tests/test_wal.py) — replaying past a
        gap could corrupt data, but an observational journal should show
        everything still intact.
        """
        path = tmp_path / "events.journal"
        with EventJournal(path) as journal:
            journal.append("query", n=1)
            first_end = path.stat().st_size
            journal.append("query", n=2)
            journal.append("query", n=3)
        data = bytearray(path.read_bytes())
        # Flip one payload byte of the middle record (past its frame header).
        data[first_end + 16] ^= 0xFF
        path.write_bytes(bytes(data))

        scan = scan_journal(path)
        assert [event["n"] for event in scan.events] == [1, 3]
        assert scan.skipped == 1
        assert [event["seq"] for event in scan.events] == [0, 2]  # the gap shows

    def test_corrupt_then_append_keeps_later_events(self, tmp_path):
        """Reopening after middle corruption keeps appending past it."""
        path = tmp_path / "events.journal"
        with EventJournal(path) as journal:
            journal.append("query", n=1)
            first_end = path.stat().st_size
            journal.append("query", n=2)
        data = bytearray(path.read_bytes())
        data[first_end + 16] ^= 0xFF
        path.write_bytes(bytes(data))
        with EventJournal(path) as journal:
            journal.append("query", n=3)
        assert [event["n"] for event in read_journal(path)] == [1, 3]

    def test_missing_file_reads_empty(self, tmp_path):
        assert read_journal(tmp_path / "absent.journal") == []

    def test_magic_differs_from_wal(self):
        assert JOURNAL_MAGIC == b"REVJ"

    def test_trace_sampling(self, tmp_path):
        always = EventJournal(tmp_path / "a.journal", trace_sample_rate=1.0)
        never = EventJournal(tmp_path / "b.journal", trace_sample_rate=0.0)
        try:
            assert always.sample_trace() is True
            assert never.sample_trace() is False
        finally:
            always.close()
            never.close()

    def test_bad_sample_rate_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            EventJournal(tmp_path / "x.journal", trace_sample_rate=1.5)


# --------------------------------------------------------------------------- #
# Stats store
# --------------------------------------------------------------------------- #
class TestQueryStatsStore:
    def test_accumulation(self):
        store = QueryStatsStore()
        store.observe_query("fp", "tcombined", 0.010, rows=5, pages_read=3,
                            pages_pruned=1, cache_hit=False, plan_hash="p1")
        store.observe_query("fp", "tcombined", 0.030, rows=7, pages_read=4,
                            pages_pruned=0, cache_hit=True, plan_hash="p1")
        entry = store.get("fp")
        assert entry.calls == 2
        assert entry.rows == 12
        assert entry.pages_read == 7
        assert entry.pages_pruned == 1
        assert entry.cache_hits == 1
        assert entry.min_seconds == pytest.approx(0.010)
        assert entry.max_seconds == pytest.approx(0.030)
        assert entry.total_seconds == pytest.approx(0.040)
        assert entry.mean_seconds == pytest.approx(0.020)
        assert entry.plan_hash == "p1"

    def test_percentiles_are_ordered_and_bounded(self):
        store = QueryStatsStore()
        for i in range(100):
            store.observe_query("fp", "t", 0.001 * (i + 1), rows=0, pages_read=0,
                                pages_pruned=0, cache_hit=False)
        entry = store.get("fp")
        p50, p95, p99 = entry.percentile(50), entry.percentile(95), entry.percentile(99)
        assert 0.0 < p50 <= p95 <= p99 <= entry.max_seconds
        assert p50 == pytest.approx(0.050, rel=0.5)

    def test_top_orderings(self):
        store = QueryStatsStore()
        store.observe_query("hot", "t", 0.5, rows=1, pages_read=1,
                            pages_pruned=0, cache_hit=False)
        for _ in range(3):
            store.observe_query("frequent", "t", 0.001, rows=1, pages_read=9,
                                pages_pruned=0, cache_hit=False)
        assert [e.fingerprint for e in store.top(2, by="total_seconds")] == [
            "hot", "frequent"]
        assert [e.fingerprint for e in store.top(2, by="calls")] == [
            "frequent", "hot"]
        assert store.top(1, by="pages_read")[0].fingerprint == "frequent"
        with pytest.raises(ValueError):
            store.top(1, by="nope")

    def test_errors_and_replans(self):
        store = QueryStatsStore()
        store.record_error("fp", "t")
        store.observe_query("fp", "t", 0.01, rows=0, pages_read=0,
                            pages_pruned=0, cache_hit=False)
        store.record_replan("fp")
        store.record_replan("unknown")  # no entry: silently ignored
        entry = store.get("fp")
        assert entry.errors == 1
        assert entry.replans == 1
        assert len(store) == 1
        assert set(entry.as_dict()) >= {
            "fingerprint", "calls", "errors", "p50_seconds", "p95_seconds",
            "p99_seconds", "plan_hash", "replans",
        }


# --------------------------------------------------------------------------- #
# Regression detector
# --------------------------------------------------------------------------- #
class TestRegressionDetector:
    def test_flags_pages_read_degradation_once(self):
        detector = RegressionDetector(threshold=2.0, baseline_calls=4, window=3)
        for _ in range(4):
            assert detector.observe("fp", 0.01, pages_read=10, plan_hash="a") == []
        events = []
        for _ in range(6):
            events += detector.observe("fp", 0.01, pages_read=40, plan_hash="b")
        assert len(events) == 1
        event = events[0]
        assert event.metric == "pages_read"
        assert event.ratio == pytest.approx(4.0)
        assert event.plan_hash == "b"
        assert event.baseline == pytest.approx(10.0)
        assert event.recent == pytest.approx(40.0)

    def test_new_plan_hash_rearms(self):
        detector = RegressionDetector(threshold=2.0, baseline_calls=2, window=2)
        for _ in range(2):
            detector.observe("fp", 0.01, pages_read=10, plan_hash="a")
        first = []
        for _ in range(2):
            first += detector.observe("fp", 0.01, pages_read=30, plan_hash="b")
        assert len(first) == 1
        second = []
        for _ in range(2):
            second += detector.observe("fp", 0.01, pages_read=50, plan_hash="c")
        assert len(second) == 1
        assert second[0].plan_hash == "c"

    def test_latency_regression_flagged(self):
        detector = RegressionDetector(threshold=2.0, baseline_calls=3, window=3)
        for _ in range(3):
            detector.observe("fp", 0.010, pages_read=0)
        events = []
        for _ in range(3):
            events += detector.observe("fp", 0.100, pages_read=0)
        assert [event.metric for event in events] == ["execution_seconds"]

    def test_steady_workload_never_flags(self):
        detector = RegressionDetector(threshold=2.0, baseline_calls=3, window=3)
        for _ in range(50):
            assert detector.observe("fp", 0.01, pages_read=10) == []

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            RegressionDetector(threshold=1.0)
        with pytest.raises(ValueError):
            RegressionDetector(baseline_calls=0)


# --------------------------------------------------------------------------- #
# Rotating slow-query file sink
# --------------------------------------------------------------------------- #
def _slow_record(i: int) -> SlowQueryRecord:
    return SlowQueryRecord(
        fingerprint=f"fp{i}", planner="tcombined", elapsed_seconds=1.0,
        planning_seconds=0.1, execution_seconds=0.9, rows=10, pages_read=5,
        pages_pruned=0, cache_hit=False, shards=None,
    )


class TestRotatingFileSink:
    def test_writes_json_lines(self, tmp_path):
        sink = RotatingFileSink(tmp_path / "slow.log")
        sink(_slow_record(1))
        sink(_slow_record(2))
        lines = (tmp_path / "slow.log").read_text().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[0])["fingerprint"] == "fp1"

    def test_rotation_keeps_bounded_set(self, tmp_path):
        path = tmp_path / "slow.log"
        record_size = len(_slow_record(0).as_json()) + 1
        sink = RotatingFileSink(path, max_bytes=record_size * 2, keep=2)
        for i in range(10):
            sink(_slow_record(i))
        files = sink.existing_files()
        assert files == [path, sink.rotated_path(1), sink.rotated_path(2)]
        assert not sink.rotated_path(3).exists()
        # Newest records are in the live file, older ones shuffled up.
        live = [json.loads(line)["fingerprint"] for line in path.read_text().splitlines()]
        assert live[-1] == "fp9"

    def test_validation(self, tmp_path):
        with pytest.raises(ValueError):
            RotatingFileSink(tmp_path / "x", max_bytes=0)
        with pytest.raises(ValueError):
            RotatingFileSink(tmp_path / "x", keep=-1)


# --------------------------------------------------------------------------- #
# WorkloadHistory composition
# --------------------------------------------------------------------------- #
class TestWorkloadHistory:
    def test_query_events_journal_and_detect(self, tmp_path):
        journal = tmp_path / "h.journal"
        with WorkloadHistory(journal_path=journal, baseline_calls=2,
                             regression_window=2) as history:
            for _ in range(2):
                history.record_query("fp", "tcombined", 0.01, 0.009, rows=1,
                                     pages_read=10, pages_pruned=0,
                                     cache_hit=False, plan_hash="a")
            events = []
            for _ in range(2):
                events += history.record_query("fp", "tcombined", 0.01, 0.009,
                                               rows=1, pages_read=40,
                                               pages_pruned=0, cache_hit=True,
                                               plan_hash="b")
        assert len(events) == 1
        kinds = [event["kind"] for event in read_journal(journal)]
        assert kinds.count("query") == 4
        assert "regression" in kinds
        assert history.regressions == events

    def test_replay_parity(self, tmp_path):
        journal = tmp_path / "h.journal"
        with WorkloadHistory(journal_path=journal, baseline_calls=2,
                             regression_window=2) as live:
            for i in range(6):
                live.record_query("fp", "t", 0.01, 0.01, rows=i,
                                  pages_read=10 if i < 3 else 40,
                                  pages_pruned=1, cache_hit=bool(i),
                                  plan_hash="a" if i < 3 else "b")
            live.record_replan("fp")
        replayed = WorkloadHistory.replay(journal, baseline_calls=2,
                                          regression_window=2)
        assert (replayed.stats.get("fp").as_dict()
                == live.stats.get("fp").as_dict())
        assert ([event.as_dict() for event in replayed.regressions]
                == [event.as_dict() for event in live.regressions])

    def test_trace_attachment_sampled(self, tmp_path):
        journal = tmp_path / "h.journal"
        with WorkloadHistory(journal_path=journal, trace_sample_rate=1.0) as history:
            history.record_query("fp", "t", 0.01, 0.01, rows=0, pages_read=0,
                                 pages_pruned=0, cache_hit=False,
                                 trace={"name": "query", "children": []})
            history.record_query("fp", "t", 0.01, 0.01, rows=0, pages_read=0,
                                 pages_pruned=0, cache_hit=False, trace=None)
        events = [e for e in read_journal(journal) if e["kind"] == "query"]
        assert "trace" in events[0] and events[0]["trace"]["name"] == "query"
        assert "trace" not in events[1]

    def test_memory_only_history_has_no_journal(self):
        history = WorkloadHistory()
        history.record_query("fp", "t", 0.01, 0.01, rows=1, pages_read=0,
                             pages_pruned=0, cache_hit=False)
        history.record_event("compaction", tables=3)
        assert history.journal is None
        assert history.stats.get("fp").calls == 1
        history.close()

    def test_plan_hash_of(self):
        assert plan_hash_of(None) is None
        assert plan_hash_of("") is None
        a, b = plan_hash_of("Scan(T0)"), plan_hash_of("Scan(T1)")
        assert a != b and len(a) == 16
        assert plan_hash_of("Scan(T0)") == a


# --------------------------------------------------------------------------- #
# Service & session integration
# --------------------------------------------------------------------------- #
class TestServiceIntegration:
    def test_service_feeds_history(self, catalog, tmp_path):
        history = WorkloadHistory(journal_path=tmp_path / "h.journal")
        with QueryService(Session(catalog), history=history) as service:
            for _ in range(3):
                service.execute(SQL_JOIN)
            service.execute(SQL_SCAN)
        history.close()
        entries = history.stats.top(10, by="calls")
        assert [entry.calls for entry in entries] == [3, 1]
        assert entries[0].cache_hits == 2
        assert entries[0].plan_hash is not None
        kinds = [e["kind"] for e in read_journal(tmp_path / "h.journal")]
        assert kinds.count("query") == 4

    def test_slow_queries_routed_to_journal(self, catalog, tmp_path):
        history = WorkloadHistory(journal_path=tmp_path / "h.journal")
        with QueryService(Session(catalog), history=history,
                          slow_query_log=SlowQueryLog(0.0)) as service:
            service.execute(SQL_SCAN)
        history.close()
        kinds = [e["kind"] for e in read_journal(tmp_path / "h.journal")]
        assert "slow_query" in kinds and "query" in kinds

    def test_service_slow_query_log_file_sink(self, catalog, tmp_path):
        log_path = tmp_path / "slow.log"
        slow_log = SlowQueryLog(0.0, sink=RotatingFileSink(log_path))
        with QueryService(Session(catalog), slow_query_log=slow_log) as service:
            service.execute(SQL_SCAN)
        lines = log_path.read_text().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["planner"] == "tcombined"

    def test_replan_recorded(self, catalog, tmp_path):
        history = WorkloadHistory(journal_path=tmp_path / "h.journal")
        with QueryService(Session(catalog), feedback=True,
                          qerror_threshold=1.000001, history=history) as service:
            for _ in range(4):
                service.execute(SQL_JOIN)
        history.close()
        entry = history.stats.top(1)[0]
        assert entry.replans >= 1
        kinds = [e["kind"] for e in read_journal(tmp_path / "h.journal")]
        assert "replan" in kinds

    def test_error_recorded(self, catalog):
        history = WorkloadHistory()
        with QueryService(Session(catalog), history=history) as service:
            service.execute(SQL_SCAN)
            with pytest.raises(Exception):
                service.execute("SELECT * FROM T0 WHERE T0.no_such_column > 1")
        errored = [e for e in history.stats.entries() if e.errors]
        assert len(errored) == 1

    def test_ambient_history_feeds_service(self, catalog):
        history = WorkloadHistory()
        set_history(history)
        try:
            with QueryService(Session(catalog)) as service:
                service.execute(SQL_SCAN)
        finally:
            set_history(None)
        assert sum(e.calls for e in history.stats.entries()) == 1

    def test_bare_session_publishes_to_ambient(self, catalog):
        history = WorkloadHistory()
        set_history(history)
        try:
            session = Session(catalog)
            session.execute(SQL_SCAN)
            session.execute(SQL_SCAN, planner="bdisj")
        finally:
            set_history(None)
        assert len(history.stats) == 2  # distinct planners, distinct keys
        assert all(e.calls == 1 for e in history.stats.entries())

    def test_session_without_ambient_records_nothing(self, catalog):
        session = Session(catalog)
        result = session.execute(SQL_SCAN)
        assert result.row_count >= 0  # nothing to assert beyond "no crash"


# --------------------------------------------------------------------------- #
# CLI surfaces
# --------------------------------------------------------------------------- #
@pytest.fixture()
def dataset(tmp_path, catalog):
    root = tmp_path / "data"
    save_catalog(catalog, root)
    return str(root)


class TestCli:
    def test_batch_history_then_history_top(self, dataset, tmp_path, capsys):
        journal = str(tmp_path / "data" / "history.journal")
        assert main(["batch", "--data", dataset, "--sql", SQL_SCAN,
                     "--repeat", "3", "--history-journal", journal]) == 0
        capsys.readouterr()
        assert main(["history", "--data", dataset]) == 0
        out = capsys.readouterr().out
        assert "fingerprint" in out and "tcombined" in out

    def test_history_json_format(self, dataset, tmp_path, capsys):
        journal = str(tmp_path / "data" / "history.journal")
        main(["batch", "--data", dataset, "--sql", SQL_SCAN,
              "--history-journal", journal])
        capsys.readouterr()
        assert main(["history", "--data", dataset, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["calls"] == 1
        assert main(["history", "regressions", "--data", dataset,
                     "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out) == []

    def test_history_missing_journal(self, dataset, capsys):
        assert main(["history", "--data", dataset]) == 2
        assert "no history journal" in capsys.readouterr().err

    def test_top_single_frame(self, dataset, tmp_path, capsys):
        journal = str(tmp_path / "data" / "history.journal")
        main(["batch", "--data", dataset, "--sql", SQL_SCAN,
              "--history-journal", journal])
        capsys.readouterr()
        assert main(["top", "--data", dataset, "--iterations", "1"]) == 0
        out = capsys.readouterr().out
        assert "repro top" in out and "1 fingerprints" in out

    def test_metrics_format_json(self, dataset, capsys):
        assert main(["metrics", "--data", dataset, "--sql", SQL_SCAN,
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "repro_queries_total" in payload

    def test_metrics_format_prometheus_default(self, dataset, capsys):
        assert main(["metrics", "--data", dataset]) == 0
        assert "# TYPE repro_queries_total counter" in capsys.readouterr().out

    def test_compact_journals_event(self, dataset, tmp_path, capsys):
        journal = str(tmp_path / "data" / "history.journal")
        assert main(["insert", "--data", dataset, "--table", "T0",
                     "--values", '[{"id": 90001, "A1": 0.5, "A2": 0.5}]']) == 0
        assert main(["compact", "--data", dataset,
                     "--history-journal", journal]) == 0
        kinds = [e["kind"] for e in read_journal(journal)]
        assert "compaction" in kinds

    def test_recover_journals_event_only_when_work_done(self, dataset, tmp_path):
        journal = str(tmp_path / "data" / "history.journal")
        assert main(["recover", "--data", dataset,
                     "--history-journal", journal]) == 0
        # Clean dataset: nothing replayed, nothing truncated — no event.
        assert read_journal(journal) == []
