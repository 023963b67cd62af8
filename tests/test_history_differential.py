"""History must be a pure observer: identical results on or off.

The PR-9 guarantee extends to PR 10's workload history — turning on
per-fingerprint statistics, the event journal, and regression detection
must not change a single byte of query output or a single IO counter,
under every planner and under morsel/shard parallelism.  The suite also
pins the merge-safety contract: statistics publish exactly once per
query at the coordinator, so K executions count K calls no matter how
many threads or shard processes did the work — and closes with the
acceptance scenario, an injected plan regression surfaced end-to-end by
``repro history regressions``.
"""

from __future__ import annotations

import json

import pytest

from repro import QueryService, Session
from repro.cli import main
from repro.engine import parallel, shard
from repro.obs.history import QueryRecord, WorkloadHistory, set_history
from repro.obs.journal import read_journal
from repro.testing import (
    RandomCatalogConfig,
    RandomQueryConfig,
    generate_random_catalog,
    generate_random_query,
)
from repro.testing.differential import DEFAULT_PLANNERS

PARALLELISM_LEVELS = (1, 4)
SHARD_COUNTS = (1, 2)
QUERY_SEED = 23


@pytest.fixture(scope="module", autouse=True)
def _shutdown_pools():
    """Leave no process-wide executor pools behind for later test modules."""
    yield
    parallel.shutdown_morsel_pools()
    shard.shutdown_shard_pools()


@pytest.fixture(scope="module")
def catalog():
    return generate_random_catalog(
        RandomCatalogConfig(seed=5, num_dimensions=2, fact_rows=160, dimension_rows=120)
    )


@pytest.fixture(scope="module")
def query(catalog):
    return generate_random_query(catalog, RandomQueryConfig(seed=QUERY_SEED))


@pytest.fixture()
def _clean_ambient():
    yield
    set_history(None)


def _run(session, query, planner, parallelism, shards):
    return session.execute(
        query, planner=planner, parallelism=parallelism, shards=shards
    )


@pytest.mark.parametrize("planner", DEFAULT_PLANNERS)
def test_history_on_off_byte_identical(catalog, query, planner, tmp_path, _clean_ambient):
    session = Session(catalog, stats_sample_size=200)
    for parallelism in PARALLELISM_LEVELS:
        for shards in SHARD_COUNTS:
            set_history(None)
            bare = _run(session, query, planner, parallelism, shards)
            history = WorkloadHistory(
                journal_path=tmp_path / f"{planner}-{parallelism}-{shards}.journal",
                trace_sample_rate=1.0,
            )
            set_history(history)
            try:
                observed = _run(session, query, planner, parallelism, shards)
            finally:
                set_history(None)
                history.close()
            label = (planner, parallelism, shards)
            assert observed.rows == bare.rows, label
            assert observed.plan_description == bare.plan_description, label
            assert observed.iostats.values_read == bare.iostats.values_read, label
            assert observed.iostats.sequential_scans == bare.iostats.sequential_scans, label
            # History really did record the observed run.
            assert sum(e.calls for e in history.stats.entries()) == 1, label


@pytest.mark.parametrize("shards", SHARD_COUNTS)
def test_no_double_counting_under_parallelism(catalog, query, shards, tmp_path, _clean_ambient):
    """K runs at parallelism 4 / shards N -> exactly K calls, K journal events.

    Morsel threads and shard worker processes must never publish; the
    coordinator's single publish point is the only writer.
    """
    repetitions = 5
    journal = tmp_path / f"merge-{shards}.journal"
    history = WorkloadHistory(journal_path=journal)
    session = Session(catalog, stats_sample_size=200)
    set_history(history)
    try:
        for _ in range(repetitions):
            session.execute(query, parallelism=4, shards=shards)
    finally:
        set_history(None)
        history.close()
    entries = history.stats.entries()
    assert len(entries) == 1
    assert entries[0].calls == repetitions
    events = [e for e in read_journal(journal) if e["kind"] == "query"]
    assert len(events) == repetitions


def test_service_no_double_counting_with_shards(catalog, query, _clean_ambient):
    """Service + ambient history + shards: still one record per execute."""
    history = WorkloadHistory()
    set_history(history)
    try:
        with QueryService(Session(catalog, stats_sample_size=200), shards=2) as service:
            for _ in range(3):
                service.execute(query)
    finally:
        set_history(None)
    assert sum(e.calls for e in history.stats.entries()) == 3


def test_injected_regression_flagged_by_cli(tmp_path, capsys):
    """Acceptance: a plan change that quadruples pages_read is reported.

    The journal is built through the real recording path (a
    :class:`WorkloadHistory` writing events), then replayed by the
    ``repro history regressions`` CLI with a fresh detector.
    """
    journal = tmp_path / "history.journal"
    with WorkloadHistory(journal_path=journal, detect_regressions=False) as history:
        for _ in range(8):
            history.record_query(QueryRecord(
                "fp-hot", "tcombined", 0.010, execution_seconds=0.009, rows=50,
                pages_read=10, pages_pruned=2, cache_hit=True, plan_hash="plan-a",
            ))
        history.record_replan("fp-hot")
        for _ in range(4):
            history.record_query(QueryRecord(
                "fp-hot", "tcombined", 0.012, execution_seconds=0.011, rows=50,
                pages_read=40, pages_pruned=0, cache_hit=False, plan_hash="plan-b",
            ))
    assert main([
        "history", "regressions", "--journal", str(journal),
        "--format", "json", "--threshold", "2.0",
        "--baseline-calls", "8", "--window", "4",
    ]) == 0
    events = json.loads(capsys.readouterr().out)
    assert len(events) == 1
    event = events[0]
    assert event["fingerprint"] == "fp-hot"
    assert event["metric"] == "pages_read"
    assert event["ratio"] == pytest.approx(4.0)
    assert event["plan_hash"] == "plan-b"
    # The table rendering flags it too.
    assert main(["history", "regressions", "--journal", str(journal)]) == 0
    assert "fp-hot"[:8] in capsys.readouterr().out


def test_live_feedback_replan_reaches_journal(catalog, query, tmp_path):
    """A real drift-driven re-plan lands in the journal as a replan event."""
    journal = tmp_path / "history.journal"
    history = WorkloadHistory(journal_path=journal)
    with QueryService(
        Session(catalog, stats_sample_size=200),
        feedback=True,
        qerror_threshold=1.000001,
        history=history,
    ) as service:
        for _ in range(4):
            service.execute(query)
    history.close()
    kinds = [event["kind"] for event in read_journal(journal)]
    assert "replan" in kinds
    assert kinds.count("query") == 4
    entry = history.stats.entries()[0]
    assert entry.replans >= 1
