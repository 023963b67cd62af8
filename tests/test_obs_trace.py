"""Tests of query tracing: span trees, differential no-op proofs, slow log.

The two load-bearing suites:

* ``TestSpanTreeInvariants`` — structural guarantees of the span tree
  (children nest inside their parents, operator self-times sum to no more
  than the execution span on a serial run).
* ``TestTracingIsANoOp`` — the differential proof that tracing never changes
  a result: byte-identical rows and identical IO accounting with tracing on
  vs. off, across planners × parallelism × shard counts.
"""

from __future__ import annotations

import json

import pytest

from repro import Catalog, QueryService, Session
from repro.cli import main
from repro.obs.history import QueryRecord
from repro.obs.slowlog import SlowQueryLog
from repro.obs.trace import Span, Tracer, ambient_span, current_tracer
from repro.workloads.synthetic import SyntheticConfig, generate_synthetic_catalog

SQL = (
    "SELECT * FROM T0 JOIN T1 ON T0.id = T1.fid "
    "WHERE T1.A1 < 0.2 OR (T1.A2 > 0.8 AND T0.A1 < 0.5)"
)

#: Nesting tolerance: a child's recorded bounds may exceed its parent's by
#: scheduler noise on the order of clock resolution, never more.
EPSILON = 1e-6


@pytest.fixture(scope="module")
def catalog() -> Catalog:
    return generate_synthetic_catalog(SyntheticConfig(table_size=1500, seed=11))


def spans_by_name(tracer: Tracer) -> dict[str, list[Span]]:
    out: dict[str, list[Span]] = {}
    for root in tracer.roots:
        for span in root.walk():
            out.setdefault(span.name, []).append(span)
    return out


class TestTracerUnit:
    def test_begin_end_builds_a_tree(self):
        tracer = Tracer()
        tracer.begin("a")
        tracer.begin("b")
        tracer.end()
        tracer.end(rows=3)
        assert [span.name for span in tracer.roots] == ["a"]
        (a,) = tracer.roots
        assert [child.name for child in a.children] == ["b"]
        assert a.attrs["rows"] == 3
        assert a.end is not None and a.children[0].end is not None

    def test_end_without_open_span_raises(self):
        with pytest.raises(RuntimeError):
            Tracer().end()

    def test_span_contextmanager_closes_leaked_children(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("outer"):
                tracer.begin("leaked")
                raise ValueError("boom")
        (outer,) = tracer.roots
        assert outer.end is not None
        assert outer.children[0].end is not None  # leaked child was closed

    def test_add_synthetic_pins_to_parent_start(self):
        tracer = Tracer()
        with tracer.span("parent"):
            synthetic = tracer.add_synthetic("plan", 0.25, cached=True)
        (parent,) = tracer.roots
        assert synthetic.start == parent.start
        assert synthetic.duration == pytest.approx(0.25)
        assert synthetic.attrs == {"synthetic": True, "cached": True}

    def test_operator_timing_self_excludes_children(self):
        tracer = Tracer()
        outer = tracer.op_enter()
        inner = tracer.op_enter()
        tracer.op_exit(2, "Inner", inner)
        tracer.op_exit(1, "Outer", outer)
        timings = tracer.operator_timings()
        assert timings[1]["seconds"] >= timings[2]["seconds"]
        assert timings[1]["self_seconds"] == pytest.approx(
            timings[1]["seconds"] - timings[2]["seconds"], abs=EPSILON
        )
        assert timings[1]["calls"] == timings[2]["calls"] == 1

    def test_fork_absorb_merges_spans_and_op_totals(self):
        parent = Tracer()
        parent.begin("query")
        child = parent.fork()
        with child.span("morsel"):
            started = child.op_enter()
            child.op_exit(7, "Scan", started)
        parent.absorb(child)
        parent.end()
        assert [s.name for s in parent.roots[0].children] == ["morsel"]
        assert parent.operator_timings()[7]["calls"] == 1

    def test_absorb_payload_reanchors_but_keeps_durations(self):
        remote = Tracer()
        with remote.span("shard"):
            pass
        payload = remote.to_payload()
        # A foreign clock origin far from ours, with a duration long enough
        # that re-anchoring at this clock's magnitude cannot round it away.
        payload["roots"][0]["start"] = 1000.0
        payload["roots"][0]["end"] = 1000.25
        local = Tracer()
        local.begin("execute")
        local.absorb_payload(payload)
        local.end()
        (execute,) = local.roots
        (shard,) = execute.children
        assert shard.start == pytest.approx(execute.start)
        assert shard.duration == pytest.approx(0.25, abs=1e-9)

    def test_exports_are_well_formed(self):
        tracer = Tracer()
        with tracer.span("query", planner="tcombined"):
            with tracer.span("execute"):
                started = tracer.op_enter()
                tracer.op_exit(1, "Scan", started)
        document = json.loads(tracer.to_json())
        assert [span["name"] for span in document["spans"]] == ["query"]
        assert document["spans"][0]["children"][0]["name"] == "execute"
        assert document["operators"]["1"]["label"] == "Scan"
        chrome = tracer.to_chrome_trace()
        names = [event["name"] for event in chrome["traceEvents"]]
        assert names == ["query", "execute", "op:Scan#1"]
        for event in chrome["traceEvents"]:
            assert event["ph"] == "X"
            assert event["ts"] >= 0.0 and event["dur"] >= 0.0


class TestAmbientTracing:
    def test_ambient_span_is_noop_without_tracer(self):
        assert current_tracer() is None
        with ambient_span("anything") as span:
            assert span is None

    def test_activate_installs_and_restores(self):
        tracer = Tracer()
        with tracer.activate():
            assert current_tracer() is tracer
            with ambient_span("work", size=1) as span:
                assert span is not None
        assert current_tracer() is None
        assert [s.name for s in tracer.roots] == ["work"]

    def test_mutation_path_emits_wal_and_compaction_spans(self, tmp_path, catalog):
        from repro.mutation.diskops import (
            append_rows_to_saved_catalog,
            compact_saved_catalog,
        )
        from repro.storage.disk import save_catalog

        root = tmp_path / "data"
        save_catalog(catalog, root)
        row = {f"A{i}": 0.5 for i in range(1, 8)}
        row["fid"] = 1
        tracer = Tracer()
        with tracer.activate():
            append_rows_to_saved_catalog(root, "T1", [row])
            compact_saved_catalog(root)
        names = spans_by_name(tracer)
        assert "wal.commit" in names
        assert names["wal.commit"][0].attrs["ops"] == 1
        assert "compaction" in names
        assert "recovery" in names  # load_catalog under the compactor


class TestSpanTreeInvariants:
    @pytest.fixture(scope="class")
    def traced(self, catalog) -> Tracer:
        session = Session(catalog, parallelism=1, shards=1)
        result = session.execute(SQL, planner="tcombined", trace=True)
        assert result.trace is not None
        return result.trace

    def test_every_span_is_closed(self, traced):
        for spans in spans_by_name(traced).values():
            for span in spans:
                assert span.end is not None

    def test_children_nest_within_parents(self, traced):
        def check(span: Span) -> None:
            for child in span.children:
                if child.attrs.get("synthetic"):
                    continue  # synthetic spans are pinned, not measured
                assert child.start >= span.start - EPSILON
                assert child.end <= span.end + EPSILON
                check(child)

        for root in traced.roots:
            check(root)

    def test_expected_span_names_present(self, traced):
        # partitions=1 takes the inline execution path, so no morsel spans.
        names = spans_by_name(traced)
        for expected in ("query", "plan", "execute"):
            assert expected in names, f"missing span {expected}"
        assert any(name.startswith("operator:") for name in names)

    def test_morsel_spans_appear_under_partitioned_execution(self, catalog):
        session = Session(catalog, parallelism=2, shards=1)
        result = session.execute(SQL, planner="tcombined", trace=True)
        names = spans_by_name(result.trace)
        assert len(names["morsel"]) == 2
        for span in names["morsel"]:
            assert {"start_row", "stop_row"} <= set(span.attrs)

    def test_operator_self_seconds_bounded_by_execute_span(self, traced):
        names = spans_by_name(traced)
        (execute,) = names["execute"]
        self_total = sum(
            timing["self_seconds"] for timing in traced.operator_timings().values()
        )
        assert self_total <= execute.duration + EPSILON

    def test_execute_span_carries_io_attributes(self, traced):
        (execute,) = spans_by_name(traced)["execute"]
        for key in ("pages_read", "pages_hit", "pages_pruned", "morsels"):
            assert key in execute.attrs

    def test_sharded_trace_merges_worker_spans(self, catalog):
        session = Session(catalog, parallelism=2, shards=2)
        result = session.execute(SQL, planner="tcombined", trace=True)
        names = spans_by_name(result.trace)
        assert "shard.scatter_gather" in names
        assert len(names["shard"]) == 2
        assert len(names["morsel"]) >= 2
        assert result.trace.operator_timings(), "worker op timings must merge"


class TestTracingIsANoOp:
    @pytest.mark.parametrize("planner", ["tcombined", "bdisj"])
    @pytest.mark.parametrize("parallelism", [1, 4])
    def test_results_and_io_identical_in_process(self, catalog, planner, parallelism):
        session = Session(catalog, parallelism=parallelism, partitions=4, shards=1)
        plain = session.execute(SQL, planner=planner)
        traced = session.execute(SQL, planner=planner, trace=True)
        assert traced.trace is not None and plain.trace is None
        assert plain.rows == traced.rows  # byte-identical, same order
        assert plain.column_names == traced.column_names
        assert plain.iostats.as_dict() == traced.iostats.as_dict()
        assert plain.metrics.as_dict() == traced.metrics.as_dict()

    @pytest.mark.parametrize("shards", [1, 2])
    def test_results_and_io_identical_across_shards(self, catalog, shards):
        session = Session(catalog, parallelism=2, partitions=4, shards=shards)
        plain = session.execute(SQL, planner="tcombined")
        traced = session.execute(SQL, planner="tcombined", trace=True)
        assert plain.rows == traced.rows
        assert plain.iostats.as_dict() == traced.iostats.as_dict()
        assert plain.metrics.as_dict() == traced.metrics.as_dict()


class TestExplainAnalyzeTiming:
    def test_traced_report_shows_actual_seconds(self, catalog):
        from repro.optimizer import explain_analyze_report

        session = Session(catalog)
        prepared = session.prepare(SQL, planner="tcombined")
        result = session.execute_prepared(prepared, collect_feedback=True, trace=True)
        report = explain_analyze_report(prepared, result)
        assert "actual s" in report and "rows/s" in report
        scan_lines = [l for l in report.splitlines() if "Scan(" in l]
        assert scan_lines
        for line in scan_lines:
            columns = line.split()
            assert "-" not in columns[-3:-1], f"untimed operator in {line!r}"

    def test_untraced_report_shows_dashes(self, catalog):
        from repro.optimizer import explain_analyze_report

        session = Session(catalog)
        prepared = session.prepare(SQL, planner="tcombined")
        result = session.execute_prepared(prepared, collect_feedback=True)
        report = explain_analyze_report(prepared, result)
        assert "actual s" in report
        for line in report.splitlines():
            if "Scan(" in line:
                assert " - " in line  # the timing columns render as '-'


class TestSlowQueryLog:
    def _record(self, elapsed: float) -> QueryRecord:
        return QueryRecord(
            fingerprint="abc",
            planner="tcombined",
            seconds=elapsed,
            planning_seconds=elapsed / 2,
            execution_seconds=elapsed / 2,
            rows=10,
            pages_read=4,
        )

    def test_threshold_filters(self):
        log = SlowQueryLog(0.5)
        assert not log.observe(self._record(0.4))
        assert log.observe(self._record(0.6))
        assert len(log) == 1

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            SlowQueryLog(-1.0)

    def test_capacity_keeps_newest(self):
        log = SlowQueryLog(0.0, capacity=2)
        for elapsed in (1.0, 2.0, 3.0):
            log.observe(self._record(elapsed))
        assert [r.seconds for r in log.records] == [2.0, 3.0]

    def test_broken_sink_never_fails_the_query(self):
        def sink(record):
            raise RuntimeError("sink down")

        log = SlowQueryLog(0.0, sink=sink)
        assert log.observe(self._record(1.0))
        assert len(log) == 1

    def test_record_serializes_to_one_json_line(self):
        text = self._record(1.0).as_json()
        assert "\n" not in text
        assert json.loads(text)["planner"] == "tcombined"

    def test_service_populates_the_log(self, catalog):
        sunk = []
        with QueryService(
            Session(catalog), slow_query_log=SlowQueryLog(0.0, sink=sunk.append)
        ) as service:
            result = service.execute(SQL)
        assert len(service.slow_query_log) == 1
        (record,) = service.slow_query_log.records
        assert sunk == [record]
        assert record.rows == result.row_count
        assert record.planner == result.planner_name
        assert record.seconds > 0.0
        assert record.pages_read == result.iostats.pages_read

    def test_service_without_slow_query_log_has_none(self, catalog):
        with QueryService(Session(catalog)) as service:
            service.execute(SQL)
            assert service.slow_query_log is None


class TestTraceCli:
    def _dataset(self, tmp_path) -> str:
        root = tmp_path / "data"
        assert main(
            ["generate", "synthetic", "--out", str(root), "--table-size", "200"]
        ) == 0
        return str(root)

    def test_query_trace_writes_span_json(self, tmp_path, capsys):
        data = self._dataset(tmp_path)
        out_path = tmp_path / "trace.json"
        assert main(
            ["query", "--data", data, "--sql", SQL, "--trace", str(out_path)]
        ) == 0
        document = json.loads(out_path.read_text())
        assert document["spans"][0]["name"] == "query"
        assert document["operators"]

    def test_query_trace_chrome_format(self, tmp_path, capsys):
        data = self._dataset(tmp_path)
        out_path = tmp_path / "trace_chrome.json"
        assert main(
            [
                "query", "--data", data, "--sql", SQL,
                "--trace", str(out_path), "--trace-format", "chrome",
            ]
        ) == 0
        document = json.loads(out_path.read_text())
        assert {event["ph"] for event in document["traceEvents"]} == {"X"}
        assert any(event["name"] == "query" for event in document["traceEvents"])

    def test_slow_query_flags_echo_and_write_rotated_file(self, tmp_path, capsys):
        data = self._dataset(tmp_path)
        log_path = tmp_path / "slow.log"
        assert main(
            [
                "batch", "--data", data, "--sql", SQL,
                "--slow-query-seconds", "0", "--slow-query-log", str(log_path),
            ]
        ) == 0
        (line,) = log_path.read_text().splitlines()
        assert capsys.readouterr().err.strip() == f"slow query: {line}"
        assert json.loads(line)["planner"] == "tcombined"

    def test_metrics_verb_writes_slow_log_without_echo(self, tmp_path, capsys):
        data = self._dataset(tmp_path)
        log_path = tmp_path / "slow.log"
        assert main(
            [
                "metrics", "--data", data, "--sql", SQL,
                "--slow-query-seconds", "0", "--slow-query-log", str(log_path),
            ]
        ) == 0
        assert len(log_path.read_text().splitlines()) == 1
        assert "slow query" not in capsys.readouterr().err
