"""``python -m repro`` — the command-line interface.

Subcommands::

    generate   build a dataset (synthetic T0/T1/T2, IMDB-like, or fuzz star
               schema) and save it to a directory
    query      run a SQL query against a saved dataset under any planner
               (--snapshot K reads the state after the first K append-log
               records — time travel)
    explain    print the plan a planner would choose, without executing it
    compare    run one query under several planners and print a speedup table
    batch      run a file of queries through the caching QueryService
    serve      interactive loop: read SQL from stdin, serve with plan caching
    insert     append rows (from CSV or inline JSON) to a saved dataset's
               append log — base column files are never rewritten
    delete     logically delete the rows matching a predicate
    compact    fold the append log into a new table generation behind an
               atomic manifest swap (writers stay unblocked while the fold
               runs)
    recover    replay the write-ahead log: truncate torn tails, re-apply
               committed-but-unapplied transactions (load_catalog does this
               automatically on open; the verb makes it explicit/scriptable)
    wal        inspect the write-ahead log (``wal status [--format json]``)
    metrics    print the process metrics registry (``--format prometheus``
               text or ``--format json``), optionally after running queries
               to populate it
    history    per-fingerprint workload statistics replayed from a dataset's
               event journal (``history [top]`` / ``history regressions``,
               ``--format table|json``)
    top        a refreshing top-N view over the same journal (like ``top``
               for queries; ``--iterations 1`` prints once and exits)
    table      introspect a saved dataset (``table stats <name>``)
    index      create / drop / list secondary indexes on a saved dataset
    fuzz       differential-test all planners against the naive oracle
    figures    regenerate the paper's figures (delegates to repro.bench.figures)

Examples::

    python -m repro generate synthetic --out data/t0t1t2 --table-size 10000
    python -m repro query --data data/t0t1t2 --planner tcombined \
        --sql "SELECT * FROM T0 JOIN T1 ON T0.id = T1.fid WHERE T1.A1 < 0.2"
    python -m repro query --data data/t0t1t2 --explain-analyze --sql "..."
    python -m repro compare --data data/t0t1t2 --sql "..." --planners tcombined bdisj
    python -m repro batch --data data/t0t1t2 --file queries.sql --repeat 5 --workers 4
    python -m repro serve --data data/t0t1t2 --planner tcombined
    python -m repro insert --data data/t0t1t2 --table T1 --values '[{"id": 7, "A1": 0.5}]'
    python -m repro delete --data data/t0t1t2 --table T1 --where "T1.A1 > 0.9"
    python -m repro query  --data data/t0t1t2 --snapshot 0 --sql "..."   # pre-mutation state
    python -m repro query  --data data/t0t1t2 --trace trace.json --sql "..."
    python -m repro metrics --data data/t0t1t2 --sql "SELECT * FROM T0"
    python -m repro metrics --data data/t0t1t2 --format json
    python -m repro batch --data data/t0t1t2 --file q.sql --history-journal hist.journal
    python -m repro history --data data/t0t1t2 --top 10 --by total_seconds
    python -m repro history regressions --data data/t0t1t2
    python -m repro top --data data/t0t1t2 --iterations 1
    python -m repro compact --data data/t0t1t2
    python -m repro recover --data data/t0t1t2
    python -m repro wal status --data data/t0t1t2 --format json
    python -m repro table stats T1 --data data/t0t1t2
    python -m repro index create --data data/t0t1t2 --table T1 --column A1
    python -m repro index list --data data/t0t1t2
    python -m repro fuzz --queries 20 --seed 7
    python -m repro figures fig4a --quick
"""

from __future__ import annotations

import argparse
import sys

from repro.bench import figures as bench_figures
from repro.bench.report import format_table
from repro.engine.session import PLANNERS, Session
from repro.service import QueryService
from repro.storage.disk import load_catalog, save_catalog
from repro.testing.datagen import RandomCatalogConfig, generate_random_catalog
from repro.testing.differential import DEFAULT_PLANNERS, run_fuzz_campaign
from repro.workloads.imdb import generate_imdb_catalog
from repro.workloads.synthetic import SyntheticConfig, generate_synthetic_catalog

#: Maximum number of rows printed by ``query`` unless --max-rows says otherwise.
DEFAULT_MAX_ROWS = 20


# --------------------------------------------------------------------------- #
# Subcommand implementations
# --------------------------------------------------------------------------- #
def _cmd_generate(args: argparse.Namespace) -> int:
    if args.dataset == "synthetic":
        catalog = generate_synthetic_catalog(
            SyntheticConfig(table_size=args.table_size, seed=args.seed)
        )
    elif args.dataset == "imdb":
        catalog = generate_imdb_catalog(scale=args.scale, seed=args.seed)
    else:
        catalog = generate_random_catalog(
            RandomCatalogConfig(
                seed=args.seed,
                num_dimensions=args.dimensions,
                fact_rows=args.table_size,
                dimension_rows=args.table_size,
            )
        )
    root = save_catalog(catalog, args.out)
    total = catalog.total_rows()
    print(f"wrote {len(catalog)} tables ({total} rows) to {root}")
    return 0


def _print_result(result, max_rows: int, show_metrics: bool) -> None:
    rows = result.rows[:max_rows]
    print(format_table(result.column_names or ["(no columns)"], rows))
    if result.row_count > max_rows:
        print(f"... ({result.row_count - max_rows} more rows)")
    print(
        f"{result.row_count} rows | planner={result.planner_name} | "
        f"planning={result.planning_seconds:.4f}s execution={result.execution_seconds:.4f}s"
    )
    if show_metrics:
        print(format_table(["counter", "value"], sorted(result.metrics.as_dict().items())))


def _session_for(args: argparse.Namespace) -> Session:
    """A session over the saved dataset, honoring the parallelism flags."""
    return Session(
        load_catalog(args.data, snapshot=getattr(args, "snapshot", None)),
        parallelism=getattr(args, "parallelism", 1),
        partitions=getattr(args, "partitions", None),
        access_paths=not getattr(args, "no_access_paths", False),
        shards=getattr(args, "shards", 1),
    )


def _write_trace(result, path: str, trace_format: str) -> None:
    """Serialize ``result.trace`` to ``path`` as JSON or Chrome trace events."""
    import json

    tracer = result.trace
    if tracer is None:
        print("no trace was recorded for this execution", file=sys.stderr)
        return
    if trace_format == "chrome":
        payload = json.dumps(tracer.to_chrome_trace(), indent=2)
    else:
        payload = tracer.to_json()
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(payload + "\n")
    print(f"wrote {trace_format} trace to {path}")


def _cmd_query(args: argparse.Namespace) -> int:
    session = _session_for(args)
    want_trace = args.trace is not None
    if args.explain_analyze:
        from repro.optimizer import explain_analyze_report

        prepared = session.prepare(args.sql, planner=args.planner)
        # Tracing is what collects per-operator wall clock, so --explain-analyze
        # always traces (the "actual s" column would otherwise be all '-').
        result = session.execute_prepared(prepared, collect_feedback=True, trace=True)
        _print_result(result, args.max_rows, args.metrics)
        print(explain_analyze_report(prepared, result))
        if want_trace:
            _write_trace(result, args.trace, args.trace_format)
        return 0
    result = session.execute(args.sql, planner=args.planner, trace=want_trace)
    _print_result(result, args.max_rows, args.metrics)
    if want_trace:
        _write_trace(result, args.trace, args.trace_format)
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    session = Session(load_catalog(args.data))
    print(session.explain(args.sql, planner=args.planner))
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    session = _session_for(args)
    rows = []
    baseline_time = None
    reference_rows = None
    agree = True
    for planner in args.planners:
        result = session.execute(args.sql, planner=planner)
        if baseline_time is None:
            baseline_time = result.total_seconds
            reference_rows = result.sorted_rows()
        elif result.sorted_rows() != reference_rows:
            agree = False
        speedup = baseline_time / result.total_seconds if result.total_seconds else float("inf")
        rows.append(
            [
                planner,
                result.row_count,
                f"{result.planning_seconds:.4f}",
                f"{result.execution_seconds:.4f}",
                f"{speedup:.2f}x",
            ]
        )
    print(
        format_table(
            ["planner", "rows", "planning (s)", "execution (s)", "speedup vs first"], rows
        )
    )
    if not agree:
        print("WARNING: planners returned different rows", file=sys.stderr)
        return 1
    return 0


def scan_statements(text: str) -> tuple[list[str], str]:
    """Split SQL text on ``;`` terminators; returns ``(statements, tail)``.

    The scanner is string- and comment-aware: semicolons inside
    single-quoted literals (with ``''`` escaping) do not terminate a
    statement, and ``--`` comments run to end of line (outside literals).
    ``tail`` is whatever follows the last terminator — an unfinished
    statement for a REPL to keep buffering, or the final unterminated
    statement of a file.
    """
    statements: list[str] = []
    current: list[str] = []
    in_string = False
    position = 0
    length = len(text)
    while position < length:
        char = text[position]
        if in_string:
            current.append(char)
            if char == "'":
                if position + 1 < length and text[position + 1] == "'":
                    current.append("'")
                    position += 1
                else:
                    in_string = False
        elif char == "'":
            in_string = True
            current.append(char)
        elif char == "-" and position + 1 < length and text[position + 1] == "-":
            while position < length and text[position] != "\n":
                position += 1
            continue  # the newline is processed (as whitespace) next round
        elif char == ";":
            statement = "".join(current).strip()
            if statement:
                statements.append(statement)
            current = []
        else:
            current.append(char)
        position += 1
    return statements, "".join(current)


def split_statements(text: str) -> list[str]:
    """All statements in ``text``; a trailing statement needs no ``;``."""
    statements, tail = scan_statements(text)
    tail = tail.strip()
    if tail:
        statements.append(tail)
    return statements


def _print_cache_metrics(service: QueryService) -> None:
    # Caches expose different counter sets (the feedback store has its own),
    # so print one "key=value ..." line per cache instead of a rigid table.
    for cache_name, counters in sorted(service.cache_metrics().items()):
        rendered = " ".join(
            f"{key}={value:.2f}" if key == "hit_rate" else f"{key}={int(value)}"
            for key, value in sorted(counters.items())
        )
        print(f"{cache_name}: {rendered}")


def _cmd_batch(args: argparse.Namespace) -> int:
    statements: list[str] = []
    if args.file:
        with open(args.file, encoding="utf-8") as handle:
            statements.extend(split_statements(handle.read()))
    for sql in args.sql or ():
        statements.extend(split_statements(sql))
    if not statements:
        print("no queries given; use --file and/or --sql", file=sys.stderr)
        return 2
    statements = statements * args.repeat

    session = _session_for(args)
    history = _history_for(args)
    with QueryService(
        session,
        plan_cache_size=args.cache_size,
        max_workers=args.workers,
        default_timeout=args.timeout,
        feedback=args.feedback,
        qerror_threshold=args.qerror_threshold,
        slow_query_log=_slow_query_log_for(args),
        history=history,
    ) as service:
        report = service.execute_batch(statements, planner=args.planner)
        rows = []
        for item in report:
            if item.ok:
                status = "ok"
                detail = f"{item.result.row_count} rows"
                cached = "hit" if item.result.cache_hit else "miss"
            elif item.timed_out:
                status, detail, cached = "timeout", "-", "-"
            else:
                status, detail, cached = "error", item.error or "-", "-"
            rows.append(
                [item.index, status, detail, cached, f"{item.elapsed_seconds:.4f}"]
            )
        print(format_table(["#", "status", "result", "plan cache", "seconds"], rows))
        print(
            f"{len(report.succeeded)}/{len(report)} ok "
            f"({len(report.timed_out)} timeout, {len(report.failed)} error) | "
            f"wall {report.wall_seconds:.3f}s | "
            f"{report.queries_per_second:.1f} queries/s"
        )
        _print_cache_metrics(service)
        if args.metrics:
            print(format_table(
                ["counter", "value"], sorted(report.total_metrics().as_dict().items())
            ))
        if history is not None:
            history.close()
        return 0 if len(report.succeeded) == len(report) else 1


def _slow_query_log_for(args: argparse.Namespace, echo: bool = True):
    """The slow-query log the ``--slow-query-*`` flags ask for, or None.

    Each record goes to the size-rotated ``--slow-query-log`` file (when
    given) and, with ``echo``, to stderr as one JSON line.
    """
    if args.slow_query_seconds is None:
        return None
    from repro.obs.slowlog import RotatingFileSink, SlowQueryLog

    file_sink = None
    if args.slow_query_log is not None:
        file_sink = RotatingFileSink(
            args.slow_query_log, keep=args.slow_query_log_keep
        )

    def sink(record) -> None:
        if file_sink is not None:
            file_sink(record)
        if echo:
            print(f"slow query: {record.as_json()}", file=sys.stderr)

    return SlowQueryLog(args.slow_query_seconds, sink=sink)


def _cmd_serve(args: argparse.Namespace) -> int:
    from time import perf_counter

    session = _session_for(args)
    interactive = sys.stdin.isatty()
    if interactive:
        print(
            f"repro serve — planner={args.planner}; terminate statements with ';', "
            "'\\stats' shows cache metrics, '\\metrics [json]' the registry, "
            "'\\top' the heaviest fingerprints, '\\history' full history, "
            "'\\quit' exits."
        )
    history = _history_for(args, default_memory=True)
    with QueryService(
        session,
        plan_cache_size=args.cache_size,
        feedback=args.feedback,
        qerror_threshold=args.qerror_threshold,
        slow_query_log=_slow_query_log_for(args),
        history=history,
    ) as service:

        def run_statement(statement: str) -> None:
            started = perf_counter()
            try:
                result = service.execute(statement, planner=args.planner)
            except Exception as error:  # noqa: BLE001 - REPL keeps going
                print(f"error: {error}", file=sys.stderr)
                return
            elapsed = perf_counter() - started
            _print_result(result, args.max_rows, show_metrics=False)
            print(
                f"[plan cache {'hit' if result.cache_hit else 'miss'} | "
                f"{elapsed:.4f}s elapsed]"
            )

        buffer = ""
        while True:
            if interactive:
                print("repro> " if not buffer.strip() else "   ... ", end="", flush=True)
            line = sys.stdin.readline()
            if not line:
                # EOF terminates the last statement, matching file semantics.
                for statement in split_statements(buffer):
                    run_statement(statement)
                break
            stripped = line.strip()
            if stripped in (r"\quit", r"\q", "exit", "quit") and not buffer.strip():
                break
            if stripped in (r"\stats",) and not buffer.strip():
                _print_cache_metrics(service)
                continue
            metrics_parts = stripped.split()
            if (
                metrics_parts
                and metrics_parts[0] == r"\metrics"
                and len(metrics_parts) <= 2
                and not buffer.strip()
            ):
                from repro.obs.registry import get_registry

                form = metrics_parts[1] if len(metrics_parts) == 2 else "prometheus"
                if form not in ("prometheus", "json"):
                    print(r"usage: \metrics [prometheus|json]", file=sys.stderr)
                elif form == "json":
                    print(get_registry().snapshot_json())
                else:
                    print(get_registry().render(), end="")
                continue
            if stripped == r"\top" and not buffer.strip():
                entries = history.stats.top(10, by="total_seconds")
                print(
                    f"{len(history.stats)} fingerprints, "
                    f"{len(history.regressions)} regression(s)"
                )
                print(_history_table(entries) if entries else "(no queries yet)")
                if history.regressions:
                    print(_regression_table(history.regressions))
                continue
            if stripped == r"\history" and not buffer.strip():
                entries = history.stats.top(len(history.stats) or 1)
                print(_history_table(entries) if entries else "(no queries yet)")
                continue
            # Only terminated statements run; the unterminated tail (e.g. a
            # multi-line statement, or a ';' hidden inside a string literal)
            # stays buffered.
            statements, buffer = scan_statements(buffer + line)
            for statement in statements:
                run_statement(statement)
    if history is not None:
        history.close()
    return 0


def _cmd_insert(args: argparse.Namespace) -> int:
    from repro.mutation import MutationError
    from repro.mutation.diskops import (
        append_rows_to_saved_catalog,
        rows_from_csv,
        rows_from_json,
        saved_table_types,
    )

    try:
        if (args.csv is None) == (args.values is None):
            raise MutationError("give exactly one of --csv or --values")
        if args.csv is not None:
            rows = rows_from_csv(args.csv, saved_table_types(args.data, args.table))
        else:
            rows = rows_from_json(args.values)
        record = append_rows_to_saved_catalog(args.data, args.table, rows)
    except (MutationError, KeyError, ValueError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(
        f"appended {record['rows']} rows to {args.table} "
        f"(segment {record['segment']})"
    )
    return 0


def _cmd_delete(args: argparse.Namespace) -> int:
    from repro.mutation import MutationError
    from repro.mutation.diskops import delete_rows_from_saved_catalog

    try:
        record = delete_rows_from_saved_catalog(args.data, args.table, args.where)
    except (MutationError, KeyError, ValueError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(f"deleted {record['rows']} rows from {args.table}")
    return 0


def _install_history(args: argparse.Namespace):
    """Install an ambient history for a maintenance verb; returns a restorer.

    ``repro compact --history-journal X`` / ``repro recover ...`` journal
    their compaction/recovery events through the ambient seam the mutation
    subsystem publishes into.  Returns a zero-argument cleanup callable.
    """
    from repro.obs.history import WorkloadHistory, set_history

    journal = getattr(args, "history_journal", None)
    if journal is None:
        return lambda: None
    history = WorkloadHistory(journal_path=journal)
    previous = set_history(history)

    def restore() -> None:
        set_history(previous)
        history.close()

    return restore


def _cmd_compact(args: argparse.Namespace) -> int:
    from repro.mutation.diskops import compact_saved_catalog

    restore = _install_history(args)
    try:
        summary = compact_saved_catalog(args.data)
    except (KeyError, ValueError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    finally:
        restore()
    print(
        f"compacted {summary['tables']} tables: folded {summary['records_folded']} "
        f"append-log records, reclaimed {summary['rows_reclaimed']} deleted rows "
        f"({summary['total_rows']} rows remain, generation {summary['generation']})"
    )
    return 0


def _cmd_recover(args: argparse.Namespace) -> int:
    from repro.mutation.recovery import recover_saved_catalog

    restore = _install_history(args)
    try:
        summary = recover_saved_catalog(args.data)
    except (KeyError, ValueError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    finally:
        restore()
    if not summary["wal"]:
        print("no write-ahead log: nothing to recover")
        return 0
    print(
        f"recovered to transaction {summary['last_txn']}: replayed "
        f"{summary['replayed_txns']} committed transaction(s), truncated "
        f"{summary['truncated_bytes']} torn/uncommitted byte(s)"
    )
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    from repro.mutation.wal import wal_status
    from repro.obs.instruments import publish_wal_status
    from repro.obs.registry import get_registry

    statements: list[str] = []
    if args.file:
        with open(args.file, encoding="utf-8") as handle:
            statements.extend(split_statements(handle.read()))
    for sql in args.sql or ():
        statements.extend(split_statements(sql))
    history = _history_for(args)
    if statements:
        session = _session_for(args)
        with QueryService(
            session,
            feedback=args.feedback,
            qerror_threshold=args.qerror_threshold,
            slow_query_log=_slow_query_log_for(args, echo=False),
            history=history,
        ) as service:
            for statement in statements:
                try:
                    service.execute(statement, planner=args.planner)
                except Exception as error:  # noqa: BLE001 - still render the registry
                    print(f"error: {error}", file=sys.stderr)
    if history is not None:
        history.close()
    registry = get_registry()
    try:
        publish_wal_status(registry, wal_status(args.data))
    except (KeyError, ValueError, OSError) as error:
        print(f"warning: wal status unavailable: {error}", file=sys.stderr)
    if args.format == "json":
        print(registry.snapshot_json())
    else:
        print(registry.render(), end="")
    return 0


def _journal_path(args: argparse.Namespace):
    """The journal file the history verbs read: --journal, else <data>/history.journal."""
    import os

    from repro.obs.journal import JOURNAL_NAME

    if getattr(args, "journal", None):
        return args.journal
    if getattr(args, "data", None):
        return os.path.join(args.data, JOURNAL_NAME)
    return None


def _history_for(args: argparse.Namespace, default_memory: bool = False):
    """A WorkloadHistory for a serving verb, or None when none was asked for.

    ``--history-journal PATH`` arms the persistent journal;
    ``--trace-sample-rate`` attaches sampled traces to its query events.
    ``default_memory=True`` (the serve REPL) keeps in-memory statistics even
    without a journal so ``\\top`` has something to show.
    """
    from repro.obs.history import WorkloadHistory

    journal = getattr(args, "history_journal", None)
    if journal is None and not default_memory:
        return None
    return WorkloadHistory(
        journal_path=journal,
        trace_sample_rate=getattr(args, "trace_sample_rate", 0.0),
    )


def _short(fingerprint: str, width: int = 16) -> str:
    """Fingerprints are long hashes; the tables show a readable prefix."""
    return fingerprint if len(fingerprint) <= width else fingerprint[:width]


def _history_table(entries) -> str:
    rows = [
        [
            _short(entry.fingerprint),
            entry.planner,
            entry.calls,
            entry.errors,
            entry.rows,
            f"{entry.total_seconds:.4f}",
            f"{entry.mean_seconds * 1e3:.2f}",
            f"{entry.percentile(95) * 1e3:.2f}",
            entry.pages_read,
            entry.cache_hits,
            entry.replans,
        ]
        for entry in entries
    ]
    return format_table(
        [
            "fingerprint",
            "planner",
            "calls",
            "errors",
            "rows",
            "total (s)",
            "mean (ms)",
            "p95 (ms)",
            "pages",
            "cache hits",
            "replans",
        ],
        rows,
    )


def _regression_table(events) -> str:
    rows = [
        [
            _short(event.fingerprint),
            event.metric,
            f"{event.baseline:.4f}",
            f"{event.recent:.4f}",
            f"{event.ratio:.2f}x",
            event.plan_hash or "-",
            event.calls,
        ]
        for event in events
    ]
    return format_table(
        ["fingerprint", "metric", "baseline", "recent", "ratio", "plan hash", "at call"],
        rows,
    )


def _replayed_history(args: argparse.Namespace):
    """Replay the journal named by the args into a fresh history, or None."""
    import os

    from repro.obs.history import WorkloadHistory

    journal = _journal_path(args)
    if journal is None:
        print("no journal: give --journal PATH or --data DIR", file=sys.stderr)
        return None
    if not os.path.exists(journal):
        print(f"no history journal at {journal}", file=sys.stderr)
        return None
    return WorkloadHistory.replay(
        journal,
        regression_threshold=args.threshold,
        baseline_calls=args.baseline_calls,
        regression_window=args.window,
    )


def _cmd_history(args: argparse.Namespace) -> int:
    import json

    history = _replayed_history(args)
    if history is None:
        return 2
    if args.history_command == "regressions":
        events = history.regressions
        if args.format == "json":
            print(json.dumps([event.as_dict() for event in events], indent=2))
        elif not events:
            print("no plan regressions detected")
        else:
            print(_regression_table(events))
        return 0
    entries = history.stats.top(args.top, by=args.by)
    if args.format == "json":
        print(json.dumps([entry.as_dict() for entry in entries], indent=2))
    elif not entries:
        print("no query history recorded")
    else:
        print(_history_table(entries))
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    import time as _time

    iterations = 0
    try:
        while True:
            history = _replayed_history(args)
            if history is None:
                return 2
            if sys.stdout.isatty() and iterations:
                print("\x1b[2J\x1b[H", end="")
            entries = history.stats.top(args.top, by=args.by)
            total_calls = sum(entry.calls for entry in history.stats.entries())
            print(
                f"repro top — {len(history.stats)} fingerprints, "
                f"{total_calls} calls, {len(history.regressions)} regression(s) "
                f"[by {args.by}]"
            )
            print(_history_table(entries) if entries else "(no query history yet)")
            if history.regressions:
                print(_regression_table(history.regressions))
            iterations += 1
            if args.iterations is not None and iterations >= args.iterations:
                return 0
            _time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0


def _cmd_wal_status(args: argparse.Namespace) -> int:
    from repro.mutation.wal import wal_status

    try:
        status = wal_status(args.data)
    except (KeyError, ValueError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.format == "json":
        # The status dictionary travels through a private MetricsRegistry so
        # the JSON document is exactly the registry's snapshot serialization.
        from repro.obs.instruments import publish_wal_status
        from repro.obs.registry import MetricsRegistry

        registry = MetricsRegistry()
        publish_wal_status(registry, status)
        print(registry.snapshot_json())
        return 0
    if not status["exists"]:
        print("no write-ahead log")
        return 0
    print(
        f"wal: {status['size_bytes']} bytes, {status['records']} records, "
        f"base txn {status['base_txn']}\n"
        f"committed: {status['committed_txns']}  applied: {status['applied_txns']}  "
        f"pending: {status['pending_txns']}  torn tail: {status['tail_bytes']} bytes"
    )
    return 0


def _cmd_table_stats(args: argparse.Namespace) -> int:
    from repro.stats.table_stats import collect_table_stats

    catalog = load_catalog(args.data)
    try:
        table = catalog.get(args.table_name)
    except KeyError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    stats = collect_table_stats(table)
    deleted = f" ({table.num_deleted} deleted)" if table.has_deletes() else ""
    print(
        f"{table.name}: {stats.num_rows} rows{deleted}, {table.num_pages} pages "
        f"of {stats.page_size} rows"
    )
    rows = [
        [
            column.name,
            table.column(column.name).ctype.value,
            column.distinct_count,
            column.null_count,
            "-" if column.min_value is None else column.min_value,
            "-" if column.max_value is None else column.max_value,
        ]
        for column in stats.columns.values()
    ]
    print(format_table(["column", "type", "distinct", "nulls", "min", "max"], rows))
    return 0


def _cmd_index(args: argparse.Namespace) -> int:
    from repro.storage.disk import (
        add_index_to_saved_catalog,
        drop_index_from_saved_catalog,
        list_saved_indexes,
    )

    if args.index_command == "create":
        try:
            definition = add_index_to_saved_catalog(
                args.data, args.table, args.column, kind=args.kind
            )
        except (KeyError, ValueError) as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        print(f"created index {definition.describe()}")
        return 0
    if args.index_command == "drop":
        try:
            entry = drop_index_from_saved_catalog(args.data, args.table, args.column)
        except KeyError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        print(f"dropped index {entry['table']}.{entry['column']} ({entry['kind']})")
        return 0
    entries = list_saved_indexes(args.data)
    if not entries:
        print("(no indexes)")
        return 0
    print(
        format_table(
            ["table", "column", "kind", "file"],
            [[entry["table"], entry["column"], entry["kind"], entry["file"]] for entry in entries],
        )
    )
    return 0


def _cmd_fuzz(args: argparse.Namespace) -> int:
    reports = run_fuzz_campaign(
        num_queries=args.queries,
        seed=args.seed,
        catalog_config=RandomCatalogConfig(
            seed=args.seed,
            num_dimensions=args.dimensions,
            fact_rows=args.table_size,
            dimension_rows=args.table_size,
        ),
        planners=tuple(args.planners),
    )
    for report in reports:
        print(report.describe())
    mismatches = [report for report in reports if not report.agreed]
    print(f"{len(reports) - len(mismatches)}/{len(reports)} queries agreed across all planners")
    return 1 if mismatches else 0


def _cmd_figures(args: argparse.Namespace) -> int:
    return bench_figures.main(args.figure_args)


# --------------------------------------------------------------------------- #
# Argument parsing
# --------------------------------------------------------------------------- #
def _add_feedback_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--feedback",
        action="store_true",
        help="record observed selectivities and re-plan cached queries whose "
        "cardinality estimates drift (results are unchanged)",
    )
    parser.add_argument(
        "--qerror-threshold",
        type=float,
        default=2.0,
        help="estimated-vs-actual output q-error above which a cached plan "
        "is re-planned (with --feedback)",
    )
    parser.add_argument(
        "--slow-query-seconds",
        type=float,
        default=None,
        help="arm the slow-query log: queries at or over this many seconds "
        "emit a structured JSON record on stderr",
    )


def _add_history_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--history-journal",
        metavar="PATH",
        default=None,
        help="record workload history (per-fingerprint statistics, query / "
        "re-plan / slow-query / regression events) into a persistent "
        "checksummed journal at PATH (read back with 'repro history' "
        "and 'repro top')",
    )
    parser.add_argument(
        "--trace-sample-rate",
        type=float,
        default=0.0,
        help="fraction of journaled query events carrying a full trace "
        "attachment (0 = never, 1 = always; requires --history-journal)",
    )
    parser.add_argument(
        "--slow-query-log",
        metavar="PATH",
        default=None,
        help="also write slow-query records (one JSON line each) to PATH, "
        "rotated by size (requires --slow-query-seconds)",
    )
    parser.add_argument(
        "--slow-query-log-keep",
        type=int,
        default=3,
        metavar="N",
        help="rotated slow-query log files kept (default 3)",
    )


def _add_history_read_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--journal", help="history journal file to read")
    parser.add_argument(
        "--data", help="dataset directory (journal defaults to <data>/history.journal)"
    )
    parser.add_argument("--top", type=int, default=10, help="fingerprints shown")
    from repro.obs.history import TOP_ORDERINGS

    parser.add_argument(
        "--by",
        choices=TOP_ORDERINGS,
        default="total_seconds",
        help="ordering of the top list",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=2.0,
        help="regression threshold (recent median vs baseline median)",
    )
    parser.add_argument(
        "--baseline-calls",
        type=int,
        default=8,
        help="observations forming a fingerprint's baseline",
    )
    parser.add_argument(
        "--window",
        type=int,
        default=4,
        help="size of the recent window compared against the baseline",
    )


def _add_parallel_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--parallelism",
        type=int,
        default=1,
        help="worker threads per query (morsel-driven; byte-identical output "
        "at any worker count for a fixed --partitions)",
    )
    parser.add_argument(
        "--partitions",
        type=int,
        default=None,
        help="table partitions per query (defaults to --parallelism times --shards)",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=1,
        help="shared-nothing worker processes per query (scatter-gather; "
        "1 = in-process execution; byte-identical output at any shard "
        "count for a fixed --partitions, and --parallelism threads run "
        "inside each shard)",
    )
    parser.add_argument(
        "--no-access-paths",
        action="store_true",
        help="disable zone-map/index scan pruning (results are identical "
        "either way; every page is read)",
    )


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Tagged execution for disjunctive queries — reproduction CLI.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    generate = subparsers.add_parser("generate", help="generate and save a dataset")
    generate.add_argument("dataset", choices=("synthetic", "imdb", "fuzz"))
    generate.add_argument("--out", required=True, help="output directory")
    generate.add_argument("--seed", type=int, default=7)
    generate.add_argument("--table-size", type=int, default=10_000, help="rows per table")
    generate.add_argument("--scale", type=float, default=0.05, help="IMDB scale factor")
    generate.add_argument("--dimensions", type=int, default=2, help="fuzz dimension tables")
    generate.set_defaults(func=_cmd_generate)

    query = subparsers.add_parser("query", help="run a SQL query against a saved dataset")
    query.add_argument("--data", required=True, help="catalog directory")
    query.add_argument("--sql", required=True, help="SQL text")
    query.add_argument("--planner", default="tcombined", choices=sorted(PLANNERS))
    query.add_argument("--max-rows", type=int, default=DEFAULT_MAX_ROWS)
    query.add_argument("--metrics", action="store_true", help="print work counters")
    query.add_argument(
        "--explain-analyze",
        action="store_true",
        help="execute, then print estimated vs actual rows per operator",
    )
    query.add_argument(
        "--snapshot",
        type=int,
        default=None,
        help="read the dataset as of the first K append-log records "
        "(0 = the base state; default: all records applied)",
    )
    query.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="trace the execution and write the span tree to PATH "
        "(results are byte-identical with tracing on or off)",
    )
    query.add_argument(
        "--trace-format",
        choices=("json", "chrome"),
        default="json",
        help="trace file format: json = hierarchical span tree, "
        "chrome = trace-event list for chrome://tracing / Perfetto",
    )
    _add_parallel_flags(query)
    query.set_defaults(func=_cmd_query)

    explain = subparsers.add_parser("explain", help="print the chosen plan")
    explain.add_argument("--data", required=True)
    explain.add_argument("--sql", required=True)
    explain.add_argument("--planner", default="tcombined", choices=sorted(PLANNERS))
    explain.set_defaults(func=_cmd_explain)

    compare = subparsers.add_parser("compare", help="run one query under several planners")
    compare.add_argument("--data", required=True)
    compare.add_argument("--sql", required=True)
    compare.add_argument(
        "--planners",
        nargs="+",
        default=["tcombined", "bdisj", "bpushconj"],
        choices=sorted(PLANNERS),
    )
    _add_parallel_flags(compare)
    compare.set_defaults(func=_cmd_compare)

    batch = subparsers.add_parser(
        "batch", help="run many queries through the caching query service"
    )
    batch.add_argument("--data", required=True, help="catalog directory")
    batch.add_argument("--file", help="file of ;-separated SQL statements")
    batch.add_argument("--sql", action="append", help="inline SQL (repeatable)")
    batch.add_argument("--planner", default="tcombined", choices=sorted(PLANNERS))
    batch.add_argument("--repeat", type=int, default=1, help="repetitions of the query list")
    batch.add_argument("--workers", type=int, default=4, help="worker threads")
    batch.add_argument("--timeout", type=float, default=None, help="per-query timeout (s)")
    batch.add_argument("--cache-size", type=int, default=256, help="plan cache capacity")
    batch.add_argument("--metrics", action="store_true", help="print summed work counters")
    _add_feedback_flags(batch)
    _add_history_flags(batch)
    _add_parallel_flags(batch)
    batch.set_defaults(func=_cmd_batch)

    serve = subparsers.add_parser(
        "serve", help="read SQL from stdin and serve it with plan caching"
    )
    serve.add_argument("--data", required=True, help="catalog directory")
    serve.add_argument("--planner", default="tcombined", choices=sorted(PLANNERS))
    serve.add_argument("--cache-size", type=int, default=256, help="plan cache capacity")
    serve.add_argument("--max-rows", type=int, default=DEFAULT_MAX_ROWS)
    _add_feedback_flags(serve)
    _add_history_flags(serve)
    _add_parallel_flags(serve)
    serve.set_defaults(func=_cmd_serve)

    insert = subparsers.add_parser(
        "insert", help="append rows to a saved dataset's append log"
    )
    insert.add_argument("--data", required=True, help="catalog directory")
    insert.add_argument("--table", required=True)
    insert.add_argument("--csv", help="CSV file with a header row (empty cells = NULL)")
    insert.add_argument(
        "--values", help='inline JSON rows, e.g. \'[{"id": 1, "v": 2.5}]\''
    )
    insert.set_defaults(func=_cmd_insert)

    delete = subparsers.add_parser(
        "delete", help="logically delete rows matching a predicate"
    )
    delete.add_argument("--data", required=True, help="catalog directory")
    delete.add_argument("--table", required=True)
    delete.add_argument(
        "--where",
        required=True,
        help="SQL predicate over the table, e.g. \"T1.A1 > 0.9\"",
    )
    delete.set_defaults(func=_cmd_delete)

    compact = subparsers.add_parser(
        "compact", help="fold the append log into a new table generation"
    )
    compact.add_argument("--data", required=True, help="catalog directory")
    compact.add_argument(
        "--history-journal",
        metavar="PATH",
        default=None,
        help="journal the compaction event (tables, rows reclaimed, "
        "generation) into the history journal at PATH",
    )
    compact.set_defaults(func=_cmd_compact)

    recover = subparsers.add_parser(
        "recover", help="replay the write-ahead log to the last committed batch"
    )
    recover.add_argument("--data", required=True, help="catalog directory")
    recover.add_argument(
        "--history-journal",
        metavar="PATH",
        default=None,
        help="journal the recovery event (replayed transactions, truncated "
        "bytes) into the history journal at PATH",
    )
    recover.set_defaults(func=_cmd_recover)

    wal = subparsers.add_parser("wal", help="inspect the write-ahead log")
    wal_sub = wal.add_subparsers(dest="wal_command", required=True)
    wal_stat = wal_sub.add_parser(
        "status", help="committed/applied/pending transactions and torn bytes"
    )
    wal_stat.add_argument("--data", required=True, help="catalog directory")
    wal_stat.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="text = human-readable summary, json = machine-readable gauges "
        "(the metrics registry's snapshot serialization)",
    )
    wal_stat.set_defaults(func=_cmd_wal_status)

    metrics = subparsers.add_parser(
        "metrics", help="print the process metrics registry"
    )
    metrics.add_argument("--data", required=True, help="catalog directory")
    metrics.add_argument(
        "--sql", action="append", help="inline SQL to run first so counters move (repeatable)"
    )
    metrics.add_argument("--file", help="file of ;-separated SQL statements to run first")
    metrics.add_argument("--planner", default="tcombined", choices=sorted(PLANNERS))
    metrics.add_argument(
        "--format",
        choices=("prometheus", "json"),
        default="prometheus",
        help="prometheus = text exposition format, json = the registry's "
        "snapshot serialization (same shape as 'wal status --format json')",
    )
    _add_feedback_flags(metrics)
    _add_history_flags(metrics)
    _add_parallel_flags(metrics)
    metrics.set_defaults(func=_cmd_metrics)

    history = subparsers.add_parser(
        "history",
        help="per-fingerprint workload statistics replayed from an event journal",
    )
    history.add_argument(
        "history_command",
        nargs="?",
        choices=("top", "regressions"),
        default="top",
        help="top = heaviest fingerprints (default), regressions = detected "
        "plan regressions",
    )
    _add_history_read_flags(history)
    history.add_argument(
        "--format",
        choices=("table", "json"),
        default="table",
        help="table = human-readable, json = machine-readable",
    )
    history.set_defaults(func=_cmd_history)

    top = subparsers.add_parser(
        "top", help="refreshing top-N view over a dataset's history journal"
    )
    _add_history_read_flags(top)
    top.add_argument(
        "--interval", type=float, default=2.0, help="seconds between refreshes"
    )
    top.add_argument(
        "--iterations",
        type=int,
        default=None,
        help="render this many frames then exit (default: until interrupted)",
    )
    top.set_defaults(func=_cmd_top)

    table = subparsers.add_parser("table", help="introspect a saved dataset")
    table_sub = table.add_subparsers(dest="table_command", required=True)
    table_stats = table_sub.add_parser(
        "stats", help="print rows/pages and per-column min-max/distinct/null stats"
    )
    table_stats.add_argument("table_name", help="table to describe")
    table_stats.add_argument("--data", required=True, help="catalog directory")
    table_stats.set_defaults(func=_cmd_table_stats)

    index = subparsers.add_parser(
        "index", help="create / drop / list secondary indexes on a saved dataset"
    )
    index_sub = index.add_subparsers(dest="index_command", required=True)
    index_create = index_sub.add_parser("create", help="create an index")
    index_create.add_argument("--data", required=True, help="catalog directory")
    index_create.add_argument("--table", required=True)
    index_create.add_argument("--column", required=True)
    index_create.add_argument(
        "--kind",
        default="auto",
        choices=("auto", "bitmap", "sorted"),
        help="bitmap (low-distinct), sorted (ranges) or auto (by distinct count)",
    )
    index_create.set_defaults(func=_cmd_index)
    index_drop = index_sub.add_parser("drop", help="drop an index")
    index_drop.add_argument("--data", required=True, help="catalog directory")
    index_drop.add_argument("--table", required=True)
    index_drop.add_argument("--column", required=True)
    index_drop.set_defaults(func=_cmd_index)
    index_list = index_sub.add_parser("list", help="list indexes")
    index_list.add_argument("--data", required=True, help="catalog directory")
    index_list.set_defaults(func=_cmd_index)

    fuzz = subparsers.add_parser("fuzz", help="differential-test planners against the oracle")
    fuzz.add_argument("--queries", type=int, default=10)
    fuzz.add_argument("--seed", type=int, default=0)
    fuzz.add_argument("--table-size", type=int, default=150)
    fuzz.add_argument("--dimensions", type=int, default=2)
    fuzz.add_argument(
        "--planners", nargs="+", default=list(DEFAULT_PLANNERS), choices=sorted(PLANNERS)
    )
    fuzz.set_defaults(func=_cmd_fuzz)

    figures = subparsers.add_parser(
        "figures", help="regenerate paper figures (see repro.bench.figures)"
    )
    figures.add_argument("figure_args", nargs=argparse.REMAINDER)
    figures.set_defaults(func=_cmd_figures)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    sys.exit(main())
