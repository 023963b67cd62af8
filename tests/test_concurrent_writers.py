"""Concurrent writers: conflict detection, retry convergence, and the
writers-during-online-compaction differential.

The headline test runs real writer threads committing durable batches while
an online compaction folds the dataset underneath them, with a prepared plan
pinned to the pre-compaction snapshot the whole time.  Afterwards every
planner must return identical results, the prepared plan must still see its
old snapshot, and a cold reload from disk must agree with the live catalog.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro import Catalog, Session, Table
from repro.engine.session import PLANNERS
from repro.mutation import Compactor, ConflictError, retry_on_conflict
from repro.mutation.diskops import (
    append_rows_to_saved_catalog,
    delete_rows_from_saved_catalog,
)
from repro.storage.disk import load_catalog, save_catalog


def _table(rows=60):
    return Table.from_dict(
        "t",
        {
            "id": list(range(rows)),
            "v": [float(i % 7) for i in range(rows)],
            "s": [f"n{i % 4}" for i in range(rows)],
        },
    )


def _saved_dataset(tmp_path):
    root = tmp_path / "data"
    save_catalog(Catalog([_table()]), root)
    # History for compaction to fold: one append delta, one delete delta.
    append_rows_to_saved_catalog(
        root, "t", [{"id": 100 + i, "v": float(i % 7), "s": "x"} for i in range(10)]
    )
    delete_rows_from_saved_catalog(root, "t", "t.id < 6")
    return root


class TestFirstCommitterWins:
    def test_loser_raises_conflict_error_with_nothing_applied(self):
        catalog = Catalog([_table()])
        winner = catalog.begin_mutation().insert("t", [{"id": 200, "v": 1.0, "s": "a"}])
        loser = catalog.begin_mutation().insert("t", [{"id": 201, "v": 2.0, "s": "b"}])
        winner.commit()
        rows_after_winner = catalog.get("t").num_rows
        with pytest.raises(ConflictError) as excinfo:
            loser.commit()
        assert excinfo.value.tables == ["t"]
        assert catalog.get("t").num_rows == rows_after_winner  # loser applied nothing

    def test_disjoint_tables_do_not_conflict(self):
        other = Table.from_dict("u", {"k": [1, 2, 3]})
        catalog = Catalog([_table(), other])
        first = catalog.begin_mutation().insert("t", [{"id": 200, "v": 1.0, "s": "a"}])
        second = catalog.begin_mutation().insert("u", [{"k": 9}])
        first.commit()
        second.commit()  # no shared table, no conflict
        assert catalog.get("u").num_rows == 4

    def test_retry_on_conflict_restages_and_wins(self):
        catalog = Catalog([_table()])
        loser = catalog.begin_mutation().insert("t", [{"id": 201, "v": 2.0, "s": "b"}])
        catalog.begin_mutation().insert("t", [{"id": 200, "v": 1.0, "s": "a"}]).commit()
        with pytest.raises(ConflictError):
            loser.commit()
        retry_on_conflict(
            catalog, lambda batch: batch.insert("t", [{"id": 201, "v": 2.0, "s": "b"}])
        )
        ids = {row["id"] for row in catalog.get("t").rows()}
        assert {200, 201} <= ids

    def test_retry_gives_up_after_attempts(self):
        catalog = Catalog([_table()])

        def always_lose(batch):
            batch.insert("t", [{"id": 300, "v": 0.0, "s": "z"}])
            # Another writer sneaks in between staging and commit.
            catalog.begin_mutation().insert(
                "t", [{"id": 400 + catalog.table_version("t"), "v": 0.0, "s": "w"}]
            ).commit()

        with pytest.raises(ConflictError):
            retry_on_conflict(catalog, always_lose, attempts=3, sleep=lambda _t: None)


class TestThreadedRetryConvergence:
    def test_contending_writers_all_converge(self):
        catalog = Catalog([_table()])
        threads, errors = [], []
        barrier = threading.Barrier(8)

        def writer(k):
            def stage(batch):
                batch.insert(
                    "t", [{"id": 10_000 + 10 * k + i, "v": 0.0, "s": "w"} for i in range(3)]
                )

            try:
                barrier.wait()
                for _ in range(4):
                    retry_on_conflict(catalog, stage, attempts=64)
            except Exception as error:  # pragma: no cover - failure reporting
                errors.append(error)

        for k in range(8):
            threads.append(threading.Thread(target=writer, args=(k,)))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        # Every writer's last round of ids landed (ids are reused per round,
        # so the final table holds each writer's 3 distinct ids once per
        # version history; live count grew by 8 writers * 4 rounds * 3 rows).
        assert catalog.get("t").num_rows == 60 + 8 * 4 * 3


class TestWritersDuringOnlineCompaction:
    def test_differential_across_planners_and_snapshots(self, tmp_path):
        root = _saved_dataset(tmp_path)
        catalog = load_catalog(root, durable=True)
        session = Session(catalog)

        sql = "SELECT t.id, t.v FROM t AS t WHERE t.v = 1.0 OR t.v = 3.0"
        prepared = session.prepare(sql, planner="tcombined")
        before = sorted(session.execute_prepared(prepared).rows)

        writer_ids: set[int] = set()
        errors: list[Exception] = []
        barrier = threading.Barrier(4)

        def writer(k):
            rows = [
                {"id": 10_000 + 100 * k + i, "v": float(i % 7), "s": f"n{i % 4}"}
                for i in range(8)
            ]
            writer_ids.update(row["id"] for row in rows)

            try:
                barrier.wait()
                for row in rows:
                    retry_on_conflict(
                        catalog, lambda batch, row=row: batch.insert("t", [row]), attempts=64
                    )
            except Exception as error:  # pragma: no cover - failure reporting
                errors.append(error)

        summary = {}

        def compact():
            try:
                barrier.wait()
                summary.update(Compactor(root, catalog=catalog).run())
            except Exception as error:  # pragma: no cover - failure reporting
                errors.append(error)

        threads = [threading.Thread(target=writer, args=(k,)) for k in range(3)]
        threads.append(threading.Thread(target=compact))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert summary["generation"] == 1

        # The prepared plan pinned its snapshot before compaction and before
        # any writer committed: it must still return exactly the old rows.
        assert sorted(session.execute_prepared(prepared).rows) == before

        # Ground truth from the live table itself.
        table = catalog.get("t")
        mask = table.delete_mask
        positions = np.arange(table.num_rows) if mask is None else np.flatnonzero(~mask)
        live = {row["id"] for row in table.rows(positions)}
        assert writer_ids <= live  # every retried commit converged
        assert live == (set(range(6, 60)) | set(range(100, 110)) | writer_ids)

        # Differential: every planner returns byte-identical rows.
        expected = None
        for planner in PLANNERS:
            result = session.execute(sql, planner=planner)
            rows = sorted(result.rows)
            if expected is None:
                expected = rows
            assert rows == expected, f"planner {planner} diverged"

        # A cold reload of the compacted dataset agrees with the live catalog.
        reloaded = Session(load_catalog(root))
        assert sorted(reloaded.execute(sql).rows) == expected

    def test_conflicting_batch_across_compaction_retries_cleanly(self, tmp_path):
        root = _saved_dataset(tmp_path)
        catalog = load_catalog(root, durable=True)
        stale = catalog.begin_mutation().insert("t", [{"id": 900, "v": 1.0, "s": "q"}])
        # Online compaction rewrites the table layout (physical positions
        # move), bumping the table version: the in-flight batch must lose.
        Compactor(root, catalog=catalog).run()
        with pytest.raises(ConflictError):
            stale.commit()
        retry_on_conflict(
            catalog, lambda batch: batch.insert("t", [{"id": 900, "v": 1.0, "s": "q"}])
        )
        assert 900 in {row["id"] for row in catalog.get("t").rows()}
        assert 900 in {row["id"] for row in load_catalog(root).get("t").rows()}


class TestOverlappingCompactions:
    def test_second_compaction_waits_and_every_committed_row_survives(
        self, tmp_path, monkeypatch
    ):
        import repro.mutation.compact as compact_module

        root = _saved_dataset(tmp_path)
        first_folding, release_first = threading.Event(), threading.Event()
        second_folding = threading.Event()
        real_load = compact_module.load_catalog

        def load_for_fold(*args, **kwargs):
            folded = real_load(*args, **kwargs)
            if threading.current_thread().name == "first":
                first_folding.set()
                assert release_first.wait(timeout=30)
            else:
                second_folding.set()
            return folded

        monkeypatch.setattr(compact_module, "load_catalog", load_for_fold)
        summaries: dict[str, dict] = {}
        errors: list[Exception] = []

        def compact(name):
            try:
                summaries[name] = Compactor(root).run()
            except Exception as error:  # pragma: no cover - failure reporting
                errors.append(error)

        first = threading.Thread(target=compact, args=("first",), name="first")
        second = threading.Thread(target=compact, args=("second",), name="second")
        first.start()
        assert first_folding.wait(timeout=30)
        # Committed between the two pins: the first fold has pinned past it.
        append_rows_to_saved_catalog(root, "t", [{"id": 500, "v": 1.0, "s": "a"}])
        second.start()
        # The second compaction must not reach its fold while the first runs.
        assert not second_folding.wait(timeout=0.5)
        append_rows_to_saved_catalog(root, "t", [{"id": 501, "v": 2.0, "s": "b"}])
        release_first.set()
        first.join()
        second.join()

        assert errors == []
        assert summaries["first"]["generation"] == 1
        assert summaries["second"]["generation"] == 2
        assert summaries["second"]["tail_records"] == 0
        ids = {row["id"] for row in load_catalog(root).get("t").rows()}
        assert ids == set(range(6, 60)) | set(range(100, 110)) | {500, 501}
