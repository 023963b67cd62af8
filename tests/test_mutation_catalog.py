"""Catalog-version semantics under mutation, and service cache maintenance."""

from __future__ import annotations

import pytest

from repro import Catalog, QueryService, Session, Table
from repro.access.manager import ensure_access_manager
from repro.service.plan_cache import PlanCache
from repro.service.stats_cache import StatsCache


def two_table_catalog() -> Catalog:
    return Catalog(
        [
            Table.from_dict("t", {"id": list(range(8)), "v": [float(i) for i in range(8)]}),
            Table.from_dict("u", {"id": list(range(4)), "w": [1, 2, 3, 4]}),
        ]
    )


class TestVersionSemantics:
    def test_one_bump_per_committed_batch(self):
        catalog = two_table_catalog()
        before = catalog.version
        batch = catalog.begin_mutation()
        batch.insert("t", [{"id": 100, "v": 1.0}])
        batch.insert("u", [{"id": 100, "w": 9}])
        batch.delete("t", positions=[0])
        batch.commit()
        assert catalog.version == before + 1
        # Both mutated tables adopt the same new version.
        assert catalog.table_version("t") == catalog.table_version("u") == catalog.version

    def test_unrelated_table_keeps_its_version(self):
        catalog = two_table_catalog()
        u_version = catalog.table_version("u")
        batch = catalog.begin_mutation()
        batch.insert("t", [{"id": 100, "v": 1.0}])
        batch.commit()
        assert catalog.table_version("u") == u_version
        assert catalog.table_version("t") == catalog.version

    def test_index_ddl_and_mutation_interplay(self):
        catalog = two_table_catalog()
        manager = ensure_access_manager(catalog)
        manager.create_index("t", "v")
        ddl_version = manager.version
        batch = catalog.begin_mutation()
        batch.insert("t", [{"id": 100, "v": 50.0}])
        batch.commit()
        # A mutation does not bump the DDL counter — only create/drop do —
        # and the definition survives with an extended materialization.
        assert manager.version == ddl_version
        assert manager.has_index("t", "v")
        assert manager.index_for("t", "v").size == 9
        manager.drop_index("t", "v")
        assert manager.version == ddl_version + 1

    def test_table_drop_after_mutation(self):
        catalog = two_table_catalog()
        batch = catalog.begin_mutation()
        batch.insert("t", [{"id": 100, "v": 1.0}])
        batch.commit()
        mutated_version = catalog.version
        catalog.drop("t")
        assert catalog.version == mutated_version + 1
        with pytest.raises(KeyError):
            catalog.table_version("t")
        # Staging against a dropped table fails loudly.
        with pytest.raises(KeyError):
            catalog.begin_mutation().insert("t", [{"id": 1}])

    def test_apply_mutation_rejects_unknown_tables(self):
        catalog = two_table_catalog()
        with pytest.raises(KeyError):
            catalog.apply_mutation({"nope": catalog.get("t")})


class TestSnapshotReads:
    def test_stale_prepared_plan_reads_original_snapshot(self):
        catalog = two_table_catalog()
        session = Session(catalog)
        sql = "SELECT t.id FROM t AS t WHERE t.v >= 0.0"
        prepared = session.prepare(sql)
        before = session.execute_prepared(prepared).sorted_rows()
        batch = catalog.begin_mutation()
        batch.insert("t", [{"id": 100, "v": 5.0}])
        batch.delete("t", positions=[1])
        batch.commit()
        assert session.execute_prepared(prepared).sorted_rows() == before
        assert session.execute(sql).sorted_rows() != before

    def test_snapshot_survives_multiple_commits(self):
        catalog = two_table_catalog()
        session = Session(catalog)
        prepared = session.prepare("SELECT t.id FROM t AS t WHERE t.id < 100")
        before = session.execute_prepared(prepared).row_count
        for step in range(3):
            batch = catalog.begin_mutation()
            batch.insert("t", [{"id": 100 + step, "v": 1.0}])
            batch.commit()
        assert session.execute_prepared(prepared).row_count == before


class TestServiceMaintenance:
    def test_only_mutated_tables_plans_invalidated(self):
        catalog = two_table_catalog()
        service = QueryService(Session(catalog))
        sql_t = "SELECT t.id FROM t AS t WHERE t.v > 1.0"
        sql_u = "SELECT u.id FROM u AS u WHERE u.w > 1"
        service.execute(sql_t)
        service.execute(sql_u)
        assert len(service.plan_cache) == 2
        batch = catalog.begin_mutation()
        batch.insert("t", [{"id": 100, "v": 9.0}])
        batch.commit()
        assert len(service.plan_cache) == 1  # t's plan retired, u's kept
        assert service.execute(sql_u).cache_hit
        fresh = service.execute(sql_t)
        assert not fresh.cache_hit
        assert fresh.row_count == 7
        service.close()

    def test_stats_cache_extended_not_recollected(self):
        catalog = two_table_catalog()
        service = QueryService(Session(catalog))
        service.execute("SELECT t.id FROM t AS t WHERE t.v > 1.0")
        batch = catalog.begin_mutation()
        batch.insert("t", [{"id": 100, "v": 9.0}])
        batch.commit()
        # The post-commit stats entry exists already (extended by delta, not
        # recollected): probing it is a hit, not a miss.  Samples are the one
        # thing deliberately redrawn — the row population changed.
        misses_before = service.stats_cache.stats.misses
        hits_before = service.stats_cache.stats.hits
        stats = service.stats_cache.table_stats(catalog.get("t"))
        assert service.stats_cache.stats.misses == misses_before
        assert service.stats_cache.stats.hits == hits_before + 1
        assert stats.num_rows == 9
        assert stats.columns["v"].max_value == 9.0
        service.close()

    def test_feedback_observations_dropped_for_mutated_tables(self):
        catalog = two_table_catalog()
        service = QueryService(Session(catalog), feedback=True)
        service.execute("SELECT t.id FROM t AS t WHERE t.v > 1.0")
        service.execute("SELECT u.id FROM u AS u WHERE u.w > 1")
        assert len(service.feedback_store) == 2
        batch = catalog.begin_mutation()
        batch.insert("t", [{"id": 100, "v": 9.0}])
        batch.commit()
        assert len(service.feedback_store) == 1
        service.close()

    def test_prepared_plan_pins_only_its_tables(self):
        catalog = two_table_catalog()
        session = Session(catalog)
        prepared = session.prepare("SELECT u.id FROM u AS u WHERE u.w > 1")
        assert set(prepared.snapshot.table_names) == {"u"}

    def test_abandoned_service_is_garbage_collectable(self):
        import gc
        import weakref as weakref_module

        catalog = two_table_catalog()
        service = QueryService(Session(catalog))
        service.execute("SELECT u.id FROM u AS u WHERE u.w > 1")
        ref = weakref_module.ref(service)
        del service
        gc.collect()
        assert ref() is None  # the catalog subscription must not pin it
        # ... and the stale weak callback is a harmless no-op on commit.
        batch = catalog.begin_mutation()
        batch.insert("t", [{"id": 100, "v": 1.0}])
        batch.commit()

    def test_closed_service_frees_its_catalog_by_reference_counting(self):
        import gc
        import weakref as weakref_module

        from repro.obs.history import WorkloadHistory

        history = WorkloadHistory()
        gc.collect()
        gc.disable()
        try:
            catalog = two_table_catalog()
            service = QueryService(Session(catalog), history=history)
            service.execute("SELECT u.id FROM u AS u WHERE u.w > 1")
            (entry,) = history.stats.entries()
            # The weak re-plan hook still reaches the history while the
            # service lives.
            assert service.plan_cache.invalidate_entry(entry.fingerprint)
            assert entry.replans == 1
            service.close()
            dead = weakref_module.ref(catalog), weakref_module.ref(service.session)
            del catalog, service
            assert [ref() for ref in dead] == [None, None]
        finally:
            gc.enable()

    def test_closed_service_stops_reacting(self):
        catalog = two_table_catalog()
        service = QueryService(Session(catalog))
        service.execute("SELECT u.id FROM u AS u WHERE u.w > 1")
        service.close()
        batch = catalog.begin_mutation()
        batch.insert("t", [{"id": 100, "v": 1.0}])
        batch.commit()  # must not raise into the closed service


class TestPlanCacheInvalidateEntry:
    def test_invalidate_absent_fingerprint_is_noop(self):
        cache = PlanCache(capacity=4)
        assert cache.invalidate_entry("never-inserted") is False
        assert cache.stats.invalidations == 0

    def test_invalidate_after_concurrent_eviction_is_noop(self):
        cache = PlanCache(capacity=1)
        cache.put("a", object())
        cache.put("b", object())  # evicts "a"
        assert cache.invalidate_entry("a") is False
        assert cache.invalidate_entry("b") is True
        assert cache.invalidate_entry("b") is False  # already gone

    def test_invalidate_matching_drops_only_matches(self):
        cache = PlanCache(capacity=8)
        cache.put("x", {"table": "t"})
        cache.put("y", {"table": "u"})
        dropped = cache.invalidate_matching(lambda value: value["table"] == "t")
        assert dropped == 1
        assert "y" in cache and "x" not in cache

    def test_invalidate_matching_survives_raising_predicate(self):
        cache = PlanCache(capacity=8)
        cache.put("x", object())
        assert cache.invalidate_matching(lambda value: value.missing) == 0
        assert "x" in cache


class TestStatsCacheDelta:
    def test_apply_delta_without_cached_entry_is_lazy(self):
        catalog = two_table_catalog()
        cache = StatsCache(catalog)
        batch = catalog.begin_mutation()
        batch.insert("t", [{"id": 100, "v": 1.0}])
        commit = batch.commit()
        assert cache.apply_delta(commit.deltas["t"]) is False
        # Lazy recollection still works and reflects the commit.
        assert cache.table_stats(catalog.get("t")).num_rows == 9
