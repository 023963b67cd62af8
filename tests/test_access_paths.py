"""Unit tests for the access-path subsystem (zone maps, indexes, pruning)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import Catalog, Column, Session, Table
from repro.access.chooser import AccessPathChooser
from repro.access.dictionary import DictionaryEncoding
from repro.access.indexes import BitmapIndex, SortedIndex, build_index
from repro.access.manager import AccessPathManager, ensure_access_manager
from repro.access.pruning import implied_alias_predicate
from repro.access.zonemap import build_zone_map
from repro.core.planner.base import PlannerContext
from repro.expr.builders import and_, col, in_, is_null, like, lit, not_, or_
from repro.expr import three_valued as tv
from repro.expr.eval import RowBatch
from repro.optimizer import explain_analyze_report
from repro.sql import parse_query

PAGE = 8  # small pages so a few hundred rows span many pages


def _column(name, values, **kwargs):
    return Column(name, values, page_size=PAGE, **kwargs)


@pytest.fixture()
def clustered_table() -> Table:
    """96 rows over 12 pages; ``ts`` is clustered, ``cat`` is low-distinct."""
    n = 96
    return Table(
        "events",
        [
            _column("id", list(range(n))),
            _column("ts", list(range(100, 100 + n))),
            _column("cat", [f"c{i % 4}" for i in range(n)]),
            _column("score", [float(i % 10) if i % 7 else None for i in range(n)]),
        ],
    )


def _true_rows(table: Table, predicate) -> set[int]:
    batch = RowBatch.for_base_table("e", table)
    truth = predicate.evaluate(batch)
    return set(np.flatnonzero(tv.is_true(truth)).tolist())


# --------------------------------------------------------------------------- #
# Zone maps
# --------------------------------------------------------------------------- #
class TestZoneMap:
    def test_range_pruning_is_sound_and_tight_on_clustered_data(self, clustered_table):
        zone_map = build_zone_map(clustered_table.column("ts"))
        predicate = col("e", "ts") < lit(110)  # rows 0..9 -> pages 0 and 1
        mask = zone_map.page_mask(predicate)
        assert mask is not None
        assert mask.tolist() == [True, True] + [False] * (zone_map.num_pages - 2)

    @pytest.mark.parametrize(
        "predicate",
        [
            col("e", "ts") < lit(110),
            col("e", "ts") >= lit(180),
            col("e", "ts").eq(133),
            lit(150) > col("e", "ts"),
            in_(col("e", "cat"), ["c1", "nope"]),
            like(col("e", "cat"), "c2%"),
            is_null(col("e", "score")),
            is_null(col("e", "score"), negated=True),
        ],
    )
    def test_kept_pages_cover_every_true_row(self, clustered_table, predicate):
        column_name = next(
            name for name in ("ts", "cat", "score") if name in predicate.key()
        )
        zone_map = build_zone_map(clustered_table.column(column_name))
        pages = zone_map.candidate_pages(predicate, clustered_table.num_rows)
        assert pages is not None
        kept = set(pages.rows().tolist())
        assert _true_rows(clustered_table, predicate) <= kept

    def test_unsupported_shapes_return_none(self, clustered_table):
        zone_map = build_zone_map(clustered_table.column("ts"))
        assert zone_map.page_mask(col("e", "ts").ne(110)) is None  # != unsound w/ NaN
        assert zone_map.page_mask(col("e", "ts") < col("e", "id")) is None
        assert zone_map.page_mask(like(col("e", "cat"), "%2")) is None

    def test_type_mismatch_degrades_to_no_pruning(self, clustered_table):
        zone_map = build_zone_map(clustered_table.column("cat"))
        assert zone_map.page_mask(col("e", "cat") < lit(5)) is None

    def test_round_trip_through_arrays(self, clustered_table):
        zone_map = build_zone_map(clustered_table.column("score"))
        from repro.access.zonemap import ColumnZoneMap

        clone = ColumnZoneMap.from_arrays("score", zone_map.to_arrays())
        predicate = col("e", "score") >= lit(8.0)
        assert clone.page_mask(predicate).tolist() == zone_map.page_mask(predicate).tolist()


# --------------------------------------------------------------------------- #
# Dictionary + indexes
# --------------------------------------------------------------------------- #
class TestIndexes:
    @pytest.mark.parametrize("kind", ["bitmap", "sorted"])
    @pytest.mark.parametrize(
        "column_name, predicate",
        [
            ("cat", col("e", "cat").eq("c2")),
            ("cat", col("e", "cat").ne("c2")),
            ("cat", in_(col("e", "cat"), ["c0", "c3"])),
            ("ts", col("e", "ts") < lit(120)),
            ("ts", col("e", "ts") >= lit(170)),
            ("score", col("e", "score") > lit(7.5)),
            ("score", is_null(col("e", "score"))),
            ("score", is_null(col("e", "score"), negated=True)),
        ],
    )
    def test_lookup_is_exact(self, clustered_table, kind, predicate, column_name):
        if kind == "sorted" and "!=" in predicate.key():
            pytest.skip("sorted indexes do not answer !=")
        index = build_index(clustered_table.column(column_name), kind=kind)
        positions = index.lookup(predicate)
        assert positions is not None
        assert positions.tolist() == sorted(_true_rows(clustered_table, predicate))

    def test_bitmap_ne_keeps_nan_rows(self):
        table = Table("t", [_column("x", [1.0, float("nan"), 2.0, None])])
        index = build_index(table.column("x"), kind="bitmap")
        positions = index.lookup(col("t", "x").ne(1.0))
        # NaN != 1.0 is TRUE; NULL is UNKNOWN and excluded.
        assert positions.tolist() == [1, 2]

    def test_dictionary_encoding_round_trip(self, clustered_table):
        encoding = DictionaryEncoding.encode(clustered_table.column("cat"))
        assert encoding.num_values == 4
        decoded = encoding.values[encoding.codes]
        assert list(decoded) == list(clustered_table.column("cat").data)

    def test_auto_kind_uses_distinct_count(self, clustered_table):
        assert build_index(clustered_table.column("cat")).kind == "bitmap"
        big = Table("big", [Column("v", list(range(20_000)))])
        assert build_index(big.column("v")).kind == "sorted"

    @pytest.mark.parametrize("kind", ["bitmap", "sorted"])
    def test_array_round_trip(self, clustered_table, kind):
        index = build_index(clustered_table.column("ts"), kind=kind)
        cls = BitmapIndex if kind == "bitmap" else SortedIndex
        clone = cls.from_arrays(index.to_arrays())
        predicate = col("e", "ts") >= lit(150)
        assert np.array_equal(clone.lookup(predicate), index.lookup(predicate))


# --------------------------------------------------------------------------- #
# Implied predicates
# --------------------------------------------------------------------------- #
class TestImpliedPredicate:
    def test_conjunct_extraction(self):
        predicate = and_(col("a", "x") < lit(1), col("b", "y") < lit(2))
        implied = implied_alias_predicate(predicate, "a")
        assert implied is not None and implied.key() == "(a.x < 1)"

    def test_disjunction_requires_every_branch(self):
        covered = or_(col("a", "x") < lit(1), col("a", "y") < lit(2))
        assert implied_alias_predicate(covered, "a") is not None
        uncovered = or_(col("a", "x") < lit(1), col("b", "y") < lit(2))
        assert implied_alias_predicate(uncovered, "a") is None

    def test_negation_is_conservative(self):
        predicate = not_(col("a", "x") < lit(1))
        assert implied_alias_predicate(predicate, "a") is None

    def test_or_of_ands_mixes_aliases(self):
        predicate = or_(
            and_(col("a", "x") < lit(1), col("b", "y") < lit(2)),
            and_(col("a", "x") > lit(9), col("b", "z") < lit(3)),
        )
        implied = implied_alias_predicate(predicate, "a")
        assert implied is not None
        assert implied.key() == "((a.x < 1) OR (a.x > 9))"


# --------------------------------------------------------------------------- #
# Manager: laziness, caching, invalidation
# --------------------------------------------------------------------------- #
class TestManager:
    def test_zone_maps_build_lazily_and_cache(self, clustered_table):
        catalog = Catalog([clustered_table])
        manager = AccessPathManager(catalog)
        assert manager.stats.zone_maps_built == 0
        first = manager.zone_map("events", "ts")
        again = manager.zone_map("events", "ts")
        assert first is again
        assert manager.stats.zone_maps_built == 1

    def test_table_replace_invalidates_structures(self, clustered_table):
        catalog = Catalog([clustered_table])
        manager = ensure_access_manager(catalog)
        manager.create_index("events", "cat", kind="bitmap")
        old_index = manager.index_for("events", "cat")
        predicate = col("e", "cat").eq("c1")
        old_positions = manager.candidates("events", predicate)

        replacement = Table(
            "events",
            [_column("id", [0, 1]), _column("ts", [5, 6]), _column("cat", ["c9", "c1"])],
        )
        catalog.replace(replacement)
        new_index = manager.index_for("events", "cat")
        assert new_index is not old_index  # definition survived, structure rebuilt
        new_positions = manager.candidates("events", predicate)
        assert not np.array_equal(new_positions, old_positions)
        assert new_positions.tolist() == [1]
        assert manager.stats.invalidations >= 1

    def test_duplicate_create_rejected_and_drop_unregisters(self, clustered_table):
        catalog = Catalog([clustered_table])
        manager = ensure_access_manager(catalog)
        version = manager.version
        manager.create_index("events", "cat")
        assert manager.version > version
        with pytest.raises(ValueError):
            manager.create_index("events", "cat")
        manager.drop_index("events", "cat")
        assert not manager.has_index("events", "cat")
        with pytest.raises(KeyError):
            manager.drop_index("events", "cat")

    def test_candidates_compose_and_or(self, clustered_table):
        catalog = Catalog([clustered_table])
        manager = ensure_access_manager(catalog)
        manager.create_index("events", "cat", kind="bitmap")
        predicate = or_(
            and_(col("e", "cat").eq("c1"), col("e", "ts") < lit(120)),
            col("e", "ts") >= lit(190),
        )
        positions = manager.candidates("events", predicate)
        assert positions is not None
        kept = set(positions.tolist())
        assert _true_rows(clustered_table, predicate) <= kept
        assert len(kept) < clustered_table.num_rows


# --------------------------------------------------------------------------- #
# Chooser
# --------------------------------------------------------------------------- #
class TestChooser:
    def _plan(self, catalog, sql):
        query = parse_query(sql)
        session = Session(catalog)
        context = session._planner_context(query, naive_tags=False)
        return context.estimates.access_plan(), context.estimates

    def test_selective_indexed_leaf_chooses_index(self, clustered_table):
        catalog = Catalog([clustered_table])
        ensure_access_manager(catalog).create_index("events", "ts", kind="sorted")
        plan, estimates = self._plan(
            catalog, "SELECT * FROM events AS e WHERE e.ts < 104"
        )
        choice = plan.choice("e")
        assert choice.kind == "index"
        assert choice.est_pages < choice.total_pages
        assert estimates.scan_pages("e") == pytest.approx(choice.est_pages)

    def test_unindexed_selective_leaf_chooses_zonemap(self, clustered_table):
        catalog = Catalog([clustered_table])
        plan, _ = self._plan(catalog, "SELECT * FROM events AS e WHERE e.ts < 104")
        assert plan.choice("e").kind == "zonemap"

    def test_unselective_predicate_falls_back_to_full(self, clustered_table):
        catalog = Catalog([clustered_table])
        plan, estimates = self._plan(
            catalog, "SELECT * FROM events AS e WHERE e.ts > 105"
        )
        choice = plan.choice("e")
        assert choice.kind == "full"
        assert estimates.scan_pages("e") == float(clustered_table.num_pages)

    def test_access_disabled_yields_no_plan(self, clustered_table):
        catalog = Catalog([clustered_table])
        session = Session(catalog, access_paths=False)
        context = session._planner_context(
            parse_query("SELECT * FROM events AS e WHERE e.ts < 104"), naive_tags=False
        )
        assert context.estimates.access_plan() is None

    def test_chooser_classification_matches_resolution(self, clustered_table):
        catalog = Catalog([clustered_table])
        manager = ensure_access_manager(catalog)
        query = parse_query(
            "SELECT * FROM events AS e WHERE e.ts < 104 OR e.cat = 'zzz'"
        )
        chooser = AccessPathChooser(query, manager, catalog)
        assert chooser._classify("events", query.predicate) == "zone"

    def test_a_plan_from_a_snapshot_pins_the_snapshot_versions(self, clustered_table):
        """A commit landing while a prepare plans from its snapshot must not
        let the plan prune the snapshot's rows with the new table's."""
        catalog = Catalog([clustered_table])
        manager = ensure_access_manager(catalog)
        query = parse_query("SELECT e.id FROM events AS e WHERE e.ts < 104")
        snapshot = catalog.snapshot()
        batch = catalog.begin_mutation()
        batch.delete("events", where="events.ts < 102")
        batch.commit()
        context = PlannerContext.for_query(query, snapshot, access_manager=manager)
        plan = context.estimates.access_plan()
        assert plan.choice("e").kind == "zonemap"
        assert plan.table_versions == {"e": snapshot.table_version("events")}
        assert plan.resolve_all() == {}


# --------------------------------------------------------------------------- #
# Execution: pruning accounting + explain-analyze + morsel skipping
# --------------------------------------------------------------------------- #
class TestPrunedExecution:
    SQL = "SELECT e.id FROM events AS e WHERE e.ts < 110 ORDER BY e.id"

    def _catalog(self, clustered_table):
        return Catalog([clustered_table])

    def test_pruned_pages_are_not_read(self, clustered_table):
        catalog = self._catalog(clustered_table)
        pruned = Session(catalog, access_paths=True).execute(self.SQL)
        unpruned = Session(catalog, access_paths=False).execute(self.SQL)
        assert pruned.rows == unpruned.rows
        assert pruned.metrics.pages_pruned > 0

        def total_io(result):
            return result.iostats.pages_read + result.iostats.pages_hit

        assert 2 * total_io(pruned) <= total_io(unpruned)
        # A pruned page contributes to neither misses nor hits.
        assert total_io(pruned) + pruned.metrics.pages_pruned <= total_io(
            unpruned
        ) + clustered_table.num_pages  # slack: output materialization reads

    def test_explain_analyze_reports_pruning(self, clustered_table):
        catalog = self._catalog(clustered_table)
        session = Session(catalog)
        prepared = session.prepare(self.SQL, planner="tcombined")
        result = session.execute_prepared(prepared, collect_feedback=True)
        report = explain_analyze_report(prepared, result)
        assert "pruned" in report
        assert "zonemap est_pages=" in report
        assert "pages_pruned=" in report

    def test_morsel_driver_skips_fully_pruned_partitions(self, clustered_table):
        catalog = self._catalog(clustered_table)
        session = Session(catalog)
        serial = session.execute(self.SQL)
        parallel = session.execute(self.SQL, parallelism=4, partitions=6)
        assert parallel.rows == serial.rows
        # Candidates live in the first 2 of 12 pages; partitions 2..5 hold none.
        assert parallel.metrics.partitions_skipped > 0
        assert (
            parallel.metrics.morsels_executed + parallel.metrics.partitions_skipped == 6
        )

    def test_empty_candidate_set_still_returns_output_shape(self, clustered_table):
        catalog = self._catalog(clustered_table)
        session = Session(catalog)
        result = session.execute(
            "SELECT e.id FROM events AS e WHERE e.ts < 0", parallelism=2, partitions=3
        )
        assert result.row_count == 0
        assert result.column_names == ["e.id"]


class TestPruningSoundnessRegressions:
    def test_like_prefix_on_numeric_column_is_not_pruned(self):
        """str(99) > str(112): numeric bounds cannot answer LIKE lexically."""
        table = Table("t", [_column("x", list(range(1, 1001)))])
        zone_map = build_zone_map(table.column("x"))
        assert zone_map.page_mask(like(col("t", "x"), "99%")) is None
        catalog = Catalog([table])
        sql = "SELECT t.x FROM t AS t WHERE t.x LIKE '99%'"
        pruned = Session(catalog, access_paths=True).execute(sql)
        unpruned = Session(catalog, access_paths=False).execute(sql)
        assert pruned.rows == unpruned.rows
        assert pruned.row_count == 11  # 99 and 990..999

    def test_like_prefix_on_string_column_still_prunes(self, clustered_table):
        zone_map = build_zone_map(clustered_table.column("cat"))
        assert zone_map.page_mask(like(col("e", "cat"), "c2%")) is not None

    def test_pruned_alias_is_excluded_from_predicate_feedback(self, clustered_table):
        """An index-pruned scan makes its own clause look ~100% selective;
        such conditioned observations must not feed the feedback loop."""
        catalog = Catalog([clustered_table])
        ensure_access_manager(catalog).create_index("events", "ts", kind="sorted")
        sql = "SELECT e.id FROM events AS e WHERE e.ts < 110"
        clause_key = "(e.ts < 110)"

        session = Session(catalog, access_paths=True)
        prepared = session.prepare(sql)
        pruned = session.execute_prepared(prepared, collect_feedback=True)
        assert pruned.metrics.pages_pruned > 0
        assert clause_key not in pruned.metrics.predicate_counts

        plain = Session(catalog, access_paths=False)
        unpruned = plain.execute_prepared(
            plain.prepare(sql), collect_feedback=True
        )
        evaluated, matched = unpruned.metrics.predicate_counts[clause_key]
        assert evaluated == clustered_table.num_rows
        assert matched == 10


def test_core_planner_never_imports_access_layer():
    """Access-path choices must flow through EstimateProvider exclusively."""
    import pathlib

    import repro.core.planner as planner_package

    package_dir = pathlib.Path(planner_package.__file__).parent
    for module_path in package_dir.glob("*.py"):
        source = module_path.read_text(encoding="utf-8")
        assert "repro.access" not in source, (
            f"{module_path.name} references repro.access; planners must consume "
            "access paths through the EstimateProvider only"
        )


# --------------------------------------------------------------------------- #
# Service integration: index DDL retires cached plans
# --------------------------------------------------------------------------- #
class TestServiceIntegration:
    def test_index_create_changes_fingerprint(self, clustered_table):
        from repro import QueryService

        catalog = Catalog([clustered_table])
        manager = ensure_access_manager(catalog)
        sql = "SELECT e.id FROM events AS e WHERE e.ts < 110"
        with QueryService(Session(catalog)) as service:
            first = service.execute(sql)
            warm = service.execute(sql)
            assert warm.cache_hit
            manager.create_index("events", "ts", kind="sorted")
            after = service.execute(sql)
            assert not after.cache_hit  # access version changed -> re-planned
            assert after.rows == first.rows
