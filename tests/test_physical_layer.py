"""Tests for the physical-operator layer, partitioning, and merge-safe metrics."""

from __future__ import annotations

import numpy as np
import pytest

from repro import Catalog, Session, Table
from repro.engine.metrics import ExecContext, ExecutionMetrics
from repro.engine.parallel import choose_partition_alias
from repro.core.tagged_relation import TaggedRelation
from repro.core.tags import Tag
from repro.engine.result import OutputColumns
from repro.physical.compile import compile_plan, plan_scan_aliases
from repro.physical.operators import ScanPhysical
from repro.plan.logical import ProjectNode, TableScanNode
from repro.storage.table import TablePartition

from tests.conftest import hand_built_plan


@pytest.fixture()
def small_table() -> Table:
    return Table.from_dict("t", {"id": list(range(10)), "v": [x * 2 for x in range(10)]})


class TestTablePartitions:
    def test_partitions_cover_all_rows_without_overlap(self, small_table):
        parts = small_table.partitions(3)
        assert [part.index for part in parts] == [0, 1, 2]
        assert parts[0].start == 0 and parts[-1].stop == 10
        covered = np.concatenate([part.positions() for part in parts])
        assert covered.tolist() == list(range(10))

    def test_partitions_balanced(self, small_table):
        sizes = [part.num_rows for part in small_table.partitions(3)]
        assert sizes == [4, 3, 3]

    def test_count_clamped_to_rows(self, small_table):
        parts = small_table.partitions(100)
        assert len(parts) == 10
        assert all(part.num_rows == 1 for part in parts)

    def test_empty_table_yields_single_empty_partition(self):
        from repro.storage.column import Column, ColumnType

        empty = Table("empty", [Column("id", [], ctype=ColumnType.INT)])
        parts = empty.partitions(4)
        assert len(parts) == 1
        assert parts[0].num_rows == 0

    def test_invalid_count_rejected(self, small_table):
        with pytest.raises(ValueError):
            small_table.partitions(0)

    def test_out_of_bounds_partition_rejected(self, small_table):
        with pytest.raises(ValueError):
            TablePartition(small_table, 0, 5, 99)


class TestPhysicalProtocol:
    def test_scan_emits_one_relation_per_run(self, small_table):
        scan = ScanPhysical("t", small_table)
        context = ExecContext()
        relation = scan.run(context)
        assert isinstance(relation, TaggedRelation)
        assert relation.tags == (Tag.empty(),)
        assert relation.num_rows == 10
        # Running again returns the same rows: the operator keeps no state.
        assert scan.run(context).indices["t"].tolist() == relation.indices["t"].tolist()

    def test_partitioned_scan_restricted_to_range(self, small_table):
        partition = small_table.partitions(2)[1]
        scan = ScanPhysical("t", small_table, partition)
        relation = scan.run(ExecContext())
        assert relation.indices["t"].tolist() == list(range(partition.start, partition.stop))

    def test_scan_kinds_produce_model_batches(self, small_table):
        # Both execution kinds compile a scan to the one relation type.
        plan = ProjectNode(TableScanNode("t", "t"), [])
        for kind in ("traditional", "tagged"):
            root = compile_plan(hand_built_plan(kind, [plan]), Catalog([small_table]))
            (scan,) = root.children
            assert isinstance(scan, ScanPhysical), kind
            relation = scan.run(ExecContext())
            assert isinstance(relation, TaggedRelation), kind
            assert relation.tags == (Tag.empty(),)
            assert relation.num_rows == small_table.num_rows

    def test_deleted_row_never_reaches_any_scan_output(self, small_table):
        table = small_table.next_version(small_table.columns(), np.array([2, 7]))
        scan = ScanPhysical("t", table)
        assert scan.run(ExecContext()).indices["t"].tolist() == [0, 1, 3, 4, 5, 6, 8, 9]

    def test_unknown_kind_rejected(self, small_table):
        plan = ProjectNode(TableScanNode("t", "t"), [])
        with pytest.raises(ValueError, match="kind"):
            compile_plan(hand_built_plan("mystery", [plan]), Catalog([small_table]))


class TestBatchMerging:
    def test_merge_output_columns_concatenates(self):
        def block(values):
            data = np.array(values)
            return OutputColumns(
                names=["t.v"],
                columns=[(data, np.zeros(len(values), dtype=np.bool_))],
                row_count=len(values),
            )

        merged = OutputColumns.merge([block([1, 2]), block([3]), block([])])
        assert merged.row_count == 3
        assert merged.columns[0][0].tolist() == [1, 2, 3]

    def test_merge_output_columns_all_empty_keeps_schema(self):
        def empty():
            no_rows = (np.array([]), np.array([], dtype=np.bool_))
            return OutputColumns(names=["t.v"], columns=[no_rows], row_count=0)

        first = empty()
        merged = OutputColumns.merge([first, empty()])
        assert merged is first
        assert merged.names == ["t.v"]
        assert merged.row_count == 0


class TestMergeSafeMetrics:
    def test_fork_and_absorb_do_not_double_count(self):
        parent = ExecContext()
        parent.metrics.operators_executed = 5
        children = [parent.fork() for _ in range(3)]
        for child in children:
            assert child.metrics.operators_executed == 0
            assert child.cache is parent.cache
            child.metrics.operators_executed += 2
            child.iostats.record_values(7)
        for child in children:
            parent.absorb(child)
        assert parent.metrics.operators_executed == 5 + 3 * 2
        assert parent.iostats.values_read == 3 * 7

    def test_parallel_metrics_equal_serial_metrics(self):
        """Regression: per-morsel metrics reduce to exactly the serial totals.

        The same partitioned plan run with 1 worker and with 4 workers must
        report identical work counters — concurrency must never lose or
        double-count increments.
        """
        catalog = Catalog(
            [
                Table.from_dict(
                    "big", {"id": list(range(300)), "v": [i % 17 for i in range(300)]}
                ),
                Table.from_dict("dim", {"fid": list(range(0, 300, 3))}),
            ]
        )
        session = Session(catalog, stats_sample_size=300)
        sql = (
            "SELECT big.id FROM big AS big JOIN dim AS dim ON big.id = dim.fid "
            "WHERE big.v < 9 OR big.v > 15"
        )
        prepared = session.prepare(sql, planner="tcombined")
        serial = session.execute_prepared(prepared, parallelism=1, partitions=5)
        parallel = session.execute_prepared(prepared, parallelism=4, partitions=5)
        assert serial.metrics.as_dict() == parallel.metrics.as_dict()
        assert serial.metrics.morsels_executed == 5
        assert serial.iostats.values_read == parallel.iostats.values_read
        assert serial.rows == parallel.rows

    def test_execution_metrics_merge_covers_every_counter(self):
        """merge() must accumulate every dataclass field (none forgotten)."""
        source = ExecutionMetrics()
        for index, name in enumerate(vars(source), start=1):
            if isinstance(getattr(source, name), dict):
                continue  # observation maps are exercised below
            setattr(source, name, index)
        source.record_predicate("t.a > 1", 10, 4)
        source.record_operator(3, 8, 2)
        target = ExecutionMetrics()
        target.merge(source)
        assert vars(target) == vars(source)
        target.merge(source)
        assert target.predicate_counts == {"t.a > 1": [20, 8]}
        assert target.operator_actuals == {3: [16, 4]}
        scalar_fields = {
            name for name, value in vars(source).items() if not isinstance(value, dict)
        }
        assert set(source.as_dict()) == scalar_fields


class TestPartitionAliasChoice:
    def test_largest_table_chosen_deterministically(self):
        catalog = Catalog(
            [
                Table.from_dict("big", {"id": list(range(50)), "v": list(range(50))}),
                Table.from_dict("small", {"fid": list(range(5))}),
            ]
        )
        session = Session(catalog, stats_sample_size=50)
        prepared = session.prepare(
            "SELECT big.id FROM big AS big JOIN small AS small ON big.id = small.fid",
            planner="bpushconj",
        )
        alias = choose_partition_alias(plan_scan_aliases(prepared), catalog)
        assert alias == "big"

    def test_invalid_parallelism_rejected(self):
        catalog = Catalog([Table.from_dict("t", {"id": [1, 2]})])
        session = Session(catalog, stats_sample_size=2)
        prepared = session.prepare("SELECT t.id FROM t AS t", planner="bpushconj")
        with pytest.raises(ValueError, match="parallelism"):
            session.execute_prepared(prepared, parallelism=0)
        with pytest.raises(ValueError, match="partitions"):
            session.execute_prepared(prepared, partitions=0)

    def test_session_validates_knobs(self):
        catalog = Catalog([Table.from_dict("t", {"id": [1]})])
        with pytest.raises(ValueError):
            Session(catalog, parallelism=0)
        with pytest.raises(ValueError):
            Session(catalog, partitions=0)


class TestCompiledPlanReuse:
    def test_compiled_tree_reusable_across_contexts(self):
        """A compiled operator tree can be run repeatedly (it keeps no state)."""
        catalog = Catalog([Table.from_dict("t", {"id": [1, 2, 3], "v": [1.0, 2.0, 3.0]})])
        session = Session(catalog, stats_sample_size=3)
        prepared = session.prepare(
            "SELECT t.id FROM t AS t WHERE t.v < 2.5", planner="bpushconj"
        )
        root = compile_plan(prepared, catalog)
        first = root.run(ExecContext())
        second = root.run(ExecContext())
        assert first.row_count == second.row_count == 2
