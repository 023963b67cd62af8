"""Unit tests for the traditional execution model: the one-slice tagged
operators its plans compile to, BDisj's union root, and the planners."""

import numpy as np
import pytest

from repro.baseline.operators import UnionOperator
from repro.baseline.planners import BDisjPlanner, BPushConjPlanner
from repro.core.operators import TaggedFilterOperator, TaggedJoinOperator
from repro.core.planner.base import PlannerContext
from repro.core.tagged_relation import TaggedRelation
from repro.core.tags import Tag
from repro.engine.metrics import ExecContext
from repro.expr.builders import and_, col, lit, or_
from repro.physical.compile import ONE_TAG_FILTER, ONE_TAG_JOIN
from repro.physical.operators import ScanPhysical
from repro.plan.logical import JoinNode, ProjectNode, TableScanNode, collect_filters
from repro.plan.query import JoinCondition, Query

EMPTY = Tag.empty()


@pytest.fixture
def title_relation(paper_catalog):
    return TaggedRelation.from_base_table("t", paper_catalog.get("title"))


@pytest.fixture
def mi_relation(paper_catalog):
    return TaggedRelation.from_base_table("mi_idx", paper_catalog.get("movie_info_idx"))


def rows_of(relation, positions):
    """The one-alias ``relation``'s rows at ``positions``, as a scan emits them."""
    (alias,) = relation.aliases
    rows = relation.indices[alias][np.asarray(positions, dtype=np.int64)]
    return TaggedRelation.from_scan(alias, relation.tables[alias], rows)


def traditional_filter(predicate):
    return TaggedFilterOperator(predicate, ONE_TAG_FILTER)


def traditional_join(conditions):
    return TaggedJoinOperator(conditions, ONE_TAG_JOIN)


class TestRelation:
    """The one-slice tagged relation every traditional operator exchanges."""

    def test_from_base_table(self, title_relation):
        assert title_relation.num_rows == 7
        assert title_relation.aliases == ["t"]
        assert title_relation.tags == (EMPTY,)

    def test_from_scan(self, title_relation):
        subset = rows_of(title_relation, [1, 3])
        assert subset.num_rows == 2
        assert subset.tags == (EMPTY,)
        assert subset.indices["t"].tolist() == [1, 3]

    def test_row_keys_shape(self, title_relation):
        keys = title_relation.row_keys()
        assert keys.shape == (7, 1)

    def test_mismatched_lengths_rejected(self, paper_catalog):
        table = paper_catalog.get("title")
        with pytest.raises(ValueError):
            TaggedRelation(
                {"a": table, "b": table}, {"a": np.array([0]), "b": np.array([0, 1])}, ()
            )


class TestOperators:
    def test_scan(self, paper_catalog):
        context = ExecContext()
        scan = ScanPhysical("t", paper_catalog.get("title"))
        relation = scan.run(context)
        assert relation.num_rows == 7
        assert relation.tags == (EMPTY,)
        # A scan emits row positions; it materializes no tuples.
        assert context.metrics.tuples_materialized == 0

    def test_filter_keeps_only_true_rows(self, title_relation):
        context = ExecContext()
        predicate = col("t", "production_year") > lit(2000)
        output = traditional_filter(predicate).execute(title_relation, context)
        # Compacted like a traditional filter: only the passing rows remain.
        assert output.num_rows == 3
        assert context.metrics.predicate_rows_evaluated == 7

    def test_filter_on_empty_relation(self, title_relation):
        empty = rows_of(title_relation, [])
        output = traditional_filter(col("t", "production_year") > lit(2000)).execute(
            empty, ExecContext()
        )
        assert output.num_rows == 0

    def test_filter_missing_alias_raises(self, mi_relation):
        with pytest.raises(ValueError):
            traditional_filter(col("t", "production_year") > lit(2000)).execute(
                mi_relation, ExecContext()
            )

    def test_hash_join(self, title_relation, mi_relation):
        context = ExecContext()
        condition = JoinCondition(col("t", "id"), col("mi_idx", "movie_id"))
        output = traditional_join([condition]).execute(title_relation, mi_relation, context)
        assert output.num_rows == 6  # every mi_idx row has a title
        assert set(output.aliases) == {"t", "mi_idx"}
        assert output.tags == (EMPTY,)
        assert context.metrics.join_output_rows == 6

    def test_hash_join_counters_name_the_built_side_either_way_round(
        self, title_relation, mi_relation
    ):
        condition = JoinCondition(col("t", "id"), col("mi_idx", "movie_id"))
        small, large = sorted([title_relation, mi_relation], key=lambda r: r.num_rows)
        assert small.num_rows < large.num_rows
        outputs = []
        for left, right in ((small, large), (large, small)):
            context = ExecContext()
            outputs.append(traditional_join([condition]).execute(left, right, context))
            assert context.metrics.hash_tables_built == 1
            assert context.metrics.join_build_rows == small.num_rows
            assert context.metrics.join_probe_rows == large.num_rows
        assert sorted(map(tuple, outputs[0].row_keys().tolist())) == sorted(
            map(tuple, outputs[1].row_keys().tolist())
        )

    def test_hash_join_with_empty_side(self, title_relation, mi_relation):
        empty = rows_of(mi_relation, [])
        condition = JoinCondition(col("t", "id"), col("mi_idx", "movie_id"))
        context = ExecContext()
        output = traditional_join([condition]).execute(title_relation, empty, context)
        assert output.num_rows == 0
        assert set(output.aliases) == {"t", "mi_idx"}
        assert context.metrics.hash_tables_built == 0

    def test_hash_join_requires_condition(self):
        with pytest.raises(ValueError):
            traditional_join([])

    def test_union_deduplicates(self, title_relation):
        first = rows_of(title_relation, [0, 1, 2])
        second = rows_of(title_relation, [2, 3])
        context = ExecContext()
        output = UnionOperator().execute([first, second], context)
        assert output.num_rows == 4
        assert output.indices["t"].tolist() == [0, 1, 2, 3]
        assert context.metrics.union_input_rows == 5
        assert context.metrics.union_output_rows == 4

    def test_union_reads_only_live_rows(self, title_relation):
        # The first input holds rows 0, 2 and 6 only (a filter compacted the
        # rest away); the union reads just those.
        first = rows_of(title_relation, [0, 2, 6])
        second = rows_of(title_relation, [6, 1, 2])
        context = ExecContext()
        output = UnionOperator().execute([first, second], context)
        assert output.indices["t"].tolist() == [0, 2, 6, 1]
        assert context.metrics.union_input_rows == 6

    def test_union_requires_same_alias_sets(self, title_relation, mi_relation):
        with pytest.raises(ValueError, match="alias sets"):
            UnionOperator().execute([title_relation, mi_relation], ExecContext())

    def test_union_of_nothing_raises(self):
        with pytest.raises(ValueError):
            UnionOperator().execute([], ExecContext())


class TestBDisjPlanner:
    def test_one_subplan_per_root_clause(self, paper_catalog, paper_query):
        context = PlannerContext.for_query(paper_query, paper_catalog)
        plan = BDisjPlanner(context).plan()
        assert plan.planner_name == "bdisj"
        assert plan.kind == "traditional"
        assert len(plan.roots) == 2

    def test_clause_predicates_pushed_to_their_tables(self, paper_catalog, paper_query):
        context = PlannerContext.for_query(paper_query, paper_catalog)
        plan = BDisjPlanner(context).plan()
        for subplan in plan.roots:
            filters = collect_filters(subplan)
            # Each clause has one predicate per table, both pushed below the join.
            assert len(filters) == 2
            for filter_node in filters:
                assert isinstance(filter_node.child, TableScanNode)

    def test_non_or_root_gives_single_subplan(self, paper_catalog):
        query = Query(
            tables={"t": "title"},
            predicate=col("t", "production_year") > lit(2000),
        )
        context = PlannerContext.for_query(query, paper_catalog)
        plan = BDisjPlanner(context).plan()
        assert len(plan.roots) == 1

    def test_no_predicate(self, paper_catalog, paper_query):
        query = Query(
            tables=dict(paper_query.tables),
            join_conditions=list(paper_query.join_conditions),
            predicate=None,
        )
        context = PlannerContext.for_query(query, paper_catalog)
        plan = BDisjPlanner(context).plan()
        assert len(plan.roots) == 1


class TestBPushConjPlanner:
    def test_or_root_cannot_push_anything(self, paper_catalog, paper_query):
        context = PlannerContext.for_query(paper_query, paper_catalog)
        plan = BPushConjPlanner(context).plan()
        assert len(plan.roots) == 1
        subplan = plan.roots[0]
        # The whole disjunction sits above the join as a single filter.
        filters = collect_filters(subplan)
        assert len(filters) == 1
        assert isinstance(filters[0].child, JoinNode)

    def test_and_root_pushes_single_table_clauses(self, paper_catalog):
        predicate = and_(
            col("t", "production_year") > lit(2000),
            or_(col("t", "production_year") > lit(1980), col("mi_idx", "info") > lit(8.0)),
        )
        query = Query(
            tables={"t": "title", "mi_idx": "movie_info_idx"},
            join_conditions=[JoinCondition(col("t", "id"), col("mi_idx", "movie_id"))],
            predicate=predicate,
        )
        context = PlannerContext.for_query(query, paper_catalog)
        plan = BPushConjPlanner(context).plan()
        filters = collect_filters(plan.roots[0])
        pushed = [f for f in filters if isinstance(f.child, TableScanNode)]
        unpushed = [f for f in filters if isinstance(f.child, JoinNode)]
        assert len(pushed) == 1
        assert len(unpushed) == 1

    def test_projection_root(self, paper_catalog, paper_query):
        context = PlannerContext.for_query(paper_query, paper_catalog)
        plan = BPushConjPlanner(context).plan()
        assert isinstance(plan.roots[0], ProjectNode)
