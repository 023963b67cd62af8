"""Tests for the bypass execution model (repro.bypass)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import Catalog, Session, Table
from repro.bypass.operators import (
    BypassFilterOperator,
    BypassJoinOperator,
    BypassProjectOperator,
)
from repro.bypass.planner import BypassPlanner
from repro.bypass.streams import StreamSet
from repro.core.planner.base import PlannerContext
from repro.core.predtree import PredicateTree
from repro.core.tagged_relation import TaggedRelation
from repro.core.tags import Tag
from repro.engine.metrics import ExecContext
from repro.expr.builders import and_, col, lit, or_
from repro.expr.three_valued import FALSE, TRUE
from repro.physical.compile import compile_plan
from repro.physical.operators import ScanPhysical
from repro.plan.query import Query
from repro.storage.bitmap import Bitmap
from repro.workloads.synthetic import SyntheticConfig, generate_synthetic_catalog, make_dnf_query

from tests.conftest import PAPER_QUERY_MATCHES, hand_built_plan


# --------------------------------------------------------------------------- #
# Streams
# --------------------------------------------------------------------------- #
def _stream(tag: Tag, alias: str, table: Table) -> TaggedRelation:
    """A stream over every row of ``table``: one full slice under ``tag``."""
    return TaggedRelation.from_base_table(alias, table).with_slices(
        {tag: Bitmap.full(table.num_rows)}
    )


class TestStreams:
    def test_stream_from_base_table(self, paper_catalog):
        stream = TaggedRelation.from_base_table("t", paper_catalog.get("title"))
        assert stream.tags() == [Tag.empty()]
        assert stream.num_rows == paper_catalog.get("title").num_rows
        assert stream.aliases == ["t"]

    def test_take_produces_subset_with_new_tag(self, paper_catalog):
        stream = TaggedRelation.from_base_table("t", paper_catalog.get("title"))
        tag = Tag({"(t.production_year > 2000)": TRUE})
        subset = stream.take(np.array([0, 2], dtype=np.int64), tag)
        assert subset.num_rows == 2
        assert subset.tags() == [tag]
        # Rows are copied into the new stream's own index columns.
        assert subset.indices["t"].tolist() == [0, 2]
        # The original stream is unchanged.
        assert stream.num_rows == 7

    def test_stream_set_merges_same_tag(self, paper_catalog):
        table = paper_catalog.get("title")
        base = TaggedRelation.from_base_table("t", table)
        tag = Tag({"(t.production_year > 2000)": TRUE})
        first = base.take(np.array([0, 1], dtype=np.int64), tag)
        second = base.take(np.array([6], dtype=np.int64), tag)
        streams = StreamSet([first, second])
        assert streams.num_streams == 1
        assert streams.total_rows == 3

    def test_stream_set_keeps_distinct_tags_separate(self, paper_catalog):
        table = paper_catalog.get("title")
        base = TaggedRelation.from_base_table("t", table)
        true_tag = Tag({"(t.production_year > 2000)": TRUE})
        false_tag = Tag({"(t.production_year > 2000)": FALSE})
        streams = StreamSet(
            [
                base.take(np.array([0], dtype=np.int64), true_tag),
                base.take(np.array([2], dtype=np.int64), false_tag),
            ]
        )
        assert streams.num_streams == 2
        assert set(map(repr, streams.tags())) == {repr(true_tag), repr(false_tag)}

    def test_stream_set_drops_empty_streams(self, paper_catalog):
        table = paper_catalog.get("title")
        base = TaggedRelation.from_base_table("t", table)
        empty = base.take(np.empty(0, dtype=np.int64), Tag.empty())
        streams = StreamSet([empty])
        assert streams.num_streams == 0
        assert not streams

    def test_merge_rejects_different_tags(self, paper_catalog):
        table = paper_catalog.get("title")
        base = TaggedRelation.from_base_table("t", table)
        first = base.take(np.array([0], dtype=np.int64), Tag({"a": TRUE}))
        second = base.take(np.array([1], dtype=np.int64), Tag({"a": FALSE}))
        # Merging streams of different tags yields two slices: not a stream.
        with pytest.raises(ValueError):
            StreamSet([TaggedRelation.merge([first, second])])


# --------------------------------------------------------------------------- #
# Operators
# --------------------------------------------------------------------------- #
def _paper_tree(paper_query: Query) -> PredicateTree:
    return PredicateTree(paper_query.predicate)


def _scan(alias: str, table: Table, context: ExecContext) -> StreamSet:
    """The initial single-stream set over ``table``, as the engine scans it."""
    scan = ScanPhysical("bypass", alias, table)
    scan.open(context)
    return scan.next_batch()


class TestBypassFilter:
    def test_filter_splits_true_false(self, paper_catalog, paper_query):
        tree = _paper_tree(paper_query)
        context = ExecContext()
        scan = _scan("t", paper_catalog.get("title"), context)
        predicate = col("t", "production_year") > lit(2000)
        output = BypassFilterOperator(predicate, tree).execute(scan, context)
        # Both streams survive: the false stream may still satisfy the other clause.
        assert output.num_streams == 2
        assert output.total_rows == 7

    def test_second_filter_drops_refuted_stream(self, paper_catalog, paper_query):
        tree = _paper_tree(paper_query)
        context = ExecContext()
        streams = _scan("t", paper_catalog.get("title"), context)
        streams = BypassFilterOperator(col("t", "production_year") > lit(2000), tree).execute(
            streams, context
        )
        streams = BypassFilterOperator(col("t", "production_year") > lit(1980), tree).execute(
            streams, context
        )
        # Movies from 1972 fail both year predicates and are dropped entirely.
        assert streams.total_rows == 6

    def test_filter_bypasses_stream_that_satisfies_root(self, paper_catalog):
        # Single-table query: year > 2000 OR year > 1980.
        predicate = or_(
            col("t", "production_year") > lit(2000),
            col("t", "production_year") > lit(1980),
        )
        tree = PredicateTree(predicate)
        context = ExecContext()
        streams = _scan("t", paper_catalog.get("title"), context)
        streams = BypassFilterOperator(col("t", "production_year") > lit(2000), tree).execute(
            streams, context
        )
        evaluations_before = context.metrics.predicate_evaluations
        streams = BypassFilterOperator(col("t", "production_year") > lit(1980), tree).execute(
            streams, context
        )
        # Only the stream that failed the first predicate is re-evaluated.
        assert context.metrics.predicate_evaluations == evaluations_before + 1

    def test_filter_skips_already_assigned_predicate(self, paper_catalog):
        predicate = and_(
            col("t", "production_year") > lit(2000),
            col("t", "production_year") < lit(2010),
        )
        tree = PredicateTree(predicate)
        context = ExecContext()
        streams = _scan("t", paper_catalog.get("title"), context)
        first = BypassFilterOperator(col("t", "production_year") > lit(2000), tree)
        streams = first.execute(streams, context)
        evaluations_before = context.metrics.predicate_evaluations
        # Re-applying the same predicate does not evaluate anything again.
        streams = first.execute(streams, context)
        assert context.metrics.predicate_evaluations == evaluations_before

    def test_filter_missing_alias_raises(self, paper_catalog, paper_query):
        tree = _paper_tree(paper_query)
        context = ExecContext()
        streams = _scan("t", paper_catalog.get("title"), context)
        bad_filter = BypassFilterOperator(col("mi_idx", "info") > lit(8.0), tree)
        with pytest.raises(ValueError, match="aliases"):
            bad_filter.execute(streams, context)


class TestBypassJoin:
    def test_join_pairs_build_separate_hash_tables(self, paper_catalog, paper_query):
        tree = _paper_tree(paper_query)
        context = ExecContext()
        left = _scan("t", paper_catalog.get("title"), context)
        left = BypassFilterOperator(col("t", "production_year") > lit(2000), tree).execute(
            left, context
        )
        left = BypassFilterOperator(col("t", "production_year") > lit(1980), tree).execute(
            left, context
        )
        right = _scan("mi_idx", paper_catalog.get("movie_info_idx"), context)
        right = BypassFilterOperator(col("mi_idx", "info") > lit(8.0), tree).execute(
            right, context
        )
        right = BypassFilterOperator(col("mi_idx", "info") > lit(7.0), tree).execute(
            right, context
        )
        join = BypassJoinOperator(paper_query.join_conditions, tree)
        output = join.execute(left, right, context)
        # Three viable pairings (as in the paper's Figure 1), each with its own
        # hash table; only pairings that produce tuples create output streams.
        assert context.metrics.hash_tables_built == 3
        assert output.total_rows == 4

    def test_join_skips_refuted_pairings(self, paper_catalog, paper_query):
        tree = _paper_tree(paper_query)
        context = ExecContext()
        join = BypassJoinOperator(paper_query.join_conditions, tree)

        title = paper_catalog.get("title")
        info = paper_catalog.get("movie_info_idx")
        left_tag = Tag(
            {
                "(t.production_year > 2000)": FALSE,
                "(t.production_year > 1980)": TRUE,
            }
        )
        right_tag = Tag(
            {
                "(mi_idx.info > 8.0)": FALSE,
                "(mi_idx.info > 7.0)": TRUE,
            }
        )
        left = StreamSet(
            [_stream(left_tag, "t", title)]
        )
        right = StreamSet(
            [_stream(right_tag, "mi_idx", info)]
        )
        output = join.execute(left, right, context)
        assert output.num_streams == 0
        assert context.metrics.hash_tables_built == 0

    def test_join_requires_conditions(self, paper_query):
        with pytest.raises(ValueError):
            BypassJoinOperator([], None)


class TestBypassProject:
    def test_project_accepts_only_satisfying_streams(self, paper_catalog, paper_query):
        tree = _paper_tree(paper_query)
        context = ExecContext()
        title = paper_catalog.get("title")
        satisfied = Tag({tree.root_key: TRUE})
        refuted = Tag({tree.root_key: FALSE})
        streams = StreamSet(
            [
                _stream(satisfied, "t", title),
                _stream(refuted, "t", title),
            ]
        )
        project = BypassProjectOperator(tree, [col("t", "title")])
        output = project.execute(streams, context)
        assert output.row_count == title.num_rows

    def test_project_evaluates_residual_for_undetermined_streams(self, paper_catalog):
        predicate = col("t", "production_year") > lit(2000)
        tree = PredicateTree(predicate)
        context = ExecContext()
        title = paper_catalog.get("title")
        streams = StreamSet(
            [_stream(Tag.empty(), "t", title)]
        )
        project = BypassProjectOperator(tree, [col("t", "title")])
        output = project.execute(streams, context)
        assert output.row_count == 3
        assert context.metrics.residual_rows_evaluated == title.num_rows

    def test_project_empty_stream_set(self, paper_query):
        tree = _paper_tree(paper_query)
        project = BypassProjectOperator(tree, [])
        output = project.execute(StreamSet(), ExecContext())
        assert output.row_count == 0

    def test_project_without_predicate_accepts_everything(self, paper_catalog):
        context = ExecContext()
        title = paper_catalog.get("title")
        streams = StreamSet(
            [_stream(Tag.empty(), "t", title)]
        )
        project = BypassProjectOperator(None, [])
        output = project.execute(streams, context)
        assert output.row_count == title.num_rows


# --------------------------------------------------------------------------- #
# Planner + compiled execution + session integration
# --------------------------------------------------------------------------- #
class TestBypassPlannerAndExecution:
    def test_planner_produces_pushdown_shaped_plan(self, paper_catalog, paper_query):
        context = PlannerContext.for_query(paper_query, paper_catalog)
        plan = BypassPlanner(context).plan()
        rendered = plan.description()
        assert "Scan(title AS t)" in rendered
        assert "Filter" in rendered
        assert (plan.planner_name, plan.kind) == ("bypass", "bypass")

    def test_compiled_plan_matches_paper_result(self, paper_catalog, paper_query):
        context = PlannerContext.for_query(paper_query, paper_catalog)
        planned = BypassPlanner(context).plan()
        output = compile_plan(
            hand_built_plan(
                "bypass", [planned.plan], predicate_tree=context.predicate_tree
            ),
            paper_catalog,
        ).execute(ExecContext())
        assert output.row_count == len(PAPER_QUERY_MATCHES)

    def test_compile_rejects_plan_without_project_root(self, paper_catalog, paper_query):
        context = PlannerContext.for_query(paper_query, paper_catalog)
        planned = BypassPlanner(context).plan()
        with pytest.raises(ValueError, match="ProjectNode"):
            compile_plan(
                hand_built_plan(
                    "bypass",
                    [planned.plan.child],
                    predicate_tree=context.predicate_tree,
                ),
                paper_catalog,
            ).execute(ExecContext())

    def test_session_bypass_planner(self, paper_session, paper_query_sql):
        result = paper_session.execute(paper_query_sql, planner="bypass")
        titles = {row[0] for row in result.rows}
        assert titles == PAPER_QUERY_MATCHES
        assert result.planner_name == "bypass"

    def test_session_explain_bypass(self, paper_session, paper_query_sql):
        rendered = paper_session.explain(paper_query_sql, planner="bypass")
        assert "Scan" in rendered and "Join" in rendered

    def test_bypass_matches_tagged_on_synthetic_dnf(self):
        catalog = generate_synthetic_catalog(SyntheticConfig(table_size=400, seed=5))
        session = Session(catalog, stats_sample_size=400)
        query = make_dnf_query(num_root_clauses=2, selectivity=0.3)
        tagged = session.execute(query, planner="tcombined")
        bypass = session.execute(query, planner="bypass")
        assert bypass.sorted_rows() == tagged.sorted_rows()

    def test_bypass_never_needs_union(self, synthetic_session):
        query = make_dnf_query(num_root_clauses=2, selectivity=0.4)
        result = synthetic_session.execute(query, planner="bypass")
        assert result.metrics.union_input_rows == 0
        assert result.metrics.union_output_rows == 0

    def test_bypass_builds_more_hash_tables_than_tagged(self, synthetic_session):
        query = make_dnf_query(num_root_clauses=3, selectivity=0.4)
        tagged = synthetic_session.execute(query, planner="tpushdown")
        bypass = synthetic_session.execute(query, planner="bypass")
        assert bypass.sorted_rows() == tagged.sorted_rows()
        assert bypass.metrics.hash_tables_built >= tagged.metrics.hash_tables_built

    def test_bypass_on_query_without_where(self, paper_session):
        sql = (
            "SELECT t.title FROM title AS t "
            "JOIN movie_info_idx AS mi_idx ON t.id = mi_idx.movie_id"
        )
        result = paper_session.execute(sql, planner="bypass")
        assert result.row_count == 6

    def test_bypass_single_table_query(self, paper_session):
        sql = "SELECT t.title FROM title AS t WHERE t.production_year > 2000"
        result = paper_session.execute(sql, planner="bypass")
        assert {row[0] for row in result.rows} == {"The Dark Knight", "Evolution", "Avatar"}

    def test_bypass_handles_nulls_like_tagged(self):
        catalog = Catalog(
            [
                Table.from_dict(
                    "t",
                    {"id": [1, 2, 3, 4], "year": [2005, None, 1990, 1970]},
                ),
                Table.from_dict(
                    "s",
                    {"tid": [1, 2, 3, 4], "score": [9.0, 8.5, None, 6.0]},
                ),
            ]
        )
        session = Session(catalog)
        sql = (
            "SELECT t.id FROM t AS t JOIN s AS s ON t.id = s.tid "
            "WHERE (t.year > 2000 AND s.score > 7.0) OR (t.year > 1980 AND s.score > 8.0)"
        )
        tagged = session.execute(sql, planner="tcombined")
        bypass = session.execute(sql, planner="bypass")
        assert bypass.sorted_rows() == tagged.sorted_rows()
        assert {row[0] for row in bypass.rows} == {1}
