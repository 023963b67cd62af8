"""Unit tests for statistics: table stats, selectivity and cardinality estimation.

Selectivities and the row formulas (filtered rows, join estimates) are
:class:`~repro.optimizer.estimates.EstimateProvider`'s; both test classes
use the same provider.
"""

import pytest

from repro.core.planner.base import PlanOptions
from repro.expr.builders import and_, col, ilike, lit, not_, or_
from repro.optimizer.estimates import build_estimate_provider
from repro.stats.selectivity import DEFAULT_SELECTIVITY
from repro.stats.table_stats import collect_table_stats
from repro.storage.table import Table


@pytest.fixture
def query(paper_query):
    return paper_query


@pytest.fixture
def estimator(paper_catalog, query):
    return build_estimate_provider(query, paper_catalog, PlanOptions(stats_sample_size=100))


class TestTableStats:
    def test_row_and_distinct_counts(self, paper_catalog):
        stats = collect_table_stats(paper_catalog.get("title"))
        assert stats.num_rows == 7
        assert stats.column("id").distinct_count == 7
        assert stats.column("production_year").distinct_count == 6  # 1994 appears twice

    def test_min_max(self, paper_catalog):
        stats = collect_table_stats(paper_catalog.get("movie_info_idx"))
        assert stats.column("info").min_value == pytest.approx(7.5)
        assert stats.column("info").max_value == pytest.approx(9.3)

    def test_null_fraction(self):
        table = Table.from_dict("t", {"x": [1, None, None, 4]})
        stats = collect_table_stats(table)
        assert stats.column("x").null_fraction == pytest.approx(0.5)

    def test_distinct_count_fallback(self, paper_catalog):
        stats = collect_table_stats(paper_catalog.get("title"))
        assert stats.distinct_count("not_collected") == 7

    def test_missing_column_raises(self, paper_catalog):
        stats = collect_table_stats(paper_catalog.get("title"))
        with pytest.raises(KeyError):
            stats.column("nope")


class TestSelectivity:
    def test_measured_base_predicate(self, estimator):
        selectivity = estimator.selectivity(col("t", "production_year") > lit(2000))
        assert selectivity == pytest.approx(3 / 7)

    def test_and_uses_independence(self, estimator):
        a = col("t", "production_year") > lit(2000)
        b = col("t", "production_year") > lit(1980)
        expected = estimator.selectivity(a) * estimator.selectivity(b)
        assert estimator.selectivity(and_(a, b)) == pytest.approx(expected)

    def test_or_uses_inclusion_exclusion(self, estimator):
        a = col("t", "production_year") > lit(2000)
        b = col("mi_idx", "info") > lit(8.0)
        expected = 1 - (1 - estimator.selectivity(a)) * (1 - estimator.selectivity(b))
        assert estimator.selectivity(or_(a, b)) == pytest.approx(expected)

    def test_not(self, estimator):
        a = col("t", "production_year") > lit(2000)
        assert estimator.selectivity(not_(a)) == pytest.approx(1 - estimator.selectivity(a))

    def test_caching(self, estimator):
        a = col("t", "production_year") > lit(2000)
        assert estimator.selectivity(a) == estimator.selectivity(a)

    def test_override(self, paper_catalog, query):
        a = col("t", "production_year") > lit(2000)
        estimator = build_estimate_provider(
            query, paper_catalog, selectivity_overrides={a.key(): 0.123}
        )
        assert estimator.selectivity(a) == pytest.approx(0.123)

    def test_multi_table_predicate_uses_default(self, estimator):
        predicate = col("t", "id").eq(col("mi_idx", "movie_id"))
        assert estimator.selectivity(predicate) == pytest.approx(DEFAULT_SELECTIVITY)

    def test_cost_factor_of_like_is_higher(self, estimator):
        cheap = col("t", "production_year") > lit(2000)
        expensive = ilike(col("t", "title"), "%god%")
        assert estimator.cost_factor(expensive) > estimator.cost_factor(cheap)

    def test_cost_factor_of_complex_expression_sums_children(self, estimator):
        a = col("t", "production_year") > lit(2000)
        b = ilike(col("t", "title"), "%god%")
        assert estimator.cost_factor(and_(a, b)) == pytest.approx(
            estimator.cost_factor(a) + estimator.cost_factor(b)
        )

    def test_selectivity_clamped_to_unit_interval(self, estimator):
        a = col("t", "production_year") > lit(0)
        assert 0.0 <= estimator.selectivity(a) <= 1.0


class TestCardinality:
    @pytest.fixture
    def cardinality(self, estimator):
        return estimator

    def test_base_rows(self, cardinality):
        assert cardinality.base_rows("t") == 7
        assert cardinality.base_rows("mi_idx") == 6

    def test_filtered_rows(self, cardinality):
        predicate = col("t", "production_year") > lit(2000)
        assert cardinality.filtered_rows("t", [predicate]) == pytest.approx(3.0)

    def test_join_rows_uses_max_ndv(self, cardinality, query):
        condition = query.join_conditions[0]
        estimate = cardinality.join_rows_multi(7, 6, [condition])
        assert estimate == pytest.approx(7 * 6 / 7)

    def test_join_rows_multi_with_no_conditions(self, cardinality):
        assert cardinality.join_rows_multi(10, 10, []) == pytest.approx(100)

    def test_distinct_values(self, cardinality):
        assert cardinality.distinct_values("t", "id") == 7
