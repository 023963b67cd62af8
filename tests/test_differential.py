"""Differential tests: every planner agrees with the naive oracle.

These are the highest-value correctness tests in the repository: they compare
the tagged execution model (all planners) and the traditional model (BDisj,
BPushConj) against a row-at-a-time reference evaluator
on randomly generated catalogs and disjunctive queries, including NULLs,
NOT nodes and repeated subexpressions.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Session
from repro.expr import three_valued as tv
from repro.expr.eval import RowBatch
from repro.testing.datagen import RandomCatalogConfig, generate_random_catalog
from repro.testing.differential import (
    DEFAULT_PLANNERS,
    DifferentialReport,
    run_differential,
    run_fuzz_campaign,
)
from repro.testing.oracle import evaluate_oracle
from repro.testing.querygen import RandomQueryConfig, generate_random_query

_SMALL_CATALOG = RandomCatalogConfig(
    seed=42, num_dimensions=2, fact_rows=80, dimension_rows=120, null_fraction=0.08
)


@pytest.fixture(scope="module")
def fuzz_catalog():
    return generate_random_catalog(_SMALL_CATALOG)


@pytest.fixture(scope="module")
def fuzz_session(fuzz_catalog):
    return Session(fuzz_catalog, stats_sample_size=500)


class TestRunDifferential:
    def test_paper_query_agrees(self, paper_catalog, paper_query):
        report = run_differential(paper_catalog, paper_query)
        assert report.agreed, report.describe()
        assert report.row_count == 4
        assert set(report.planner_rows) == set(DEFAULT_PLANNERS)

    def test_report_describe_mentions_status(self, paper_catalog, paper_query):
        report = run_differential(paper_catalog, paper_query, planners=("tcombined",))
        assert "OK" in report.describe()

    def test_mismatch_is_reported(self):
        report = DifferentialReport(query_name="q", row_count=3)
        report.mismatches.append("bdisj returned 2 rows, oracle returned 3")
        assert not report.agreed
        assert "MISMATCH" in report.describe()

    @pytest.mark.parametrize("seed", range(12))
    def test_random_queries_agree_across_all_planners(self, fuzz_catalog, fuzz_session, seed):
        query = generate_random_query(
            fuzz_catalog, RandomQueryConfig(seed=seed, max_depth=3, max_fanout=3)
        )
        report = run_differential(
            fuzz_catalog, query, planners=DEFAULT_PLANNERS, session=fuzz_session
        )
        assert report.agreed, f"{query.predicate.key()}: {report.describe()}"

    @pytest.mark.parametrize("seed", range(6))
    def test_random_queries_with_heavy_reuse_agree(self, fuzz_catalog, fuzz_session, seed):
        query = generate_random_query(
            fuzz_catalog,
            RandomQueryConfig(
                seed=1000 + seed, reuse_probability=0.8, max_depth=4, max_fanout=3
            ),
        )
        report = run_differential(
            fuzz_catalog, query, planners=("tcombined", "bdisj", "bpushconj"),
            session=fuzz_session,
        )
        assert report.agreed, f"{query.predicate.key()}: {report.describe()}"


#: 20-30 rows per table at 5 % NULLs: some attribute columns hold a NULL,
#: others none, so the queries' tag logic goes both ways.
_SPARSE_NULLS = RandomCatalogConfig(seed=7, num_dimensions=2, fact_rows=20, dimension_rows=30)


@pytest.fixture(scope="module")
def sparse_null_catalog():
    return generate_random_catalog(_SPARSE_NULLS)


def meets_a_null(catalog, query) -> bool:
    """Whether some base predicate is UNKNOWN on some row of its table."""
    for predicate in query.base_predicates():
        (alias,) = predicate.tables()
        batch = RowBatch.for_base_table(alias, catalog.get(query.tables[alias]))
        if tv.is_unknown(predicate.evaluate(batch)).any():
            return True
    return False


@pytest.mark.parametrize("seed", range(16))
def test_random_queries_plan_three_valued_exactly_when_a_predicate_meets_a_null(
    sparse_null_catalog, seed
):
    query = generate_random_query(sparse_null_catalog, RandomQueryConfig(seed=seed))
    session = Session(sparse_null_catalog)
    three_valued = session._planner_context(query).tag_maps.three_valued
    assert three_valued == meets_a_null(sparse_null_catalog, query)
    report = run_differential(sparse_null_catalog, query, session=session)
    assert report.agreed, f"{query.predicate.key()}: {report.describe()}"


def test_random_queries_go_both_ways(sparse_null_catalog):
    logics = {
        meets_a_null(
            sparse_null_catalog,
            generate_random_query(sparse_null_catalog, RandomQueryConfig(seed=seed)),
        )
        for seed in range(16)
    }
    assert logics == {False, True}


class TestFuzzCampaign:
    def test_small_campaign_all_agree(self):
        reports = run_fuzz_campaign(
            num_queries=4,
            seed=3,
            catalog_config=RandomCatalogConfig(
                seed=3, num_dimensions=2, fact_rows=60, dimension_rows=90
            ),
            planners=("tcombined", "bdisj"),
        )
        assert len(reports) == 4
        assert all(report.agreed for report in reports), [
            report.describe() for report in reports
        ]

    def test_campaign_is_reproducible(self):
        config = RandomCatalogConfig(seed=5, num_dimensions=1, fact_rows=50, dimension_rows=60)
        first = run_fuzz_campaign(
            num_queries=2, seed=5, catalog_config=config, planners=("tcombined",)
        )
        second = run_fuzz_campaign(
            num_queries=2, seed=5, catalog_config=config, planners=("tcombined",)
        )
        assert [report.row_count for report in first] == [
            report.row_count for report in second
        ]


class TestHypothesisDifferential:
    """Property-based sweep over generator seeds and configuration knobs."""

    @settings(
        max_examples=15,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
    )
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        max_depth=st.integers(min_value=1, max_value=4),
        reuse=st.floats(min_value=0.0, max_value=0.9),
    )
    def test_tagged_matches_oracle(self, fuzz_catalog, fuzz_session, seed, max_depth, reuse):
        query = generate_random_query(
            fuzz_catalog,
            RandomQueryConfig(seed=seed, max_depth=max_depth, reuse_probability=reuse),
        )
        expected = evaluate_oracle(fuzz_catalog, query)
        result = fuzz_session.execute(query, planner="tcombined")
        assert result.sorted_rows() == expected
