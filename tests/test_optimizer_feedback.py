"""Tests of the optimizer layer: estimate provider, feedback store, re-planning."""

from __future__ import annotations

import numpy as np
import pytest

from repro import Catalog, QueryService, Session, Table
from repro.core.planner.base import PlannerContext
from repro.expr.builders import and_, col, lit, not_, or_
from repro.optimizer import (
    EstimateProvider,
    FeedbackStore,
    build_estimate_provider,
    estimate_plan_rows,
    explain_analyze_report,
    q_error,
)
from repro.engine.metrics import ExecutionMetrics
from repro.stats.selectivity import DEFAULT_SELECTIVITY


def skewed_catalog(rows: int = 4000, seed: int = 7) -> Catalog:
    """Two tables joined by FK whose cross-table clauses defeat estimation.

    Cross-table base predicates fall back to ``DEFAULT_SELECTIVITY`` — the
    data makes one clause pass (almost) always and the other (almost) never,
    so the a-priori estimate is wrong in both directions.
    """
    rng = np.random.default_rng(seed)
    a = Table.from_dict(
        "A",
        {
            "id": np.arange(rows),
            "u": rng.uniform(0.0, 0.02, rows),
            "w": rng.uniform(0.98, 1.0, rows),
        },
    )
    b = Table.from_dict(
        "B",
        {
            "fid": rng.integers(0, rows, rows),
            "v": rng.uniform(0.5, 1.0, rows),
            "x": rng.uniform(0.0, 0.5, rows),
        },
    )
    return Catalog([a, b])


SKEWED_SQL = (
    "SELECT a.id FROM A AS a JOIN B AS b ON a.id = b.fid "
    "WHERE (a.u < b.v OR a.u < b.x) AND (a.w < b.x OR a.w < b.v)"
)


# --------------------------------------------------------------------------- #
# EstimateProvider
# --------------------------------------------------------------------------- #
class TestEstimateProvider:
    @pytest.fixture()
    def provider(self, paper_query, paper_catalog) -> EstimateProvider:
        return build_estimate_provider(paper_query, paper_catalog)

    def test_matches_underlying_estimator_without_overrides(
        self, provider, paper_query, paper_catalog
    ):
        from repro.stats.selectivity import SelectivityEstimator

        reference = SelectivityEstimator(paper_catalog, paper_query)
        for expr in (
            col("t", "production_year") > lit(2000),
            and_(col("t", "production_year") > lit(2000), col("mi_idx", "info") > lit(7.0)),
            paper_query.predicate,
        ):
            assert provider.selectivity(expr) == pytest.approx(reference.selectivity(expr))

    def test_override_applies_at_every_nesting_level(self, provider):
        a = col("t", "production_year") > lit(2000)
        b = col("mi_idx", "info") > lit(7.0)
        clause = and_(a, b)
        baseline = provider.selectivity(or_(clause, not_(a)))
        provider.set_selectivity(clause, 0.9)
        assert provider.selectivity(clause) == pytest.approx(0.9)
        # The override propagates into the OR combination containing it.
        changed = provider.selectivity(or_(clause, not_(a)))
        assert changed != pytest.approx(baseline)

    def test_constructor_overrides_and_clamping(self, paper_query, paper_catalog):
        a = col("t", "production_year") > lit(2000)
        provider = build_estimate_provider(
            paper_query, paper_catalog, selectivity_overrides={a.key(): 3.5}
        )
        assert provider.selectivity(a) == 1.0
        assert provider.overrides == {a.key(): 1.0}

    def test_cardinality_formulas(self, provider, paper_query):
        assert provider.base_rows("t") == 7.0
        assert provider.base_rows("mi_idx") == 6.0
        condition = paper_query.join_conditions[0]
        expected = 7.0 * 6.0 / max(
            provider.distinct_values("t", "id"),
            provider.distinct_values("mi_idx", "movie_id"),
        )
        assert provider.join_rows_multi(7.0, 6.0, [condition]) == pytest.approx(expected)

    def test_cross_table_predicate_gets_default(self, provider):
        cross = col("t", "id") > col("mi_idx", "movie_id")
        assert provider.selectivity(cross) == pytest.approx(DEFAULT_SELECTIVITY)


class TestEstimatePlanRows:
    def test_walk_covers_every_node(self, paper_query, paper_catalog):
        context = PlannerContext.for_query(paper_query, paper_catalog)
        session = Session(paper_catalog)
        prepared = session.prepare(paper_query, planner="bpushconj")
        rows = estimate_plan_rows(prepared.roots[0], context.estimates)
        node_ids = {node.node_id for node in prepared.roots[0].walk()}
        assert set(rows) == node_ids
        assert all(value >= 0.0 for value in rows.values())

    def test_tagged_prepare_stores_cost_model_rows(self, paper_query, paper_catalog):
        session = Session(paper_catalog)
        prepared = session.prepare(paper_query, planner="tcombined")
        node_ids = {node.node_id for node in prepared.roots[0].walk()}
        assert set(prepared.estimated_rows) == node_ids
        assert prepared.estimated_output_rows == pytest.approx(
            prepared.estimated_rows[prepared.roots[0].node_id]
        )


# --------------------------------------------------------------------------- #
# Planner layer consumes only the provider
# --------------------------------------------------------------------------- #
def test_core_planner_has_no_direct_estimator_construction():
    """Acceptance: planners get numbers only through the EstimateProvider."""
    import pathlib

    import repro.core.planner as planner_pkg

    package_dir = pathlib.Path(planner_pkg.__file__).parent
    for path in package_dir.glob("*.py"):
        text = path.read_text(encoding="utf-8")
        assert "SelectivityEstimator(" not in text, path


# --------------------------------------------------------------------------- #
# q-error and the feedback store
# --------------------------------------------------------------------------- #
class TestQError:
    def test_symmetric_and_floored(self):
        assert q_error(10, 10) == 1.0
        assert q_error(100, 10) == pytest.approx(10.0)
        assert q_error(10, 100) == pytest.approx(10.0)
        assert q_error(0, 0) == 1.0
        assert q_error(0, 50) == pytest.approx(50.0)


def _metrics_with(counts: dict[str, tuple[int, int]]) -> ExecutionMetrics:
    metrics = ExecutionMetrics()
    for key, (evaluated, matched) in counts.items():
        metrics.record_predicate(key, evaluated, matched)
    return metrics


class TestFeedbackStore:
    def test_accumulates_ratios(self):
        store = FeedbackStore()
        store.record("f", _metrics_with({"p": (100, 10)}), 1000, 10)
        store.record("f", _metrics_with({"p": (300, 90)}), 1000, 10)
        assert store.observed_selectivities("f") == {"p": pytest.approx(0.25)}
        assert store.last_q_error("f") == pytest.approx(100.0)

    def test_should_replan_requires_drift_and_shifted_override(self):
        store = FeedbackStore()
        store.record("f", _metrics_with({"p": (100, 2)}), 1000, 10)
        # q-error 100 and no overrides applied yet -> replan.
        assert store.should_replan("f", threshold=2.0)
        store.mark_applied("f", store.observed_selectivities("f"))
        # Same observations again: q-error still high, but the plan already
        # uses the observed numbers -> converged, no more replans.
        store.record("f", _metrics_with({"p": (100, 2)}), 1000, 10)
        assert not store.should_replan("f", threshold=2.0)

    def test_no_replan_below_threshold(self):
        store = FeedbackStore()
        store.record("f", _metrics_with({"p": (100, 2)}), 12, 10)
        assert not store.should_replan("f", threshold=2.0)

    def test_unknown_fingerprint(self):
        store = FeedbackStore()
        assert store.observed_selectivities("nope") == {}
        assert store.last_q_error("nope") is None
        assert not store.should_replan("nope", threshold=2.0)

    def test_entry_cap_evicts_oldest(self):
        store = FeedbackStore(max_entries=2)
        for name in ("a", "b", "c"):
            store.record(name, _metrics_with({"p": (10, 1)}), 1, 1)
        assert len(store) == 2
        assert store.observed_selectivities("a") == {}


# --------------------------------------------------------------------------- #
# Per-table caches and plan-cache entry invalidation
# --------------------------------------------------------------------------- #
class TestPerTableVersions:
    def test_catalog_tracks_per_table_versions(self):
        catalog = Catalog([Table.from_dict("t", {"id": [1]})])
        version_t = catalog.table_version("t")
        catalog.add(Table.from_dict("s", {"id": [2]}))
        assert catalog.table_version("t") == version_t  # unrelated add
        catalog.replace(Table.from_dict("t", {"id": [3]}))
        assert catalog.table_version("t") > version_t
        catalog.drop("s")
        with pytest.raises(KeyError):
            catalog.table_version("s")

    def test_plan_cache_entry_invalidation(self):
        from repro.service import PlanCache

        cache = PlanCache(capacity=4)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.invalidate_entry("a")
        assert not cache.invalidate_entry("a")
        assert cache.get("a") is None
        assert cache.get("b") == 2
        assert cache.stats.invalidations == 1


# --------------------------------------------------------------------------- #
# The service feedback loop, end to end
# --------------------------------------------------------------------------- #
class TestServiceFeedbackLoop:
    @pytest.fixture(scope="class")
    def catalog(self) -> Catalog:
        return skewed_catalog()

    def test_drifted_plan_is_replanned_once_and_results_unchanged(self, catalog):
        with QueryService(Session(catalog), feedback=True) as service:
            first = service.execute(SKEWED_SQL, planner="bpushconj")
            second = service.execute(SKEWED_SQL, planner="bpushconj")
            third = service.execute(SKEWED_SQL, planner="bpushconj")
        # The misestimated plan was retired after the first run...
        assert not second.cache_hit
        assert second.plan_description != first.plan_description
        # ...the corrected plan sticks, and rows never change.
        assert third.cache_hit
        assert third.plan_description == second.plan_description
        assert service.feedback_store.stats.replans == 1
        assert first.sorted_rows() == second.sorted_rows() == third.sorted_rows()
        assert (
            second.metrics.predicate_rows_evaluated * 1.5
            <= first.metrics.predicate_rows_evaluated
        )

    def test_feedback_off_never_replans(self, catalog):
        with QueryService(Session(catalog)) as service:
            service.execute(SKEWED_SQL, planner="bpushconj")
            repeat = service.execute(SKEWED_SQL, planner="bpushconj")
            assert repeat.cache_hit
            assert "feedback" not in service.cache_metrics()

    def test_feedback_metrics_exposed(self, catalog):
        with QueryService(Session(catalog), feedback=True) as service:
            service.execute(SKEWED_SQL, planner="bpushconj")
            metrics = service.cache_metrics()
            assert metrics["feedback"]["observations"] == 1

    def test_tagged_planner_replans_too(self, catalog):
        with QueryService(Session(catalog), feedback=True) as service:
            first = service.execute(SKEWED_SQL, planner="tpushdown")
            second = service.execute(SKEWED_SQL, planner="tpushdown")
            assert first.sorted_rows() == second.sorted_rows()
            assert service.feedback_store.stats.observations == 2


# --------------------------------------------------------------------------- #
# Explain-analyze
# --------------------------------------------------------------------------- #
class TestExplainAnalyze:
    def test_report_lines_up_estimates_and_actuals(self, paper_catalog, paper_query):
        session = Session(paper_catalog)
        prepared = session.prepare(paper_query, planner="tcombined")
        result = session.execute_prepared(prepared, collect_feedback=True)
        report = explain_analyze_report(prepared, result)
        assert "est.rows" in report and "act.out" in report
        assert "Project" in report and "Join" in report
        assert f"actual_output_rows={result.metrics.output_rows}" in report

    def test_without_collection_actuals_are_dashes(self, paper_catalog, paper_query):
        session = Session(paper_catalog)
        prepared = session.prepare(paper_query, planner="tcombined")
        result = session.execute_prepared(prepared)
        report = explain_analyze_report(prepared, result)
        assert " -" in report

    def test_traditional_plan_report_covers_subplans(self, paper_catalog, paper_query):
        session = Session(paper_catalog)
        prepared = session.prepare(paper_query, planner="bdisj")
        result = session.execute_prepared(prepared, collect_feedback=True)
        report = explain_analyze_report(prepared, result)
        assert report.count("Project") == len(prepared.roots)

    def test_cli_explain_analyze(self, tmp_path, capsys):
        from repro.cli import main
        from repro.storage.disk import save_catalog

        save_catalog(skewed_catalog(rows=300), tmp_path / "data")
        code = main(
            [
                "query",
                "--data",
                str(tmp_path / "data"),
                "--explain-analyze",
                "--sql",
                "SELECT a.id FROM A AS a JOIN B AS b ON a.id = b.fid "
                "WHERE a.u < b.v OR a.w < b.x",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "est.rows" in out and "act.out" in out
