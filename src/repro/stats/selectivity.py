"""Predicate selectivity estimation.

Following the paper (Section 4.1), base-predicate selectivities are
*measured*: the predicate is evaluated on a sample of its base table and the
observed pass rate is cached.  The measurement runs through the execution's
leaf routine (:class:`repro.kernels.dictionary.LeafEvaluator`), so a
predicate on a dictionary-coded column compares each distinct value once
and gathers over the sample's codes — byte-identical to
``BooleanExpr.evaluate`` on the sample, without its per-row string work.
A base predicate's measurement depends only on its table, the sample (size
and seed) and the predicate, so a stats provider that caches per table
version (:class:`repro.service.stats_cache.StatsCache`) memoizes it: the
estimator asks the provider before it measures, and a query planned again
on an unchanged table measures nothing.  Only measurements enter that memo,
never an estimate pinned by :meth:`SelectivityEstimator.seed_selectivity`.
Selectivities of complex expressions are combined under the independence
assumption:

* ``sel(AND) = product of child selectivities``
* ``sel(OR)  = 1 - product of (1 - child selectivities)``
* ``sel(NOT) = 1 - child selectivity``

Predicates spanning several tables (which cannot be evaluated on a single
base table) fall back to a fixed default selectivity.
"""

from __future__ import annotations

import numpy as np

from repro.expr import three_valued as tv
from repro.expr.ast import (
    AndExpr,
    BooleanExpr,
    LikePredicate,
    NotExpr,
    OrExpr,
)
from repro.expr.eval import RowBatch
from repro.kernels.dictionary import LeafEvaluator
from repro.plan.query import Query
from repro.storage.catalog import Catalog
from repro.storage.iostats import IOStats

#: Selectivity assumed for predicates that cannot be measured.
DEFAULT_SELECTIVITY = 0.33

#: Maximum number of rows sampled per table when measuring selectivities.
DEFAULT_SAMPLE_SIZE = 20_000


def sample_positions(
    num_rows: int, sample_size: int, rng: np.random.Generator
) -> np.ndarray:
    """Sorted row positions of a uniform sample of ``num_rows`` rows.

    Tables at or below ``sample_size`` rows are used whole, matching the
    paper's "measure on a sample" approach degrading to exact measurement.
    """
    if num_rows <= sample_size:
        return np.arange(num_rows, dtype=np.int64)
    return np.sort(rng.choice(num_rows, size=sample_size, replace=False)).astype(np.int64)


class SelectivityEstimator:
    """Measures and caches base-predicate selectivities for one query.

    Args:
        catalog: base tables.
        query: the query whose predicates are being estimated (supplies the
            alias -> table mapping).
        sample_size: number of rows (per table) used for measurement.
        seed: RNG seed used to draw the sample.
        stats_provider: optional per-table cache (the service layer's
            :class:`~repro.service.stats_cache.StatsCache`) whose
            ``sample_positions(table, sample_size, seed)`` supplies a base
            table's sampled row positions and whose
            ``measured_selectivity(table, sample_size, seed, key, measure)``
            memoizes each measurement, so repeated queries stop re-drawing
            samples and re-measuring predicates; without one, each query
            draws a fresh — but deterministic — sample and measures on it.
    """

    def __init__(
        self,
        catalog: Catalog,
        query: Query,
        sample_size: int = DEFAULT_SAMPLE_SIZE,
        seed: int = 0,
        stats_provider=None,
    ) -> None:
        self._catalog = catalog
        self._query = query
        self._sample_size = sample_size
        self._seed = seed
        self._stats_provider = stats_provider
        self._cache: dict[str, float] = {}
        # alias -> the leaf routine over its sample batch, so each column of
        # the sample is gathered once (as codes or as values) per query.
        self._leaves: dict[str, LeafEvaluator] = {}
        # Selectivity measurement is a planning activity; it must not pollute
        # the runtime I/O counters, so it gets a private scratch counter
        # (never None, which ``Column.account_read`` would send to the
        # global counters).
        self._scratch_io = IOStats()

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def selectivity(self, expr: BooleanExpr) -> float:
        """Estimated fraction of rows satisfying ``expr``."""
        key = expr.key()
        if key in self._cache:
            return self._cache[key]
        estimate = self._estimate(expr)
        estimate = min(max(estimate, 0.0), 1.0)
        self._cache[key] = estimate
        return estimate

    def set_selectivity(self, expr: BooleanExpr, value: float) -> None:
        """Override the estimate for an expression (used by tests/ablations)."""
        self._cache[expr.key()] = min(max(value, 0.0), 1.0)

    def seed_selectivity(self, key: str, value: float) -> None:
        """Pin the estimate for an expression *key* (feedback overrides).

        Seeded values participate in the cache-first recursion of
        :meth:`selectivity`, so pinning a sub-expression affects every
        AND/OR/NOT combination that contains it.
        """
        self._cache[key] = min(max(value, 0.0), 1.0)

    def reset_estimates(self) -> None:
        """Forget every cached and pinned estimate (samples are kept)."""
        self._cache.clear()

    def cost_factor(self, expr: BooleanExpr) -> float:
        """Relative per-row evaluation cost of a predicate (``F_P``).

        Pattern-matching predicates (LIKE / ILIKE) are an order of magnitude
        more expensive per row than comparisons, matching the role regex
        predicates play in the paper's TPullup/TIterPush discussion.
        """
        if isinstance(expr, LikePredicate):
            return 10.0
        if expr.is_base_predicate():
            return 1.0
        children = expr.children()
        return sum(self.cost_factor(child) for child in children) or 1.0

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _estimate(self, expr: BooleanExpr) -> float:
        if isinstance(expr, AndExpr):
            product = 1.0
            for child in expr.children():
                product *= self.selectivity(child)
            return product
        if isinstance(expr, OrExpr):
            product = 1.0
            for child in expr.children():
                product *= 1.0 - self.selectivity(child)
            return 1.0 - product
        if isinstance(expr, NotExpr):
            return 1.0 - self.selectivity(expr.child)
        return self._measure_base(expr)

    def _measure_base(self, expr: BooleanExpr) -> float:
        aliases = expr.tables()
        if len(aliases) != 1:
            return DEFAULT_SELECTIVITY
        alias = next(iter(aliases))
        if alias not in self._query.tables:
            return DEFAULT_SELECTIVITY
        if self._stats_provider is None:
            return self._measure_on_sample(alias, expr)
        return self._stats_provider.measured_selectivity(
            self._catalog.get(self._query.tables[alias]),
            self._sample_size,
            self._seed,
            expr.key(),
            lambda: self._measure_on_sample(alias, expr),
        )

    def _measure_on_sample(self, alias: str, expr: BooleanExpr) -> float:
        leaves = self._sample_leaves(alias)
        num_rows = leaves.batch.num_rows
        if num_rows == 0:
            return DEFAULT_SELECTIVITY
        truth = leaves.truth(expr, np.arange(num_rows, dtype=np.int64))
        return float(tv.is_true(truth).sum()) / num_rows

    def _sample_leaves(self, alias: str) -> LeafEvaluator:
        if alias in self._leaves:
            return self._leaves[alias]
        table = self._catalog.get(self._query.tables[alias])
        if self._stats_provider is not None:
            positions = self._stats_provider.sample_positions(
                table, self._sample_size, self._seed
            )
        else:
            # One fresh generator per table: the sample drawn for a table is
            # a function of (table, sample_size, seed) only, independent of
            # the order predicates are measured in — which is also exactly
            # what a caching sample provider returns, keeping cached and
            # uncached planning identical.
            positions = sample_positions(
                table.num_rows, self._sample_size, np.random.default_rng(self._seed)
            )
        leaves = LeafEvaluator(
            RowBatch({alias: table}, {alias: positions}, iostats=self._scratch_io)
        )
        self._leaves[alias] = leaves
        return leaves
