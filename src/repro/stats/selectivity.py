"""Sampled base-predicate selectivities.

Following the paper (Section 4.1), base-predicate selectivities are
*measured*: the predicate is evaluated on a sample of its base table and the
observed pass rate is its selectivity.  This module draws the sample
(:func:`sample_positions`) and measures one leaf on it
(:func:`sampled_selectivity`); the measurement runs through the execution's
leaf routine (:class:`repro.kernels.dictionary.LeafEvaluator`), so a
predicate on a dictionary-coded column compares each distinct value once
and gathers over the sample's codes — byte-identical to
``BooleanExpr.evaluate`` on the sample, without its per-row string work.

The per-query combination of these measurements (independence assumption,
feedback overrides) is :class:`repro.optimizer.estimates.EstimateProvider`'s;
the per-table-version memo of samples and measurements is
:class:`repro.service.stats_cache.StatsCache`'s.
"""

from __future__ import annotations

import numpy as np

from repro.expr import three_valued as tv
from repro.expr.ast import BooleanExpr
from repro.kernels.dictionary import LeafEvaluator

#: Selectivity assumed for predicates that cannot be measured.
DEFAULT_SELECTIVITY = 0.33

#: Maximum number of rows sampled per table when measuring selectivities.
DEFAULT_SAMPLE_SIZE = 20_000

#: Seed of the generator every table's sample is drawn with, so a table's
#: sample is a function of its contents and the sample size only.
SAMPLE_SEED = 0


def sample_positions(num_rows: int, sample_size: int) -> np.ndarray:
    """Sorted row positions of a uniform sample of ``num_rows`` rows.

    Tables at or below ``sample_size`` rows are used whole, matching the
    paper's "measure on a sample" approach degrading to exact measurement.
    """
    if num_rows <= sample_size:
        return np.arange(num_rows, dtype=np.int64)
    rng = np.random.default_rng(SAMPLE_SEED)
    return np.sort(rng.choice(num_rows, size=sample_size, replace=False)).astype(np.int64)


def sampled_selectivity(leaves: LeafEvaluator, expr: BooleanExpr) -> float:
    """The fraction of ``leaves``' sample batch on which base predicate
    ``expr`` is TRUE (:data:`DEFAULT_SELECTIVITY` for an empty sample)."""
    num_rows = leaves.batch.num_rows
    if num_rows == 0:
        return DEFAULT_SELECTIVITY
    truth = leaves.truth(expr, np.arange(num_rows, dtype=np.int64))
    return float(tv.is_true(truth).sum()) / num_rows
