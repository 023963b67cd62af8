"""Shared fixtures: the paper's running example, plus small generated datasets."""

from __future__ import annotations

import numpy as np
import pytest

from repro import Catalog, PreparedPlan, Session, Table
from repro.core.tagged_relation import TaggedRelation
from repro.engine.shard import shutdown_shard_pools
from repro.plan.query import JoinCondition, Query
from repro.expr.builders import and_, col, lit, or_
from repro.workloads.imdb import generate_imdb_catalog
from repro.workloads.synthetic import SyntheticConfig, generate_synthetic_catalog


@pytest.fixture(scope="module", autouse=True)
def _no_shard_pool_outlives_its_module():
    """Stop the shard worker pools a test module started, when it ends.

    A pool left alive blocks a later module that stops the multiprocessing
    forkserver (the e2e benchmark smoke test does, after each workload).
    """
    yield
    shutdown_shard_pools()


@pytest.fixture(scope="session")
def paper_catalog() -> Catalog:
    """The seven movies from the paper's Examples 1-4."""
    title = Table.from_dict(
        "title",
        {
            "id": [1, 2, 3, 4, 5, 6, 7],
            "title": [
                "The Dark Knight",
                "Evolution",
                "The Shawshank Redemption",
                "Pulp Fiction",
                "The Godfather",
                "Beetlejuice",
                "Avatar",
            ],
            "production_year": [2008, 2001, 1994, 1994, 1972, 1988, 2009],
        },
    )
    movie_info_idx = Table.from_dict(
        "movie_info_idx",
        {
            "movie_id": [1, 3, 4, 5, 6, 7],
            "info": [9.0, 9.3, 8.9, 9.2, 7.5, 7.9],
        },
    )
    return Catalog([title, movie_info_idx])


@pytest.fixture(scope="session")
def paper_query() -> Query:
    """Query 1 from the paper, built programmatically."""
    predicate = or_(
        and_(col("t", "production_year") > lit(2000), col("mi_idx", "info") > lit(7.0)),
        and_(col("t", "production_year") > lit(1980), col("mi_idx", "info") > lit(8.0)),
    )
    return Query(
        tables={"t": "title", "mi_idx": "movie_info_idx"},
        join_conditions=[JoinCondition(col("t", "id"), col("mi_idx", "movie_id"))],
        predicate=predicate,
        name="query1",
    )


@pytest.fixture(scope="session")
def paper_session(paper_catalog: Catalog) -> Session:
    """A session over the paper's example catalog."""
    return Session(paper_catalog)


def hand_built_plan(
    kind: str, roots, annotations=None, predicate_tree=None
) -> PreparedPlan:
    """A :class:`PreparedPlan` around a logical plan assembled by hand."""
    return PreparedPlan(
        planner=kind,
        kind=kind,
        query=None,
        roots=list(roots),
        annotations=annotations,
        predicate_tree=predicate_tree,
        plan_description="",
        plan_hash=None,
        planning_seconds=0.0,
    )


def sliced_relation(alias: str, table: Table, slices) -> TaggedRelation:
    """A one-alias relation holding the given base rows under each tag.

    ``slices`` maps tag -> row positions of ``table`` (disjoint across tags);
    the relation holds their union in ascending order, and empty slices are
    left out.
    """
    tags = [tag for tag, rows in slices.items() if len(rows)]
    rows = [np.asarray(slices[tag], dtype=np.int64) for tag in tags]
    if not tags:
        return TaggedRelation({alias: table}, {alias: np.empty(0, dtype=np.int64)}, ())
    positions = np.concatenate(rows)
    slice_ids = np.concatenate([np.full(len(part), index) for index, part in enumerate(rows)])
    order = np.argsort(positions, kind="stable")
    return TaggedRelation({alias: table}, {alias: positions[order]}, tags, slice_ids[order])


PAPER_QUERY_SQL = """
SELECT t.title, t.production_year, mi_idx.info
FROM title AS t JOIN movie_info_idx AS mi_idx ON t.id = mi_idx.movie_id
WHERE (t.production_year > 2000 AND mi_idx.info > 7.0)
   OR (t.production_year > 1980 AND mi_idx.info > 8.0)
"""

#: Titles that satisfy Query 1 (the paper's Example 4 output).
PAPER_QUERY_MATCHES = {
    "The Dark Knight",
    "Avatar",
    "The Shawshank Redemption",
    "Pulp Fiction",
}


@pytest.fixture(scope="session")
def paper_query_sql() -> str:
    """Query 1 as SQL text."""
    return PAPER_QUERY_SQL


@pytest.fixture(scope="session")
def imdb_catalog() -> Catalog:
    """A small synthetic IMDB-like catalog (shared across integration tests)."""
    return generate_imdb_catalog(scale=0.015, seed=11)


@pytest.fixture(scope="session")
def imdb_session(imdb_catalog: Catalog) -> Session:
    """A session over the small IMDB-like catalog."""
    return Session(imdb_catalog, stats_sample_size=4_000)


@pytest.fixture(scope="session")
def synthetic_catalog() -> Catalog:
    """A small synthetic T0/T1/T2 catalog (shared across integration tests)."""
    return generate_synthetic_catalog(SyntheticConfig(table_size=800, seed=3))


@pytest.fixture(scope="session")
def synthetic_session(synthetic_catalog: Catalog) -> Session:
    """A session over the small synthetic catalog."""
    return Session(synthetic_catalog, stats_sample_size=800)
