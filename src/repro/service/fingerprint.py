"""Normalized query fingerprints.

A fingerprint addresses one entry of the plan cache.  It hashes every input
that determines the plan a :class:`~repro.engine.session.Session` would
build:

* the query's canonical form (:meth:`~repro.plan.query.Query.canonical_key`),
  which is stable across SQL whitespace, commutative AND/OR orderings and
  join-condition orientation;
* the planner name and the ``naive_tags`` flag;
* the session's planning knobs (three-valued logic, sample size,
  selectivity mode, cost-model constants);
* the versions of the tables the query references (``table_versions``), so
  a mutation silently retires exactly the plans that read the mutated
  tables — every other cached plan keeps its fingerprint and stays warm.
  Callers without per-table versions fall back to the whole-catalog
  version, which is sound but coarser (any mutation retires everything).

Two queries with equal fingerprints are guaranteed to produce identical
plans, because planning is deterministic in all of the hashed inputs.
"""

from __future__ import annotations

import hashlib

from repro.core.planner.cost import CostParams
from repro.plan.query import Query


def canonical_query_text(query: Query | str) -> str:
    """The canonical textual form of a query (parsing SQL strings first)."""
    if isinstance(query, str):
        from repro.sql import parse_query_cached

        query = parse_query_cached(query)
    return query.canonical_key()


def query_fingerprint(
    query: Query | str,
    planner: str,
    catalog_version: int,
    naive_tags: bool = False,
    three_valued: bool = True,
    sample_size: int = 20_000,
    selectivity_mode: str = "measured",
    cost_params: CostParams | None = None,
    access_version: int = -1,
    table_versions: tuple[tuple[str, int], ...] | None = None,
) -> str:
    """A stable hex digest addressing the plan for ``query`` under ``planner``.

    ``access_version`` is the access-path manager's mutation counter (``-1``
    when access paths are disabled): creating or dropping a secondary index
    changes the access paths a plan may have chosen, so it must retire
    cached plans the same way a catalog mutation does.

    ``table_versions`` — sorted ``(table name, per-table version)`` pairs for
    the tables the query references — replaces the whole-catalog version in
    the digest when provided, giving per-table invalidation granularity.
    """
    params = cost_params if cost_params is not None else CostParams()
    if table_versions is not None:
        version_material = "table_versions=" + ",".join(
            f"{name}:{version}" for name, version in table_versions
        )
    else:
        version_material = f"catalog_version={catalog_version}"
    material = "\x1f".join(
        (
            canonical_query_text(query),
            planner.lower(),
            version_material,
            f"naive_tags={naive_tags}",
            f"three_valued={three_valued}",
            f"sample_size={sample_size}",
            f"selectivity_mode={selectivity_mode}",
            f"cost_params={params!r}",
            f"access_version={access_version}",
        )
    )
    return hashlib.sha256(material.encode("utf-8")).hexdigest()
