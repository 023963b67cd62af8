"""Normalized query fingerprints.

A fingerprint addresses one entry of the plan cache.  It hashes every input
that determines the plan a :class:`~repro.engine.session.Session` would
build:

* the query's canonical form (:meth:`~repro.plan.query.Query.canonical_key`),
  which is stable across SQL whitespace, commutative AND/OR orderings and
  join-condition orientation;
* the planner name;
* the :class:`~repro.core.planner.base.PlanOptions` the plan is built under,
  through their own :attr:`~repro.core.planner.base.PlanOptions.material` —
  every field, so an option added later is part of the key by construction;
* the versions of the tables the query references (``table_versions``), so
  a mutation silently retires exactly the plans that read the mutated
  tables — every other cached plan keeps its fingerprint and stays warm;
* the access-path manager's version (an index created or dropped changes
  the access paths a plan may have chosen).

Two queries with equal fingerprints are guaranteed to produce identical
plans, because planning is deterministic in all of the hashed inputs.
"""

from __future__ import annotations

import hashlib

from repro.core.planner.base import PlanOptions
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
    options: PlanOptions = PlanOptions(),
    table_versions: tuple[tuple[str, int], ...] = (),
    access_version: int = -1,
) -> str:
    """A stable hex digest addressing the plan for ``query`` under ``planner``.

    ``table_versions`` are sorted ``(table name, per-table version)`` pairs
    for the tables the query references: a commit retires exactly the plans
    reading a table it touched.  They are also what carries null-freeness
    into the key: the plan's tag logic is derived from its tables' NULLs,
    so a key that replaced them would still have to change with those.

    ``access_version`` is the access-path manager's mutation counter (``-1``
    when access paths are disabled): creating or dropping a secondary index
    changes the access paths a plan may have chosen, so it must retire
    cached plans the same way a table mutation does.
    """
    material = "\x1f".join(
        (
            canonical_query_text(query),
            planner.lower(),
            ",".join(f"{name}:{version}" for name, version in table_versions),
            options.material,
            f"access_version={access_version}",
        )
    )
    return hashlib.sha256(material.encode("utf-8")).hexdigest()
