"""Choosing an access path per plan leaf: index, zone-pruned, or full scan.

The :class:`AccessPathChooser` turns "what structures exist" plus "how
selective is the scan's implied predicate" into one
:class:`AccessPathChoice` per query alias.  Planners never talk to this
module directly — the chooser is consumed through
:meth:`repro.optimizer.estimates.EstimateProvider.access_plan`, which keeps
``repro.core.planner`` free of any access-path imports while still letting
every planner cost index-scan vs zone-pruned-scan vs full-scan per leaf.

Page estimates use the classic uniform-placement expectation (Cardenas):
``pages * (1 - (1 - selectivity) ** page_size)`` distinct pages are expected
to contain at least one of the qualifying rows.  Zone-map pruning works at
page granularity (a page with one candidate row is kept whole), so its
estimate carries a granularity penalty over the index estimate.  When the
implied predicate keeps more than
:data:`~repro.storage.column.SEQUENTIAL_SCAN_THRESHOLD` of the table, the
storage layer would fall back to a sequential read anyway, so the chooser
picks a full scan and the executor skips the pruning machinery entirely.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.access.manager import AccessPathManager, base_predicate_column
from repro.access.pruning import implied_alias_predicate
from repro.access.zonemap import zone_map_supported
from repro.expr.ast import AndExpr, BooleanExpr, Comparison, NotExpr, OrExpr
from repro.plan.query import Query
from repro.storage.column import SEQUENTIAL_SCAN_THRESHOLD

#: Multiplier applied to the page estimate of zone-map pruning: keeping
#: whole pages is coarser than keeping exact rows.
ZONE_GRANULARITY_PENALTY = 2.0


@dataclass(frozen=True)
class AccessPathChoice:
    """The chosen access path of one scan leaf.

    ``kind`` is ``"full"``, ``"zonemap"`` or ``"index"``;  ``predicate`` is
    the implied single-alias predicate the scan may prune on (``None`` for a
    full scan — nothing is implied, or pruning is not worthwhile).
    """

    alias: str
    table_name: str
    kind: str
    predicate: BooleanExpr | None = None
    selectivity: float = 1.0
    total_pages: int = 0
    est_pages: float = 0.0

    def describe(self) -> str:
        """Short label for EXPLAIN output, e.g. ``index est_pages=3/40``."""
        if self.kind == "full":
            return "full"
        return f"{self.kind} est_pages={self.est_pages:.1f}/{self.total_pages}"


@dataclass
class QueryAccessPlan:
    """Per-alias access-path choices for one prepared query.

    Stored on :class:`~repro.engine.session.PreparedPlan`; at execution time
    :meth:`resolve_all` materializes the candidate sets (sorted row
    positions, memoized in the manager, keyed by table version) that scans
    prune with.
    """

    manager: AccessPathManager
    choices: dict[str, AccessPathChoice] = field(default_factory=dict)
    #: Per-alias table versions pinned when the plan was built.  Resolution
    #: refuses to prune an alias whose table has since mutated: the manager
    #: only knows the *current* contents, while the prepared plan executes
    #: against its own catalog snapshot — the scan still filters deletes
    #: itself, so skipping pruning is the sound (and cheap) fallback.
    table_versions: dict[str, int] = field(default_factory=dict)

    def choice(self, alias: str) -> AccessPathChoice | None:
        """The choice for ``alias`` (None when the alias is unknown)."""
        return self.choices.get(alias)

    def resolve_all(self) -> dict[str, np.ndarray]:
        """Candidate sets for every pruned alias (full scans are absent)."""
        resolved: dict[str, np.ndarray] = {}
        for alias, choice in self.choices.items():
            if choice.kind == "full" or choice.predicate is None:
                continue
            pinned = self.table_versions.get(alias)
            try:
                current = self.manager.catalog.table_version(choice.table_name)
            except KeyError:
                continue
            if pinned is not None and current != pinned:
                continue
            positions = self.manager.candidates(choice.table_name, choice.predicate)
            if positions is not None:
                resolved[alias] = positions
        return resolved


class AccessPathChooser:
    """Builds the :class:`QueryAccessPlan` of one query.

    ``catalog`` holds the tables the plan executes on (a prepare's pinned
    snapshot): the plan's table versions come from it, so a commit landing
    during the prepare leaves that alias unpruned rather than pruned with
    positions of a table the plan does not read.
    """

    def __init__(self, query: Query, manager: AccessPathManager, catalog) -> None:
        self.query = query
        self.manager = manager
        self.catalog = catalog

    def build_plan(self, estimates) -> QueryAccessPlan:
        """Choose an access path per alias, costing with ``estimates``.

        ``estimates`` is the query's
        :class:`~repro.optimizer.estimates.EstimateProvider` (duck-typed:
        only ``selectivity`` and ``base_rows`` are used).
        """
        plan = QueryAccessPlan(manager=self.manager)
        for alias, table_name in self.query.tables.items():
            plan.choices[alias] = self._choose(alias, table_name, estimates)
            try:
                plan.table_versions[alias] = self.catalog.table_version(table_name)
            except KeyError:
                pass
        return plan

    def _choose(self, alias: str, table_name: str, estimates) -> AccessPathChoice:
        try:
            table = self.catalog.get(table_name)
        except KeyError:
            return AccessPathChoice(alias, table_name, "full")
        total_pages = table.num_pages
        full = AccessPathChoice(alias, table_name, "full", total_pages=total_pages)
        implied = implied_alias_predicate(self.query.predicate, alias)
        if implied is None or total_pages == 0:
            return full
        evidence = self._classify(table_name, implied)
        if evidence is None:
            return full
        selectivity = min(max(float(estimates.selectivity(implied)), 0.0), 1.0)
        if selectivity >= SEQUENTIAL_SCAN_THRESHOLD:
            # The storage layer reads this selectivity sequentially anyway.
            return full
        page_size = table.page_size
        expected_pages = total_pages * (1.0 - (1.0 - selectivity) ** page_size)
        if evidence == "zone":
            expected_pages = min(
                float(total_pages), ZONE_GRANULARITY_PENALTY * expected_pages
            )
        kind = "index" if evidence == "index" else "zonemap"
        return AccessPathChoice(
            alias,
            table_name,
            kind,
            predicate=implied,
            selectivity=selectivity,
            total_pages=total_pages,
            est_pages=expected_pages,
        )

    # ------------------------------------------------------------------ #
    # Support classification (mirrors repro.access.pruning.candidate_positions)
    # ------------------------------------------------------------------ #
    def _classify(self, table_name: str, predicate: BooleanExpr) -> str | None:
        """``'index'`` / ``'zone'`` / None: the best evidence available."""
        if isinstance(predicate, NotExpr):
            return None
        if isinstance(predicate, AndExpr):
            parts = [
                part
                for part in (
                    self._classify(table_name, child) for child in predicate.children()
                )
                if part is not None
            ]
            if not parts:
                return None
            return "index" if "index" in parts else "zone"
        if isinstance(predicate, OrExpr):
            parts = []
            for child in predicate.children():
                part = self._classify(table_name, child)
                if part is None:
                    return None
                parts.append(part)
            return "zone" if "zone" in parts else "index"
        column = base_predicate_column(predicate)
        if column is None:
            return None
        if self.manager.has_index(table_name, column) and _index_answerable(predicate):
            return "index"
        if zone_map_supported(predicate, column):
            return "zone"
        return None


def _index_answerable(predicate: BooleanExpr) -> bool:
    """Whether an index lookup can answer this base predicate exactly.

    Conservative static check mirroring ``_IndexBase._lookup``; literal-type
    mismatches still degrade gracefully at resolution time.
    """
    if isinstance(predicate, Comparison):
        return True
    # IN / BETWEEN / IS NULL are all answerable; LIKE is not.
    from repro.expr.ast import BetweenPredicate, InPredicate, IsNullPredicate

    return isinstance(predicate, (BetweenPredicate, InPredicate, IsNullPredicate))
