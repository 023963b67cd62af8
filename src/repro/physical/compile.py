"""Lowering a prepared plan onto the physical-operator layer.

:func:`compile_plan` turns a :class:`~repro.engine.session.PreparedPlan` of
either execution model (tagged or traditional) into a tree of
:class:`~repro.physical.base.PhysicalOperator` objects and returns its root,
whose ``run(context)`` returns :class:`~repro.engine.result.OutputColumns`.
Both models run on the tagged filter and join, and the walk over the logical
tree(s) is the same; :data:`MODELS` names the tag maps and the root each one
uses.  A traditional plan runs under one-tag maps (:data:`ONE_TAG_FILTER`,
:data:`ONE_TAG_JOIN`): every relation is one slice under the empty tag, which
the tagged operators execute as a plain filter and join.

The compiler optionally restricts a single table alias to a
:class:`~repro.storage.table.TablePartition`; the morsel driver compiles one
physical tree per partition.  Restricting one alias is sound for
scan→filter→join pipelines because every operator is linear in each input:
filtering or joining the union of the partitions equals the union of
filtering or joining each partition, and the partitioned alias appears on
exactly one side of every join.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.baseline.operators import UnionOperator
from repro.core.operators import (
    TaggedFilterOperator,
    TaggedJoinOperator,
    TaggedProjectOperator,
)
from repro.core.tagmap import FilterEntry, FilterTagMap, JoinTagMap
from repro.core.tags import Tag
from repro.physical.base import PhysicalOperator
from repro.physical.operators import ScanPhysical
from repro.plan.logical import FilterNode, JoinNode, PlanNode, ProjectNode, TableScanNode
from repro.storage.catalog import Catalog
from repro.storage.table import TablePartition


@dataclass(frozen=True)
class _Model:
    """How one execution model builds its operators from logical nodes."""

    #: ``(prepared, node, child) -> operator`` (may return ``child`` itself).
    filter: Callable
    #: ``(prepared, node, build, probe) -> operator``.
    join: Callable
    #: ``(prepared, children) -> root operator`` over the compiled children of
    #: ``prepared.roots``.
    root: Callable


def _tagged_filter(prepared, node, child):
    # A filter the tag maps do not mention refines no slice: it compiles away.
    tag_map = prepared.annotations.filter_maps.get(node.node_id)
    if tag_map is None:
        return child
    return TaggedFilterOperator(node.predicate, tag_map, child, node.node_id)


def _tagged_root(prepared, children):
    (plan,) = prepared.roots
    annotations, tree = prepared.annotations, prepared.predicate_tree
    return TaggedProjectOperator(
        annotations.projection if annotations else None,
        tree.expression if tree is not None else None,
        plan.columns,
        children[0],
        plan.node_id,
    )


#: A traditional filter: the one slice keeps its TRUE rows under the empty tag.
ONE_TAG_FILTER = FilterTagMap({Tag.empty(): FilterEntry(pos_tag=Tag.empty())})
#: A traditional join: the one slice of each side pairs into one output slice.
ONE_TAG_JOIN = JoinTagMap({(Tag.empty(), Tag.empty()): Tag.empty()})


def _traditional_root(prepared, children):
    if not children:
        raise ValueError("traditional plan has no subplans")
    return UnionOperator(children, prepared.roots[-1].columns)


#: Execution kind -> the operators its plans compile to.
MODELS = {
    "tagged": _Model(
        filter=_tagged_filter,
        join=lambda prepared, node, build, probe: TaggedJoinOperator(
            node.conditions, prepared.annotations.join_maps[node.node_id],
            build, probe, node.node_id,
        ),
        root=_tagged_root,
    ),
    "traditional": _Model(
        filter=lambda prepared, node, child: TaggedFilterOperator(
            node.predicate, ONE_TAG_FILTER, child, node.node_id
        ),
        join=lambda prepared, node, build, probe: TaggedJoinOperator(
            node.conditions, ONE_TAG_JOIN, build, probe, node.node_id
        ),
        root=_traditional_root,
    ),
}


def compile_plan(
    prepared,
    catalog: Catalog,
    partition_alias: str | None = None,
    partition: TablePartition | None = None,
    scan_candidates: dict[str, np.ndarray] | None = None,
) -> PhysicalOperator:
    """Compile a :class:`~repro.engine.session.PreparedPlan`; returns the root operator.

    Args:
        prepared: the plan; ``kind`` picks the operators, ``roots`` are the
            logical trees walked, ``annotations`` / ``predicate_tree``
            parameterize them.
        catalog: base tables.
        partition_alias: alias whose scan is restricted to ``partition``.
        partition: the row-range slice for ``partition_alias``.
        scan_candidates: alias -> access-path candidate set (sorted row
            positions); scans of those aliases emit only candidate rows
            (zone-map/index pruning).
    """
    model = MODELS.get(prepared.kind)
    if model is None:
        raise ValueError(f"unknown execution kind {prepared.kind!r}")
    candidates = scan_candidates or {}

    def scan(node: TableScanNode) -> ScanPhysical:
        return ScanPhysical(
            node.alias,
            catalog.get(node.table_name),
            partition if node.alias == partition_alias else None,
            node_id=node.node_id,
            candidates=candidates.get(node.alias),
        )

    for root in prepared.roots:
        if not isinstance(root, ProjectNode):
            raise ValueError(f"{prepared.kind} plans must be rooted at a ProjectNode")
    children = [_lower(root.child, prepared, model, scan) for root in prepared.roots]
    return model.root(prepared, children)


def _lower(node: PlanNode, prepared, model: _Model, scan: Callable) -> PhysicalOperator:
    """The one tree walk: scans through ``scan``, the rest through ``model``."""
    if isinstance(node, TableScanNode):
        return scan(node)
    if isinstance(node, FilterNode):
        return model.filter(prepared, node, _lower(node.child, prepared, model, scan))
    if isinstance(node, JoinNode):
        build = _lower(node.left, prepared, model, scan)
        probe = _lower(node.right, prepared, model, scan)
        return model.join(prepared, node, build, probe)
    if isinstance(node, ProjectNode):
        raise ValueError("nested ProjectNode encountered; plans must have a single root")
    raise TypeError(f"unknown plan node type: {type(node).__name__}")


def plan_scan_aliases(prepared) -> dict[str, str]:
    """Alias -> table-name of every base-table scan of a prepared plan.

    The first logical root is inspected (a traditional plan's subplans all
    scan the same query aliases).  Used by the parallel driver to pick the
    partitioning alias deterministically.
    """
    if not prepared.roots:
        return {}
    return {
        scan.alias: scan.table_name
        for scan in prepared.roots[0].walk()
        if isinstance(scan, TableScanNode)
    }
