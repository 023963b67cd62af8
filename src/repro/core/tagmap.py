"""Tag maps and their construction (Section 3.3).

A *tag map* tells a tagged operator which relational slices to touch and
which output tags to produce:

* filter entries: ``in-tag -> {T: pos-tag?, F: neg-tag?, U: unk-tag?}``
* join entries:   ``(left-tag, right-tag) -> out-tag``
* projection:     the set of allowed tags.

:class:`TagMapBuilder` walks a logical plan and constructs all tag maps,
following either the *naive strategy* of Section 3.1 or the generalized
strategy of Section 3.3 with its two precepts:

1. never produce an output tag whose generalized form refutes the root of the
   predicate tree (those tuples can never reach the output);
2. never apply a filter to a slice whose tag already dominates the predicate
   (every occurrence of the predicate has an assigned ancestor), since the
   split would not refine the selection.

Between operators the builder carries tags as planes
(:data:`repro.core.predtree.Planes`): a filter output is the input's planes
with one bit set, a join output the OR of both sides after a conflict test,
the precepts are mask tests against the tree's
:class:`~repro.core.predtree.BitTables`, and its memos are keyed by planes.
:class:`~repro.core.tags.Tag` objects, interned per tree, appear only in what
it returns: tag-map entries, output tags and the projection's sets.
:class:`TagAlgebraMemo` keeps each predicate's tree and finished operator tag
maps across prepares, so planning a query again builds neither.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from collections.abc import Iterable
from dataclasses import dataclass, field

from repro.core.generalize import generalize_planes
from repro.core.predtree import EMPTY_PLANES, Planes, PredicateTree
from repro.core.tags import Tag
from repro.expr.ast import BooleanExpr
from repro.expr.three_valued import FALSE, TRUE, UNKNOWN
from repro.plan.logical import FilterNode, JoinNode, PlanNode, ProjectNode, TableScanNode


@dataclass
class FilterEntry:
    """Outputs of one filter tag-map entry (any of them may be dropped)."""

    pos_tag: Tag | None = None
    neg_tag: Tag | None = None
    unk_tag: Tag | None = None

    def output_tags(self) -> list[Tag]:
        """The output tags that are actually produced."""
        return [tag for tag in (self.pos_tag, self.neg_tag, self.unk_tag) if tag is not None]


@dataclass
class FilterTagMap:
    """Tag map of a tagged filter operator."""

    entries: dict[Tag, FilterEntry] = field(default_factory=dict)

    def matches(self, tag: Tag) -> bool:
        """Whether the slice tagged ``tag`` is processed by the filter."""
        return tag in self.entries


@dataclass
class JoinTagMap:
    """Tag map of a tagged join operator."""

    entries: dict[tuple[Tag, Tag], Tag] = field(default_factory=dict)

    def left_tags(self) -> set[Tag]:
        """Left input tags with at least one matching entry."""
        return {left for left, _right in self.entries}

    def right_tags(self) -> set[Tag]:
        """Right input tags with at least one matching entry."""
        return {right for _left, right in self.entries}


@dataclass
class ProjectionTagSet:
    """Allowed tags at the projection operator."""

    allowed: set[Tag] = field(default_factory=set)
    #: Tags that survived to the projection without a definite root
    #: assignment; the executor evaluates the residual predicate on them to
    #: preserve correctness for plans that did not apply every predicate.
    residual: set[Tag] = field(default_factory=set)


@dataclass
class PlanTagAnnotations:
    """Per-node tag maps and output tags for one logical plan."""

    filter_maps: dict[int, FilterTagMap] = field(default_factory=dict)
    join_maps: dict[int, JoinTagMap] = field(default_factory=dict)
    projection: ProjectionTagSet | None = None
    #: Output tags of every node (node_id -> list of tags), useful for
    #: debugging, cost estimation and tests.
    output_tags: dict[int, list[Tag]] = field(default_factory=dict)

    def num_tags(self) -> int:
        """Total number of distinct tags appearing anywhere in the plan."""
        tags: set[Tag] = set()
        for node_tags in self.output_tags.values():
            tags.update(node_tags)
        return len(tags)


#: Marks "not computed yet" in memos whose values may be ``None``.
_MISSING = object()

#: An operator's output: its tags' planes, and the tags, in the same order.
Outputs = tuple[tuple[Planes, ...], tuple[Tag, ...]]

#: What every table scan outputs: the empty tag.
_SCAN_OUTPUTS: Outputs = ((EMPTY_PLANES,), (Tag.empty(),))


class TagMapBuilder:
    """Builds tag maps for every operator of a logical plan.

    One builder serves one prepare, and its operator memo serves every
    prepare of one predicate (:class:`TagAlgebraMemo`): the planners cost
    many candidate plans that differ by one moved filter, and a re-plan
    meets the same candidates again, so the builder remembers what has
    already been derived — the finished tag map of an operator given its
    input tags (shared), and within this prepare the filter entry of a
    ``(predicate, input tag)``, the output tag of a join's
    ``(left tag, right tag)`` and each generalized tag.  A candidate
    therefore only pays for the operators whose input tags no earlier
    candidate had; everything else is the same (read-only) tag-map object
    under the new plan's node ids.  ``work`` counts what this builder
    really computed.

    Args:
        tree: the query's predicate tree.
        naive: use the naive strategy of Section 3.1 (no generalization, no
            precepts) instead of the default generalized strategy.
        three_valued: honour NULLs by producing UNKNOWN output tags; with
            ``False`` the builder behaves exactly like the two-valued model
            of Sections 2-3.3, which is only correct when no predicate can
            be UNKNOWN.  Planning derives it from the query and its data
            (:meth:`repro.plan.query.Query.can_be_unknown`).
        operators: the operator memo to read and extend — ``(operator, its
            parameters, input planes) -> (tag map, outputs)`` — shared by
            every builder of the same tree and strategy; ``None`` starts an
            empty one.
    """

    def __init__(
        self,
        tree: PredicateTree | None,
        naive: bool = False,
        three_valued: bool = True,
        operators: dict[tuple, tuple[object, Outputs]] | None = None,
    ) -> None:
        self.tree = tree
        self.naive = naive
        self.three_valued = three_valued
        self._operators = {} if operators is None else operators
        self._filter_entries: dict[tuple[int, Planes], tuple | None] = {}
        self._join_outputs: dict[tuple[Planes, Planes], tuple[Planes, Tag] | None] = {}
        #: Algorithm 1's answers of this builder: planes -> generalized planes.
        self._generalizations: dict[Planes, Planes] = {}
        self._plans_built = 0
        self._operators_built = 0

    @property
    def work(self) -> dict[str, int]:
        """Deterministic planning-work counters of this builder: candidates
        costed, operator tag maps built (memo misses), Algorithm 1 runs."""
        return {
            "candidate_plans": self._plans_built,
            "tagmap_nodes_built": self._operators_built,
            "generalizations_computed": len(self._generalizations),
        }

    # ------------------------------------------------------------------ #
    # Entry point
    # ------------------------------------------------------------------ #
    def build(
        self, plan: PlanNode, cost=None, bound: float = math.inf
    ) -> PlanTagAnnotations | None:
        """Build tag maps for every node of ``plan``, in one post-order walk.

        With a ``cost`` (a :class:`~repro.core.planner.cost.PlanCost`) the
        walk also costs the plan: each operator's term is added right after
        its tag map is built, and the walk is abandoned — ``None`` is
        returned — as soon as ``cost.total`` is strictly greater than
        ``bound``.  The terms are non-negative, so an abandoned plan's full
        cost would have exceeded ``bound`` too; a plan that is not abandoned
        gets the same tag maps, rows and total as with no bound.
        """
        self._plans_built += 1
        annotations = PlanTagAnnotations()
        if self._build_node(plan, annotations, cost, bound) is None:
            return None
        return annotations

    # ------------------------------------------------------------------ #
    # Per-node construction
    # ------------------------------------------------------------------ #
    def _build_node(
        self, node: PlanNode, annotations: PlanTagAnnotations, cost, bound: float
    ) -> tuple[Outputs, dict | None] | None:
        """``node``'s outputs and, when costing, its estimated rows per
        output tag; ``None`` once the running cost exceeds ``bound``."""
        if isinstance(node, TableScanNode):
            outputs = _SCAN_OUTPUTS
            rows = None if cost is None else cost.scan(node)
        elif isinstance(node, FilterNode):
            child = self._build_node(node.child, annotations, cost, bound)
            if child is None:
                return None
            inputs, input_rows = child
            tag_map, outputs = self._operator(
                ("filter", node.predicate.key(), inputs[0]),
                lambda: self._build_filter(node.predicate, zip(*inputs)),
            )
            annotations.filter_maps[node.node_id] = tag_map
            rows = None if cost is None else cost.filter(node, tag_map, input_rows)
        elif isinstance(node, JoinNode):
            left = self._build_node(node.left, annotations, cost, bound)
            if left is None:
                return None
            right = self._build_node(node.right, annotations, cost, bound)
            if right is None:
                return None
            (left_outputs, left_rows), (right_outputs, right_rows) = left, right
            tag_map, outputs = self._operator(
                ("join", left_outputs[0], right_outputs[0]),
                lambda: self._build_join(list(zip(*left_outputs)), list(zip(*right_outputs))),
            )
            annotations.join_maps[node.node_id] = tag_map
            rows = None if cost is None else cost.join(node, tag_map, left_rows, right_rows)
        elif isinstance(node, ProjectNode):
            child = self._build_node(node.child, annotations, cost, bound)
            if child is None:
                return None
            inputs, input_rows = child
            annotations.projection, outputs = self._operator(
                ("project", inputs[0]), lambda: self._build_projection(zip(*inputs))
            )
            rows = None if cost is None else cost.project(node, input_rows)
        else:
            raise TypeError(f"unknown plan node type: {type(node).__name__}")
        annotations.output_tags[node.node_id] = list(outputs[1])
        if cost is not None and cost.total > bound:
            return None
        return outputs, rows

    def _operator(self, key: tuple, build) -> tuple[object, Outputs]:
        """The tag map and outputs of one operator, built once per ``key``.

        Tag maps depend only on the operator and the tags flowing into it, so
        sub-plans shared between candidate plans share their tag maps.
        """
        built = self._operators.get(key)
        if built is None:
            tag_map, output = build()
            built = self._operators[key] = (tag_map, (tuple(output), tuple(output.values())))
            self._operators_built += 1
        return built

    def _tag(self, planes: Planes) -> Tag:
        return Tag.empty() if self.tree is None else self.tree.tag(planes)

    def _generalized(self, planes: Planes) -> Planes:
        generalized = self._generalizations.get(planes)
        if generalized is None:
            generalized = self._generalizations[planes] = generalize_planes(
                self.tree.tables, planes
            )
        return generalized

    def _refutes(self, planes: Planes) -> bool:
        """Whether generalized ``planes`` prove their tuples never reach the
        output: a FALSE root, or an UNKNOWN one under three-valued logic."""
        root = self.tree.tables.root
        return bool(root & planes[FALSE] or (self.three_valued and root & planes[UNKNOWN]))

    def _build_filter(
        self, predicate: BooleanExpr, inputs: Iterable[tuple[Planes, Tag]]
    ) -> tuple[FilterTagMap, dict[Planes, Tag]]:
        if self.tree is None or predicate.key() not in self.tree:
            raise ValueError(
                f"filter predicate {predicate.key()} is not part of the query's predicate tree"
            )
        index = self.tree.tables.bits[predicate.key()]
        tag_map = FilterTagMap()
        # Output planes -> tag, in first-produced order (re-adding an equal
        # pair leaves the order alone).
        output: dict[Planes, Tag] = {}

        for in_planes, in_tag in inputs:
            entry = self._filter_entries.get((index, in_planes), _MISSING)
            if entry is _MISSING:
                entry = self._filter_entries[(index, in_planes)] = self._filter_entry(
                    index, in_planes
                )
            if entry is None:
                # Slice passes through untouched.
                output[in_planes] = in_tag
                continue
            filter_entry, outputs = entry
            tag_map.entries[in_tag] = filter_entry
            output.update(outputs)

        return tag_map, output

    def _filter_entry(self, index: int, in_planes: Planes) -> tuple | None:
        """``(FilterEntry, its (output planes, output tag) pairs)`` for one
        input slice, or None when the slice passes the filter untouched."""
        bit = 1 << index
        false, true, unknown = in_planes
        if not self.naive:
            assigned = false | true | unknown
            tables = self.tree.tables
            if assigned & bit:
                return None
            # Precept (2): skip slices whose tag already dominates the predicate.
            if all(ancestors & assigned for ancestors in tables.ancestor_masks[index]):
                return None
            if _implied(tables, in_planes, bit):
                # The slice's tag already determines this predicate's outcome
                # through value-level implication (e.g. year > 2000 determines
                # year > 1980), so splitting it would not refine the selection.
                return None
        else:
            # The naive strategy re-splits slices that already carry the key.
            false, true, unknown = false & ~bit, true & ~bit, unknown & ~bit
        # The positive, negative and (three-valued) unknown outputs.
        outputs = [(false, true | bit, unknown), (false | bit, true, unknown)]
        if self.three_valued:
            outputs.append((false, true, unknown | bit))
        if not self.naive:
            # When every outcome is dropped the predicate still needs to run
            # to decide the tuples' fate (they all die), so the entry is kept.
            outputs = [self._filter_output(planes) for planes in outputs]
        tags = [None if planes is None else self.tree.tag(planes) for planes in outputs]
        produced = [(planes, tag) for planes, tag in zip(outputs, tags) if tag is not None]
        return FilterEntry(*tags), produced

    def _filter_output(self, planes: Planes) -> Planes | None:
        out_planes = self._generalized(planes)
        if self._refutes(out_planes):
            # Precept (1): never emit tags that cannot reach the output.
            return None
        return out_planes

    def _build_join(
        self, left: list[tuple[Planes, Tag]], right: list[tuple[Planes, Tag]]
    ) -> tuple[JoinTagMap, dict[Planes, Tag]]:
        tag_map = JoinTagMap()
        output: dict[Planes, Tag] = {}
        for left_planes, left_tag in left:
            for right_planes, right_tag in right:
                out = self._join_outputs.get((left_planes, right_planes), _MISSING)
                if out is _MISSING:
                    out_planes = self._join_output(left_planes, right_planes)
                    out = self._join_outputs[(left_planes, right_planes)] = (
                        None if out_planes is None else (out_planes, self._tag(out_planes))
                    )
                if out is not None:
                    out_planes, out_tag = out
                    tag_map.entries[(left_tag, right_tag)] = out_tag
                    output[out_planes] = out_tag
        return tag_map, output

    def _join_output(self, left: Planes, right: Planes) -> Planes | None:
        left_false, left_true, left_unknown = left
        right_false, right_true, right_unknown = right
        if (
            left_false & (right_true | right_unknown)
            or left_true & (right_false | right_unknown)
            or left_unknown & (right_false | right_true)
        ):
            # Conflicting assignments describe an empty pairing.
            return None
        combined = (left_false | right_false, left_true | right_true, left_unknown | right_unknown)
        if self.naive or self.tree is None:
            # The naive strategy keeps provably-dead tuples flowing through the
            # plan; only the projection drops them.
            return combined
        out_planes = self._generalized(combined)
        if self._refutes(out_planes):
            # Precept (1): skip pairings that cannot reach the output.
            return None
        return out_planes

    def _build_projection(
        self, inputs: Iterable[tuple[Planes, Tag]]
    ) -> tuple[ProjectionTagSet, dict[Planes, Tag]]:
        projection = ProjectionTagSet()
        if self.tree is None:
            output = dict(inputs)
            projection.allowed = set(output.values())
            return projection, output
        root = self.tree.tables.root
        allowed = []
        for planes, tag in inputs:
            out_planes = self._generalized(planes)
            if root & out_planes[TRUE]:
                projection.allowed.add(tag)
                allowed.append((repr(tag), planes, tag))
            elif not self._refutes(out_planes):
                # No definite verdict: the executor must evaluate the
                # residual predicate on this slice.
                projection.residual.add(tag)
        return projection, {planes: tag for _text, planes, tag in sorted(allowed)}


class TagAlgebraMemo:
    """A bounded LRU of tag algebra: one predicate tree and one operator
    memo per ``(predicate key, naive, three_valued)``.

    Tag maps and generalized tags depend only on the predicate tree, the
    strategy, the logic and the plan's shape; the data decides only the
    logic (a NULL an operand can hold makes it three-valued), which is part
    of the key.  So re-planning a query — after a plan-cache flush, a commit
    or a feedback retirement — meets candidates whose tag maps it has
    already built.  That is why plan-cache invalidation and commits leave
    the memo alone: the re-plans they cause are the traffic it serves.  :meth:`builder` hands each prepare a fresh
    :class:`TagMapBuilder` over the remembered tree (its bit tables and
    interned tags) and operator memo; the builder's per-prepare scratch
    memos and work counters die with it.

    Entries are not locked: every memo value is a pure function of its key,
    so concurrent prepares of one predicate that race to fill an entry store
    equal values.  Only the LRU's reorder and evict step takes the lock.
    """

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self._entries: OrderedDict[tuple, tuple[PredicateTree, dict]] = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def builder(
        self, predicate: BooleanExpr | None, naive: bool, three_valued: bool
    ) -> TagMapBuilder:
        """A builder for one prepare of ``predicate`` (``None``: no WHERE)."""
        if predicate is None:
            return TagMapBuilder(None, naive, three_valued)
        key = (predicate.key(), naive, three_valued)
        shared = self._entries.get(key)
        if shared is None:
            shared = PredicateTree(predicate), {}
        with self._lock:
            shared = self._entries.setdefault(key, shared)
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
        tree, operators = shared
        return TagMapBuilder(tree, naive, three_valued, operators)


def _implied(tables, planes: Planes, bit: int) -> bool:
    """Whether a leaf assignment in ``planes`` forces the leaf ``bit``
    through value-level implication."""
    rest = (planes[FALSE] | planes[TRUE]) & tables.implying
    while rest:
        low = rest & -rest
        rest ^= low
        index = low.bit_length() - 1
        forced = tables.leaf_implications[index][TRUE if low & planes[TRUE] else FALSE]
        if forced is not None and (forced[FALSE] | forced[TRUE]) & bit:
            return True
    return False
