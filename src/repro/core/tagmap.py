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
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

from repro.core.generalize import generalized_tag
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

    One builder serves a whole query: the planners cost many candidate plans
    that differ by one moved filter, so the builder remembers what it has
    already derived — the filter entry of a ``(predicate, input tag)``, the
    output tag of a join's ``(left tag, right tag)``, and the finished tag
    map of an operator given its input tags.  A candidate therefore only
    pays for the operators whose input tags it actually changed; everything
    else is the same (read-only) tag-map object under the new plan's node
    ids.  ``work`` counts what was really computed.

    Args:
        tree: the query's predicate tree.
        naive: use the naive strategy of Section 3.1 (no generalization, no
            precepts) instead of the default generalized strategy.
        three_valued: honour NULLs by producing UNKNOWN output tags; with
            ``False`` the builder behaves exactly like the two-valued model
            of Sections 2-3.3.
    """

    def __init__(
        self,
        tree: PredicateTree | None,
        naive: bool = False,
        three_valued: bool = True,
    ) -> None:
        self.tree = tree
        self.naive = naive
        self.three_valued = three_valued
        self._filter_entries: dict[tuple[int, Planes], tuple | None] = {}
        self._join_outputs: dict[tuple[Planes, Planes], tuple[Planes, Tag] | None] = {}
        #: (operator, its parameters, input planes) -> (tag map, outputs)
        self._operators: dict[tuple, tuple[object, Outputs]] = {}
        self._plans_built = 0

    @property
    def work(self) -> dict[str, int]:
        """Deterministic planning-work counters of this builder so far."""
        return {
            "candidate_plans": self._plans_built,
            "tagmap_nodes_built": len(self._operators),
            "generalizations_computed": len(self.tree.generalized) if self.tree is not None else 0,
        }

    # ------------------------------------------------------------------ #
    # Entry point
    # ------------------------------------------------------------------ #
    def build(self, plan: PlanNode) -> PlanTagAnnotations:
        """Build tag maps for every node of ``plan``."""
        self._plans_built += 1
        annotations = PlanTagAnnotations()
        self._build_node(plan, annotations)
        return annotations

    # ------------------------------------------------------------------ #
    # Per-node construction
    # ------------------------------------------------------------------ #
    def _build_node(self, node: PlanNode, annotations: PlanTagAnnotations) -> Outputs:
        if isinstance(node, TableScanNode):
            outputs = _SCAN_OUTPUTS
        elif isinstance(node, FilterNode):
            inputs = self._build_node(node.child, annotations)
            annotations.filter_maps[node.node_id], outputs = self._operator(
                ("filter", node.predicate.key(), inputs[0]),
                lambda: self._build_filter(node.predicate, zip(*inputs)),
            )
        elif isinstance(node, JoinNode):
            left = self._build_node(node.left, annotations)
            right = self._build_node(node.right, annotations)
            annotations.join_maps[node.node_id], outputs = self._operator(
                ("join", left[0], right[0]),
                lambda: self._build_join(list(zip(*left)), list(zip(*right))),
            )
        elif isinstance(node, ProjectNode):
            inputs = self._build_node(node.child, annotations)
            annotations.projection, outputs = self._operator(
                ("project", inputs[0]), lambda: self._build_projection(zip(*inputs))
            )
        else:
            raise TypeError(f"unknown plan node type: {type(node).__name__}")
        annotations.output_tags[node.node_id] = list(outputs[1])
        return outputs

    def _operator(self, key: tuple, build) -> tuple[object, Outputs]:
        """The tag map and outputs of one operator, built once per ``key``.

        Tag maps depend only on the operator and the tags flowing into it, so
        sub-plans shared between candidate plans share their tag maps.
        """
        built = self._operators.get(key)
        if built is None:
            tag_map, output = build()
            built = self._operators[key] = (tag_map, (tuple(output), tuple(output.values())))
        return built

    def _tag(self, planes: Planes) -> Tag:
        return Tag.empty() if self.tree is None else self.tree.tag(planes)

    def _generalized(self, planes: Planes) -> Planes:
        tree = self.tree
        return tree.tag_planes[generalized_tag(tree, planes)]

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
