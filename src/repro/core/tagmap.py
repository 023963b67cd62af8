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
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.generalize import generalize_tag, refutes_root, satisfies_root
from repro.core.predtree import PredicateTree
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

    def input_tags(self) -> list[Tag]:
        """Tags with an entry (the slices the predicate is evaluated on)."""
        return list(self.entries)


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

    def output_tag(self, left: Tag, right: Tag) -> Tag | None:
        """Output tag for a slice pairing, or None when the pair is dropped."""
        return self.entries.get((left, right))


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
        self._filter_entries: dict[tuple[str, Tag], FilterEntry | None] = {}
        self._join_outputs: dict[tuple[Tag, Tag], Tag | None] = {}
        #: (operator, its parameters, input tags) -> (tag map, output tags)
        self._operators: dict[tuple, tuple[object, tuple[Tag, ...]]] = {}
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
    def _build_node(self, node: PlanNode, annotations: PlanTagAnnotations) -> tuple[Tag, ...]:
        if isinstance(node, TableScanNode):
            tags = (Tag.empty(),)
        elif isinstance(node, FilterNode):
            input_tags = self._build_node(node.child, annotations)
            annotations.filter_maps[node.node_id], tags = self._operator(
                ("filter", node.predicate.key(), input_tags),
                lambda: self._build_filter(node.predicate, input_tags),
            )
        elif isinstance(node, JoinNode):
            left_tags = self._build_node(node.left, annotations)
            right_tags = self._build_node(node.right, annotations)
            annotations.join_maps[node.node_id], tags = self._operator(
                ("join", left_tags, right_tags), lambda: self._build_join(left_tags, right_tags)
            )
        elif isinstance(node, ProjectNode):
            input_tags = self._build_node(node.child, annotations)
            annotations.projection, tags = self._operator(
                ("project", input_tags), lambda: self._build_projection(input_tags)
            )
        else:
            raise TypeError(f"unknown plan node type: {type(node).__name__}")
        annotations.output_tags[node.node_id] = list(tags)
        return tags

    def _operator(self, key: tuple, build) -> tuple[object, tuple[Tag, ...]]:
        """The tag map and output tags of one operator, built once per ``key``.

        Tag maps depend only on the operator and the tags flowing into it, so
        sub-plans shared between candidate plans share their tag maps.
        """
        built = self._operators.get(key)
        if built is None:
            built = self._operators[key] = build()
        return built

    def _generalize(self, tag: Tag) -> Tag:
        if self.naive or self.tree is None:
            return tag
        return generalize_tag(self.tree, tag)

    def _refuted(self, tag: Tag) -> bool:
        if self.tree is None:
            return False
        if self.naive:
            # Even the naive strategy never *keeps* provably-dead tuples at the
            # projection, but it does keep them flowing through the plan.
            return False
        return refutes_root(self.tree, tag, include_unknown=self.three_valued)

    def _build_filter(
        self, predicate: BooleanExpr, input_tags: tuple[Tag, ...]
    ) -> tuple[FilterTagMap, tuple[Tag, ...]]:
        predicate_key = predicate.key()
        tag_map = FilterTagMap()
        output: dict[Tag, None] = {}

        for in_tag in input_tags:
            entry = self._filter_entries.get((predicate_key, in_tag), _MISSING)
            if entry is _MISSING:
                entry = self._filter_entry(predicate, predicate_key, in_tag)
                self._filter_entries[(predicate_key, in_tag)] = entry
            if entry is None:
                # Slice passes through untouched.
                output.setdefault(in_tag)
                continue
            tag_map.entries[in_tag] = entry
            for out_tag in entry.output_tags():
                output.setdefault(out_tag)

        return tag_map, tuple(output)

    def _filter_entry(
        self, predicate: BooleanExpr, predicate_key: str, in_tag: Tag
    ) -> FilterEntry | None:
        if self.naive:
            return FilterEntry(
                pos_tag=in_tag.with_assignment(predicate_key, TRUE),
                neg_tag=in_tag.with_assignment(predicate_key, FALSE),
                unk_tag=(
                    in_tag.with_assignment(predicate_key, UNKNOWN)
                    if self.three_valued
                    else None
                ),
            )

        if predicate_key in in_tag:
            return None
        if self.tree is not None:
            # Precept (2): skip slices whose tag already dominates the predicate.
            if self.tree.every_instance_has_assigned_ancestor(predicate_key, in_tag.keys()):
                return None
            if self.tree.implied_value(predicate, in_tag) is not None:
                # The slice's tag already determines this predicate's outcome
                # through value-level implication (e.g. year > 2000 determines
                # year > 1980), so splitting it would not refine the selection.
                return None

        # When every outcome is dropped the predicate still needs to run to
        # decide the tuples' fate (they all die), so the entry is kept.
        return FilterEntry(
            pos_tag=self._filter_output(in_tag, predicate_key, TRUE),
            neg_tag=self._filter_output(in_tag, predicate_key, FALSE),
            unk_tag=(
                self._filter_output(in_tag, predicate_key, UNKNOWN) if self.three_valued else None
            ),
        )

    def _filter_output(self, in_tag: Tag, predicate_key: str, value) -> Tag | None:
        generalized = self._generalize(in_tag.with_assignment(predicate_key, value))
        if self._refuted(generalized):
            # Precept (1): never emit tags that cannot reach the output.
            return None
        return generalized

    def _build_join(
        self, left_tags: tuple[Tag, ...], right_tags: tuple[Tag, ...]
    ) -> tuple[JoinTagMap, tuple[Tag, ...]]:
        tag_map = JoinTagMap()
        output: dict[Tag, None] = {}
        for left_tag in left_tags:
            for right_tag in right_tags:
                out_tag = self._join_outputs.get((left_tag, right_tag), _MISSING)
                if out_tag is _MISSING:
                    out_tag = self._join_output(left_tag, right_tag)
                    self._join_outputs[(left_tag, right_tag)] = out_tag
                if out_tag is not None:
                    tag_map.entries[(left_tag, right_tag)] = out_tag
                    output.setdefault(out_tag)
        return tag_map, tuple(output)

    def _join_output(self, left_tag: Tag, right_tag: Tag) -> Tag | None:
        try:
            combined = left_tag.union(right_tag)
        except ValueError:
            # Conflicting assignments describe an empty pairing.
            return None
        out_tag = self._generalize(combined)
        if self._refuted(out_tag):
            # Precept (1): skip pairings that cannot reach the output.
            return None
        return out_tag

    def _build_projection(
        self, input_tags: tuple[Tag, ...]
    ) -> tuple[ProjectionTagSet, tuple[Tag, ...]]:
        projection = ProjectionTagSet()
        if self.tree is None:
            projection.allowed = set(input_tags)
        else:
            for tag in input_tags:
                generalized = generalize_tag(self.tree, tag)
                if satisfies_root(self.tree, generalized):
                    projection.allowed.add(tag)
                elif not refutes_root(self.tree, generalized, include_unknown=self.three_valued):
                    # No definite verdict: the executor must evaluate the
                    # residual predicate on this slice.
                    projection.residual.add(tag)
        return projection, tuple(sorted(projection.allowed, key=repr))
