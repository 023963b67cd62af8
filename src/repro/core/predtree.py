"""Predicate trees.

The query's WHERE expression is represented as a *predicate tree*
(Section 3.2): leaves are base predicates, interior nodes are AND / OR / NOT,
and the tree is normalized so an interior node never has a parent of the same
type.  The same subexpression may occur at several positions; each occurrence
is a distinct :class:`PredNode` *instance*, while tags refer to expressions by
their structural key.  Tag generalization propagates assignments per instance
and collapses them per key, which is what lets tagged execution evaluate every
predicate exactly once even when it appears repeatedly (Section 3.2,
"Duplicates").
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.core.implication import implication_group, implied_truth_value
from repro.expr.ast import AndExpr, BooleanExpr, NotExpr, OrExpr, flatten
from repro.expr.three_valued import FALSE, TRUE, TruthValue


class PredNode:
    """One occurrence (instance) of a subexpression in the predicate tree."""

    __slots__ = ("expr", "key", "parent", "children", "is_and", "is_or", "is_not")

    def __init__(self, expr: BooleanExpr, parent: "PredNode | None") -> None:
        self.expr = expr
        self.key = expr.key()
        self.parent = parent
        self.children: list[PredNode] = []
        self.is_and = isinstance(expr, AndExpr)
        self.is_or = isinstance(expr, OrExpr)
        self.is_not = isinstance(expr, NotExpr)

    @property
    def is_leaf(self) -> bool:
        """True for base predicates."""
        return not self.children

    def ancestors(self) -> Iterator["PredNode"]:
        """Yield ancestors from the parent up to (and including) the root."""
        node = self.parent
        while node is not None:
            yield node
            node = node.parent

    def ancestor_path(self) -> list["PredNode"]:
        """Ancestor nodes from parent to root, as a list."""
        return list(self.ancestors())

    def __repr__(self) -> str:
        return f"PredNode({self.key})"


class PredicateTree:
    """Normalized predicate tree for one query's WHERE expression.

    The tree is *compiled* at construction: everything tag-map construction
    asks of it per tag — the instances of a key, the distinct base
    predicates, each instance's ancestor keys (precept 2), and which leaf
    assignments force which other leaves through value-level implication —
    is tabulated once, so the per-tag work is dictionary lookups.  It also
    holds the query's memo of generalized tags (see
    :func:`repro.core.generalize.generalize_tag`); nothing here outlives the
    tree, and a pickled tree is rebuilt from its expression.
    """

    def __init__(self, expr: BooleanExpr) -> None:
        self._expr = flatten(expr)
        self.root = self._build(self._expr, None)
        instances: dict[str, list[PredNode]] = {}
        for node in self.walk():
            instances.setdefault(node.key, []).append(node)
        self._instances = {key: tuple(nodes) for key, nodes in instances.items()}
        self._expr_by_key = {key: nodes[0].expr for key, nodes in self._instances.items()}
        self._base_predicates = [
            nodes[0].expr for nodes in self._instances.values() if nodes[0].is_leaf
        ]
        #: Per key, the ancestor keys of each of its instances.
        self._ancestor_keys = {
            key: tuple(frozenset(a.key for a in node.ancestors()) for node in nodes)
            for key, nodes in self._instances.items()
        }
        #: Per key, one ``(parent node, keys of the parent's children)`` link
        #: per instance that has a parent: what upward propagation
        #: (Algorithm 1) walks.
        self.parent_links = {
            key: tuple(
                (node.parent, tuple(child.key for child in node.parent.children))
                for node in nodes
                if node.parent is not None
            )
            for key, nodes in self._instances.items()
        }
        #: Position of each distinct leaf in first-occurrence order.
        self.leaf_positions = {
            predicate.key(): position for position, predicate in enumerate(self._base_predicates)
        }
        self.leaf_implications = self._leaf_implications()
        #: Memo of :func:`repro.core.generalize.generalize_tag` for this tree.
        self.generalized: dict = {}

    def __reduce__(self):
        return (PredicateTree, (self._expr,))

    def _build(self, expr: BooleanExpr, parent: PredNode | None) -> PredNode:
        node = PredNode(expr, parent)
        for child in expr.children():
            node.children.append(self._build(child, node))
        return node

    def _leaf_implications(self) -> dict[tuple[str, TruthValue], dict[str, TruthValue]]:
        """``(leaf key, T/F) -> {other leaf key: the value it is forced to}``.

        Only leaves over the same column can force one another, so the table
        is built per :func:`implication_group`; it is empty for most queries.
        """
        groups: dict[object, list[BooleanExpr]] = {}
        for predicate in self._base_predicates:
            group = implication_group(predicate)
            if group is not None:
                groups.setdefault(group, []).append(predicate)
        table: dict[tuple[str, TruthValue], dict[str, TruthValue]] = {}
        for members in groups.values():
            for fact in members:
                for value in (TRUE, FALSE):
                    forced = {}
                    for target in members:
                        if target is not fact:
                            implied = implied_truth_value(target, [(fact, value)])
                            if implied is not None:
                                forced[target.key()] = implied
                    if forced:
                        table[(fact.key(), value)] = forced
        return table

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def expression(self) -> BooleanExpr:
        """The normalized WHERE expression."""
        return self._expr

    @property
    def root_key(self) -> str:
        """Structural key of the whole predicate expression."""
        return self.root.key

    def walk(self) -> Iterator[PredNode]:
        """Yield every node instance, pre-order from the root."""
        stack = [self.root]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def instances(self, key: str) -> tuple[PredNode, ...]:
        """Every occurrence of the subexpression with structural key ``key``."""
        return self._instances.get(key, ())

    def expr_for(self, key: str) -> BooleanExpr:
        """The expression object for a key; raises KeyError if unknown."""
        try:
            return self._expr_by_key[key]
        except KeyError:
            raise KeyError(f"key {key!r} does not occur in this predicate tree") from None

    def __contains__(self, key: str) -> bool:
        return key in self._instances

    def keys(self) -> list[str]:
        """All distinct subexpression keys."""
        return list(self._instances)

    def leaves(self) -> list[PredNode]:
        """Every base-predicate occurrence (with repeats), left-to-right."""
        return [node for node in self.walk() if node.is_leaf]

    def base_predicates(self) -> list[BooleanExpr]:
        """Distinct base predicates, in first-occurrence order."""
        return list(self._base_predicates)

    # ------------------------------------------------------------------ #
    # Structure queries used by tag-map construction and the benefit score
    # ------------------------------------------------------------------ #
    def parents(self, key: str) -> list[PredNode]:
        """Parent node of each instance of ``key`` (roots have no parent)."""
        return [node.parent for node in self.instances(key) if node.parent is not None]

    def ancestor_paths(self, key: str) -> list[list[PredNode]]:
        """For each instance of ``key``, its ancestor path (parent .. root)."""
        return [node.ancestor_path() for node in self.instances(key)]

    def every_instance_has_assigned_ancestor(self, key: str, assigned_keys) -> bool:
        """Precept (2) check: every instance of ``key`` has an ancestor whose
        key carries an assignment."""
        if key not in self._ancestor_keys:
            return False
        for ancestors in self._ancestor_keys[key]:
            if ancestors.isdisjoint(assigned_keys):
                return False
        return True

    def implied_value(self, predicate: BooleanExpr, tag) -> TruthValue | None:
        """Truth value of ``predicate`` forced by the tag's leaf assignments.

        The first assignment (in tag order) that decides the predicate wins,
        exactly as :func:`implied_truth_value` over those facts would.
        """
        predicate_key = predicate.key()
        if predicate_key not in self.leaf_positions:
            # Not a leaf of this tree, so not in the table: ask directly.
            facts = [
                (self._expr_by_key[key], value)
                for key, value in tag.items()
                if key in self.leaf_positions
            ]
            return implied_truth_value(predicate, facts)
        if self.leaf_implications:
            for assignment in tag.items():
                forced = self.leaf_implications.get(assignment)
                if forced is not None and predicate_key in forced:
                    return forced[predicate_key]
        return None

    def num_nodes(self) -> int:
        """Total number of node instances in the tree."""
        return sum(len(nodes) for nodes in self._instances.values())

    def __repr__(self) -> str:
        return f"PredicateTree({self.root_key})"
