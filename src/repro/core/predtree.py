"""Predicate trees, and the bit tables tag algebra runs on.

The query's WHERE expression is represented as a *predicate tree*
(Section 3.2): leaves are base predicates, interior nodes are AND / OR / NOT,
and the tree is normalized so an interior node never has a parent of the same
type.  The same subexpression may occur at several positions; each occurrence
is a distinct :class:`PredNode` *instance*, while tags refer to expressions by
their structural key.  Tag generalization propagates assignments per instance
and collapses them per key, which is what lets tagged execution evaluate every
predicate exactly once even when it appears repeatedly (Section 3.2,
"Duplicates").

Over one tree a tag is also a triple of Python ints, its *planes*
``(F, T, U)``: bit *i* of the plane indexed by a truth value is set when the
tree's *i*-th key, in sorted string order, carries that value.  Ascending bits
therefore visit a tag's assignments in the order :meth:`Tag.items` does.
:class:`BitTables` compiles, on first use, what tag-map construction and
Algorithm 1 ask of the tree per tag — parent links, ancestor masks (precept
2), children masks and leaf implications — so the per-tag work is word
operations.  The tree interns one :class:`Tag` per planes value; tags are
built only where a caller needs them.
"""

from __future__ import annotations

from collections.abc import Iterator
from functools import cached_property

from repro.core.implication import implication_group, implied_truth_value
from repro.core.tags import Tag
from repro.expr.ast import AndExpr, BooleanExpr, NotExpr, OrExpr, flatten
from repro.expr.three_valued import FALSE, TRUE, UNKNOWN

#: A tag over one tree as three bit planes, indexed by truth value.
Planes = tuple[int, int, int]

#: The planes of the empty tag.
EMPTY_PLANES: Planes = (0, 0, 0)

#: Node kinds in :class:`BitTables`.
LEAF, AND, OR, NOT = range(4)


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


class BitTables:
    """One tree's keys as bits, and what Algorithm 1 needs of them as masks.

    Attributes:
        keys: the distinct keys in sorted order; bit *i* stands for
            ``keys[i]``.
        bits: key -> bit index.
        links: per bit, one ``(parent bit index, parent kind, parent's
            children mask)`` per instance that has a parent — what upward
            propagation walks.
        ancestor_masks: per bit, the mask of each instance's ancestors.
        interior: ``(bit mask, kind, children mask)`` of every distinct
            interior key, children before parents.
        root: the root key's bit mask.
        leaf_order: leaf bit indexes in first-occurrence order.
        leaf_implications: per bit, indexed by the truth value assigned to
            that leaf, the planes of the other leaves the assignment forces
            (value-level implication; only T and F force anything), or None.
        implying: mask of the leaves whose assignment can force another.
    """

    __slots__ = (
        "keys",
        "bits",
        "links",
        "ancestor_masks",
        "interior",
        "root",
        "leaf_order",
        "leaf_implications",
        "implying",
    )

    def __init__(self, tree: "PredicateTree") -> None:
        self.keys = tuple(sorted(tree._instances))
        self.bits = {key: index for index, key in enumerate(self.keys)}
        bits = self.bits
        kinds = {}
        children = {}
        for key, nodes in tree._instances.items():
            node = nodes[0]
            kinds[key] = AND if node.is_and else OR if node.is_or else NOT if node.is_not else LEAF
            children[key] = _mask(bits[child.key] for child in node.children)
        self.links = tuple(
            tuple(
                (bits[node.parent.key], kinds[node.parent.key], children[node.parent.key])
                for node in tree._instances[key]
                if node.parent is not None
            )
            for key in self.keys
        )
        self.ancestor_masks = tuple(
            tuple(_mask(bits[a.key] for a in node.ancestors()) for node in tree._instances[key])
            for key in self.keys
        )
        # A child's key is part of its parent's, so shorter keys come first.
        self.interior = tuple(
            (1 << bits[key], kinds[key], children[key])
            for key in sorted(self.keys, key=len)
            if kinds[key] != LEAF
        )
        self.root = 1 << bits[tree.root.key]
        self.leaf_order = tuple(bits[predicate.key()] for predicate in tree._base_predicates)
        self.leaf_implications = _leaf_implications(tree._base_predicates, bits)
        self.implying = _mask(
            index for index, forced in enumerate(self.leaf_implications) if any(forced)
        )


def _mask(indexes) -> int:
    mask = 0
    for index in indexes:
        mask |= 1 << index
    return mask


def _leaf_implications(base_predicates: list[BooleanExpr], bits: dict[str, int]) -> tuple:
    """Per bit, indexed by truth value, the planes of the leaves that
    assigning that value to the leaf forces, or None.

    Only leaves over the same column can force one another, so the table is
    built per :func:`implication_group`; it is empty for most queries.
    """
    groups: dict[object, list[BooleanExpr]] = {}
    for predicate in base_predicates:
        group = implication_group(predicate)
        if group is not None:
            groups.setdefault(group, []).append(predicate)
    table = [[None, None, None] for _bit in bits]
    for members in groups.values():
        for fact in members:
            for value in (TRUE, FALSE):
                forced = [0, 0, 0]
                for target in members:
                    if target is not fact:
                        implied = implied_truth_value(target, [(fact, value)])
                        if implied is not None:
                            forced[implied] |= 1 << bits[target.key()]
                if any(forced):
                    table[bits[fact.key()]][value] = tuple(forced)
    return tuple(map(tuple, table))


class PredicateTree:
    """Normalized predicate tree for one query's WHERE expression.

    Construction indexes the instances of every key; the :class:`BitTables`
    are compiled on first use (:attr:`tables`), so a tree unpickled in a
    worker that never builds a tag map does not pay for them.  The tree also
    interns one tag per planes value (:meth:`tag`), which every prepare of
    the predicate shares (:class:`~repro.core.tagmap.TagAlgebraMemo`), and
    memoizes :func:`repro.core.generalize.generalize_tag` in
    :attr:`generalized`.  Nothing here depends on the data, and a pickled
    tree is rebuilt from its expression.
    """

    def __init__(self, expr: BooleanExpr) -> None:
        self._expr = flatten(expr)
        self.root = self._build(self._expr, None)
        instances: dict[str, list[PredNode]] = {}
        for node in self.walk():
            instances.setdefault(node.key, []).append(node)
        self._instances = {key: tuple(nodes) for key, nodes in instances.items()}
        self._base_predicates = [
            nodes[0].expr for nodes in self._instances.values() if nodes[0].is_leaf
        ]
        #: Memo of :func:`repro.core.generalize.generalize_tag`: planes ->
        #: the generalized tag.
        self.generalized: dict[Planes, Tag] = {}
        #: One tag per planes value (:meth:`tag`).
        self.interned: dict[Planes, Tag] = {}

    def __reduce__(self):
        return (PredicateTree, (self._expr,))

    def _build(self, expr: BooleanExpr, parent: PredNode | None) -> PredNode:
        node = PredNode(expr, parent)
        for child in expr.children():
            node.children.append(self._build(child, node))
        return node

    # ------------------------------------------------------------------ #
    # Tags as planes
    # ------------------------------------------------------------------ #
    @cached_property
    def tables(self) -> BitTables:
        """The compiled bit tables (built on first use)."""
        return BitTables(self)

    def encode(self, tag: Tag) -> Planes:
        """The planes of ``tag``'s assignments to keys of this tree."""
        bits = self.tables.bits
        planes = [0, 0, 0]
        for key, value in tag.items():
            index = bits.get(key)
            if index is not None:
                planes[value] |= 1 << index
        return tuple(planes)

    def tag(self, planes: Planes) -> Tag:
        """The one :class:`Tag` of this tree with these planes."""
        tag = self.interned.get(planes)
        if tag is None:
            false, true, unknown = planes
            keys = self.tables.keys
            values = {}
            rest = false | true | unknown
            while rest:
                low = rest & -rest
                rest ^= low
                values[keys[low.bit_length() - 1]] = (
                    TRUE if low & true else FALSE if low & false else UNKNOWN
                )
            tag = self.interned.setdefault(planes, Tag._of(values) if values else Tag.empty())
        return tag

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
    # Structure queries used by the benefit score and tests
    # ------------------------------------------------------------------ #
    def parents(self, key: str) -> list[PredNode]:
        """Parent node of each instance of ``key`` (roots have no parent)."""
        return [node.parent for node in self.instances(key) if node.parent is not None]

    def ancestor_paths(self, key: str) -> list[list[PredNode]]:
        """For each instance of ``key``, its ancestor path (parent .. root)."""
        return [node.ancestor_path() for node in self.instances(key)]

    def __repr__(self) -> str:
        return f"PredicateTree({self.root_key})"
