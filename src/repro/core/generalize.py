"""Tag generalization (Algorithm 1: GeneralizeTag).

Generalization propagates a tag's assignments upwards through the predicate
tree wherever Boolean implication allows it, then keeps only the topmost
assignments.  A generalized tag stands in for every ungeneralized tag that
implies it, which is what keeps the number of tags in the system small
(Section 3.2).  The three-valued-logic extension of Section 3.4 is supported
throughout: assignments may be TRUE, FALSE or UNKNOWN, and propagation across
AND/OR nodes folds children with the SQL truth tables.
"""

from __future__ import annotations

from collections import deque

from repro.core.predtree import PredicateTree, PredNode
from repro.core.tags import Tag
from repro.expr.three_valued import FALSE, TRUE, UNKNOWN, TruthValue, scalar_not


def _propagated_value(
    parent: PredNode, child_keys: tuple[str, ...], value: TruthValue, assignments: dict
) -> TruthValue | None:
    """The parent's value when its child's assignment propagates, else None.

    The five propagation conditions of Algorithm 1 (3VL variant):

    (a) the parent is a NOT node;
    (b) the parent is an OR node and this child is TRUE;
    (c) the parent is an AND node and this child is FALSE;
    (d) the parent is an OR node and all children are FALSE or UNKNOWN;
    (e) the parent is an AND node and all children are TRUE or UNKNOWN.

    Under (d) and (e) the children fold with the SQL truth tables: UNKNOWN if
    any child is UNKNOWN, otherwise FALSE for OR / TRUE for AND.
    """
    if parent.is_not:
        return scalar_not(value)
    decisive, neutral = (TRUE, FALSE) if parent.is_or else (FALSE, TRUE)
    if value is decisive:
        return decisive
    result = neutral
    for child_key in child_keys:
        child_value = assignments.get(child_key)
        if child_value is UNKNOWN:
            result = UNKNOWN
        elif child_value is not neutral:
            return None
    return result


def _augment_with_implications(
    tree: PredicateTree, assignments: dict[str, TruthValue]
) -> set[str]:
    """Derive assignments for unassigned leaves via predicate implication.

    For example ``t.year > 2000 = T`` derives ``t.year > 1980 = T``.  Each
    leaf takes the value forced by the first assignment (in tag order) that
    decides it; derived leaves are added in the tree's leaf order.  Returns
    the set of keys that were added (used to keep them out of the final tag).
    """
    derived: dict[str, TruthValue] = {}
    for assignment in assignments.items():
        forced = tree.leaf_implications.get(assignment)
        if forced is not None:
            for leaf_key, value in forced.items():
                if leaf_key not in assignments:
                    derived.setdefault(leaf_key, value)
    for leaf_key in sorted(derived, key=tree.leaf_positions.__getitem__):
        assignments[leaf_key] = derived[leaf_key]
    return set(derived)


def _generalize(tree: PredicateTree, tag: Tag) -> Tag:
    assignments: dict[str, TruthValue] = tag.as_dict()
    parent_links = tree.parent_links  # keyed by every key of the tree
    result = {key: value for key, value in assignments.items() if key not in parent_links}
    derived_only = _augment_with_implications(tree, assignments) if tree.leaf_implications else ()

    fringe: deque[str] = deque(key for key in assignments if key in parent_links)
    enqueued = set(fringe)
    while fringe:
        key = fringe.popleft()
        enqueued.discard(key)
        for parent, child_keys in parent_links[key]:
            new_value = _propagated_value(parent, child_keys, assignments[key], assignments)
            if new_value is None:
                continue
            previous = assignments.get(parent.key)
            assignments[parent.key] = new_value
            if previous != new_value and parent.key not in enqueued:
                fringe.append(parent.key)
                enqueued.add(parent.key)

    # Keep only the topmost assignments: one survives where at least one
    # occurrence of its expression has no assigned ancestor (Section 3.2,
    # "Duplicates").  Leaf assignments merely *derived* through implication
    # were propagation fuel and are not emitted.
    assigned = assignments.keys()
    for key, value in assignments.items():
        if key in parent_links and key not in derived_only and not (
            tree.every_instance_has_assigned_ancestor(key, assigned)
        ):
            result[key] = value
    return Tag._of(result)


def generalize_tag(tree: PredicateTree, tag: Tag) -> Tag:
    """Generalize ``tag`` against ``tree`` (Algorithm 1), memoized on the tree.

    Assignments to expressions that do not occur in the tree are preserved
    verbatim (they cannot be generalized but still constrain the slice).
    Before propagation the tag is augmented with leaf assignments implied by
    value-level reasoning over comparison predicates (e.g. ``year > 2000``
    implies ``year > 1980``); those derived assignments drive propagation but
    never appear in the resulting tag themselves.

    Every planner candidate of a query generalizes through the same tree,
    so each distinct tag runs the algorithm once.  Threads sharing a tree
    may race to fill an entry; they compute equal tags, so whichever store
    lands last changes nothing.
    """
    generalized = tree.generalized.get(tag)
    if generalized is None:
        generalized = tree.generalized[tag] = _generalize(tree, tag)
    return generalized


def root_assignment(tree: PredicateTree, tag: Tag) -> TruthValue | None:
    """The tag's assignment to the whole predicate expression, if any."""
    return tag.get(tree.root_key)


def satisfies_root(tree: PredicateTree, tag: Tag) -> bool:
    """True when the tag assigns TRUE to the root (tuples certainly match)."""
    return root_assignment(tree, tag) is TRUE


def refutes_root(tree: PredicateTree, tag: Tag, include_unknown: bool = True) -> bool:
    """True when the tag's root assignment proves tuples will not be output.

    Under SQL semantics a WHERE clause only passes rows whose predicate is
    TRUE, so both FALSE and UNKNOWN root assignments mean the slice can be
    dropped (Section 3.4, change 4).  Pass ``include_unknown=False`` for the
    strictly two-valued behaviour.
    """
    value = root_assignment(tree, tag)
    if value is FALSE:
        return True
    if include_unknown and value is UNKNOWN:
        return True
    return False
