"""Tag generalization (Algorithm 1: GeneralizeTag) on bit planes.

Generalization propagates a tag's assignments upwards through the predicate
tree wherever Boolean implication allows it, then keeps only the topmost
assignments.  A generalized tag stands in for every ungeneralized tag that
implies it, which is what keeps the number of tags in the system small
(Section 3.2).  The three-valued-logic extension of Section 3.4 is supported
throughout: assignments may be TRUE, FALSE or UNKNOWN, and propagation across
AND/OR nodes folds children with the SQL truth tables.

The algorithm runs on a tag's planes (:data:`repro.core.predtree.Planes`)
against the tree's :class:`~repro.core.predtree.BitTables`.  Leaf
implications derive values for unassigned leaves; then one bottom-up sweep
over the distinct interior keys, children first, gives every node the value
its children force.  That is Algorithm 1's fixpoint unless the tag assigns a
node a value the sweep contradicts; such a tag holds no row, and for it
Algorithm 1's answer depends on the order its worklist visits keys, so it is
handed to the worklist itself, ported to the same masks.
"""

from __future__ import annotations

from collections import deque

from repro.core.predtree import AND, NOT, OR, BitTables, Planes, PredicateTree
from repro.core.tags import Tag
from repro.expr.three_valued import FALSE, TRUE, UNKNOWN


def _propagated(kind: int, value: int, children: int, planes: list[int]) -> int | None:
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
    if kind == NOT:
        return value if value == UNKNOWN else 1 - value
    decisive, neutral = (TRUE, FALSE) if kind == OR else (FALSE, TRUE)
    if value == decisive:
        return decisive
    if children & ~(planes[neutral] | planes[UNKNOWN]):
        return None
    return UNKNOWN if children & planes[UNKNOWN] else neutral


def _value(bit: int, planes) -> int | None:
    for value in (FALSE, TRUE, UNKNOWN):
        if planes[value] & bit:
            return value
    return None


def _worklist(tables: BitTables, planes: list[int], order: list[int]) -> None:
    """Algorithm 1's propagation loop, in place: keys are visited first in
    ``order``, then as their values change."""
    fringe = deque(order)
    enqueued = sum(1 << index for index in order)
    while fringe:
        index = fringe.popleft()
        enqueued &= ~(1 << index)
        value = _value(1 << index, planes)
        for parent, kind, children in tables.links[index]:
            new_value = _propagated(kind, value, children, planes)
            if new_value is None:
                continue
            bit = 1 << parent
            previous = _value(bit, planes)
            for plane in (FALSE, TRUE, UNKNOWN):
                planes[plane] &= ~bit
            planes[new_value] |= bit
            if previous != new_value and not enqueued & bit:
                fringe.append(parent)
                enqueued |= bit


def _sweep(tables: BitTables, false: int, true: int, unknown: int) -> Planes | None:
    """Every interior node's forced value, children first, by conditions
    (a)-(e) of :func:`_propagated` as mask tests; None when the tag assigns a
    node a value its children contradict."""
    for bit, kind, children in tables.interior:
        if kind == OR:
            if children & true:  # (b)
                value = TRUE
            elif children & ~(false | unknown):
                continue
            else:  # (d)
                value = UNKNOWN if children & unknown else FALSE
        elif kind == AND:
            if children & false:  # (c)
                value = FALSE
            elif children & ~(true | unknown):
                continue
            else:  # (e)
                value = UNKNOWN if children & unknown else TRUE
        elif children & true:  # (a)
            value = FALSE
        elif children & false:
            value = TRUE
        elif children & unknown:
            value = UNKNOWN
        else:
            continue
        if bit & (false | true | unknown):
            if not bit & (false, true, unknown)[value]:
                return None
        elif value == TRUE:
            true |= bit
        elif value == FALSE:
            false |= bit
        else:
            unknown |= bit
    return false, true, unknown


def generalize_planes(tables: BitTables, planes: Planes) -> Planes:
    """Algorithm 1 on a tag's planes.

    Before propagation the tag is augmented with leaf assignments implied by
    value-level reasoning over comparison predicates (e.g. ``year > 2000``
    implies ``year > 1980``): each unassigned leaf takes the value forced by
    the first assignment, in tag order, that decides it.  Those derived
    assignments drive propagation but never appear in the result.
    """
    false, true, unknown = planes
    assigned = false | true | unknown
    derived = 0
    rest = assigned & tables.implying
    while rest:
        bit = rest & -rest
        rest ^= bit
        value = TRUE if bit & true else FALSE if bit & false else UNKNOWN
        forced = tables.leaf_implications[bit.bit_length() - 1][value]
        if forced is not None:
            free = ~(assigned | derived)
            forced_false, forced_true = forced[FALSE] & free, forced[TRUE] & free
            false |= forced_false
            true |= forced_true
            derived |= forced_false | forced_true  # nothing is forced UNKNOWN

    swept = _sweep(tables, false, true, unknown)
    if swept is None:
        swept = [false, true, unknown]
        # Algorithm 1 visits the tag's keys in tag order, then the derived
        # leaves in leaf order.
        order = [i for i in range(assigned.bit_length()) if assigned >> i & 1]
        order += [i for i in tables.leaf_order if derived >> i & 1]
        _worklist(tables, swept, order)
    false, true, unknown = swept

    # Keep only the topmost assignments: one survives where at least one
    # occurrence of its expression has no assigned ancestor (Section 3.2,
    # "Duplicates").  Leaf assignments merely *derived* through implication
    # were propagation fuel and are not emitted.
    assigned = false | true | unknown
    kept = tables.root  # an assigned root is an ancestor of every other key
    if not assigned & kept:
        ancestor_masks = tables.ancestor_masks
        kept = 0
        rest = assigned & ~derived
        while rest:
            bit = rest & -rest
            rest ^= bit
            for ancestors in ancestor_masks[bit.bit_length() - 1]:
                if not ancestors & assigned:
                    kept |= bit
                    break
    return false & kept, true & kept, unknown & kept


def generalized_tag(tree: PredicateTree, planes: Planes) -> Tag:
    """The generalized tag of ``planes``, memoized and interned on the tree.

    Each distinct tag runs the algorithm once per tree.  Threads sharing a
    tree may race to fill an entry; they compute equal planes and the tree
    interns one tag for them, so whichever store lands last changes nothing.
    (The tag-map builder keeps its own per-prepare memo of planes, see
    :class:`repro.core.tagmap.TagMapBuilder`.)
    """
    tag = tree.generalized.get(planes)
    if tag is None:
        tag = tree.generalized[planes] = tree.tag(generalize_planes(tree.tables, planes))
    return tag


def generalize_tag(tree: PredicateTree, tag: Tag) -> Tag:
    """Generalize ``tag`` against ``tree`` (Algorithm 1).

    Assignments to expressions that do not occur in the tree are preserved
    verbatim (they cannot be generalized but still constrain the slice).
    """
    planes = tree.encode(tag)
    result = generalized_tag(tree, planes)
    if (planes[0] | planes[1] | planes[2]).bit_count() != len(tag):
        foreign = {key: value for key, value in tag.items() if key not in tree}
        result = Tag._of({**result.as_dict(), **foreign})
    return result
