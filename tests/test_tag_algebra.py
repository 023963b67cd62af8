"""The memoized tag algebra equals Algorithm 1, whatever order it is used in.

``generalize_tag`` answers from bit tables compiled on the predicate tree
(parent links, ancestor masks, the leaf-implication planes) and from a
per-tree memo.  The reference below is a straight transcription of Algorithm 1 that
uses none of them: it walks node objects, re-derives implications with
:func:`implied_truth_value` over every leaf, and builds its result through the
public ``Tag`` constructor.
"""

from __future__ import annotations

import operator
import random
import sys
from collections import deque
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.generalize import generalize_tag
from repro.core.implication import implied_truth_value
from repro.core.predtree import PredicateTree
from repro.core.tags import Tag
from repro.expr.ast import AndExpr, NotExpr, OrExpr
from repro.expr.builders import between, col, in_, like
from repro.expr.three_valued import (
    FALSE,
    TRUE,
    UNKNOWN,
    TruthValue,
    scalar_and,
    scalar_not,
    scalar_or,
)


# --------------------------------------------------------------------------- #
# Reference: Algorithm 1, transcribed
# --------------------------------------------------------------------------- #
def reference_generalize(tree: PredicateTree, tag: Tag) -> Tag:
    assignments = tag.as_dict()
    foreign = {key: value for key, value in assignments.items() if key not in tree}

    facts = [
        (tree.instances(key)[0].expr, value)
        for key, value in assignments.items()
        if key in tree and tree.instances(key)[0].expr.is_base_predicate()
    ]
    derived_only = set()
    for leaf in tree.base_predicates():
        if facts and leaf.key() not in assignments:
            value = implied_truth_value(leaf, facts)
            if value is not None:
                assignments[leaf.key()] = value
                derived_only.add(leaf.key())

    def can_propagate(node, parent) -> bool:
        value = assignments[node.key]
        if parent.is_not:
            return True
        if parent.is_or and value is TRUE:
            return True
        if parent.is_and and value is FALSE:
            return True
        child_values = [assignments.get(child.key) for child in parent.children]
        if parent.is_or and all(v in (FALSE, UNKNOWN) for v in child_values):
            return True
        return parent.is_and and all(v in (TRUE, UNKNOWN) for v in child_values)

    def propagated(node, parent) -> TruthValue:
        value = assignments[node.key]
        if parent.is_not:
            return scalar_not(value)
        if parent.is_or:
            if value is TRUE:
                return TRUE
            result = FALSE
            for child in parent.children:
                result = scalar_or(result, assignments.get(child.key, FALSE))
            return result
        if value is FALSE:
            return FALSE
        result = TRUE
        for child in parent.children:
            result = scalar_and(result, assignments.get(child.key, TRUE))
        return result

    fringe = deque(key for key in assignments if key in tree)
    enqueued = set(fringe)
    while fringe:
        key = fringe.popleft()
        enqueued.discard(key)
        for instance in tree.instances(key):
            parent = instance.parent
            if parent is None or not can_propagate(instance, parent):
                continue
            previous = assignments.get(parent.key)
            assignments[parent.key] = propagated(instance, parent)
            if previous != assignments[parent.key] and parent.key not in enqueued:
                fringe.append(parent.key)
                enqueued.add(parent.key)

    def topmost(node) -> dict:
        if node.key in assignments:
            if node.is_leaf and node.key in derived_only:
                return {}
            return {node.key: assignments[node.key]}
        collected = {}
        for child in node.children:
            collected.update(topmost(child))
        return collected

    return Tag({**topmost(tree.root), **foreign})


# --------------------------------------------------------------------------- #
# Random trees whose leaves imply one another, and consistent tags for them
# --------------------------------------------------------------------------- #
X, Y, NAME = col("t", "x"), col("t", "y"), col("t", "name")


def _three_valued(known, holds) -> TruthValue:
    return UNKNOWN if not known else TruthValue.from_bool(holds)


def _x_leaf(build, op, bound):
    return build(bound), lambda row: _three_valued(row["x"] is not None, row["x"] is not None and op(row["x"], bound))


#: (base predicate, its 3VL value for a row {"x", "y", "name"}); most leaves
#: share column x so the implication table is dense.
LEAVES = [
    *(_x_leaf(X.__gt__, operator.gt, n) for n in (1, 2, 3)),
    *(_x_leaf(X.__ge__, operator.ge, n) for n in (2, 3)),
    *(_x_leaf(X.__lt__, operator.lt, n) for n in (1, 2, 3)),
    *(_x_leaf(X.__le__, operator.le, n) for n in (1, 2)),
    *(_x_leaf(X.eq, operator.eq, n) for n in (1, 2, 3)),
    *(_x_leaf(X.ne, operator.ne, n) for n in (2, 3)),
    *(
        (in_(X, list(values)), lambda row, values=values: _three_valued(row["x"] is not None, row["x"] in values))
        for values in ((1, 2), (2, 3), (1, 2, 3))
    ),
    *(
        (between(X, low, high), lambda row, low=low, high=high: _three_valued(
            row["x"] is not None, row["x"] is not None and low <= row["x"] <= high))
        for low, high in ((1, 2), (2, 3))
    ),
    *(
        (build(Y), lambda row, op=op: _three_valued(
            None not in (row["x"], row["y"]), None not in (row["x"], row["y"]) and op(row["x"], row["y"])))
        for build, op in ((X.__lt__, operator.lt), (X.__ge__, operator.ge), (X.eq, operator.eq))
    ),
    (Y > 2, lambda row: _three_valued(row["y"] is not None, row["y"] is not None and row["y"] > 2)),
    (like(NAME, "a%"), lambda row: _three_valued(row["name"] is not None, row["name"] == "a")),
]
LEAF_VALUE = {leaf.key(): value for leaf, value in LEAVES}


@st.composite
def expressions(draw, leaves, depth=3):
    """Random AND/OR/NOT trees; leaves are drawn with replacement, so they repeat."""
    if depth == 0 or draw(st.integers(0, 3)) == 0:
        return draw(st.sampled_from(leaves))
    kind = draw(st.sampled_from(["and", "or", "not"]))
    if kind == "not":
        return NotExpr(draw(expressions(leaves, depth=depth - 1)))
    children = draw(st.lists(expressions(leaves, depth=depth - 1), min_size=2, max_size=3))
    return AndExpr(children) if kind == "and" else OrExpr(children)


rows = st.fixed_dictionaries(
    {
        "x": st.sampled_from([None, 0, 1, 2, 3, 4]),
        "y": st.sampled_from([None, 1, 2, 3]),
        "name": st.sampled_from([None, "a", "b"]),
    }
)


def evaluate(node, row) -> TruthValue:
    if node.is_not:
        return scalar_not(evaluate(node.children[0], row))
    if node.is_leaf:
        return LEAF_VALUE[node.key](row)
    fold, start = (scalar_and, TRUE) if node.is_and else (scalar_or, FALSE)
    result = start
    for child in node.children:
        result = fold(result, evaluate(child, row))
    return result


truth_values = st.sampled_from([TRUE, FALSE, UNKNOWN])


@st.composite
def trees_with_tags(draw, consistent=True, num_tags=6):
    """A tree over a handful of leaves, plus tags assigning some of its nodes.

    A *consistent* tag holds what one row assigns to the chosen nodes.  The
    others assign arbitrary values, so several facts may force one leaf to
    different values and the first fact in tag order has to win.
    """
    pool = draw(st.lists(st.sampled_from(LEAVES), min_size=2, max_size=5, unique_by=id))
    expr = draw(expressions([leaf for leaf, _value in pool]))
    nodes = list(PredicateTree(expr).walk())
    leaf_nodes = [node for node in nodes if node.is_leaf]
    tags = []
    for _ in range(num_tags):
        row = draw(rows)
        chosen = draw(st.lists(st.sampled_from(leaf_nodes), min_size=1, max_size=3))
        chosen += draw(st.lists(st.sampled_from(nodes), max_size=2))
        tags.append(
            Tag({
                node.key: evaluate(node, row) if consistent else draw(truth_values)
                for node in chosen
            })
        )
    return expr, tags


# --------------------------------------------------------------------------- #
# Properties
# --------------------------------------------------------------------------- #
class TestMemoizedGeneralization:
    @settings(max_examples=300, deadline=None)
    @given(st.one_of(trees_with_tags(), trees_with_tags(consistent=False)))
    def test_equals_algorithm_1(self, case):
        expr, tags = case
        tree = PredicateTree(expr)
        for tag in tags:
            assert generalize_tag(tree, tag) == reference_generalize(tree, tag)
            assert generalize_tag(tree, tag) is generalize_tag(tree, tag)  # memo hit

    @settings(max_examples=100, deadline=None)
    @given(trees_with_tags())
    def test_idempotent(self, case):
        expr, tags = case
        tree = PredicateTree(expr)
        for tag in tags:
            once = generalize_tag(tree, tag)
            assert generalize_tag(tree, once) == once

    @settings(max_examples=100, deadline=None)
    @given(trees_with_tags(), st.randoms(use_true_random=False))
    def test_independent_of_memo_population_order(self, case, rng):
        expr, tags = case
        in_order, shuffled = PredicateTree(expr), PredicateTree(expr)
        # Generalized tags feed back in, as they do while tag maps are built.
        answers = {tag: generalize_tag(in_order, tag) for tag in tags}
        answers.update({tag: generalize_tag(in_order, tag) for tag in list(answers.values())})
        order = list(answers)
        rng.shuffle(order)
        for tag in order:
            assert generalize_tag(shuffled, tag) == answers[tag]

    @settings(max_examples=100, deadline=None)
    @given(trees_with_tags())
    def test_foreign_assignments_are_kept_verbatim(self, case):
        expr, tags = case
        tree = PredicateTree(expr)
        for tag in tags:
            foreign = {"(not.in > the.tree)": UNKNOWN}
            with_foreign = Tag({**tag.as_dict(), **foreign})
            expected = Tag({**generalize_tag(tree, tag).as_dict(), **foreign})
            assert generalize_tag(tree, with_foreign) == expected


def test_first_deciding_fact_in_tag_order_wins():
    """Two facts force ``x > 2`` to different values; the first in tag (key) order decides."""
    low, mid, high = X < 1, X > 2, X > 3
    tree = PredicateTree(AndExpr([mid, low, high]))
    tag = Tag({low.key(): TRUE, high.key(): TRUE})
    assert tag.keys() == [low.key(), high.key()]
    assert generalize_tag(tree, tag) == reference_generalize(tree, tag) == Tag({tree.root_key: FALSE})


@pytest.mark.parametrize(
    "tree_expr, expected",
    [
        # The worklist's second visit to the OR overwrites the tag's F.
        (lambda either: either, TRUE),
        # The tag's F reaches the AND before p's T reaches the OR, and the
        # AND keeps it.
        (lambda either: AndExpr([either, X < Y]), FALSE),
    ],
)
def test_contradicted_assignment_goes_to_the_worklist(tree_expr, expected):
    """``{(p OR q) = F, p = T}`` holds no row; Algorithm 1's answer on it is
    whatever its worklist order makes it, not the bottom-up fixpoint."""
    p, q = Y > 2, like(NAME, "a%")
    either = OrExpr([p, q])
    tree = PredicateTree(tree_expr(either))
    tag = Tag({either.key(): FALSE, p.key(): TRUE})
    assert generalize_tag(tree, tag) == reference_generalize(tree, tag)
    assert generalize_tag(tree, tag) == Tag({tree.root_key: expected})


def test_column_to_column_comparisons_refute_their_negation():
    less, not_less = X < Y, X >= Y
    tree = PredicateTree(AndExpr([OrExpr([less, like(NAME, "a%")]), OrExpr([not_less, Y > 2])]))
    tag = Tag({less.key(): TRUE, (Y > 2).key(): FALSE})
    assert generalize_tag(tree, tag) == reference_generalize(tree, tag) == Tag({tree.root_key: FALSE})


def test_threads_sharing_one_tree_agree_with_serial_answers():
    """The ``QueryService`` worker pool's planners generalize through one
    shared tree from several threads at once."""
    rng = random.Random(20240925)
    leaves = [leaf for leaf, _value in LEAVES]
    clauses = [AndExpr(rng.sample(leaves, 3)) for _ in range(6)]
    expr = OrExpr([*clauses, NotExpr(OrExpr(rng.sample(leaves, 2)))])
    nodes = list(PredicateTree(expr).walk())
    row_values = [
        {"x": x, "y": y, "name": name}
        for x in (None, 0, 1, 2, 3, 4) for y in (None, 1, 3) for name in (None, "a")
    ]
    tags = list({
        Tag({node.key: evaluate(node, row) for node in rng.sample(nodes, rng.randint(1, 4))})
        for row in row_values for _ in range(8)
    })
    serial_tree = PredicateTree(expr)
    serial = {tag: generalize_tag(serial_tree, tag) for tag in tags}

    shared = PredicateTree(expr)

    def worker(seed: int) -> dict:
        order = list(tags)
        random.Random(seed).shuffle(order)
        return {tag: generalize_tag(shared, tag) for tag in order}

    switch_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # interleave the threads' memo reads and writes
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            for answers in pool.map(worker, range(8), timeout=60):
                assert answers == serial
    finally:
        sys.setswitchinterval(switch_interval)
    assert {tag: shared.generalized[shared.encode(tag)] for tag in tags} == serial
