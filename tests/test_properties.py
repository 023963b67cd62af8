"""Property-based tests (hypothesis) for the core data structures and invariants."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Catalog, Session, Table
from repro.core.generalize import generalize_tag
from repro.core.predtree import PredicateTree
from repro.core.tags import Tag
from repro.expr import three_valued as tv
from repro.expr.ast import AndExpr, BooleanExpr, NotExpr, OrExpr
from repro.expr.builders import col, lit
from repro.utils.join import equi_join_indices

# --------------------------------------------------------------------------- #
# Three-valued logic
# --------------------------------------------------------------------------- #
truth_values = st.sampled_from([tv.TRUE, tv.FALSE, tv.UNKNOWN])


class TestThreeValuedProperties:
    @given(truth_values, truth_values)
    def test_commutativity(self, a, b):
        assert tv.scalar_and(a, b) is tv.scalar_and(b, a)
        assert tv.scalar_or(a, b) is tv.scalar_or(b, a)

    @given(truth_values, truth_values, truth_values)
    def test_associativity(self, a, b, c):
        assert tv.scalar_and(tv.scalar_and(a, b), c) is tv.scalar_and(a, tv.scalar_and(b, c))
        assert tv.scalar_or(tv.scalar_or(a, b), c) is tv.scalar_or(a, tv.scalar_or(b, c))

    @given(truth_values)
    def test_double_negation(self, a):
        assert tv.scalar_not(tv.scalar_not(a)) is a

    @given(truth_values, truth_values)
    def test_de_morgan(self, a, b):
        assert tv.scalar_not(tv.scalar_and(a, b)) is tv.scalar_or(tv.scalar_not(a), tv.scalar_not(b))

    @given(st.booleans(), st.booleans())
    def test_agrees_with_boolean_logic_without_unknown(self, a, b):
        ta, tb = tv.TruthValue.from_bool(a), tv.TruthValue.from_bool(b)
        assert tv.scalar_and(ta, tb) is tv.TruthValue.from_bool(a and b)
        assert tv.scalar_or(ta, tb) is tv.TruthValue.from_bool(a or b)


# --------------------------------------------------------------------------- #
# Join kernel
# --------------------------------------------------------------------------- #
key_arrays = st.lists(st.integers(min_value=-1, max_value=8), min_size=0, max_size=40)


class TestJoinKernelProperties:
    @given(key_arrays, key_arrays)
    def test_matches_brute_force(self, left, right):
        left_arr = np.array(left, dtype=np.int64)
        right_arr = np.array(right, dtype=np.int64)
        li, ri = equi_join_indices(left_arr, right_arr)
        produced = sorted(zip(li.tolist(), ri.tolist()))
        expected = sorted(
            (i, j)
            for i, lv in enumerate(left)
            for j, rv in enumerate(right)
            if lv == rv and lv >= 0
        )
        assert produced == expected

    @given(key_arrays, key_arrays)
    def test_pairs_actually_match(self, left, right):
        left_arr = np.array(left, dtype=np.int64)
        right_arr = np.array(right, dtype=np.int64)
        li, ri = equi_join_indices(left_arr, right_arr)
        assert np.array_equal(left_arr[li], right_arr[ri])


# --------------------------------------------------------------------------- #
# Tag generalization soundness
# --------------------------------------------------------------------------- #
NUM_VARIABLES = 4
_VARIABLE_PREDICATES = [col("t", f"v{i}") > lit(0.5) for i in range(NUM_VARIABLES)]


@st.composite
def boolean_expressions(draw, depth=3):
    """Random predicate expressions over a small pool of base predicates."""
    if depth == 0 or draw(st.booleans()):
        return draw(st.sampled_from(_VARIABLE_PREDICATES))
    kind = draw(st.sampled_from(["and", "or", "not"]))
    if kind == "not":
        return NotExpr(draw(boolean_expressions(depth=depth - 1)))
    children = draw(
        st.lists(boolean_expressions(depth=depth - 1), min_size=2, max_size=3)
    )
    return AndExpr(children) if kind == "and" else OrExpr(children)


def _evaluate(expr: BooleanExpr, assignment: dict[str, bool]) -> bool:
    """Evaluate an expression under a total truth assignment to the base predicates."""
    if isinstance(expr, NotExpr):
        return not _evaluate(expr.child, assignment)
    if isinstance(expr, AndExpr):
        return all(_evaluate(child, assignment) for child in expr.children())
    if isinstance(expr, OrExpr):
        return any(_evaluate(child, assignment) for child in expr.children())
    return assignment[expr.key()]


partial_assignments = st.dictionaries(
    st.sampled_from([predicate.key() for predicate in _VARIABLE_PREDICATES]),
    st.booleans(),
    max_size=NUM_VARIABLES,
)


class TestGeneralizationSoundness:
    @settings(max_examples=60, deadline=None)
    @given(boolean_expressions(), partial_assignments)
    def test_generalized_assignments_are_entailed(self, expr, partial):
        """Every assignment in a generalized tag must hold under every total
        assignment consistent with the original tag — the defining property of
        tag generalization (a generalized tag may be used in place of any tag
        that implies it)."""
        tree = PredicateTree(expr)
        tag = Tag({key: tv.TruthValue.from_bool(value) for key, value in partial.items()})
        generalized = generalize_tag(tree, tag)

        keys = [predicate.key() for predicate in _VARIABLE_PREDICATES]
        free = [key for key in keys if key not in partial]
        for bits in range(2 ** len(free)):
            total = dict(partial)
            for position, key in enumerate(free):
                total[key] = bool((bits >> position) & 1)
            for assigned_key, assigned_value in generalized.items():
                if assigned_value is tv.UNKNOWN:
                    continue
                if assigned_key not in tree:
                    continue
                actual = _evaluate(tree.instances(assigned_key)[0].expr, total)
                assert actual == (assigned_value is tv.TRUE)

    @settings(max_examples=60, deadline=None)
    @given(boolean_expressions(), partial_assignments)
    def test_generalized_keys_are_tree_nodes(self, expr, partial):
        tree = PredicateTree(expr)
        tag = Tag({key: tv.TruthValue.from_bool(value) for key, value in partial.items()})
        generalized = generalize_tag(tree, tag)
        for key in generalized.keys():
            # Either a node of the tree, or an assignment the input tag made
            # to an expression outside the tree (preserved verbatim).
            assert key in tree or key in tag

    @settings(max_examples=30, deadline=None)
    @given(boolean_expressions(), partial_assignments)
    def test_generalization_is_idempotent(self, expr, partial):
        tree = PredicateTree(expr)
        tag = Tag({key: tv.TruthValue.from_bool(value) for key, value in partial.items()})
        once = generalize_tag(tree, tag)
        twice = generalize_tag(tree, once)
        assert once == twice


# --------------------------------------------------------------------------- #
# End-to-end: tagged execution equals brute force on random single-table data
# --------------------------------------------------------------------------- #
@st.composite
def single_table_workloads(draw):
    num_rows = draw(st.integers(min_value=1, max_value=25))
    values = {
        f"v{i}": draw(
            st.lists(
                st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
                min_size=num_rows,
                max_size=num_rows,
            )
        )
        for i in range(NUM_VARIABLES)
    }
    expr = draw(boolean_expressions())
    return values, expr


class TestEndToEndProperty:
    @settings(max_examples=40, deadline=None)
    @given(single_table_workloads())
    def test_tagged_execution_equals_brute_force(self, workload):
        values, expr = workload
        columns = {"id": list(range(len(next(iter(values.values())))))}
        columns.update(values)
        table = Table.from_dict("t", columns)
        session = Session(Catalog([table]), stats_sample_size=50)

        from repro.plan.query import Query

        query = Query(tables={"t": "t"}, predicate=expr, select=[col("t", "id")])
        result = session.execute(query, planner="tcombined")

        expected = set()
        for row_index in range(table.num_rows):
            assignment = {
                predicate.key(): values[f"v{i}"][row_index] > 0.5
                for i, predicate in enumerate(_VARIABLE_PREDICATES)
            }
            if _evaluate(expr, assignment):
                expected.add(row_index)
        assert {row[0] for row in result.rows} == expected
