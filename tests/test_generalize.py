"""Unit tests for tag generalization (Algorithm 1)."""

import pytest

from repro.core.generalize import generalize_tag
from repro.core.predtree import PredicateTree
from repro.core.tagmap import TagMapBuilder
from repro.core.tags import Tag
from repro.expr.builders import and_, col, lit, not_, or_
from repro.expr.three_valued import FALSE, TRUE, UNKNOWN


@pytest.fixture
def query1():
    """Query 1's predicate tree plus its four base predicates."""
    p1 = col("t", "year") > lit(2000)
    p2 = col("t", "year") > lit(1980)
    p3 = col("mi", "score") > lit(8.0)
    p4 = col("mi", "score") > lit(7.0)
    clause1 = and_(p1, p4)
    clause2 = and_(p2, p3)
    tree = PredicateTree(or_(clause1, clause2))
    return tree, p1, p2, p3, p4, clause1, clause2


class TestBasicPropagation:
    def test_empty_tag_stays_empty(self, query1):
        tree = query1[0]
        assert generalize_tag(tree, Tag.empty()) == Tag.empty()

    def test_false_leaf_generalizes_to_false_and_parent(self, query1):
        tree, p1, _p2, _p3, _p4, clause1, _clause2 = query1
        result = generalize_tag(tree, Tag({p1.key(): FALSE}))
        assert result.get(clause1.key()) is FALSE
        assert len(result) == 1

    def test_true_leaf_under_and_does_not_propagate(self, query1):
        tree, p1, _p2, _p3, _p4, _clause1, _clause2 = query1
        result = generalize_tag(tree, Tag({p1.key(): TRUE}))
        assert result == Tag({p1.key(): TRUE})

    def test_full_clause_true_propagates_to_root(self, query1):
        tree, p1, _p2, _p3, p4, _clause1, _clause2 = query1
        result = generalize_tag(tree, Tag({p1.key(): TRUE, p4.key(): TRUE}))
        assert result.get(tree.root_key) is TRUE
        assert len(result) == 1

    def test_paper_figure2_example(self, query1):
        """The Figure 2 walkthrough: {P1=F, P2=T, P3=T} generalizes to root=T."""
        tree, p1, p2, p3, _p4, _clause1, _clause2 = query1
        tag = Tag({p1.key(): FALSE, p2.key(): TRUE, p3.key(): TRUE})
        result = generalize_tag(tree, tag)
        assert result.get(tree.root_key) is TRUE
        assert len(result) == 1

    def test_all_clauses_false_refutes_root(self, query1):
        tree, p1, p2, _p3, _p4, _clause1, _clause2 = query1
        # year <= 1980 implies both year predicates are false.
        result = generalize_tag(tree, Tag({p1.key(): FALSE, p2.key(): FALSE}))
        assert result.get(tree.root_key) is FALSE

    def test_partial_knowledge_keeps_clause_assignments(self, query1):
        """{P1=F, P2=T}: clause 1 is dead but clause 2 is still open."""
        tree, p1, p2, _p3, _p4, clause1, _clause2 = query1
        result = generalize_tag(tree, Tag({p1.key(): FALSE, p2.key(): TRUE}))
        assert result.get(clause1.key()) is FALSE
        assert result.get(p2.key()) is TRUE
        assert result.get(tree.root_key) is None


def projection_verdict(builder: TagMapBuilder, tag: Tag) -> str:
    """What the tag-map builder's projection does with a slice tagged ``tag``."""
    projection, _output = builder._build_projection([(builder.tree.encode(tag), tag)])
    if tag in projection.allowed:
        return "output"
    return "residual" if tag in projection.residual else "dropped"


class TestRootPredicates:
    def test_root_assignment_decides_the_projection(self, query1):
        tree = query1[0]
        builder = TagMapBuilder(tree)
        assert projection_verdict(builder, Tag({tree.root_key: TRUE})) == "output"
        assert projection_verdict(builder, Tag({tree.root_key: FALSE})) == "dropped"
        assert projection_verdict(builder, Tag.empty()) == "residual"

    def test_unknown_root_refutes_only_under_three_valued(self, query1):
        tree = query1[0]
        tag = Tag({tree.root_key: UNKNOWN})
        assert projection_verdict(TagMapBuilder(tree, three_valued=True), tag) == "dropped"
        assert projection_verdict(TagMapBuilder(tree, three_valued=False), tag) == "residual"


class TestNotNodes:
    def test_not_propagation_negates(self):
        base = col("x", "a") > lit(0)
        other = col("x", "b") > lit(0)
        tree = PredicateTree(and_(not_(base), other))
        result = generalize_tag(tree, Tag({base.key(): TRUE}))
        # NOT(base)=F, which makes the AND root false.
        assert result.get(tree.root_key) is FALSE

    def test_not_propagation_of_false(self):
        base = col("x", "a") > lit(0)
        other = col("x", "b") > lit(0)
        tree = PredicateTree(and_(not_(base), other))
        result = generalize_tag(tree, Tag({base.key(): FALSE}))
        assert result.get(not_(base).key()) is TRUE
        assert result.get(tree.root_key) is None


class TestThreeValued:
    def test_unknown_does_not_trigger_simple_propagation(self, query1):
        tree, p1, _p2, _p3, _p4, clause1, _clause2 = query1
        result = generalize_tag(tree, Tag({p1.key(): UNKNOWN}))
        assert result == Tag({p1.key(): UNKNOWN})

    def test_all_children_unknown_or_false_propagates_up_or(self):
        a = col("x", "a") > lit(0)
        b = col("x", "b") > lit(0)
        tree = PredicateTree(or_(a, b))
        result = generalize_tag(tree, Tag({a.key(): UNKNOWN, b.key(): FALSE}))
        assert result.get(tree.root_key) is UNKNOWN

    def test_all_children_true_or_unknown_propagates_up_and(self):
        a = col("x", "a") > lit(0)
        b = col("x", "b") > lit(0)
        tree = PredicateTree(and_(a, b))
        result = generalize_tag(tree, Tag({a.key(): UNKNOWN, b.key(): TRUE}))
        assert result.get(tree.root_key) is UNKNOWN

    def test_false_beats_unknown_under_and(self):
        a = col("x", "a") > lit(0)
        b = col("x", "b") > lit(0)
        tree = PredicateTree(and_(a, b))
        result = generalize_tag(tree, Tag({a.key(): UNKNOWN, b.key(): FALSE}))
        assert result.get(tree.root_key) is FALSE

    def test_true_beats_unknown_under_or(self):
        a = col("x", "a") > lit(0)
        b = col("x", "b") > lit(0)
        tree = PredicateTree(or_(a, b))
        result = generalize_tag(tree, Tag({a.key(): UNKNOWN, b.key(): TRUE}))
        assert result.get(tree.root_key) is TRUE


class TestDuplicateSubexpressions:
    def test_duplicate_kept_until_every_instance_covered(self):
        """A predicate appearing in two clauses keeps its assignment while only
        one occurrence has an assigned ancestor (Section 3.2, Duplicates)."""
        shared = col("x", "s") > lit(0)
        a = col("x", "a") > lit(0)
        b = col("x", "b") > lit(0)
        clause1 = and_(shared, a)
        clause2 = and_(shared, b)
        tree = PredicateTree(or_(clause1, clause2))

        # a=F kills clause 1; shared=T is still needed for clause 2.
        result = generalize_tag(tree, Tag({shared.key(): TRUE, a.key(): FALSE}))
        assert result.get(clause1.key()) is FALSE
        assert result.get(shared.key()) is TRUE

    def test_duplicate_dropped_once_both_instances_covered(self):
        shared = col("x", "s") > lit(0)
        a = col("x", "a") > lit(0)
        b = col("x", "b") > lit(0)
        tree = PredicateTree(or_(and_(shared, a), and_(shared, b)))
        result = generalize_tag(
            tree, Tag({shared.key(): TRUE, a.key(): TRUE, b.key(): FALSE})
        )
        # shared & a true => clause 1 true => root true; everything else folds away.
        assert result.get(tree.root_key) is TRUE
        assert len(result) == 1


class TestForeignAssignments:
    def test_assignment_outside_tree_is_preserved(self, query1):
        tree = query1[0]
        foreign = Tag({"(z.col > 5)": TRUE})
        assert generalize_tag(tree, foreign).get("(z.col > 5)") is TRUE
