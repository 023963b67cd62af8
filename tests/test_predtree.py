"""Unit tests for predicate trees."""

import pytest

from repro.core.predtree import PredicateTree
from repro.core.tagmap import TagMapBuilder
from repro.core.tags import Tag
from repro.expr.builders import and_, col, lit, not_, or_
from repro.expr.three_valued import FALSE, TRUE


def p(name, threshold=0):
    """A distinct base predicate on table ``x``."""
    return col("x", name) > lit(threshold)


@pytest.fixture
def query1_tree():
    """The predicate tree of the paper's Query 1 (Figure 2)."""
    p1 = col("t", "year") > lit(2000)
    p2 = col("t", "year") > lit(1980)
    p3 = col("mi", "score") > lit(8.0)
    p4 = col("mi", "score") > lit(7.0)
    return PredicateTree(or_(and_(p1, p4), and_(p2, p3))), (p1, p2, p3, p4)


class TestStructure:
    def test_root_is_or(self, query1_tree):
        tree, _ = query1_tree
        assert tree.root.is_or
        assert not tree.root.is_and
        assert not tree.root.is_leaf

    def test_leaves_are_base_predicates(self, query1_tree):
        tree, (p1, p2, p3, p4) = query1_tree
        leaf_keys = {node.key for node in tree.leaves()}
        assert leaf_keys == {p1.key(), p2.key(), p3.key(), p4.key()}

    def test_base_predicates_in_first_occurrence_order(self, query1_tree):
        tree, (p1, p2, p3, p4) = query1_tree
        keys = [predicate.key() for predicate in tree.base_predicates()]
        assert set(keys) == {p1.key(), p2.key(), p3.key(), p4.key()}
        assert len(keys) == 4

    def test_num_nodes(self, query1_tree):
        tree, _ = query1_tree
        # root OR + 2 AND nodes + 4 leaves
        assert len(list(tree.walk())) == 7

    def test_contains_and_instances(self, query1_tree):
        tree, (p1, _p2, _p3, _p4) = query1_tree
        assert p1.key() in tree
        assert tree.instances(p1.key())[0].expr == p1
        assert "(zzz)" not in tree
        assert tree.instances("(zzz)") == ()

    def test_flattening_applied(self):
        tree = PredicateTree(and_(p("a"), and_(p("b"), p("c"))))
        assert len(tree.root.children) == 3

    def test_not_node(self):
        tree = PredicateTree(not_(p("a")))
        assert tree.root.is_not
        assert tree.root.children[0].is_leaf

    def test_parents(self, query1_tree):
        tree, (p1, _p2, _p3, _p4) = query1_tree
        parents = tree.parents(p1.key())
        assert len(parents) == 1
        assert parents[0].is_and

    def test_root_has_no_parents(self, query1_tree):
        tree, _ = query1_tree
        assert tree.parents(tree.root_key) == []

    def test_ancestors_reach_root(self, query1_tree):
        tree, (p1, _, _, _) = query1_tree
        instance = tree.instances(p1.key())[0]
        path = instance.ancestor_path()
        assert path[-1] is tree.root


class TestDuplicateOccurrences:
    def test_duplicate_predicate_has_multiple_instances(self):
        shared = p("shared")
        tree = PredicateTree(or_(and_(shared, p("a")), and_(shared, p("b"))))
        assert len(tree.instances(shared.key())) == 2
        assert len(tree.parents(shared.key())) == 2

    def test_ancestor_paths_per_instance(self):
        shared = p("shared")
        tree = PredicateTree(or_(and_(shared, p("a")), and_(shared, p("b"))))
        paths = tree.ancestor_paths(shared.key())
        assert len(paths) == 2
        assert all(path[-1] is tree.root for path in paths)

    def test_every_instance_has_assigned_ancestor(self):
        """Precept (2) in the tag-map builder: a filter on a shared predicate
        skips a slice only when every occurrence has an assigned ancestor."""
        shared = p("shared")
        clause1 = and_(shared, p("a"))
        clause2 = and_(shared, p("b"))
        tree = PredicateTree(or_(clause1, clause2))
        builder = TagMapBuilder(tree)
        index = tree.tables.bits[shared.key()]

        def skipped(tag: Tag) -> bool:
            return builder._filter_entry(index, tree.encode(tag)) is None

        # Only one clause assigned: the other occurrence is uncovered.
        assert not skipped(Tag({clause1.key(): FALSE}))
        assert skipped(Tag({clause1.key(): FALSE, clause2.key(): FALSE}))
        assert skipped(Tag({tree.root_key: TRUE}))

    def test_unknown_key_has_no_assigned_ancestor(self):
        tree = PredicateTree(and_(p("a"), p("b")))
        with pytest.raises(ValueError, match="not part of the query's predicate tree"):
            TagMapBuilder(tree)._build_filter(p("nonexistent"), [])


class TestSingleLeafTree:
    def test_single_predicate_tree(self):
        predicate = p("only")
        tree = PredicateTree(predicate)
        assert tree.root.is_leaf
        assert tree.root_key == predicate.key()
        assert tree.base_predicates() == [predicate]
