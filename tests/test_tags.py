"""Unit tests for tags."""

import pytest

from repro.core.tags import Tag
from repro.expr.three_valued import FALSE, TRUE, UNKNOWN


class TestConstruction:
    def test_empty_tag_singleton_behaviour(self):
        assert Tag.empty() == Tag()
        assert len(Tag.empty()) == 0

    def test_single(self):
        tag = Tag.single("p", TRUE)
        assert tag.get("p") is TRUE
        assert len(tag) == 1

    def test_values_coerced_to_truth_values(self):
        tag = Tag({"p": 1, "q": 0})
        assert tag.get("p") is TRUE
        assert tag.get("q") is FALSE

    def test_ordering_does_not_matter(self):
        assert Tag({"a": TRUE, "b": FALSE}) == Tag({"b": FALSE, "a": TRUE})

    def test_hashable_and_usable_as_dict_key(self):
        mapping = {Tag({"p": TRUE}): "x"}
        assert mapping[Tag({"p": TRUE})] == "x"


class TestAccess:
    def test_get_missing_returns_none(self):
        assert Tag({"p": TRUE}).get("q") is None

    def test_contains(self):
        tag = Tag({"p": TRUE})
        assert "p" in tag
        assert "q" not in tag

    def test_keys_and_items(self):
        tag = Tag({"b": FALSE, "a": TRUE})
        assert tag.keys() == ["a", "b"]
        assert dict(tag.items()) == {"a": TRUE, "b": FALSE}

    def test_as_dict_is_a_copy(self):
        tag = Tag({"p": TRUE})
        d = tag.as_dict()
        d["p"] = FALSE
        assert tag.get("p") is TRUE

    def test_repr(self):
        assert repr(Tag()) == "{}"
        assert "p = T" in repr(Tag({"p": TRUE}))
        assert "q = U" in repr(Tag({"q": UNKNOWN}))


class TestDerivation:
    def test_union_merges_disjoint(self):
        merged = Tag({"p": TRUE}).union(Tag({"q": FALSE}))
        assert merged.get("p") is TRUE
        assert merged.get("q") is FALSE

    def test_union_with_agreeing_overlap(self):
        merged = Tag({"p": TRUE}).union(Tag({"p": TRUE, "q": FALSE}))
        assert len(merged) == 2

    def test_union_conflict_raises(self):
        with pytest.raises(ValueError, match="conflicting"):
            Tag({"p": TRUE}).union(Tag({"p": FALSE}))

    def test_union_with_empty_is_identity(self):
        tag = Tag({"p": TRUE})
        assert tag.union(Tag.empty()) == tag
        assert Tag.empty().union(tag) == tag
