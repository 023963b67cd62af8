"""Tagged execution: the paper's primary contribution.

* :mod:`repro.core.tags` — tags (sets of truth-value assignments to
  predicate subexpressions) and the tagged-relation slice abstraction.
* :mod:`repro.core.predtree` — normalized predicate trees with duplicate
  subexpression tracking.
* :mod:`repro.core.generalize` — Algorithm 1 (GeneralizeTag) including the
  three-valued-logic extension.
* :mod:`repro.core.tagged_relation` — tagged relations: index relations of
  live rows plus a slice id (into a tuple of tags) per row.
* :mod:`repro.core.tagmap` — tag-map construction per Section 3.3.
* :mod:`repro.core.operators` — tagged filter / join / projection operators.
* :mod:`repro.core.planner` — the tagged planners (TPushdown, TPullup,
  TIterPush, TPushConj, TCombined) plus cost models and the benefit score.
* :mod:`repro.core.factor` — common-subexpression factoring used by the
  Figure 3b evaluation setup.
"""

from repro.core.generalize import generalize_tag
from repro.core.predtree import PredicateTree
from repro.core.tagged_relation import TaggedRelation
from repro.core.tagmap import FilterTagMap, JoinTagMap, TagMapBuilder
from repro.core.tags import Tag

__all__ = [
    "FilterTagMap",
    "JoinTagMap",
    "PredicateTree",
    "Tag",
    "TagMapBuilder",
    "TaggedRelation",
    "generalize_tag",
]
