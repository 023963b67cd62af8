"""Bypass execution model (related-work comparator).

The *bypass technique* (Kemper et al. 1994; Steinbrunn et al. 1995; Claussen
et al. 2000) is the closest prior art to tagged execution discussed in the
paper's Section 6.  Filter operators are augmented with a second, "false"
output stream; tuples whose predicate outcome already determines the overall
WHERE expression *bypass* the remaining (possibly expensive) operators.

This subpackage implements the technique faithfully enough to serve as a
third execution model next to the traditional and tagged ones:

* a **stream** is a one-slice
  :class:`~repro.core.tagged_relation.TaggedRelation` whose slice is keyed
  by the truth assignments its tuples are known to satisfy; a
  :class:`~repro.bypass.streams.StreamSet` holds one stream per tag
  (:mod:`repro.bypass.streams`);
* bypass **operators** split, join and collect streams
  (:mod:`repro.bypass.operators`); the join runs the tagged join's hash-join
  kernel once per stream pair;
* the bypass **planner** reuses the TPushdown plan shape — the bypass
  technique always pushes predicates down (:mod:`repro.bypass.planner`);
* execution goes through the unified physical-operator layer
  (:func:`repro.physical.compile.compile_plan` over a ``kind="bypass"`` plan).

The crucial differences from tagged execution, which the paper calls out and
which ``repro compare --planners tcombined bypass bdisj`` measures, are preserved:

1. every stream is a *separate* one-slice relation, so tuples are copied
   between streams instead of being re-labelled in bitmaps;
2. each filter evaluates its predicate once *per stream* rather than once
   over the union of matching slices;
3. each join builds one hash table *per pair of input streams* rather than a
   single shared table.
"""

from repro.bypass.operators import (
    BypassFilterOperator,
    BypassJoinOperator,
    BypassProjectOperator,
)
from repro.bypass.planner import BypassPlanner
from repro.bypass.streams import StreamSet

__all__ = [
    "BypassFilterOperator",
    "BypassJoinOperator",
    "BypassProjectOperator",
    "BypassPlanner",
    "StreamSet",
]
