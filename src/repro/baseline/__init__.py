"""Traditional query execution: the comparison baselines.

* :mod:`repro.baseline.planners` — BDisj and BPushConj (Section 5).
* :mod:`repro.baseline.operators` — BDisj's deduplicating union root.

Their filters and joins are the tagged operators under one-tag maps (see
:mod:`repro.physical.compile`): a traditional plan is a tagged plan in which
every relation carries one tag.
"""

from repro.baseline.operators import UnionOperator
from repro.baseline.planners import BDisjPlanner, BPushConjPlanner

__all__ = [
    "BDisjPlanner",
    "BPushConjPlanner",
    "UnionOperator",
]
