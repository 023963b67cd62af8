"""Traditional query execution: the comparison baselines.

* :mod:`repro.baseline.relation` — plain (untagged) index relations.
* :mod:`repro.baseline.operators` — filter / hash-join / union
  operators of the traditional model.
* :mod:`repro.baseline.planners` — BDisj and BPushConj (Section 5).
"""

from repro.baseline.operators import (
    FilterOperator,
    HashJoinOperator,
    UnionOperator,
)
from repro.baseline.planners import BDisjPlanner, BPushConjPlanner
from repro.baseline.relation import Relation

__all__ = [
    "BDisjPlanner",
    "BPushConjPlanner",
    "FilterOperator",
    "HashJoinOperator",
    "Relation",
    "UnionOperator",
]
