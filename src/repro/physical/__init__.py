"""The unified physical-operator layer.

One batched ``open()/next_batch()/close()`` operator protocol
(:mod:`repro.physical.base`) that the traditional and tagged execution models
both compile onto (:mod:`repro.physical.compile`), sharing a single
expression-evaluation and join-key path (:mod:`repro.physical.expressions`).
The morsel-driven parallel driver (:mod:`repro.engine.parallel`) runs one
compiled tree per table partition and merges batches deterministically.

Only the model-agnostic pieces are imported eagerly; the operator and
compiler modules import the execution-model packages, which themselves use
:mod:`repro.physical.expressions`, so they are exposed lazily to keep the
import graph acyclic.
"""

from repro.physical.base import PhysicalOperator
from repro.physical.expressions import (
    evaluate_predicate,
    orient_condition,
    read_join_keys,
)

__all__ = [
    "PhysicalOperator",
    "PhysicalPlan",
    "compile_plan",
    "evaluate_predicate",
    "orient_condition",
    "read_join_keys",
]


def __getattr__(name: str):
    """Lazily expose the compiler entry points (avoids import cycles)."""
    if name in ("PhysicalPlan", "compile_plan"):
        from repro.physical import compile as _compile

        return getattr(_compile, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
