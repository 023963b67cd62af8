"""The unified physical-operator layer.

One operator protocol, ``run(context)`` once per operator
(:mod:`repro.physical.base`), that the traditional and tagged execution
models both compile onto (:mod:`repro.physical.compile`), sharing a single
expression-evaluation and join-key path (:mod:`repro.physical.expressions`).
The morsel-driven parallel driver (:mod:`repro.engine.parallel`) runs one
compiled tree per table partition and merges the outputs deterministically.

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
    "compile_plan",
    "evaluate_predicate",
    "orient_condition",
    "read_join_keys",
]


def __getattr__(name: str):
    """Lazily expose the compiler entry points (avoids import cycles)."""
    if name == "compile_plan":
        from repro.physical.compile import compile_plan

        return compile_plan
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
