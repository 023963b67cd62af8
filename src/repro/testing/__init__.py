"""Differential-testing toolkit.

Correctness of the tagged execution model is non-negotiable: every planner —
tagged or traditional — must return exactly the same rows for the
same query.  This subpackage provides the pieces needed to check that
systematically:

* :mod:`repro.testing.datagen` — seeded random catalogs (star-join schemas
  with skewed foreign keys, NULLs and string/numeric attributes);
* :mod:`repro.testing.querygen` — seeded random disjunctive queries with
  nested AND/OR/NOT structure and deliberately repeated subexpressions (the
  case Section 3.2 "Duplicates" is about);
* :mod:`repro.testing.oracle` — a deliberately naive, row-at-a-time reference
  evaluator that shares no code with the vectorized engine;
* :mod:`repro.testing.differential` — the harness that runs one query under
  every planner and the oracle and reports any disagreement.

The same machinery backs the property-based tests in ``tests/`` and the
``python -m repro fuzz`` CLI command.
"""

from repro.testing.datagen import RandomCatalogConfig, generate_random_catalog
from repro.testing.differential import DifferentialReport, run_differential, run_fuzz_campaign
from repro.testing.oracle import evaluate_oracle, evaluate_predicate_row
from repro.testing.querygen import RandomQueryConfig, generate_random_query

__all__ = [
    "DifferentialReport",
    "RandomCatalogConfig",
    "RandomQueryConfig",
    "evaluate_oracle",
    "evaluate_predicate_row",
    "generate_random_catalog",
    "generate_random_query",
    "run_differential",
    "run_fuzz_campaign",
]
