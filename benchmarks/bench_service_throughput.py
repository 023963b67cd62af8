"""Service-layer throughput: warm (plan-cache hit) vs cold repeated queries.

The scenario is the one the service layer exists for: a fixed set of query
templates arriving over and over (the burst/repeat traffic pattern).  Cold
execution pays parse + statistics + planning on every call; warm execution
hits the plan cache and pays only execution.  The acceptance bar for the
layer is **warm throughput ≥ 2× cold throughput** on this workload, and
batch results that are identical to serial ``Session.execute``.

Not tied to a paper figure — this benchmarks the repo's serving
infrastructure, not the paper's planners (see docs/benchmarks.md).
"""

from __future__ import annotations

import pytest

from repro.engine.metrics import Stopwatch
from repro.engine.session import Session
from repro.service import QueryService
from repro.workloads.synthetic import make_dnf_query

#: Distinct query templates cycled through by the throughput loops.
#: Chosen so planning is a clear majority of cold cost (low selectivities
#: keep outputs small; three root clauses make the planner search work),
#: which is exactly the regime plan caching targets.
TEMPLATE_PARAMS = ((2, 0.1), (3, 0.1), (3, 0.2))

#: Passes over the template list when measuring throughput.
PASSES = 2


def _queries():
    return [
        make_dnf_query(num_root_clauses=clauses, selectivity=selectivity)
        for clauses, selectivity in TEMPLATE_PARAMS
    ]


@pytest.fixture()
def service(synthetic_session) -> QueryService:
    """A query service over a private session sharing the benchmark catalog."""
    session = Session(
        synthetic_session.catalog,
        stats_sample_size=synthetic_session.plan_options.stats_sample_size,
    )
    with QueryService(session, max_workers=4) as query_service:
        yield query_service


def test_warm_throughput_at_least_2x_cold(synthetic_session, service):
    """Plan-cache hits must at least double repeated-query throughput."""
    queries = _queries()

    cold_timer = Stopwatch()
    for _ in range(PASSES):
        for query in queries:
            synthetic_session.execute(query, planner="tcombined")
    cold_seconds = cold_timer.elapsed()

    service.warm(queries, planner="tcombined")
    warm_timer = Stopwatch()
    for _ in range(PASSES):
        for query in queries:
            result = service.execute(query, planner="tcombined")
            assert result.cache_hit
    warm_seconds = warm_timer.elapsed()

    executed = PASSES * len(queries)
    cold_qps = executed / cold_seconds
    warm_qps = executed / warm_seconds
    assert warm_qps >= 2 * cold_qps, (
        f"warm {warm_qps:.1f} q/s vs cold {cold_qps:.1f} q/s "
        f"(ratio {warm_qps / cold_qps:.2f}x, expected >= 2x)"
    )


def test_batch_results_identical_to_serial(synthetic_session, service):
    """Concurrent batch execution returns exactly what serial execution does."""
    queries = _queries() * 2
    report = service.execute_batch(queries, planner="tcombined")
    assert len(report.succeeded) == len(queries)
    for item, query in zip(report, queries):
        serial = synthetic_session.execute(query, planner="tcombined")
        assert item.result.column_names == serial.column_names
        assert item.result.rows == serial.rows


@pytest.mark.parametrize("mode", ("cold", "warm"))
def test_service_single_query(benchmark, synthetic_session, service, mode):
    """Wall-clock of one repeated query, cold (no caches) vs warm (cached)."""
    query = _queries()[0]
    if mode == "cold":
        benchmark(synthetic_session.execute, query, planner="tcombined")
    else:
        service.execute(query, planner="tcombined")
        result = benchmark(service.execute, query, planner="tcombined")
        assert result.cache_hit


def test_service_batch_throughput(benchmark, service):
    """Wall-clock of an 8-query warm batch across 4 worker threads."""
    queries = _queries() * 2
    service.warm(queries, planner="tcombined")
    report = benchmark(service.execute_batch, queries, planner="tcombined")
    assert len(report.succeeded) == len(queries)
