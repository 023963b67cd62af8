"""Planning work is counted, deterministic, and proportional to distinct work.

Wall-clock planning time is recorded by the benchmark; what gates is this
count.  Before the tag algebra was shared per query, planning the 33 JOB-style
queries with ``tcombined`` built 6 873 operator tag maps and ran Algorithm 1
76 964 times, over 620 candidate plans.  Since each candidate is costed once
(a searching planner returns the result it costed for its pick, and TPullup
starts from the TPushdown result TCombined already has), the same search
costs 521 candidate plans.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro import Session
from repro.optimizer import explain_analyze_report
from repro.workloads.imdb import generate_imdb_catalog
from repro.workloads.job import job_query, job_query_groups

UNSHARED_NODE_BUILDS = 6_873
UNSHARED_GENERALIZATIONS = 76_964


def test_job_pass_planning_work_is_pinned():
    session = Session(generate_imdb_catalog(scale=0.05, seed=7))
    total: Counter[str] = Counter()
    for query in job_query_groups():
        total.update(session.prepare(query, "tcombined").planning_work)
    assert dict(total) == {
        "candidate_plans": 521,  # 620 when picks were costed twice
        "tagmap_nodes_built": 1_921,
        "generalizations_computed": 24_577,
    }
    assert total["tagmap_nodes_built"] <= 0.4 * UNSHARED_NODE_BUILDS
    assert total["generalizations_computed"] <= 0.4 * UNSHARED_GENERALIZATIONS


@pytest.mark.parametrize("query_name", ["paper", "job01", "job03", "job04"])
def test_tcombined_costs_each_candidate_once(
    query_name, paper_session, paper_query, imdb_session
):
    """TCombined's search is its four candidates' searches, with the TPushdown
    base plan TPullup starts from costed once."""
    if query_name == "paper":
        session, query = paper_session, paper_query
    else:
        session, query = imdb_session, job_query(int(query_name[3:]))

    def costed(planner: str) -> int:
        return session.prepare(query, planner).planning_work["candidate_plans"]

    alone = {
        planner: costed(planner)
        for planner in ("tpushdown", "tpullup", "titerpush", "tpushconj")
    }
    assert alone["tpushdown"] == 1
    assert alone["tpushconj"] == 1
    assert costed("tcombined") == sum(alone.values()) - 1


def test_planning_work_per_plan(paper_session, paper_query):
    tagged = paper_session.prepare(paper_query, "tpushdown").planning_work
    assert tagged["candidate_plans"] == 1
    assert tagged["tagmap_nodes_built"] > 0 and tagged["generalizations_computed"] > 0
    # A second prepare starts from a fresh tree and builder: nothing carries over.
    assert paper_session.prepare(paper_query, "tpushdown").planning_work == tagged
    untagged = paper_session.prepare(paper_query, "bdisj").planning_work
    assert set(untagged.values()) == {0}


def test_explain_analyze_shows_planning_work(paper_session, paper_query):
    prepared = paper_session.prepare(paper_query, "tcombined")
    result = paper_session.execute_prepared(prepared, collect_feedback=True)
    summary = explain_analyze_report(prepared, result).splitlines()[-1]
    for name, count in prepared.planning_work.items():
        assert f"{name}={count}" in summary
