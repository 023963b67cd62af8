"""Planning work is counted, deterministic, and proportional to distinct work.

Wall-clock planning time is recorded by the benchmark; what gates is this
count, which says what one prepare computed.  Before the tag algebra was
shared per query, planning the 33 JOB-style queries with ``tcombined`` built
6 873 operator tag maps and ran Algorithm 1 76 964 times, over 620 candidate
plans.  Since each candidate is costed once (a searching planner returns the
result it costed for its pick, and TPullup starts from the TPushdown result
TCombined already has), the same search costs 521 candidate plans.  TPullup
and TIterPush bound each candidate's costing walk by their running best, so
a candidate that has lost stops building tag maps: 1 550 operator tag maps
and 15 183 generalizations before the bound, 1 283 and 13 064 with it, over
the same 521 candidates.  Those counts are of three-valued tag maps, which
give every filter an UNKNOWN output; the JOB tables hold no NULL, so the tag
logic derived from them is two-valued: 1 112 tag maps and 1 949
generalizations.  A session remembers each predicate's tree and
operator tag maps across prepares (``Session.tag_memo``), so planning the
same pass again costs the 521 candidates and builds no tag map at all.
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

    def one_pass() -> dict[str, int]:
        total: Counter[str] = Counter()
        for query in job_query_groups():
            total.update(session.prepare(query, "tcombined").planning_work)
        return dict(total)

    first = one_pass()
    assert first == {
        "candidate_plans": 521,  # 620 when picks were costed twice
        "tagmap_nodes_built": 1_112,  # 1 283 under three-valued logic
        "generalizations_computed": 1_949,  # 13 064 likewise
    }
    assert first["tagmap_nodes_built"] <= 0.4 * UNSHARED_NODE_BUILDS
    assert first["generalizations_computed"] <= 0.4 * UNSHARED_GENERALIZATIONS
    # The same pass again meets only remembered candidates.
    assert one_pass() == {
        "candidate_plans": 521,
        "tagmap_nodes_built": 0,
        "generalizations_computed": 0,
    }


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


def test_planning_work_per_plan(paper_catalog, paper_query):
    session = Session(paper_catalog)
    tagged = session.prepare(paper_query, "tpushdown").planning_work
    assert tagged["candidate_plans"] == 1
    assert tagged["tagmap_nodes_built"] > 0 and tagged["generalizations_computed"] > 0
    # A second prepare costs its candidate again but builds nothing new.
    assert session.prepare(paper_query, "tpushdown").planning_work == {
        "candidate_plans": 1,
        "tagmap_nodes_built": 0,
        "generalizations_computed": 0,
    }
    untagged = session.prepare(paper_query, "bdisj").planning_work
    assert set(untagged.values()) == {0}


def test_explain_analyze_shows_planning_work(paper_session, paper_query):
    prepared = paper_session.prepare(paper_query, "tcombined")
    result = paper_session.execute_prepared(prepared, collect_feedback=True)
    summary = explain_analyze_report(prepared, result).splitlines()[-1]
    for name, count in prepared.planning_work.items():
        assert f"{name}={count}" in summary
