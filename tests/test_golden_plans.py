"""Golden plans: the tagged planners must reproduce ``tests/golden/plans.json``.

The file was recorded at the commit *before* planning was made incremental
(compiled predicate tree, memoized tag algebra, shared operator tag maps), so
this test is the proof that the optimization changed planning time only:
for every query x planner x logic x tag strategy it pins the chosen plan,
the estimated cost (``repr``-exact) and every tag-map entry.

The tag logic is derived from the data, and these catalogs hold no NULL, so
the ``2vl`` entries are what ``Session`` plans.  The ``3vl`` entries were
recorded when the logic was an option; three-valued tag maps choose the same
plans at the same costs here, so they are checked by building the chosen
plan's three-valued tag maps (and its cost) directly, with no search.

Tag maps under the naive strategy grow exponentially, so each configuration
stores its sorted entries as a count plus a SHA-256 digest next to the plan
and cost; the default configuration (``tcombined``, 3VL, generalized) also
keeps the entries themselves when there are few enough to read.

The cost model sums per-tag row estimates in set order, which follows the
interpreter's string-hash seed and can move a cost by one ulp; recording and
checking both run under ``PYTHONHASHSEED=0``, in a child interpreter.

The untagged planners (``bdisj``, ``bpushconj``) are pinned by their
``plan_description`` alone, in ``tests/golden/baseline_plans.json`` (recorded
at the commit before they were rebuilt on the tagged planners' helpers).  The
same file carries the premise of the paper's Fig. 3d: BPushConj describes
exactly the tree TPushConj builds.

Re-record (only when plans are *meant* to change) with ``make golden``, which
runs::

    PYTHONHASHSEED=0 PYTHONPATH=src python tests/test_golden_plans.py > tests/golden/plans.json
    PYTHONHASHSEED=0 PYTHONPATH=src python tests/test_golden_plans.py baselines > tests/golden/baseline_plans.json
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

from repro import Session
from repro.core.planner.cost import PlanCost
from repro.core.tagmap import TagMapBuilder
from repro.engine.session import PLANNERS as PLANNER_TABLE
from repro.plan.logical import FilterNode, JoinNode, plan_to_string
from repro.workloads.imdb import generate_imdb_catalog
from repro.workloads.job import job_query_groups
from repro.workloads.synthetic import (
    SyntheticConfig,
    generate_synthetic_catalog,
    make_cnf_query,
    make_dnf_query,
)

GOLDEN = Path(__file__).parent / "golden" / "plans.json"
BASELINE_GOLDEN = Path(__file__).parent / "golden" / "baseline_plans.json"
#: untagged planner -> the tagged planner whose tree it must describe
#: (``bdisj`` plans one tree per root clause and has no tagged twin).
BASELINE_PLANNERS = {"bdisj": None, "bpushconj": "tpushconj"}
PLANNERS = ("tpushdown", "tpullup", "titerpush", "tpushconj", "tcombined", "texhaustive")
#: The naive strategy is exponential in the number of filters: on the JOB
#: queries it is recorded for these planners only (``tcombined`` runs the
#: other three candidates anyway).
NAIVE_PLANNERS = ("tpushdown", "tcombined")
#: Tag maps with more lines than this are pinned by their digest alone.
MAX_KEPT_LINES = 45


def synthetic_queries():
    return [
        *(make_dnf_query(k, 0.2) for k in (1, 2, 3, 4)),
        make_dnf_query(2, 0.2, outer_factor=0.5, name="synthetic_dnf_k2_outer"),
        *(make_cnf_query(k, 0.2) for k in (2, 3, 4)),
        make_cnf_query(3, 0.2, outer_factor=0.5, name="synthetic_cnf_k3_outer"),
    ]


def workloads():
    """(workload name, catalog, queries) — built once per process."""
    yield "job", generate_imdb_catalog(scale=0.05, seed=7), job_query_groups()
    yield (
        "synthetic",
        generate_synthetic_catalog(SyntheticConfig(table_size=2000, seed=11)),
        synthetic_queries(),
    )


def configurations(workload: str):
    for naive in (False, True):
        for planner in PLANNERS:
            if naive and workload == "job" and planner not in NAIVE_PLANNERS:
                continue
            yield planner, naive


def tag_map_lines(planned) -> list[str]:
    """Every tag-map entry of a planner result, as sorted text lines.

    Plan node ids are process-global counters, so entries are addressed by the
    node's pre-order position in the plan instead.
    """
    annotations = planned.annotations
    lines = []
    for position, node in enumerate(planned.plan.walk()):
        if isinstance(node, FilterNode):
            for in_tag, entry in annotations.filter_maps[node.node_id].entries.items():
                lines.append(
                    f"{position} filter {in_tag!r} -> "
                    f"T:{entry.pos_tag!r} F:{entry.neg_tag!r} U:{entry.unk_tag!r}"
                )
        elif isinstance(node, JoinNode):
            for (left, right), out in annotations.join_maps[node.node_id].entries.items():
                lines.append(f"{position} join {left!r} x {right!r} -> {out!r}")
        lines.append(
            f"{position} out " + " ; ".join(repr(tag) for tag in annotations.output_tags[node.node_id])
        )
    lines.extend(f"allowed {tag!r}" for tag in annotations.projection.allowed)
    lines.extend(f"residual {tag!r}" for tag in annotations.projection.residual)
    return sorted(lines)


def snapshot_entry(planned, keep_entries: bool) -> dict:
    lines = tag_map_lines(planned)
    entry = {
        "plan": plan_to_string(planned.plan),
        "estimated_cost": repr(planned.estimated_cost),
        "tag_map_lines": len(lines),
        "tag_map_sha256": hashlib.sha256("\n".join(lines).encode()).hexdigest(),
    }
    if keep_entries and len(lines) <= MAX_KEPT_LINES:
        entry["tag_maps"] = lines
    return entry


def three_valued(context, planned, naive: bool):
    """``planned``'s plan with three-valued tag maps, costed with them."""
    cost = PlanCost(context.estimates)
    builder = TagMapBuilder(context.predicate_tree, naive, three_valued=True)
    annotations = builder.build(planned.plan, cost)
    return dataclasses.replace(planned, annotations=annotations, estimated_cost=cost.total)


def snapshot() -> dict:
    record = {}
    for workload, catalog, queries in workloads():
        session = Session(catalog)
        for query in queries:
            for planner, naive in configurations(workload):
                # The context Session.prepare plans with (statistics, access
                # paths and cost constants included): two-valued.
                context = session._planner_context(query, naive)
                assert not context.tag_maps.three_valued
                planned = PLANNER_TABLE[planner](context).plan()
                name = f"{workload}/{query.name}/{planner}"
                strategy = "naive" if naive else "generalized"
                record[f"{name}/2vl/{strategy}"] = snapshot_entry(planned, keep_entries=False)
                record[f"{name}/3vl/{strategy}"] = snapshot_entry(
                    three_valued(context, planned, naive),
                    keep_entries=planner == "tcombined" and not naive,
                )
    return record


def baseline_snapshot() -> dict:
    """``plan_description`` of every untagged planner x query x logic (the
    untagged plans have no tag maps, so both logics record one description)."""
    record = {}
    for workload, catalog, queries in workloads():
        session = Session(catalog)
        for query in queries:
            for planner in BASELINE_PLANNERS:
                description = session.prepare(query, planner).plan_description
                for logic in ("3vl", "2vl"):
                    record[f"{workload}/{query.name}/{planner}/{logic}"] = description
    return record


def recorded_now(*mode: str) -> dict:
    child = subprocess.run(
        [sys.executable, __file__, *mode],
        env={**os.environ, "PYTHONHASHSEED": "0"},
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(child.stdout)


def test_planners_reproduce_the_golden_file():
    current = recorded_now()
    golden = json.loads(GOLDEN.read_text())
    assert sorted(current) == sorted(golden)
    different = [key for key in golden if current[key] != golden[key]]
    for key in different[:3]:
        for field in golden[key]:
            assert current[key][field] == golden[key][field], f"{key}: {field}"
    assert not different


def test_untagged_planners_reproduce_their_golden_file():
    current = recorded_now("baselines")
    golden = json.loads(BASELINE_GOLDEN.read_text())
    assert sorted(current) == sorted(golden)
    assert len(golden) == (33 + 9) * 2 * len(BASELINE_PLANNERS)
    for key in golden:
        assert current[key] == golden[key], key
    # Fig. 3d's premise: same tree as the tagged twin (pinned by plans.json).
    tagged = json.loads(GOLDEN.read_text())
    for key, description in current.items():
        workload, query, planner, logic = key.split("/")
        twin = BASELINE_PLANNERS[planner]
        if twin is not None:
            twin_key = f"{workload}/{query}/{twin}/{logic}/generalized"
            assert description == tagged[twin_key]["plan"], key


if __name__ == "__main__":
    record = baseline_snapshot() if sys.argv[1:] == ["baselines"] else snapshot()
    json.dump(record, sys.stdout, indent=1, sort_keys=True)
