"""Shard-shippability: everything a worker needs must pickle faithfully.

The scatter–gather engine re-creates compiled physical trees inside worker
processes from the *logical* plan plus its frozen configuration — a
:class:`~repro.engine.shard.ShardSpec` carries the plan, tag annotations,
predicate tree, clause selectivities, snapshot/table-version pins and resolved
access-path candidates across the process boundary.  These tests pin that
contract down:

* every component of a :class:`~repro.engine.session.PreparedPlan` that the
  spec ships survives ``pickle`` and re-compiles to an identical physical
  plan (same structure, same output);
* the one deliberately *unshippable* component — the access-path manager
  reachable from ``PreparedPlan.access_plan`` — is excluded by design: the
  coordinator resolves candidates and ships plain position arrays instead;
* worker processes load on-disk datasets read-only: no WAL writer, no
  recovery side effects, mutations refused.
"""

from __future__ import annotations

import pickle

import pytest

from repro.engine.metrics import ExecContext
from repro.engine.shard import ShardSpec
from repro.physical.compile import compile_plan
from repro.engine.session import Session
from repro.storage.disk import load_catalog, save_catalog
from repro.testing.datagen import RandomCatalogConfig, generate_random_catalog

SQL = (
    "SELECT f.id, f.category, d1.A1 FROM F AS f JOIN D1 AS d1 ON f.id = d1.fid "
    "WHERE (f.A1 > 0.2 AND d1.A2 < 0.9) OR (f.category = 'c1' AND f.A2 > 0.5)"
)


@pytest.fixture(scope="module")
def catalog():
    return generate_random_catalog(
        RandomCatalogConfig(seed=5, num_dimensions=2, fact_rows=160, dimension_rows=120)
    )


@pytest.fixture(scope="module")
def session(catalog):
    return Session(catalog, stats_sample_size=200)


@pytest.mark.parametrize("planner", ("tcombined", "texhaustive", "bdisj"))
def test_prepared_components_pickle_and_recompile(session, catalog, planner):
    prepared = session.prepare(SQL, planner=planner)
    # What scatter_gather hands the shard layer.
    shipped = pickle.loads(pickle.dumps(prepared.shippable()))
    assert shipped.kind == prepared.kind
    assert shipped.query.aliases == prepared.query.aliases
    assert shipped.access_plan is None and shipped.snapshot is None

    original = compile_plan(prepared, catalog)
    recompiled = compile_plan(shipped, catalog)
    assert type(recompiled) is type(original)
    base = original.run(ExecContext())
    again = recompiled.run(ExecContext())
    assert again.names == base.names
    assert again.row_count == base.row_count


def test_snapshot_pins_pickle(session):
    prepared = session.prepare(SQL, planner="tcombined")
    snapshot = prepared.snapshot
    pins = pickle.loads(
        pickle.dumps((snapshot.version, dict(snapshot.table_versions)))
    )
    assert pins == (snapshot.version, dict(snapshot.table_versions))


def test_selectivity_overrides_replan_identically(session):
    overrides = {"f.A1": 0.1}
    first = session.prepare(SQL, planner="tcombined", selectivity_overrides=overrides)
    second = session.prepare(
        SQL,
        planner="tcombined",
        selectivity_overrides=pickle.loads(pickle.dumps(overrides)),
    )
    assert first.plan_description == second.plan_description
    assert first.clause_selectivities == second.clause_selectivities


def test_shard_spec_pickles_without_access_plan(session, catalog):
    """The spec ships resolved candidate positions, never the access manager."""
    prepared = session.prepare(SQL, planner="tcombined")
    spec = ShardSpec(
        prepared=prepared.shippable(),
        collect_feedback=False,
        feedback_excluded_aliases=frozenset(),
        scan_candidates={},
        partition_alias="f",
        parallelism=1,
        snapshot_version=catalog.version,
        table_versions={"F": catalog.table_version("F")},
    )
    clone = pickle.loads(pickle.dumps(spec))
    assert clone.prepared.kind == prepared.kind
    assert clone.prepared.clause_selectivities == prepared.clause_selectivities
    assert clone.partition_alias == "f"
    assert clone.table_versions == spec.table_versions


def test_access_plan_is_not_shippable(session):
    """Documents *why* the spec excludes it: the manager holds an RLock."""
    import threading

    prepared = session.prepare(SQL, planner="tcombined")
    if prepared.access_plan is None:
        pytest.skip("no access plan without access paths enabled")
    lock = threading.RLock()
    with pytest.raises(TypeError):
        pickle.dumps(lock)


def test_read_only_load_refuses_mutations(tmp_path, catalog):
    save_catalog(catalog, tmp_path)
    loaded = load_catalog(tmp_path, read_only=True)
    assert loaded.read_only
    assert loaded.table_names == catalog.table_names
    with pytest.raises(PermissionError):
        loaded.begin_mutation()
    # Reads are unaffected.
    session = Session(loaded)
    result = session.execute("SELECT COUNT(*) FROM F AS f", planner="tcombined")
    assert result.rows == [(catalog.get("F").num_rows,)]


def test_read_only_excludes_durable(tmp_path, catalog):
    save_catalog(catalog, tmp_path)
    with pytest.raises(ValueError):
        load_catalog(tmp_path, read_only=True, durable=True)
