"""Snapshot handover: the cloned tree a site hands over ≡ the persisted state.

Catch-up, migration and view hydration hand another site (or a local view)
``DataManager.snapshot(name)``: a private clone of the committed tree and
its serialized length, never a render → parse round trip. This differential
wraps that method in live clusters — views under writes, host crashes and a
primary failover, a migration under writes, a primary crash that deposes a
replica's timeline — and at every call checks that

* the clone renders to exactly what storage holds (``backend.raw``): the
  committed tree, not a live tree carrying in-flight effects;
* it is private: neither the live tree nor any node of it;
* the size is the UTF-8 length of that text (not its character count) and
  ``serialized_size`` of the clone;
* on a document the parser gives back unchanged, it numbers its nodes as
  ``parse_document(raw)`` does — same ids in pre-order, same ``_next_id`` —
  so the receiver's DataGuide and Node2PL lock keys are those a parse gave.

The consumers are wrapped too: what a catch-up install or a view hydration
is charged is ``serialized_size`` of the tree it adopts. Each scenario runs
on a plain, a non-ASCII and an unnormalised document, and the suite asserts
that the three producers ran and that some snapshot was taken while the
live tree was ahead of the committed one.
"""

import sys

import pytest

from repro import DTXCluster, Operation, SystemConfig, Transaction
from repro.core.site import DTXSite
from repro.storage import DataManager
from repro.update import ChangeOp, InsertOp
from repro.views import ViewManager
from repro.xml import E, doc, parse_document, serialize_document, serialized_size

from .conftest import make_people_doc, make_unnormalised_people_doc


def make_non_ascii_people_doc(name="d1"):
    """People whose names are longer in UTF-8 bytes than in characters."""
    root = E(
        "people",
        E("person", E("id", text="1"), E("name", text="João")),
        E("person", E("id", text="4"), E("name", text="Zoë ☃")),
        E("person", E("id", text="7"), E("name", text="Ana")),
    )
    return doc(name, root)


DOCUMENTS = {
    "plain": make_people_doc,
    "non-ascii": make_non_ascii_people_doc,
    "unnormalised": make_unnormalised_people_doc,
}


def _node_ids(document):
    return [n.node_id for n in document.iter()]


class Recorder:
    """Checks every snapshot and every install; counts what it saw."""

    def __init__(self):
        self.producers: dict[str, int] = {}
        self.live_ahead = 0  # snapshots taken while the live tree differed
        self.installs = 0

    def check_snapshot(self, dm, name, clone, size, producer):
        self.producers[producer] = self.producers.get(producer, 0) + 1
        raw = dm.backend.raw(name)
        assert serialize_document(clone) == raw, producer
        assert size == len(raw.encode("utf-8")) == serialized_size(clone.root), producer
        assert clone is not dm.document(name), producer
        assert all(n.document is clone for n in clone.iter()), producer
        parsed = parse_document(raw, name=name)
        if serialize_document(parsed) == raw:
            assert _node_ids(clone) == _node_ids(parsed) == list(range(len(parsed)))
            assert clone._next_id == parsed._next_id
        if serialize_document(dm.document(name)) != raw:
            self.live_ahead += 1

    def check_install(self, snapshot, size):
        self.installs += 1
        assert size == serialized_size(snapshot.root)


@pytest.fixture
def recorder(monkeypatch):
    rec = Recorder()
    snapshot = DataManager.snapshot
    install_replica = DTXSite._install_snapshot
    install_view = ViewManager.install_snapshot

    def checked_snapshot(self, name):
        clone, size = snapshot(self, name)
        # Named by who asked the site's one snapshot server for it.
        producer = sys._getframe(2).f_code.co_name
        rec.check_snapshot(self, name, clone, size, producer)
        return clone, size

    def checked_install_replica(self, doc_name, resp):
        rec.check_install(resp.snapshot, resp.snapshot_size)
        return install_replica(self, doc_name, resp)

    def checked_install_view(self, doc_name, snapshot, size, lsn, epoch):
        rec.check_install(snapshot, size)
        return install_view(self, doc_name, snapshot, size, lsn, epoch)

    monkeypatch.setattr(DataManager, "snapshot", checked_snapshot)
    monkeypatch.setattr(DTXSite, "_install_snapshot", checked_install_replica)
    monkeypatch.setattr(ViewManager, "install_snapshot", checked_install_view)
    return rec


# ---------------------------------------------------------------------------
# scenarios
# ---------------------------------------------------------------------------

BASE = SystemConfig().with_(
    client_think_ms=0.3,
    detector_interval_ms=50.0,
    detector_initial_delay_ms=10.0,
    replication_factor=2,
    replica_read_policy="primary",
    replica_write_policy="primary",
    lock_wait_timeout_ms=200.0,
    max_restarts=2,
)


def writes(marker):
    """Two-statement writers: the first insert sits uncommitted in the
    primary's live tree while the second statement runs."""
    return [
        Transaction([
            Operation.update("d1", InsertOp(f"<person><id>{marker + k}</id></person>", "/people")),
            Operation.update("d1", ChangeOp("/people/person[id=4]/name", f"né{marker + k}")),
        ], label=f"w{marker + k}")
        for k in range(6)
    ]


def reads(n):
    return [
        Transaction([Operation.query("d1", "/people/person")], label=f"r{k}")
        for k in range(n)
    ]


def _cluster(config, n_sites, document, placement):
    cluster = DTXCluster(protocol="xdgl", config=config)
    for i in range(n_sites):
        cluster.add_site(f"s{i + 1}")
    cluster.replicate_document(document, placement)
    return cluster


def views_under_faults(document):
    """A remote view at s3 and one at the primary (hydrated in place),
    writers, two view host crashes, and a primary crash after which the new
    primary serves the re-hydrations."""
    config = BASE.with_(view_staleness_ms=50.0, view_refresh_ms=2.0)
    cluster = _cluster(config, 3, document, ["s1", "s2"])
    cluster.register_view("v-remote", "//person", ["d1"], host="s3")
    cluster.register_view("v-local", "//name", ["d1"], host="s1")
    cluster.add_client("c1", "s1", writes(100) + reads(4))
    cluster.add_client("c2", "s3", writes(200) + reads(4))
    cluster.schedule_crash("s3", at_ms=2.0, recover_at_ms=6.0)
    cluster.schedule_crash("s3", at_ms=9.0, recover_at_ms=12.0)
    cluster.schedule_crash("s1", at_ms=15.0, recover_at_ms=25.0)
    cluster.run(drain_ms=200.0)
    return cluster


def migration_under_writes(document):
    """The placement moves to spare sites while writers run at the primary."""
    cluster = _cluster(BASE, 4, document, ["s1", "s2"])
    cluster.add_client("c1", "s1", writes(100))
    cluster.add_client("c2", "s2", writes(200))
    cluster.schedule_migration("d1", ("s3", "s4"), at_ms=1.0)
    cluster.run(drain_ms=0.0)
    deadline = cluster.env.now + 3000.0
    while not cluster.migration.quiesced() and cluster.env.now < deadline:
        cluster.env.run(until=cluster.env.now + 25.0)
    return cluster


def deposed_primary_heals(document):
    """A lazy primary dies with unpropagated commits while writers move on
    and a secondary crashes too; when the old primary comes back, its tail is
    off the new timeline and only a snapshot can heal it."""
    config = BASE.with_(
        replication_factor=3, replica_read_policy="nearest",
        replica_write_policy="lazy",
    )
    cluster = _cluster(config, 3, document, ["s1", "s2", "s3"])
    cluster.add_client("c1", "s1", writes(100)[:2])
    cluster.run(drain_ms=0.0)
    cluster.crash_site("s1")
    cluster.add_client("c2", "s2", writes(200))
    cluster.add_client("c3", "s3", writes(300))
    cluster.schedule_crash("s3", at_ms=cluster.env.now + 3.0, recover_at_ms=cluster.env.now + 9.0)
    cluster.env.schedule_call(6.0, cluster.recover_site, "s1")
    cluster.run(drain_ms=300.0)
    return cluster


SCENARIOS = {
    "views": views_under_faults,
    "migration": migration_under_writes,
    "failover": deposed_primary_heals,
}


def _replicas_agree(cluster):
    """Compared as a parse gives them back: crash recovery reloads through
    the parser, which normalises text (the storage format's business; the
    handover itself adopts trees as they are)."""
    texts = {
        s: serialize_document(parse_document(serialize_document(cluster.document_at(s, "d1"))))
        for s in cluster.catalog.sites_for("d1")
        if cluster.site(s).alive and not cluster.site(s).holds_placeholder("d1")
    }
    assert len(set(texts.values())) == 1, sorted(texts)


@pytest.mark.parametrize("kind", sorted(DOCUMENTS))
@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_every_snapshot_is_the_persisted_state(recorder, scenario, kind):
    cluster = SCENARIOS[scenario](DOCUMENTS[kind]())
    _replicas_agree(cluster)
    assert recorder.producers, "the scenario took no snapshot"
    assert recorder.installs, "no snapshot was installed"


def test_the_scenarios_reach_every_producer_with_the_live_tree_ahead(recorder):
    for scenario in SCENARIOS.values():
        for make in DOCUMENTS.values():
            scenario(make())
    assert set(recorder.producers) == {
        "_handle_catchup_request", "_handle_view_fetch_request", "_view_fetch",
    }
    assert recorder.live_ahead > 0
