"""Lease-mode heartbeats keep what they derive from slow-moving state.

A beat's document list is kept until the site's live set
(``DataManager.live_version``) or the placement
(``Catalog.placement_version``) moves; a receipt skips the view facts it
already adopted from that sender, and finds the documents each leader
leads through ``CatalogView.led_by``, kept until the placement moves or the
view adopts a fact. One lease-mode run moves all of it: a migration (a
placeholder installed at each target, the copies dropped at the sources, a
cutover announced), an election after a primary's crash, and that
primary's recovery. Every beat is checked against a from-scratch
computation, every receipt's leader lists against a fresh derivation, and
the facts adopted and catch-ups nudged against the unskipped receive path
kept below.
"""

from __future__ import annotations

from repro import DTXCluster, Operation, Transaction
from repro.core.messages import HeartbeatMessage, SiteUpNotice
from repro.core.site import DTXSite
from repro.distribution.catalog import Catalog, CatalogView
from repro.sim.network import Network
from repro.storage.datamanager import DataManager
from repro.storage.memory import InMemoryStore
from repro.update import InsertOp

from .conftest import make_people_doc, make_products_doc
from .test_migration import LEASE, settle_migrations


def reference_beat(site) -> tuple[dict, dict]:
    """The watermarks and views a beat of ``site`` carries, derived from
    scratch: every hosted, catalogued, replicated document, in name order."""
    watermarks: dict = {}
    views: dict = {}
    for name in sorted(site.data_manager.live_documents()):
        if not site.catalog.has_document(name):
            continue
        if not site.catalog.replica_set(name).is_replicated:
            continue
        watermarks[name] = site.logs[name].applied_lsn
        views[name] = site.catalog.view_of(name)
    return watermarks, views


def reference_led_by(site) -> dict:
    """Leader -> replica sets of the replicated documents ``site`` holds
    that it leads, in name order, derived from scratch."""
    led: dict = {}
    for name in site.catalog._shared.all_documents():
        rset = site.catalog.replica_set(name)
        if rset.is_replicated and site.site_id in rset:
            led.setdefault(rset.primary, []).append(rset)
    return led


def reference_on_heartbeat(self, msg) -> None:
    """The receive path without any kept state: copies the watermarks,
    offers every view fact, looks every advertised document up."""
    if not self.alive or self.membership is None:
        return
    came_back = self.membership.heard_from(msg.sender, self.env.now, msg.incarnation)
    self.membership.watermarks[msg.sender] = dict(msg.watermarks)
    for doc_name, (epoch, primary) in sorted(msg.views.items()):
        self._adopt_view(doc_name, primary, epoch)
    for doc_name, watermark in sorted(msg.watermarks.items()):
        if not self.catalog.has_document(doc_name):
            continue
        rset = self.catalog.replica_set(doc_name)
        if (
            rset.primary == msg.sender
            and self.site_id in rset
            and watermark > self.log_for(doc_name).applied_lsn
        ):
            self.nudge_catch_up(doc_name)
    if came_back:
        self._on_site_up(SiteUpNotice(site=msg.sender))
    for name in msg.watermarks:
        if not self.catalog.has_document(name) or name not in self.logs:
            continue
        rset = self.catalog.replica_set(name)
        if not rset.is_replicated or rset.primary != self.site_id:
            continue
        floor = min(self.membership.watermark_of(peer, name) for peer in rset.secondaries)
        if floor > self.log_for(name).base_lsn:
            self.stats.log_entries_compacted += self.log_for(name).compact_to(floor)


def _insert(doc_name: str, parent: str, tag: str, marker: int) -> Transaction:
    return Transaction(
        [Operation.update(doc_name, InsertOp(f"<{tag}><id>{marker}</id></{tag}>", parent))],
        label=f"{doc_name}-{marker}",
    )


def _run(monkeypatch, receive) -> tuple[dict, dict]:
    """Build and run the scenario with ``receive`` as the heartbeat
    handler; return what happened and how much of it was checked."""
    seen = {"beats": 0, "receipts": 0}
    happened = {"facts": [], "nudges": []}
    holder: dict = {}

    send = Network.send

    def checked_send(self, src, dst, msg):
        if msg.__class__ is HeartbeatMessage and msg.seq != holder.get(src):
            holder[src] = msg.seq  # one check per beat, at its first send
            watermarks, views = reference_beat(holder["cluster"].site(src))
            assert list(msg.watermarks.items()) == list(watermarks.items())
            assert list(msg.views.items()) == list(views.items())
            seen["beats"] += 1
        return send(self, src, dst, msg)

    def checked_receive(self, msg):
        if self.alive and self.membership is not None:
            assert self.catalog.led_by() == reference_led_by(self)
            seen["receipts"] += 1
        receive(self, msg)

    adopt = DTXSite._adopt_view

    def recorded_adopt(self, doc_name, primary, epoch):
        before = self.stats.announces_applied
        adopt(self, doc_name, primary, epoch)
        if self.stats.announces_applied != before:
            happened["facts"].append((self.env.now, self.site_id, doc_name, primary, epoch))

    nudge = DTXSite.nudge_catch_up

    def recorded_nudge(self, doc_name):
        happened["nudges"].append((self.env.now, self.site_id, doc_name))
        nudge(self, doc_name)

    monkeypatch.setattr(Network, "send", checked_send)
    monkeypatch.setattr(DTXSite, "_on_heartbeat", checked_receive)
    monkeypatch.setattr(DTXSite, "_adopt_view", recorded_adopt)
    monkeypatch.setattr(DTXSite, "nudge_catch_up", recorded_nudge)

    cluster = holder["cluster"] = DTXCluster(protocol="xdgl", config=LEASE)
    for i in range(1, 6):
        cluster.add_site(f"s{i}")
    cluster.replicate_document(make_people_doc(), ["s1", "s2"])
    cluster.replicate_document(make_products_doc(), ["s5", "s3", "s2"])
    cluster.add_client("c1", "s1", [_insert("d1", "/people", "person", 200 + k) for k in range(6)])
    cluster.add_client("c2", "s2", [_insert("d1", "/people", "person", 300 + k) for k in range(6)])
    cluster.add_client(
        "c3", "s3", [_insert("d2", "/products", "product", 400 + k) for k in range(10)]
    )
    cluster.schedule_migration("d1", ("s4", "s3"), at_ms=3.0)
    cluster.schedule_crash("s5", at_ms=8.0, recover_at_ms=30.0)
    cluster.run(drain_ms=80.0)
    settle_migrations(cluster, drain_ms=80.0)
    monkeypatch.undo()

    happened["sites"] = {
        sid: (
            site.data_manager.live_documents(),
            {name: (log.base_lsn, log.applied_lsn) for name, log in sorted(site.logs.items())},
            site.stats.log_entries_compacted,
            site.stats.elections_won,
            site.stats.crashes,
            site.stats.recoveries,
        )
        for sid, site in cluster.sites.items()
    }
    happened["messages"] = dict(cluster.network.stats.by_kind)
    return happened, seen


def test_kept_heartbeat_state_equals_a_fresh_computation(monkeypatch):
    kept, seen = _run(monkeypatch, DTXSite._on_heartbeat)
    fresh, _ = _run(monkeypatch, reference_on_heartbeat)
    assert kept == fresh
    # The run moved everything the caches are kept on.
    sites = kept["sites"]
    assert sites["s1"][0] == [] and sites["s2"][0] == ["d2"]  # copies dropped
    assert sites["s4"][0] == ["d1"]  # a placeholder installed, then filled
    assert sites["s3"][3] == 1  # s3 won d2's election
    assert sites["s5"][4:] == (1, 1)  # the old primary crashed and recovered
    assert any(site[2] for site in sites.values())  # logs compacted
    assert {doc for _, _, doc, _, _ in kept["facts"]} == {"d1", "d2"}
    assert len(kept["nudges"]) > 10
    assert seen["beats"] > 900 and seen["receipts"] > 3000


def test_every_live_set_change_moves_its_version():
    """The run above cannot tell an install's bump from the placement bump
    that always comes with it, nor a reload's load from its evict: each
    mutator is checked on its own here."""
    dm = DataManager(InMemoryStore())
    versions = [dm.live_version]
    dm.install(make_people_doc())  # _adopt, a new name
    versions.append(dm.live_version)
    dm.replace(make_people_doc())  # _adopt, same name, a new tree
    versions.append(dm.live_version)
    dm.evict("d1")
    versions.append(dm.live_version)
    dm.load("d1")  # back from storage
    versions.append(dm.live_version)
    dm.drop("d1")  # evict
    versions.append(dm.live_version)
    assert versions == sorted(set(versions))  # moved every time


def test_placement_and_adopted_facts_move_led_by():
    shared = Catalog()
    shared.add("d1", ("s1", "s2"))
    shared.add("d2", ("s2", "s3"))
    view = CatalogView(shared, "s2")
    assert view.led_by() == {
        "s1": [shared.replica_set("d1")], "s2": [shared.replica_set("d2")],
    }
    version = shared.placement_version
    shared.add("d3", ("s3", "s2"))
    assert shared.placement_version > version
    assert [r.doc_name for r in view.led_by()["s3"]] == ["d3"]
    assert view.apply_primary("d1", "s2", 1)
    assert [r.doc_name for r in view.led_by()["s2"]] == ["d1", "d2"]
    assert "s1" not in view.led_by()
    assert not view.apply_primary("d1", "s1", 1)  # stale: nothing adopted
    assert [r.doc_name for r in view.led_by()["s2"]] == ["d1", "d2"]
    other = CatalogView(shared, "s3")  # each view answers for its own site
    assert other.led_by() == {"s2": [view.replica_set("d2")], "s3": [view.replica_set("d3")]}
