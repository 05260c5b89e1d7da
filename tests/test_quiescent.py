"""The settle check: ``repro.verify.quiescent`` names each kind of leftover.

A small lease-mode cluster (d1 at s1, s2 and s3, a view of it hosted at s4)
runs until it is quiet, and the check finds nothing. Then one piece of
unsettled state is planted by hand, and the check must report exactly that
one violation, naming its kind, site, document and transaction.
"""

from __future__ import annotations

import pytest

from repro.core.context import SiteTxContext
from repro.core.transaction import TxId
from repro.distribution import UpdateLogEntry
from repro.locking import LockMode
from repro.update import ChangeOp
from repro.verify import KINDS, quiescent

from .conftest import plant_turn, plant_waiter, replicated_cluster, x_spec
from .test_membership import LEASE

TID, OTHER = TxId("s1", 9, 1.0), TxId("s2", 3, 0.5)


@pytest.fixture
def quiet():
    cluster = replicated_cluster(LEASE)
    cluster.register_view("v-people", "//person", ["d1"], host="s4")
    cluster.start()
    cluster.env.run(until=20.0)
    return cluster


def _stale_view(cluster):
    for sid in ("s1", "s2", "s3"):  # every site but s4 learns of a newer epoch
        catalog = cluster.site(sid).catalog
        catalog.apply_primary("d1", "s1", catalog.epoch("d1") + 1)


def _given_back(cluster):
    """An undo gave a lock back at s1, and no release has walked since."""
    manager = cluster.site("s1").lock_manager
    manager.give_back(TID, manager.process_operation(TID, x_spec()).new_pairs)


#: kind -> (the violation's site, document and tid; what plants it)
PLANTS = {
    "catalog": (("s4", "d1", None), _stale_view),
    "divergent": (("s3", "d1", None),
                  lambda c: c.document_at("s3", "d1").root.attrib.update(stray="1")),
    "shadow": (("s4", "d1", None),
               lambda c: c.site("s4").views.states["d1"].doc.root.attrib.update(stray="1")),
    "context": (("s2", None, TID),
                lambda c: c.site("s2").tx_contexts.update({TID: SiteTxContext(TID, "s1")})),
    "waiter": (("s2", None, TID), lambda c: plant_waiter(c.site("s2").lock_manager, TID, OTHER)),
    "turn": (("s3", None, TID), lambda c: plant_turn(c.site("s3").lock_manager, TID, OTHER)),
    "lock": (("s1", None, TID),
             lambda c: c.site("s1").lock_manager.table.try_acquire("d1:/", TID, LockMode.X)),
    "wait_edge": (("s3", None, TID), lambda c: c.site("s3").wfg.add_edge(TID, OTHER)),
    "deferred_wake": (("s1", None, None), _given_back),
    "outbox": (("s2", "d1", None),
               lambda c: c.site("s2")._sync_outboxes.update({("d1", "s1"): []})),
    "round": (("s1", None, None), lambda c: c.site("s1")._open_round("sync", ["s2"])),
    "coordinator": (("s1", None, TID), lambda c: c.site("s1").coordinators.update({TID: None})),
    "catchup_gate": (("s3", "d1", None),
                     lambda c: c.site("s3")._catchup_gates.update(d1=c.env.event())),
    # Maria is the name already: a change record is kept, the bytes stay.
    "pending_change": (("s1", "d1", None), lambda c: c.site("s1").data_manager.write(
        "d1", ChangeOp("/people/person[id=4]/name", "Maria"))),
    "log_hole": (("s2", "d1", None), lambda c: c.site("s2").log_for("d1").record(
        UpdateLogEntry(lsn=2, epoch=0, tid=TID, doc_name="d1"))),
    "client": ((None, None, None), lambda c: c.add_client("c9", "s1", [])),
    "migration": ((None, "d1", None), lambda c: c.migration.migrate("d1", ("s2", "s3", "s4"))),
}


def test_a_quiet_cluster_has_settled(quiet):
    assert tuple(PLANTS) == KINDS
    assert quiescent(quiet) == []
    # What the plants change is there to be checked.
    assert quiet.site("s4").views.states["d1"].doc is not None
    assert quiet.site("s2").log_for("d1").max_recorded_lsn == 0


@pytest.mark.parametrize("kind", KINDS)
def test_one_planted_leftover_is_one_violation(quiet, kind):
    named, plant = PLANTS[kind]
    plant(quiet)
    (found,) = quiescent(quiet)
    assert (found.kind, found.site, found.doc, found.tid) == (kind, *named)


def test_a_crashed_site_is_not_judged(quiet):
    PLANTS["divergent"][1](quiet)
    quiet.crash_site("s3")
    assert quiescent(quiet) == []
