"""The paper's §2.4 execution scenario, end to end (experiment E7).

Two sites (s1: d1; s2: d1+d2), three transactions:

* t1 (client c1 at s1): query person id=4; insert product Mouse/10.30/13.
* t2 (client c2 at s2): query all products; insert person Patricia/22.
* t3 (client c2 at s2): query product id=14; insert product Keyboard/9.90/32.

Narrative to reproduce: t1op1 and t2op1 execute; t1op2 and t2op2 block
crosswise (IX needed under a held ST, at both sites); the periodic detector
finds the cycle in the union of the wait-for graphs; the most recent
transaction (t2) is rolled back; t1 completes and commits; the client
discards t2 and runs t3, which commits.
"""

import pytest

from repro import DTXCluster, Operation, SystemConfig, Transaction
from repro.verify import quiescent
from repro.update import InsertOp
from repro.xml import serialize_document

from .conftest import make_people_doc, make_products_doc


def build_scenario():
    cfg = SystemConfig().with_(
        client_think_ms=0.0,
        detector_interval_ms=50.0,
        detector_initial_delay_ms=10.0,
    )
    cluster = DTXCluster(protocol="xdgl", config=cfg)
    cluster.add_site("s1", [make_people_doc()])
    cluster.add_site("s2", [make_people_doc(), make_products_doc()])

    t1 = Transaction(
        [
            Operation.query("d1", "/people/person[id=4]"),
            Operation.update(
                "d2",
                InsertOp(
                    "<product><id>13</id><description>Mouse</description>"
                    "<price>10.30</price></product>",
                    "/products",
                ),
            ),
        ],
        label="t1",
    )
    t2 = Transaction(
        [
            Operation.query("d2", "/products/product"),
            Operation.update(
                "d1",
                InsertOp("<person><id>22</id><name>Patricia</name></person>", "/people"),
            ),
        ],
        label="t2",
    )
    t3 = Transaction(
        [
            Operation.query("d2", "/products/product[id=14]"),
            Operation.update(
                "d2",
                InsertOp(
                    "<product><id>32</id><description>Keyboard</description>"
                    "<price>9.90</price></product>",
                    "/products",
                ),
            ),
        ],
        label="t3",
    )
    cluster.add_client("c1", "s1", [t1])
    cluster.add_client("c2", "s2", [t2, t3])
    return cluster


class TestPaperScenario:
    @pytest.fixture(scope="class")
    def result(self):
        cluster = build_scenario()
        res = cluster.run()
        return cluster, res

    def test_outcomes_match_narrative(self, result):
        _, res = result
        by_label = {r.label: r for r in res.records}
        assert by_label["t1"].status == "committed"
        assert by_label["t2"].status == "aborted"
        assert by_label["t3"].status == "committed"

    def test_t2_aborted_by_distributed_deadlock(self, result):
        _, res = result
        by_label = {r.label: r for r in res.records}
        assert by_label["t2"].reason == "distributed-deadlock"
        assert res.distributed_deadlocks >= 1

    def test_mouse_inserted_keyboard_inserted_patricia_not(self, result):
        cluster, _ = result
        d2 = cluster.document_at("s2", "d2")
        descriptions = [
            p.child("description").text
            for p in d2.root.children
            if p.child("description") is not None
        ]
        assert "Mouse" in descriptions
        assert "Keyboard" in descriptions
        d1_s2 = serialize_document(cluster.document_at("s2", "d1"))
        assert "Patricia" not in d1_s2  # t2's effect rolled back

    def test_replicas_identical_after_scenario(self, result):
        cluster, _ = result
        assert quiescent(cluster) == []

    def test_no_lock_leaks(self, result):
        cluster, _ = result
        assert cluster.site("s1").lock_manager.table.is_empty()
        assert cluster.site("s2").lock_manager.table.is_empty()

    def test_dataguides_consistent(self, result):
        cluster, _ = result
        for sid in ("s1", "s2"):
            site = cluster.site(sid)
            for name in site.data_manager.live_documents():
                site.protocol.guide(name).validate_against(site.data_manager.document(name))

    def test_t1_waited_before_committing(self, result):
        """t1 enters wait mode when its insert hits t2's ST lock."""
        cluster, res = result
        by_label = {r.label: r for r in res.records}
        # t1's response time includes the detector latency (it waited).
        assert by_label["t1"].response_ms > 10.0
        assert by_label["t3"].response_ms < by_label["t1"].response_ms

    def test_scenario_is_deterministic(self):
        r1 = build_scenario().run()
        r2 = build_scenario().run()
        assert [(x.label, x.status, round(x.response_ms, 9)) for x in r1.records] == [
            (x.label, x.status, round(x.response_ms, 9)) for x in r2.records
        ]
