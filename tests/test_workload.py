"""Unit tests for the XMark generator, templates and DTXTester."""

import hashlib

import pytest

from repro.core.transaction import OpKind
from repro.errors import ConfigError
from repro.experiments import ExperimentConfig, build_cluster
from repro.workload import (
    DTXTester,
    WorkloadSpec,
    generate_xmark,
    xmark_fragments,
)
from repro.workload.queries import QUERY_TEMPLATES, UPDATE_TEMPLATES, IdPools
from repro.sim.rng import substream
from repro.xml import serialize_document
from repro.xpath import evaluate


class TestXMarkGenerator:
    def test_schema_containers_present(self):
        doc, _ = generate_xmark(50_000)
        tags = [c.tag for c in doc.root.children]
        assert tags == [
            "categories",
            "catgraph",
            "regions",
            "people",
            "open_auctions",
            "closed_auctions",
        ]

    def test_size_roughly_matches_target(self):
        for target in (20_000, 100_000):
            doc, _ = generate_xmark(target)
            size = doc.size_bytes()
            assert 0.5 * target < size < 2.0 * target

    def test_deterministic(self):
        d1, s1 = generate_xmark(30_000, seed=5)
        d2, s2 = generate_xmark(30_000, seed=5)
        assert serialize_document(d1) == serialize_document(d2)
        assert s1.item_ids == s2.item_ids

    def test_seed_changes_content(self):
        d1, _ = generate_xmark(30_000, seed=5)
        d2, _ = generate_xmark(30_000, seed=6)
        assert serialize_document(d1) != serialize_document(d2)

    def test_stats_match_document(self, ):
        doc, stats = generate_xmark(60_000)
        assert len(evaluate("//item", doc)) == stats.items
        assert len(evaluate("/site/people/person", doc)) == stats.persons
        assert len(evaluate("/site/open_auctions/open_auction", doc)) == stats.open_auctions

    def test_references_are_valid(self):
        doc, stats = generate_xmark(40_000)
        item_ids = set(stats.item_ids)
        for ref in evaluate("/site/open_auctions/open_auction/itemref", doc):
            assert ref.attrib["item"] in item_ids

    def test_too_small_target_rejected(self):
        with pytest.raises(ValueError):
            generate_xmark(100)

    def test_queries_parse_and_run_against_xmark(self):
        doc, _ = generate_xmark(40_000)
        rng = substream(1, "t")
        pools = IdPools(doc)
        for template in QUERY_TEMPLATES:
            op = template(rng, "xmark", pools)
            assert op is not None
            assert op.kind is OpKind.QUERY
            evaluate(op.payload, doc)  # must not raise


class TestXMarkFragments:
    def test_fragment_count_and_names(self):
        doc, _ = generate_xmark(50_000)
        frags = xmark_fragments(doc, 4)
        assert [f.name for f in frags] == [f"xmark#{i}" for i in range(4)]

    def test_fragments_preserve_entities(self):
        doc, stats = generate_xmark(50_000)
        frags = xmark_fragments(doc, 4)
        total_items = sum(len(evaluate("//item", f)) for f in frags)
        total_persons = sum(len(evaluate("/site/people/person", f)) for f in frags)
        assert total_items == stats.items
        assert total_persons == stats.persons

    def test_fragments_have_full_skeleton(self):
        doc, _ = generate_xmark(50_000)
        for frag in xmark_fragments(doc, 3):
            tags = [c.tag for c in frag.root.children]
            assert "regions" in tags and "people" in tags

    def test_fragments_balanced(self):
        doc, _ = generate_xmark(80_000)
        frags = xmark_fragments(doc, 4)
        sizes = [f.size_bytes() for f in frags]
        assert max(sizes) / min(sizes) < 1.5

    def test_invalid_k(self):
        doc, _ = generate_xmark(20_000)
        with pytest.raises(ValueError):
            xmark_fragments(doc, 0)


class TestDTXTester:
    def make_tester(self, **kw):
        doc, _ = generate_xmark(40_000)
        spec = WorkloadSpec(n_clients=4, tx_per_client=5, ops_per_tx=5, **kw)
        return DTXTester(spec, [doc])

    def test_transaction_counts(self):
        tester = self.make_tester()
        txs = tester.transactions_for_client(0)
        assert len(txs) == 5
        assert all(len(t.operations) == 5 for t in txs)

    def test_read_only_workload_has_no_updates(self):
        tester = self.make_tester(update_tx_ratio=0.0)
        for c in range(4):
            for tx in tester.transactions_for_client(c):
                assert not tx.is_update_transaction

    def test_update_ratio_produces_update_transactions(self):
        tester = self.make_tester(update_tx_ratio=0.6)
        all_txs = [t for c in range(4) for t in tester.transactions_for_client(c)]
        n_upd = sum(1 for t in all_txs if t.is_update_transaction)
        assert 0 < n_upd < len(all_txs)

    def test_update_transactions_contain_update_op(self):
        tester = self.make_tester(update_tx_ratio=1.0)
        for tx in tester.transactions_for_client(0):
            assert any(op.is_update for op in tx.operations)

    def test_deterministic_per_client(self):
        t1 = self.make_tester(update_tx_ratio=0.3)
        t2 = self.make_tester(update_tx_ratio=0.3)
        a = [str(op) for tx in t1.transactions_for_client(2) for op in tx.operations]
        b = [str(op) for tx in t2.transactions_for_client(2) for op in tx.operations]
        assert a == b

    def test_clients_differ(self):
        tester = self.make_tester(update_tx_ratio=0.3)
        a = [str(op) for tx in tester.transactions_for_client(0) for op in tx.operations]
        b = [str(op) for tx in tester.transactions_for_client(1) for op in tx.operations]
        assert a != b

    def test_multi_document_workload(self):
        doc, _ = generate_xmark(40_000)
        frags = xmark_fragments(doc, 3)
        tester = DTXTester(WorkloadSpec(n_clients=2), frags)
        names = {
            op.doc_name
            for tx in tester.transactions_for_client(0)
            for op in tx.operations
        }
        assert names <= {f.name for f in frags}
        assert len(names) > 1  # ops spread over fragments

    def test_client_site_assignment_round_robin(self):
        tester = self.make_tester()
        placement = tester.assign_clients_to_sites(["s1", "s2"])
        assert placement == {0: "s1", 1: "s2", 2: "s1", 3: "s2"}

    def test_invalid_spec_rejected(self):
        doc, _ = generate_xmark(20_000)
        with pytest.raises(ConfigError):
            DTXTester(WorkloadSpec(n_clients=0), [doc])
        with pytest.raises(ConfigError):
            DTXTester(WorkloadSpec(update_tx_ratio=1.5), [doc])
        with pytest.raises(ConfigError):
            DTXTester(WorkloadSpec(), [])

    def test_update_templates_apply_cleanly(self):
        doc, _ = generate_xmark(40_000)
        rng = substream(3, "u")
        from repro.update import apply_update

        for template in UPDATE_TEMPLATES:
            op = template(rng, "xmark", IdPools(doc))
            assert op is not None
            apply_update(op.payload, doc)  # must not raise


#: One fixed build: 4 fragments of a 60 KB database, 6 clients, half the
#: transactions updating.
PINNED_CONFIG = ExperimentConfig(
    db_bytes=60_000,
    workload=WorkloadSpec(n_clients=6, tx_per_client=10, update_tx_ratio=0.5, seed=11),
)


class TestPinnedStreams:
    """What DTXTester generates and what it generates it over, pinned: a
    change to the generator, its id pools, the fragmenter or the tree copy
    that moves one operation, byte or node id shows here."""

    def test_transactions(self):
        _, tester = build_cluster(PINNED_CONFIG)
        digest = hashlib.sha256()
        for txs in tester.all_transactions().values():
            for tx in txs:
                line = ";".join(str(op) for op in tx.operations)
                digest.update(f"{tx.label}:{line}\n".encode())
        assert digest.hexdigest() == (
            "ccfcb883628c8d69af37899a787afb8fec66f7de896949c1cb1c91649a5cd1ee"
        )

    def test_fragments(self):
        _, tester = build_cluster(PINNED_CONFIG)
        texts, ids = hashlib.sha256(), hashlib.sha256()
        for name in sorted(tester.documents):
            fragment = tester.documents[name]
            texts.update(serialize_document(fragment).encode())
            ids.update(repr([(n.node_id, n.tag) for n in fragment.iter()]).encode())
        assert texts.hexdigest() == (
            "889f4f33f4eaaf7e628bc13ca019c41e084aba572fadd68d79eb072e142a50da"
        )
        assert ids.hexdigest() == (
            "85ad389b4d9116a31239139ed6832427b998104e7261548ba231db5174038a46"
        )
