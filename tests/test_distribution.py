"""Unit tests for fragmentation, allocation and the catalog."""

import pytest

from repro.distribution import (
    Catalog,
    ExplicitPlacement,
    PartialPlacement,
    ReplicaSet,
    TotalPlacement,
    fragment_document,
    fragment_name,
    is_fragment_of,
)
from repro.errors import DistributionError
from repro.xml import E, doc

from .conftest import make_people_doc, make_products_doc


def uneven_doc(n=12):
    """A document whose subtrees differ in size (harder to balance)."""
    root = E("site")
    for i in range(n):
        item = E("item", E("id", text=str(i)))
        for j in range(i % 4 + 1):
            item.append(E("data", text="x" * (20 * (j + 1))))
        root.append(item)
    return doc("base", root)


class TestFragmentation:
    def test_fragment_count_and_names(self):
        plan = fragment_document(uneven_doc(), 4)
        assert len(plan.fragments) == 4
        assert plan.names == ["base#0", "base#1", "base#2", "base#3"]

    def test_fragments_partition_children(self):
        d = uneven_doc()
        plan = fragment_document(d, 3)
        covered = []
        for f in plan.fragments:
            a, b = f.child_range
            covered.extend(range(a, b))
        assert covered == list(range(len(d.root.children)))

    def test_fragments_preserve_content(self):
        d = uneven_doc()
        plan = fragment_document(d, 3)
        total_items = sum(len(f.document.root.children) for f in plan.fragments)
        assert total_items == len(d.root.children)
        ids = [
            item.child("id").text
            for f in plan.fragments
            for item in f.document.root.children
        ]
        assert ids == [str(i) for i in range(12)]

    def test_fragments_share_root_tag(self):
        plan = fragment_document(uneven_doc(), 2)
        assert all(f.document.root.tag == "site" for f in plan.fragments)

    def test_balance_is_reasonable(self):
        plan = fragment_document(uneven_doc(24), 4)
        assert plan.balance_ratio() < 2.0  # similar sizes, paper's contract

    def test_single_fragment_is_a_copy(self):
        d = make_people_doc()
        plan = fragment_document(d, 1)
        assert len(plan.fragments) == 1
        assert plan.fragments[0].name == "d1#0"
        assert len(plan.fragments[0].document) == len(d)

    def test_too_many_fragments_rejected(self):
        with pytest.raises(DistributionError):
            fragment_document(make_people_doc(), 10)

    def test_empty_document_rejected(self):
        from repro.xml.model import Document

        with pytest.raises(DistributionError):
            fragment_document(Document("empty"), 2)

    def test_describe_mentions_every_fragment(self):
        plan = fragment_document(uneven_doc(), 3)
        text = plan.describe()
        for name in plan.names:
            assert name in text

    def test_fragment_name_helpers(self):
        assert fragment_name("xmark", 2) == "xmark#2"
        assert is_fragment_of("xmark#2", "xmark")
        assert not is_fragment_of("xmark", "xmark")
        assert not is_fragment_of("other#1", "xmark")


class TestCatalog:
    def test_basic_placement(self):
        cat = Catalog()
        cat.add("d1", ["s1", "s2"])
        cat.add("d2", ["s2"])
        assert cat.sites_for("d1") == ("s1", "s2")
        assert cat.documents_at("s2") == ["d1", "d2"]
        assert cat.all_sites() == ["s1", "s2"]
        assert cat.replication_degree("d1") == 2
        assert cat.primary_site("d2") == "s2"

    def test_unknown_document(self):
        with pytest.raises(DistributionError):
            Catalog().sites_for("ghost")

    def test_empty_placement_rejected(self):
        with pytest.raises(DistributionError):
            Catalog().add("d", [])

    def test_duplicate_sites_rejected(self):
        with pytest.raises(DistributionError):
            Catalog().add("d", ["s1", "s1"])

    def test_describe_marks_replicated(self):
        cat = Catalog()
        cat.add("d1", ["s1", "s2"])
        cat.add("d2", ["s1"])
        text = cat.describe()
        assert "*d1*" in text and "d2" in text

    def test_replica_set_is_one_object_until_the_placement_changes(self):
        cat = Catalog()
        cat.add("d", ["s1", "s2", "s3"])
        rset = cat.replica_set("d")
        assert rset == ReplicaSet("d", "s1", ("s2", "s3"))
        cat.add("e", ["s2"])
        cat.allocate_lsn("d")
        assert cat.replica_set("d") is rset  # nothing about d's placement moved
        cat.set_primary("d", "s2")
        promoted = cat.replica_set("d")
        assert promoted is not rset
        assert promoted == ReplicaSet("d", "s2", ("s1", "s3"))
        assert cat.replica_set("d") is promoted
        cat.add("d", ["s3", "s1"])  # a migration's new placement
        assert cat.replica_set("d") == ReplicaSet("d", "s3", ("s1",))
        with pytest.raises(DistributionError):
            cat.replica_set("ghost")


class TestAllocation:
    def test_total_replication(self):
        alloc = TotalPlacement().place([make_people_doc(), make_products_doc()], ["s1", "s2", "s3"])
        assert alloc.catalog.replication_degree("d1") == 3
        assert alloc.catalog.sites_for("d1") == ("s1", "s2", "s3")
        for site in ["s1", "s2", "s3"]:
            names = [d.name for d in alloc.documents_for(site)]
            assert names == ["d1", "d2"]

    def test_total_replication_copies_are_independent(self):
        alloc = TotalPlacement().place([make_people_doc()], ["s1", "s2"])
        c1 = alloc.documents_for("s1")[0]
        c2 = alloc.documents_for("s2")[0]
        c1.root.children[0].child("name").text = "Mutated"
        assert c2.root.children[0].child("name").text == "Carlos"

    def test_partial_replication_spreads_fragments(self):
        alloc = PartialPlacement().place([uneven_doc()], ["s1", "s2", "s3", "s4"])
        plans = alloc.fragment_plans
        assert len(plans) == 1
        assert len(plans[0].fragments) == 4
        for i, site in enumerate(["s1", "s2", "s3", "s4"]):
            names = [d.name for d in alloc.documents_for(site)]
            assert names == [f"base#{i}"]
            assert alloc.catalog.replication_degree(f"base#{i}") == 1

    def test_partial_with_replicas(self):
        alloc = PartialPlacement(replicas=2).place([uneven_doc()], ["s1", "s2", "s3", "s4"])
        assert alloc.catalog.sites_for("base#0") == ("s1", "s2")
        assert alloc.catalog.sites_for("base#3") == ("s4", "s1")

    def test_partial_fragments_per_doc_overrides_the_site_count(self):
        alloc = PartialPlacement(replicas=2, fragments_per_doc=2).place(
            [make_people_doc("d1"), make_products_doc("d2")], ["s1", "s2", "s3"]
        )
        assert [p.source_name for p in alloc.fragment_plans] == ["d1", "d2"]
        assert [len(p.fragments) for p in alloc.fragment_plans] == [2, 2]
        assert alloc.catalog.sites_for("d1#1") == ("s2", "s3")

    def test_partial_sites_have_similar_volume(self):
        alloc = PartialPlacement().place([uneven_doc(32)], ["s1", "s2", "s3", "s4"])
        volumes = alloc.total_bytes_per_site()
        assert max(volumes.values()) / min(volumes.values()) < 2.5

    def test_invalid_replicas(self):
        with pytest.raises(DistributionError):
            PartialPlacement(replicas=2).place([uneven_doc()], ["s1"])
        with pytest.raises(DistributionError):
            PartialPlacement(replicas=0).place([uneven_doc()], ["s1"])

    def test_no_sites_rejected(self):
        with pytest.raises(DistributionError):
            TotalPlacement().place([make_people_doc()], [])

    def test_explicit_allocation_paper_scenario(self):
        # §2.4: s1 holds d1; s2 holds d1 and d2.
        alloc = ExplicitPlacement({"d1": ["s1", "s2"], "d2": ["s2"]}).place(
            [make_people_doc(), make_products_doc()]
        )
        assert alloc.catalog.sites_for("d1") == ("s1", "s2")
        assert alloc.catalog.replica_set("d1").primary == "s1"
        assert [d.name for d in alloc.documents_for("s1")] == ["d1"]
        assert sorted(d.name for d in alloc.documents_for("s2")) == ["d1", "d2"]

    def test_explicit_allocation_missing_doc(self):
        with pytest.raises(DistributionError):
            ExplicitPlacement({"d1": ["s1"]}).place([])
