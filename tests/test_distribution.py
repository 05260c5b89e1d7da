"""Unit tests for the catalog, the fragmenter and the placement the cluster
is built with: ``xmark_fragments`` on any two-level tree, and the runner's
total and partial regimes (``replica_placement`` behind both)."""

import pytest

from repro import DTXCluster, SystemConfig
from repro.distribution import Catalog, HashRing, ReplicaSet, replica_placement
from repro.errors import ConfigError, DistributionError
from repro.experiments.runner import ExperimentConfig, build_cluster
from repro.workload import WorkloadSpec, xmark_fragments
from repro.xml import E, doc, serialize_document, serialize_element

from .conftest import make_people_doc, make_products_doc


def uneven_doc(n=12):
    """A two-level document whose entities differ in size (harder to
    balance): ``n`` records alternating between two containers. Sizes
    cycle with period 3, so they do not line up with a round-robin deal
    into 2 or 4 fragments (XMark's sizes are random)."""
    containers = [E("items"), E("people")]
    for i in range(n):
        record = E("rec", E("id", text=str(i)))
        for j in range(i % 3 + 1):
            record.append(E("data", text="x" * (20 * (j + 1))))
        containers[i % 2].append(record)
    return doc("base", E("site", *containers))


def records(document):
    """id -> serialized record, over every container of ``document``."""
    return {
        rec.child("id").text: serialize_element(rec)
        for container in document.root.children
        for rec in container.children
    }


class TestFragmentation:
    def test_fragment_count_and_names(self):
        frags = xmark_fragments(uneven_doc(), 4)
        assert [f.name for f in frags] == ["base#0", "base#1", "base#2", "base#3"]

    def test_fragments_partition_children(self):
        frags = xmark_fragments(uneven_doc(), 3)
        ids = [rid for f in frags for rid in records(f)]
        assert sorted(ids, key=int) == [str(i) for i in range(12)]

    def test_fragments_preserve_content(self):
        d = uneven_doc()
        merged = {}
        for f in xmark_fragments(d, 3):
            merged.update(records(f))
        assert merged == records(d)

    def test_fragments_share_root_tag(self):
        for f in xmark_fragments(uneven_doc(), 2):
            assert f.root.tag == "site"
            assert [c.tag for c in f.root.children] == ["items", "people"]

    def test_balance_is_reasonable(self):
        sizes = [f.size_bytes() for f in xmark_fragments(uneven_doc(24), 4)]
        assert max(sizes) / min(sizes) < 2.0  # similar sizes, paper's contract

    def test_single_fragment_is_a_copy(self):
        d = uneven_doc()
        (only,) = xmark_fragments(d, 1)
        assert only.name == "base#0"
        assert serialize_document(only) == serialize_document(d)


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
        cat.claim_epoch("d")  # an election RPC, not a placement change
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


def runner_cluster(replication, n_sites, factor=1):
    cfg = ExperimentConfig(
        n_sites=n_sites, replication=replication, db_bytes=20_000,
        workload=WorkloadSpec(n_clients=1, tx_per_client=1, ops_per_tx=1),
        system=SystemConfig().with_(replication_factor=factor),
    )
    cluster, _ = build_cluster(cfg)
    return cluster


def hosted(cluster, site):
    return cluster.site(site).documents_hosted()


class TestAllocation:
    def test_total_replication(self):
        cluster = runner_cluster("total", 3)
        assert cluster.catalog.replication_degree("xmark") == 3
        assert cluster.catalog.sites_for("xmark") == ("s1", "s2", "s3")
        for site in ["s1", "s2", "s3"]:
            assert hosted(cluster, site) == ["xmark"]

    def test_total_replication_copies_are_independent(self):
        cluster = runner_cluster("total", 2)
        name = cluster.document_at("s1", "xmark").root.child("people").children[0].child("name")
        original = name.text
        name.text = "Mutated"
        other = cluster.document_at("s2", "xmark").root.child("people").children[0]
        assert other.child("name").text == original != "Mutated"

    def test_partial_replication_spreads_fragments(self):
        cluster = runner_cluster("partial", 4)
        for i, site in enumerate(["s1", "s2", "s3", "s4"]):
            assert hosted(cluster, site) == [f"xmark#{i}"]
            assert cluster.catalog.replication_degree(f"xmark#{i}") == 1

    def test_partial_with_replicas(self):
        cluster = runner_cluster("partial", 4, factor=2)
        assert cluster.catalog.sites_for("xmark#0") == ("s1", "s2")
        assert cluster.catalog.sites_for("xmark#3") == ("s4", "s1")

    def test_partial_sites_have_similar_volume(self):
        cluster = runner_cluster("partial", 4)
        volumes = [
            sum(cluster.document_at(s, name).size_bytes() for name in hosted(cluster, s))
            for s in cluster.sites
        ]
        assert max(volumes) / min(volumes) < 2.5

    def test_invalid_replicas(self):
        with pytest.raises(DistributionError):
            replica_placement(0, ["s1"], 2)
        with pytest.raises(DistributionError):
            replica_placement(0, ["s1"], 0)
        with pytest.raises(ConfigError):
            ExperimentConfig(
                n_sites=1, system=SystemConfig().with_(replication_factor=2)
            ).validate()

    def test_no_sites_rejected(self):
        with pytest.raises(DistributionError):
            replica_placement(0, [], 1)
        with pytest.raises(DistributionError):
            HashRing([])
        with pytest.raises(ConfigError):
            ExperimentConfig(n_sites=0).validate()

    def test_explicit_allocation_paper_scenario(self):
        # §2.4: s1 holds d1; s2 holds d1 and d2.
        cluster = DTXCluster()
        cluster.add_site("s1", [make_people_doc()])
        cluster.add_site("s2", [make_people_doc(), make_products_doc()])
        assert cluster.catalog.sites_for("d1") == ("s1", "s2")
        assert cluster.catalog.replica_set("d1").primary == "s1"
        assert hosted(cluster, "s1") == ["d1"]
        assert hosted(cluster, "s2") == ["d1", "d2"]
