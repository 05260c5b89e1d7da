"""Unit tests for storage backends and the DataManager."""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.errors import StorageError, UpdateError
from repro.storage import DataManager, InMemoryStore
from repro.update import ChangeOp, InsertOp, RemoveOp, RenameOp, TransposeOp, apply_update
from repro.xml import E, doc, parse_document, serialize_document

from .conftest import EagerReferenceStore, example_budget, make_people_doc


class TestInMemoryStore:
    def test_store_and_load_roundtrip(self):
        store = InMemoryStore()
        d = make_people_doc()
        size = store.store(d)
        assert size > 0
        loaded = store.load("d1")
        assert serialize_document(loaded) == serialize_document(d)
        assert loaded.name == "d1"

    def test_load_missing_raises(self):
        with pytest.raises(StorageError):
            InMemoryStore().load("ghost")

    def test_exists_delete_list(self):
        store = InMemoryStore()
        store.store(doc("a", E("r")))
        store.store(doc("b", E("r")))
        assert store.exists("a")
        assert store.list_documents() == ["a", "b"]
        store.delete("a")
        assert not store.exists("a")
        with pytest.raises(StorageError):
            store.delete("a")

    def test_size_bytes(self):
        store = InMemoryStore()
        store.store(doc("a", E("r", text="hello")))
        assert store.size_bytes("a") == len(store.raw("a").encode())
        with pytest.raises(StorageError):
            store.size_bytes("ghost")

    def test_stats(self):
        store = InMemoryStore()
        d = make_people_doc()
        store.store(d)
        store.store(d)
        store.load("d1")
        assert store.stats.stores == 2
        assert store.stats.loads == 1
        assert store.stats.per_document_stores["d1"] == 2
        assert store.stats.bytes_written > 0

    def test_store_keeps_the_byte_length_beside_the_text(self):
        store = InMemoryStore()
        size = store.store(doc("a", E("r", text="h\u00e9llo & <w\u00f6rld>")))
        assert size == store.size_bytes("a") == len(store.raw("a").encode("utf-8"))
        store.load("a")
        assert store.stats.bytes_read == size

    def test_write_back_renders_when_read_not_when_written(self):
        store = InMemoryStore()
        d = make_people_doc()
        first = store.store(d)
        before = store.raw("d1")
        apply_update(ChangeOp("/people/person[id=1]/name", "Zo\u00eb"), d)
        size = len(serialize_document(d).encode("utf-8"))
        assert store.write_back("d1", size, lambda: serialize_document(d)) == size
        # Charged and counted as a persist, but nothing rendered yet.
        assert store.stats.stores == 2
        assert store.stats.per_document_stores["d1"] == 2
        assert store.stats.bytes_written == first
        assert store.size_bytes("d1") == size
        assert store.stats.bytes_written == first  # the size is known, not measured
        assert store.raw("d1") == serialize_document(d) != before
        assert store.stats.bytes_written == first + size
        store.raw("d1")
        assert store.stats.bytes_written == first + size  # rendered once

    def test_flush_store_and_delete_settle_a_deferred_render(self):
        store = InMemoryStore()
        d = make_people_doc()
        store.store(d)
        committed = serialize_document(d)
        renders = []

        def render():
            renders.append(d.name)
            return serialize_document(d)

        store.write_back("d1", len(committed.encode("utf-8")), render)
        store.flush()  # the memory is about to go: rendered now
        apply_update(ChangeOp("//name", "later"), d)  # after the flush: not seen
        assert store.raw("d1") == committed
        # An eager store supersedes whatever was deferred.
        store.write_back("d1", 1, render)
        store.store(d)
        assert "later" in store.raw("d1")
        store.write_back("d1", 1, render)
        store.delete("d1")
        assert not store.exists("d1") and store.list_documents() == []
        store.flush()
        with pytest.raises(StorageError):
            store.raw("d1")
        assert renders == ["d1"]

    def test_loaded_copies_are_independent(self):
        store = InMemoryStore()
        store.store(make_people_doc())
        c1 = store.load("d1")
        c2 = store.load("d1")
        c1.root.children[0].child("name").text = "Mutated"
        assert c2.root.children[0].child("name").text == "Carlos"


class TestRenderOnce:
    """A document placed on several sites is rendered once: every store
    keeps that one string, with the counters a render of its own gives."""

    def test_store_keeps_the_text_it_is_handed(self):
        d = make_people_doc()
        text = serialize_document(d)
        handed, rendered = InMemoryStore(), InMemoryStore()
        assert handed.store(d, text) == rendered.store(d) == len(text.encode())
        assert handed.raw("d1") is text
        assert handed.stats == rendered.stats

    def test_a_placement_renders_once(self, monkeypatch):
        import repro.core.cluster
        import repro.storage.memory
        from repro import DTXCluster

        renders = []

        def counted(document, *args, **kwargs):
            renders.append(document.name)
            return serialize_document(document, *args, **kwargs)

        monkeypatch.setattr(repro.core.cluster, "serialize_document", counted)
        monkeypatch.setattr(repro.storage.memory, "serialize_document", counted)
        cluster = DTXCluster()
        for site in ("s1", "s2", "s3"):
            cluster.add_site(site)
        d = make_people_doc()
        cluster.place_document(d, ["s2", "s1", "s3"])
        assert renders == ["d1"]
        assert cluster.catalog.sites_for("d1") == ("s2", "s1", "s3")
        stores = [cluster.site(s).data_manager.backend for s in ("s1", "s2", "s3")]
        text = stores[0].raw("d1")
        assert text == serialize_document(d)
        for store in stores:
            assert store.raw("d1") is text
            assert store.stats.stores == 1
            assert store.stats.bytes_written == store.size_bytes("d1") == len(text.encode())


class TestDataManager:
    def make(self):
        store = InMemoryStore()
        store.store(make_people_doc())
        return DataManager(store), store

    def test_load_parses_once(self):
        dm, _ = self.make()
        d1, parsed = dm.load("d1")
        assert parsed > 0
        again, parsed2 = dm.load("d1")
        assert again is d1
        assert parsed2 == 0  # already live

    def test_document_requires_load(self):
        dm, _ = self.make()
        with pytest.raises(StorageError):
            dm.document("d1")
        dm.load("d1")
        assert dm.document("d1").name == "d1"

    def test_commit_writes_back_replicated_changes(self):
        dm, store = self.make()
        dm.load("d1")
        changes = dm.apply_replicated("d1", ChangeOp("/people/person[id=1]/name", "Renamed"))
        assert [c.kind for c in changes] == ["change"]
        written = dm.commit("d1")
        assert written == len(store.raw("d1").encode("utf-8"))
        assert "Renamed" in store.raw("d1")

    def test_commit_persists_committed_state_only(self):
        dm, store = self.make()
        live, _ = dm.load("d1")
        kept = dm.write("d1", ChangeOp("/people/person[id=1]/name", "Kept"))
        dm.write("d1", ChangeOp("/people/person[id=4]/name", "InFlight"))
        dm.settle("d1", kept)
        written = dm.commit("d1")
        text = store.raw("d1")
        assert written == len(text.encode("utf-8"))
        assert "Kept" in text and "InFlight" not in text
        assert "InFlight" in serialize_document(live)

    def test_first_local_write_moves_the_stores_reference_off_the_live_tree(self):
        dm, store = self.make()
        live, _ = dm.load("d1")
        dm.apply_replicated("d1", InsertOp("<person><id>9</id></person>", "/people"))
        dm.commit("d1")  # storage renders the committed state when read
        committed = serialize_document(live)
        dm.write("d1", RemoveOp("/people/person[id=1]"))
        in_flight = serialize_document(live)
        assert store.raw("d1") == committed
        assert serialize_document(live) == in_flight  # given back as it was

    def test_snapshot_is_the_committed_tree_and_the_live_one_comes_back(self):
        dm, _ = self.make()
        live, _ = dm.load("d1")
        committed = serialize_document(live)
        dm.write("d1", InsertOp("<person><id>9</id></person>", "/people"))
        dm.write("d1", RemoveOp("/people/person[id=1]"))
        dm.write("d1", RenameOp("//name", "label"))
        state = _tree_state(live)
        clone, size = dm.snapshot("d1")
        assert serialize_document(clone) == committed
        assert size == len(committed.encode("utf-8"))
        assert _tree_state(live) == state

    def test_revert_restores_the_tree_and_its_size(self):
        dm, store = self.make()
        live, _ = dm.load("d1")
        before = _tree_state(live)
        changes = dm.write("d1", RemoveOp("/people/person[id=4]"))
        changes += dm.write("d1", ChangeOp("//name", "x"))
        reverses = dm.revert("d1", changes)
        assert [r.kind for r in reverses] == ["change", "change", "insert"]
        assert _tree_state(live) == before
        assert dm.commit("d1") == len(store.raw("d1").encode("utf-8"))

    def test_revert_leaves_settled_changes(self):
        dm, store = self.make()
        live, _ = dm.load("d1")
        settled = dm.write("d1", ChangeOp("/people/person[id=1]/name", "Kept"))
        dm.settle("d1", settled)
        changes = settled + dm.write("d1", ChangeOp("/people/person[id=4]/name", "Gone"))
        assert [r.kind for r in dm.revert("d1", changes)] == ["change"]
        text = serialize_document(live)
        assert "Kept" in text and "Gone" not in text
        assert dm.commit("d1") == len(store.raw("d1").encode("utf-8"))
        assert store.raw("d1") == text

    def test_a_derivation_that_is_refused_leaves_the_live_tree_as_it_was(self):
        """A committed transpose moved ``p`` under ``a`` after a pending one
        took ``a`` out of ``p``: that record can no longer be reverted. The
        rename reverted before it is redone, and nothing else moved."""
        dm = DataManager(InMemoryStore())
        dm.install(doc("d", E("r", E("p", E("a")), E("q"))))
        live = dm.document("d")
        dm.write("d", TransposeOp("/r/p/a", "/r/q"))
        dm.apply_replicated("d", TransposeOp("/r/p", "/r/q/a"))
        dm.write("d", RenameOp("/r/q", "z"))
        state = _tree_state(live)
        with pytest.raises(UpdateError):
            dm.snapshot("d")
        assert _tree_state(live) == state

    def test_crash_renders_then_reload_measures_the_parsed_tree(self):
        store = InMemoryStore()
        dm = DataManager(store)
        # '' text and padded text both change under parse: the reloaded
        # tree is shorter than the stored text it came from.
        dm.install(doc("d", E("r", E("a", text=""), E("b", text="  x  "))))
        dm.apply_replicated("d", InsertOp("<c/>", "/r"))
        dm.commit("d")
        dm.crash()
        stored = store.raw("d")
        assert stored == "<r><a></a><b>  x  </b><c/></r>"
        reloaded, parsed = dm.reload("d")
        assert parsed == len(stored)
        assert serialize_document(reloaded) == "<r><a/><b>x</b><c/></r>"
        assert dm.commit("d") == len("<r><a/><b>x</b><c/></r>")

    def test_replace_and_drop(self):
        dm, store = self.make()
        dm.load("d1")
        dm.write("d1", ChangeOp("//name", "uncommitted"))
        with pytest.raises(StorageError):
            dm.replace(doc("other", E("r")))
        snapshot = parse_document("<people><person><id>1</id></person></people>", name="d1")
        assert dm.replace(snapshot) == store.size_bytes("d1")
        assert dm.document("d1") is snapshot
        # The records pending on the replaced instance went with it: the
        # snapshot itself is the committed state now.
        dm.apply_replicated("d1", RenameOp("/people/person/id", "key"))
        assert dm.commit("d1") == len(store.raw("d1"))
        assert store.raw("d1") == serialize_document(snapshot)
        dm.drop("d1")
        assert not dm.is_loaded("d1") and not store.exists("d1")
        dm.drop("d1")  # idempotent

    def test_install_and_evict(self):
        dm, store = self.make()
        dm.install(doc("new", E("r")))
        assert store.exists("new")
        assert dm.is_loaded("new")
        with pytest.raises(StorageError):
            dm.install(doc("new", E("r")))
        dm.evict("new")
        assert not dm.is_loaded("new")
        assert dm.live_documents() == []


# ---------------------------------------------------------------------------
# differential: deferred rendering vs. an eager store of the committed tree
# ---------------------------------------------------------------------------

_UPDATES = st.one_of(
    st.builds(
        InsertOp,
        st.sampled_from([
            "<person><id>9</id></person>",
            "<note k=\"&quot;\">\u00e9 &amp; \u65e5</note>",
            "<x/>",
        ]),
        st.sampled_from(["/people", "//person", "//note"]),
    ),
    st.builds(RemoveOp, st.sampled_from(["/people/person[1]", "//note", "//person/*", "//x"])),
    st.builds(
        RenameOp,
        st.sampled_from(["//person", "//name", "//x"]),
        st.sampled_from(["person", "row", "x"]),
    ),
    st.builds(
        ChangeOp,
        st.sampled_from(["//name", "//id", "//x", "//person"]),
        st.sampled_from(["", "v", "<\u00e9>"]),
    ),
)
_STEPS = st.one_of(
    st.tuples(st.just("write"), _UPDATES),
    st.tuples(st.just("replicated"), _UPDATES),
    st.tuples(st.sampled_from(["commit", "abort", "read", "snapshot", "crash", "move"]), st.none()),
)


class TestDeferredRenderingDifferential:
    @given(st.lists(_STEPS, min_size=1, max_size=25))
    @settings(max_examples=example_budget(150), deadline=None)
    def test_every_persist_and_read_matches_an_eager_store(self, steps):
        """One site's DataManager under local transactions (committed and
        aborted), replicated batches, snapshot install, crash + reload and
        drop + re-install. ``model`` is an independent copy of the committed
        state; ``EagerReferenceStore`` renders the handed tree at every
        persist and checks the charged size against it."""
        store = EagerReferenceStore()
        dm = DataManager(store)
        dm.install(make_people_doc())
        model = make_people_doc()
        open_tx, open_changes = [], []  # the open transaction's updates, records

        def persisted_is_model():
            assert store.reference["d1"] == serialize_document(model)

        for kind, update in steps:
            if kind == "write":
                open_changes += dm.write("d1", update)
                open_tx.append(update)
            elif kind == "commit":
                dm.settle("d1", open_changes)
                written = dm.commit("d1")
                for done in open_tx:
                    apply_update(done, model)
                open_tx, open_changes = [], []
                persisted_is_model()
                assert written == len(store.reference["d1"].encode("utf-8"))
            elif kind == "abort":
                dm.revert("d1", open_changes)
                open_tx, open_changes = [], []
            elif kind == "read":
                store.check_reads()
                # Up to what parsing normalises: since a crash the model is
                # a parsed tree, the stored text not before the next persist.
                assert _parsed(store.reference["d1"]) == _parsed(serialize_document(model))
            elif kind == "crash":
                dm.crash()  # takes the open transaction's writes with it
                open_tx, open_changes = [], []
                store.check_reads()
                dm.reload("d1")
                model = parse_document(serialize_document(model), name="d1")
            elif open_tx:
                continue  # the remaining steps settle between transactions
            elif kind == "replicated":
                dm.apply_replicated("d1", update)
                apply_update(update, model)
                dm.commit("d1")
                persisted_is_model()
            elif kind == "snapshot":
                text = serialize_document(model)
                dm.replace(parse_document(text, name="d1"))
                model = parse_document(text, name="d1")
                persisted_is_model()
            elif kind == "move":
                dm.drop("d1")
                assert store.list_documents() == []
                dm.install(model.clone())
            assert serialize_document(dm.document("d1")) == _with(model, open_tx)
        store.check_reads()


def _tree_state(document):
    """Bytes, node ids in pre-order and tag extents of ``document``."""
    return (
        serialize_document(document),
        [n.node_id for n in document.iter()],
        {tag: set(extent) for tag, extent in document._extents.items()},
    )


def _parsed(text):
    return serialize_document(parse_document(text))


def _with(model, open_tx):
    """Serialization of ``model`` with the open transaction's writes on top."""
    copy = model.clone()
    for update in open_tx:
        apply_update(update, copy)
    return serialize_document(copy)
