"""Unit tests for the strong DataGuide and its incremental maintenance."""

import pytest

from repro.dataguide import DataGuide
from repro.errors import ReproError
from repro.update import (
    ChangeOp,
    InsertOp,
    RemoveOp,
    RenameOp,
    TransposeOp,
    apply_update,
    revert,
)
from repro.workload import generate_xmark
from repro.xml import E, doc


class TestBuild:
    def test_build_people(self, people_doc):
        guide = DataGuide.build(people_doc)
        assert guide.paths() == [
            ("people",),
            ("people", "person"),
            ("people", "person", "id"),
            ("people", "person", "name"),
        ]

    def test_target_sets(self, people_doc):
        guide = DataGuide.build(people_doc)
        person = guide.node_for_path(("people", "person"))
        assert len(person.targets) == 3
        assert guide.node_for_path(("people",)).targets == {people_doc.root.node_id}

    def test_guide_much_smaller_than_document(self, catalog_doc):
        guide = DataGuide.build(catalog_doc)
        assert guide.node_count() < len(catalog_doc)
        # The whole point of XDGL: on XMark data the guide is a small
        # fraction of the document it summarises.
        xmark, _ = generate_xmark(60_000)
        assert DataGuide.build(xmark).node_count() < len(xmark) / 10

    def test_empty_document(self):
        from repro.xml.model import Document

        guide = DataGuide.build(Document("empty"))
        assert guide.root is None
        assert guide.node_count() == 0

    def test_node_for_element(self, people_doc):
        guide = DataGuide.build(people_doc)
        el = people_doc.root.children[0].child("name")
        node = guide.node_for_element(el)
        assert node.label_path() == ("people", "person", "name")

    def test_ancestors(self, people_doc):
        guide = DataGuide.build(people_doc)
        leaf = guide.node_for_path(("people", "person", "id"))
        assert [n.tag for n in leaf.ancestors()] == ["person", "people"]

    def test_validate_against_passes(self, catalog_doc):
        DataGuide.build(catalog_doc).validate_against(catalog_doc)

    def test_validate_detects_desync(self, people_doc):
        guide = DataGuide.build(people_doc)
        apply_update(RemoveOp("/people/person[id=4]"), people_doc)  # guide not synced
        with pytest.raises(ReproError):
            guide.validate_against(people_doc)


class TestIncrementalMaintenance:
    def _synced(self, document):
        guide = DataGuide.build(document)
        return guide

    def test_insert_new_path(self, products_doc):
        guide = self._synced(products_doc)
        changes = apply_update(
            InsertOp("<product><id>13</id><stock>5</stock></product>", "/products"),
            products_doc,
        )
        for c in changes:
            guide.apply_change(c)
        assert ("products", "product", "stock") in guide
        guide.validate_against(products_doc)

    def test_insert_existing_path_grows_targets(self, people_doc):
        guide = self._synced(people_doc)
        n_before = guide.node_count()
        changes = apply_update(
            InsertOp("<person><id>9</id><name>Rui</name></person>", "/people"), people_doc
        )
        for c in changes:
            guide.apply_change(c)
        assert guide.node_count() == n_before  # same label paths, just more targets
        assert len(guide.node_for_path(("people", "person")).targets) == 4
        guide.validate_against(people_doc)

    def test_remove_prunes_unique_path(self, products_doc):
        guide = self._synced(products_doc)
        changes = apply_update(RemoveOp("/products/product"), products_doc)
        for c in changes:
            guide.apply_change(c)
        assert guide.paths() == [("products",)]
        guide.validate_against(products_doc)

    def test_remove_keeps_shared_path(self, people_doc):
        guide = self._synced(people_doc)
        changes = apply_update(RemoveOp("/people/person[id=4]"), people_doc)
        for c in changes:
            guide.apply_change(c)
        assert ("people", "person", "name") in guide
        guide.validate_against(people_doc)

    def test_rename_moves_subtree_paths(self, people_doc):
        guide = self._synced(people_doc)
        changes = apply_update(RenameOp("/people/person[id=1]", "vip"), people_doc)
        for c in changes:
            guide.apply_change(c)
        assert ("people", "vip", "id") in guide
        assert ("people", "person", "id") in guide  # two persons remain
        guide.validate_against(people_doc)

    def test_change_is_structural_noop(self, people_doc):
        guide = self._synced(people_doc)
        changes = apply_update(ChangeOp("/people/person[id=1]/name", "X"), people_doc)
        for c in changes:
            guide.apply_change(c)
        guide.validate_against(people_doc)

    def test_transpose_updates_paths(self):
        d = doc("d", E("lib", E("archive", E("item", E("tag"))), E("active")))
        guide = DataGuide.build(d)
        changes = apply_update(TransposeOp("/lib/archive/item", "/lib/active"), d)
        for c in changes:
            guide.apply_change(c)
        assert ("lib", "active", "item", "tag") in guide
        assert ("lib", "archive", "item") not in guide
        guide.validate_against(d)

    def test_transpose_of_nested_sources_and_its_undo(self):
        # //b selects b1 and the b2 inside it: b1 moves with b2, then b2 moves
        # out of b1, so b1's record no longer describes b1's live subtree.
        d = doc("d", E("r", E("a", E("b", E("b", E("c")))), E("x")))
        guide = DataGuide.build(d)
        changes = apply_update(TransposeOp("//b", "/r/x"), d)
        assert len(changes) == 2
        for c in changes:
            guide.apply_change(c)
        guide.validate_against(d)
        assert ("r", "x", "b", "c") in guide and ("r", "a", "b") not in guide
        for c in reversed(changes):
            guide.apply_change(revert(c))
        guide.validate_against(d)

    def test_undo_change_restores_guide(self, products_doc):
        guide = self._synced(products_doc)
        changes = apply_update(
            InsertOp("<product><id>13</id><stock>5</stock></product>", "/products"),
            products_doc,
        )
        for c in changes:
            guide.apply_change(c)
        for c in reversed(changes):
            guide.apply_change(revert(c))
        assert ("products", "product", "stock") not in guide
        guide.validate_against(products_doc)

    def test_undo_remove_restores_guide(self, people_doc):
        guide = self._synced(people_doc)
        changes = apply_update(RemoveOp("/people/person"), people_doc)
        for c in changes:
            guide.apply_change(c)
        assert guide.paths() == [("people",)]
        for c in reversed(changes):
            guide.apply_change(revert(c))
        guide.validate_against(people_doc)

    def test_root_mismatch_rejected(self, people_doc, products_doc):
        guide = DataGuide.build(people_doc)
        with pytest.raises(ReproError):
            guide._add_path(products_doc.root.label_path(), products_doc.root.node_id)

    def test_remove_unknown_path_rejected(self, people_doc):
        guide = DataGuide.build(people_doc)
        from repro.dataguide.guide import DataGuide as DG

        with pytest.raises(ReproError):
            guide._remove_path(("people", "ghost"), 1)


class TestPretty:
    def test_pretty_output(self, people_doc):
        guide = DataGuide.build(people_doc)
        out = guide.pretty()
        assert "people [1]" in out
        assert "  person [3]" in out

    def test_pretty_empty(self):
        assert DataGuide("x").pretty() == "(empty guide)"
