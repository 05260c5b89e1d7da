"""Unit tests for the update language: operations, applier, revert, parser."""

import pytest

from repro.errors import UpdateError, UpdateSyntaxError
from repro.update import (
    ChangeOp,
    InsertOp,
    InsertPosition,
    RemoveOp,
    RenameOp,
    TransposeOp,
    apply_update,
    parse_update,
    revert,
)
from repro.xml import E, doc, serialize_document


class TestInsert:
    def test_insert_into(self, products_doc):
        op = InsertOp(
            "<product><id>13</id><description>Mouse</description>"
            "<price>10.30</price></product>",
            "/products",
        )
        changes = apply_update(op, products_doc)
        assert len(changes) == 1
        assert changes[0].kind == "insert"
        assert len(products_doc.root.children) == 3
        assert products_doc.root.children[-1].child("description").text == "Mouse"

    def test_inserted_nodes_registered(self, products_doc):
        op = InsertOp("<product><id>13</id></product>", "/products")
        (change,) = apply_update(op, products_doc)
        assert change.node.document is products_doc
        assert change.node.node_id >= 0
        assert change.new_label_paths == [
            ("products", "product"),
            ("products", "product", "id"),
        ]

    def test_insert_before_and_after(self, people_doc):
        apply_update(
            InsertOp("<person><id>0</id></person>", "/people/person[1]", InsertPosition.BEFORE),
            people_doc,
        )
        apply_update(
            InsertOp("<person><id>99</id></person>", "/people/person[id=7]", InsertPosition.AFTER),
            people_doc,
        )
        ids = [p.child("id").text for p in people_doc.root.children]
        assert ids == ["0", "1", "4", "7", "99"]

    def test_insert_into_multiple_targets_clones(self, people_doc):
        op = InsertOp("<tag/>", "/people/person")
        changes = apply_update(op, people_doc)
        assert len(changes) == 3
        nodes = {id(c.node) for c in changes}
        assert len(nodes) == 3  # three distinct clones

    def test_insert_no_match_is_noop(self, people_doc):
        before = serialize_document(people_doc)
        assert apply_update(InsertOp("<x/>", "/people/ghost"), people_doc) == []
        assert serialize_document(people_doc) == before

    def test_insert_before_root_rejected(self, people_doc):
        with pytest.raises(UpdateError):
            apply_update(InsertOp("<x/>", "/people", InsertPosition.BEFORE), people_doc)

    def test_attached_fragment_rejected(self, people_doc):
        with pytest.raises(UpdateError):
            InsertOp(people_doc.root.children[0], "/people")


class TestRemove:
    def test_remove_single(self, products_doc):
        changes = apply_update(RemoveOp("/products/product[id=14]"), products_doc)
        assert len(changes) == 1
        assert len(products_doc.root.children) == 1

    def test_remove_records_old_paths(self, products_doc):
        (change,) = apply_update(RemoveOp("/products/product[id=4]"), products_doc)
        assert ("products", "product", "price") in change.old_label_paths

    def test_remove_all_matches(self, people_doc):
        changes = apply_update(RemoveOp("/people/person"), people_doc)
        assert len(changes) == 3
        assert people_doc.root.children == ()

    def test_remove_root_rejected(self, people_doc):
        with pytest.raises(UpdateError):
            apply_update(RemoveOp("/people"), people_doc)

    def test_remove_nested_targets_handles_overlap(self):
        d = doc("d", E("a", E("b", E("b"))))
        # //b selects parent and child; removing the parent detaches the child.
        changes = apply_update(RemoveOp("//b"), d)
        assert len(changes) == 1
        assert d.root.children == ()


class TestRenameChange:
    def test_rename(self, people_doc):
        changes = apply_update(RenameOp("/people/person[id=4]/name", "fullname"), people_doc)
        assert len(changes) == 1
        person = people_doc.root.children[1]
        assert person.child("fullname") is not None
        assert person.child("name") is None

    def test_rename_invalid_name_rejected(self, people_doc):
        with pytest.raises(UpdateError):
            apply_update(RenameOp("/people/person", "not a name"), people_doc)

    def test_rename_records_subtree_paths(self, people_doc):
        (change,) = apply_update(RenameOp("/people/person[id=1]", "human"), people_doc)
        assert ("people", "person", "id") in change.old_label_paths
        assert ("people", "human", "id") in change.new_label_paths

    def test_change(self, products_doc):
        apply_update(ChangeOp("/products/product[id=4]/price", "99.99"), products_doc)
        price = products_doc.root.children[0].child("price")
        assert price.text == "99.99"

    def test_change_numeric_coerced(self, products_doc):
        op = ChangeOp("/products/product[id=4]/price", 42)
        apply_update(op, products_doc)
        assert products_doc.root.children[0].child("price").text == "42"


class TestTranspose:
    def make_doc(self):
        return doc("d", E("lib", E("archive", E("item", text="x")), E("active")))

    def test_transpose_moves_subtree(self):
        d = self.make_doc()
        changes = apply_update(TransposeOp("/lib/archive/item", "/lib/active"), d)
        assert len(changes) == 1
        active = d.root.child("active")
        assert active.children[0].text == "x"
        assert d.root.child("archive").children == ()

    def test_transpose_preserves_node_identity(self):
        d = self.make_doc()
        item = d.root.child("archive").children[0]
        old_id = item.node_id
        apply_update(TransposeOp("/lib/archive/item", "/lib/active"), d)
        assert item.node_id == old_id
        assert d.node(old_id) is item

    def test_transpose_into_own_subtree_rejected(self):
        d = doc("d", E("a", E("b", E("c"))))
        with pytest.raises(UpdateError):
            apply_update(TransposeOp("/a/b", "/a/b/c"), d)

    def test_transpose_ambiguous_destination_rejected(self, people_doc):
        with pytest.raises(UpdateError):
            apply_update(TransposeOp("/people/person[1]", "/people/person"), people_doc)

    def test_transpose_root_rejected(self):
        d = self.make_doc()
        with pytest.raises(UpdateError):
            apply_update(TransposeOp("/lib", "/lib/active"), d)


def _revert_all(changes):
    """Revert ``changes`` newest first, as an abort does."""
    for change in reversed(changes):
        revert(change)


class TestUndo:
    def test_insert_undo(self, products_doc):
        before = serialize_document(products_doc)
        changes = apply_update(
            InsertOp("<product><id>13</id></product>", "/products"), products_doc
        )
        assert len(changes) == 1
        _revert_all(changes)
        assert serialize_document(products_doc) == before

    def test_remove_undo_restores_position_and_ids(self, people_doc):
        before = serialize_document(people_doc)
        target = people_doc.root.children[1]
        old_id = target.node_id
        changes = apply_update(RemoveOp("/people/person[id=4]"), people_doc)
        _revert_all(changes)
        assert serialize_document(people_doc) == before
        assert people_doc.node(old_id) is target

    def test_multi_op_rollback_order(self, products_doc):
        before = serialize_document(products_doc)
        changes = []
        for op in (
            InsertOp("<product><id>13</id></product>", "/products"),
            ChangeOp("/products/product[id=13]/id", "20"),
            RemoveOp("/products/product[id=20]"),
            RenameOp("/products/product[id=4]", "gadget"),
        ):
            changes += apply_update(op, products_doc)
        assert len(changes) == 4
        _revert_all(changes)
        assert serialize_document(products_doc) == before

    def test_rollback_last_partial(self, products_doc):
        apply_update(ChangeOp("/products/product[id=4]/price", "1"), products_doc)
        last = apply_update(ChangeOp("/products/product[id=14]/price", "2"), products_doc)
        _revert_all(last)
        assert products_doc.root.children[1].child("price").text == "35.50"
        assert products_doc.root.children[0].child("price").text == "1"

    def test_transpose_undo(self):
        d = doc("d", E("lib", E("archive", E("item", text="x"), E("item", text="y")), E("active")))
        before = serialize_document(d)
        _revert_all(apply_update(TransposeOp("/lib/archive/item[2]", "/lib/active"), d))
        assert serialize_document(d) == before

    def test_touched_documents(self, products_doc, people_doc):
        """Each record reverts in the document it was made in."""
        before = serialize_document(products_doc), serialize_document(people_doc)
        changes = apply_update(ChangeOp("/products/product[id=4]/price", "1"), products_doc)
        changes += apply_update(ChangeOp("/people/person[id=4]/name", "Z"), people_doc)
        assert [c.node.document for c in changes] == [products_doc, people_doc]
        _revert_all(changes)
        assert (serialize_document(products_doc), serialize_document(people_doc)) == before

    def test_reverting_the_reverse_redoes_the_change(self, people_doc):
        (change,) = apply_update(RemoveOp("/people/person[id=4]"), people_doc)
        after = serialize_document(people_doc)
        reverse = revert(change)
        assert (reverse.kind, reverse.byte_delta) == ("insert", -change.byte_delta)
        redo = revert(reverse)
        assert serialize_document(people_doc) == after
        assert (redo.kind, redo.byte_delta, redo.node) == ("remove", change.byte_delta, change.node)
        assert (redo.old_parent, redo.old_index) == (change.old_parent, change.old_index)

    def test_an_operation_refused_part_way_leaves_nothing_behind(self):
        # //item selects both items; the first moves, then the second is
        # refused (the destination lies inside it): the first moves back.
        d = doc("d", E("lib", E("item", text="x"), E("item", E("box")), E("shelf")))
        before = serialize_document(d)
        with pytest.raises(UpdateError):
            apply_update(TransposeOp("//item", "/lib/item[2]/box"), d)
        assert serialize_document(d) == before


class TestUpdateLanguage:
    def test_parse_insert_into(self):
        op = parse_update('INSERT <product><id>13</id></product> INTO /products')
        assert isinstance(op, InsertOp)
        assert op.position is InsertPosition.INTO
        assert op.fragment.tag == "product"
        assert str(op.target) == "/products"

    def test_parse_insert_before_after(self):
        assert parse_update("INSERT <x/> BEFORE /a/b").position is InsertPosition.BEFORE
        assert parse_update("INSERT <x/> AFTER /a/b").position is InsertPosition.AFTER

    def test_parse_remove(self):
        op = parse_update("REMOVE /products/product[id=14]")
        assert isinstance(op, RemoveOp)

    def test_parse_rename(self):
        op = parse_update("RENAME /a/b TO c")
        assert isinstance(op, RenameOp)
        assert op.new_name == "c"

    def test_parse_change_quoted_and_bare(self):
        op = parse_update('CHANGE /a/b TO "hello world"')
        assert isinstance(op, ChangeOp)
        assert op.new_value == "hello world"
        assert parse_update("CHANGE /a/b TO 42").new_value == "42"

    def test_parse_transpose(self):
        op = parse_update("TRANSPOSE /a/b INTO /a/c")
        assert isinstance(op, TransposeOp)

    def test_keywords_case_insensitive(self):
        assert isinstance(parse_update("remove /a"), RemoveOp)
        assert isinstance(parse_update("insert <x/> into /a"), InsertOp)

    def test_roundtrip_str(self):
        stmts = [
            "REMOVE /products/product[id=14]",
            "RENAME /a/b TO c",
            'CHANGE /a/b TO "v"',
            "TRANSPOSE /a/b INTO /a/c",
        ]
        for s in stmts:
            assert str(parse_update(s)) == s

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "FROB /a",
            "INSERT <x/>",
            "INSERT <x/> NEXTTO /a",
            "INSERT notxml INTO /a",
            "RENAME /a",
            "RENAME TO c",
            "CHANGE /a/b",
            "TRANSPOSE /a",
            "REMOVE",
        ],
    )
    def test_syntax_errors(self, bad):
        with pytest.raises(UpdateSyntaxError):
            parse_update(bad)
