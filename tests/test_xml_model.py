"""Unit tests for the XML tree model (repro.xml.model)."""

import pytest

from repro.errors import XMLModelError
from repro.xml import Document, E, Element, doc


class TestElementConstruction:
    def test_basic_element(self):
        e = Element("person", {"id": "4"}, text="hello")
        assert e.tag == "person"
        assert e.attrib == {"id": "4"}
        assert e.text == "hello"
        assert e.parent is None
        assert e.node_id == -1

    def test_invalid_tag_rejected(self):
        with pytest.raises(XMLModelError):
            Element("")
        with pytest.raises(XMLModelError):
            Element("1bad")
        with pytest.raises(XMLModelError):
            Element("has space")
        # Validation is memoised per name: the verdict must not change on
        # the second ask, for bad and good names alike.
        with pytest.raises(XMLModelError):
            Element("has space")
        assert Element("ok-name").tag == Element("ok-name").tag == "ok-name"

    def test_clone_copies_attributes(self):
        d = doc("d", E("a", E("b", id="1")))
        copy = d.clone()
        copy.root.children[0].attrib["id"] = "2"
        assert d.root.children[0].attrib == {"id": "1"}

    def test_builder_coerces_attribute_values(self):
        e = E("product", id=13)
        assert e.attrib["id"] == "13"


class TestTreeStructure:
    def test_append_sets_parent(self):
        parent = E("a")
        child = parent.append(E("b"))
        assert child.parent is parent
        assert parent.children == (child,)

    def test_insert_positions(self):
        parent = E("a", E("x"), E("z"))
        y = Element("y")
        parent.insert(1, y)
        assert [c.tag for c in parent.children] == ["x", "y", "z"]

    def test_insert_index_clamped(self):
        parent = E("a", E("x"))
        parent.insert(99, Element("y"))
        parent.insert(-5, Element("w"))
        assert [c.tag for c in parent.children] == ["w", "x", "y"]

    def test_cannot_append_attached_node(self):
        parent = E("a", E("b"))
        other = E("c")
        with pytest.raises(XMLModelError):
            other.append(parent.children[0])

    def test_cycle_rejected(self):
        a = E("a")
        b = a.append(E("b"))
        with pytest.raises(XMLModelError):
            b.append(a)
        with pytest.raises(XMLModelError):
            a.append(a)

    def test_remove_detaches(self):
        parent = E("a", E("b"))
        child = parent.children[0]
        parent.remove(child)
        assert child.parent is None
        assert parent.children == ()

    def test_remove_non_child_raises(self):
        with pytest.raises(XMLModelError):
            E("a").remove(E("b"))

    def test_detach_is_idempotent_for_roots(self):
        e = E("a")
        assert e.detach() is e

    def test_child_index(self):
        parent = E("a", E("x"), E("y"))
        assert parent.child_index(parent.children[1]) == 1


class TestNavigation:
    def test_ancestors(self):
        a = E("a")
        b = a.append(E("b"))
        c = b.append(E("c"))
        assert [n.tag for n in c.ancestors()] == ["b", "a"]

    def test_label_path(self):
        a = E("a")
        b = a.append(E("b"))
        c = b.append(E("c"))
        assert c.label_path() == ("a", "b", "c")
        assert a.label_path() == ("a",)

    def test_iter_subtree_preorder(self):
        t = E("a", E("b", E("c")), E("d"))
        assert [n.tag for n in t.iter_subtree()] == ["a", "b", "c", "d"]

    def test_descendants_excludes_self(self):
        t = E("a", E("b"))
        assert [n.tag for n in t.descendants()] == ["b"]

    def test_depth_and_size(self):
        t = E("a", E("b", E("c")))
        c = t.children[0].children[0]
        assert c.depth == 2
        assert t.depth == 0
        assert t.subtree_size() == 3

    def test_find_children_and_child(self):
        t = E("a", E("x", text="1"), E("y"), E("x", text="2"))
        assert len(t.find_children("x")) == 2
        assert t.child("x").text == "1"
        assert t.child("missing") is None


class TestTypedValue:
    def test_numeric(self):
        assert E("p", text="10.30").typed_value() == pytest.approx(10.30)

    def test_string(self):
        assert E("p", text="Mouse").typed_value() == "Mouse"

    def test_none(self):
        assert E("p").typed_value() is None


class TestDocumentRegistry:
    def test_ids_assigned_in_preorder(self):
        d = doc("d", E("a", E("b"), E("c")))
        ids = [n.node_id for n in d.iter()]
        assert ids == [0, 1, 2]

    def test_node_lookup(self):
        d = doc("d", E("a", E("b")))
        b = d.root.children[0]
        assert d.node(b.node_id) is b
        assert b in d

    def test_lookup_of_dead_id_raises(self):
        d = doc("d", E("a", E("b")))
        b = d.root.children[0]
        d.root.remove(b)
        with pytest.raises(XMLModelError):
            d.node(b.node_id)
        assert not d.has_node(b.node_id)

    def test_ids_not_reused_after_removal(self):
        d = doc("d", E("a", E("b")))
        b = d.root.children[0]
        old_id = b.node_id
        d.root.remove(b)
        fresh = d.root.append(E("c"))
        assert fresh.node_id > old_id

    def test_reattach_registers_subtree(self):
        d = doc("d", E("a"))
        sub = E("s", E("t"))
        d.root.append(sub)
        assert sub.document is d
        assert sub.children[0].document is d
        assert d.node(sub.children[0].node_id) is sub.children[0]

    def test_cross_document_move_rejected(self):
        d1 = doc("d1", E("a", E("b")))
        d2 = doc("d2", E("x"))
        b = d1.root.children[0]
        d1.root.remove(b)
        d2.root.append(b)  # detached nodes may migrate
        assert b.document is d2

    def test_attached_node_cannot_join_other_document(self):
        d1 = doc("d1", E("a", E("b")))
        d2 = doc("d2", E("x"))
        with pytest.raises(XMLModelError):
            d2.root.append(d1.root.children[0])

    def test_two_roots_rejected(self):
        d = doc("d", E("a"))
        with pytest.raises(XMLModelError):
            d.set_root(E("b"))

    def test_empty_document_name_rejected(self):
        with pytest.raises(XMLModelError):
            Document("")

    def test_len_counts_live_nodes(self):
        d = doc("d", E("a", E("b", E("c"))))
        assert len(d) == 3
        d.root.remove(d.root.children[0])
        assert len(d) == 1


class TestClone:
    def test_clone_is_deep_and_independent(self):
        d = doc("d", E("a", E("b", text="x", k="v")))
        c = d.clone()
        assert c.name == "d"
        assert c.root is not d.root
        assert c.root.children[0].text == "x"
        assert c.root.children[0].attrib == {"k": "v"}
        c.root.children[0].text = "changed"
        assert d.root.children[0].text == "x"

    def test_clone_rename(self):
        d = doc("d", E("a"))
        assert d.clone("copy").name == "copy"

    def test_clone_assigns_fresh_registry(self):
        d = doc("d", E("a", E("b")))
        c = d.clone()
        assert len(c) == 2
        assert c.node(c.root.node_id) is c.root


class TestSizeBytes:
    def test_size_grows_with_content(self):
        small = doc("s", E("a"))
        big = doc("b", E("a", E("long_element_name", text="some text content here")))
        assert big.size_bytes() > small.size_bytes() > 0
