"""Unit tests for the XML tree model (repro.xml.model)."""

import pytest

from repro.errors import XMLModelError
from repro.xml import Document, E, Element, doc, parse_fragment, serialize_element


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


def _walk_extents(document):
    fresh = {}
    for node in document.iter():
        fresh.setdefault(node.tag, {})[node.node_id] = node
    return fresh


def _shaped_source():
    """A document whose ids are no longer pre-order: a removal leaves a
    gap and a late insert takes the next id in the middle of the tree."""
    d = doc("d", E("a", E("b", E("c", k="1"), text="x"), E("b", E("d")), E("e")))
    d.root.remove(d.root.children[1])
    d.root.children[0].insert(0, E("f", E("g", k="2", j="3")))
    return d


class TestGraft:
    """The one tree-copy routine: ``clone``, the fragmenter, the applier's
    insert copy, write shadows and snapshots all go through it."""

    def test_clone_numbers_in_preorder_from_zero(self):
        source = _shaped_source()
        copy = source.clone()
        nodes = list(copy.iter())
        assert [n.node_id for n in nodes] == list(range(len(source)))
        assert copy._nodes == {n.node_id: n for n in nodes}
        assert copy._next_id == len(copy) == len(source)
        assert copy._extents == _walk_extents(copy)
        assert [(n.tag, n.attrib, n.text) for n in nodes] == [
            (n.tag, n.attrib, n.text) for n in source.iter()
        ]

    def test_links_and_ownership(self):
        source = _shaped_source()
        copy = source.clone()
        assert copy.root.parent is None
        for original, node in zip(source.iter(), copy.iter()):
            assert node is not original and node.document is copy
            assert node.attrib is not original.attrib  # empty dicts too
            assert node._children is not original._children
            for child in node:
                assert child.parent is node
        copy.root.children[0].children[0].attrib["k"] = "changed"
        assert source.root.children[0].children[0].attrib == {}

    def test_empty_document(self):
        copy = Document("e").clone("f")
        assert (copy.name, copy.root, len(copy), copy._next_id, copy._extents) == (
            "f", None, 0, 0, {}
        )

    def test_graft_takes_the_next_ids_in_preorder(self):
        """As attaching a copy with ``insert`` would: the copy's nodes are
        numbered from the document's next id, in pre-order."""
        target = _shaped_source()
        expected = _shaped_source()
        source = _shaped_source().root.children[0]
        copy = target.graft(source, target.root, 1)
        expected.root.insert(1, parse_fragment(serialize_element(source)))
        assert [(n.node_id, n.tag) for n in target.iter()] == [
            (n.node_id, n.tag) for n in expected.iter()
        ]
        assert target._next_id == expected._next_id
        assert target._extents == _walk_extents(target)
        assert copy.parent is target.root and target.root.children[1] is copy
        assert source.document is not target and source.parent is not None

    def test_graft_rejects_a_foreign_parent_and_a_second_root(self):
        d, other = doc("d", E("a")), doc("o", E("a"))
        with pytest.raises(XMLModelError):
            d.graft(E("x"), other.root)
        with pytest.raises(XMLModelError):
            d.graft(E("x"))

    def test_an_insert_fragment_is_copied_once_per_replica(self):
        from repro.update import InsertOp, apply_update

        source = _shaped_source()
        replicas = [source.clone(), source.clone()]
        op = InsertOp("<n k='v'><m/></n>", "/a/e")
        copies = []
        for replica in replicas:
            (change,) = apply_update(op, replica)
            copies.append(change.node)
            assert len(replica) == len(source) + 2
            assert replica._extents == _walk_extents(replica)
        first, second = copies
        assert first is not second and op.fragment not in (first, second)
        assert first.attrib is not second.attrib is not op.fragment.attrib
        assert (op.fragment.parent, op.fragment.document, op.fragment.node_id) == (
            None, None, -1
        )
        assert [(n.node_id, n.tag) for n in replicas[0].iter()] == [
            (n.node_id, n.tag) for n in replicas[1].iter()
        ]


class TestSizeBytes:
    def test_size_grows_with_content(self):
        small = doc("s", E("a"))
        big = doc("b", E("a", E("long_element_name", text="some text content here")))
        assert big.size_bytes() > small.size_bytes() > 0
