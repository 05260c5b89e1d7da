"""Unit tests for the XDGL, Node2PL and DocLock2PL lock rules."""

import pytest

from repro.locking import DocLockMode, LockMode, TreeLockMode
from repro.protocols import (
    DocLock2PLProtocol,
    Node2PLProtocol,
    XDGLProtocol,
    available_protocols,
    make_protocol,
    register_protocol,
)
from repro.update import ChangeOp, InsertOp, InsertPosition, RemoveOp, RenameOp, TransposeOp, apply_update


def modes_for(spec, key):
    return {r.mode for r in spec.requests if r.key == key}


class TestXDGLQueryLocks:
    def setup_method(self):
        self.proto = XDGLProtocol()

    def test_query_st_on_target_is_on_ancestors(self, products_doc):
        self.proto.register_document(products_doc)
        spec = self.proto.lock_spec_for_query("d2", "/products/product")
        assert modes_for(spec, ("d2", ("products", "product"))) == {LockMode.ST}
        assert modes_for(spec, ("d2", ("products",))) == {LockMode.IS}

    def test_query_predicate_nodes_locked_shared(self, products_doc):
        self.proto.register_document(products_doc)
        spec = self.proto.lock_spec_for_query("d2", "/products/product[id=4]")
        assert LockMode.ST in modes_for(spec, ("d2", ("products", "product", "id")))

    def test_query_lock_count_tracks_guide_not_data(self, products_doc, people_doc):
        # Guide-granular: number of locks is independent of how many
        # documents nodes match.
        self.proto.register_document(products_doc)
        spec1 = self.proto.lock_spec_for_query("d2", "/products/product")
        for _ in range(20):
            apply_update(InsertOp("<product><id>99</id></product>", "/products"), products_doc)
        self.proto.register_document(products_doc)  # rebuild
        spec2 = self.proto.lock_spec_for_query("d2", "/products/product")
        assert len(spec1) == len(spec2)

    def test_unregistered_document_raises(self):
        from repro.errors import StorageError

        with pytest.raises(StorageError):
            self.proto.lock_spec_for_query("ghost", "/a")

    def test_query_no_structural_match_locks_nothing(self, products_doc):
        self.proto.register_document(products_doc)
        spec = self.proto.lock_spec_for_query("d2", "/products/ghost")
        assert len(spec) == 0


class TestXDGLUpdateLocks:
    def setup_method(self):
        self.proto = XDGLProtocol()

    def test_insert_into_locks(self, products_doc):
        # Paper §2: X on inserted node, IX ancestors; SI on connecting node,
        # IS on its ancestors.
        self.proto.register_document(products_doc)
        op = InsertOp("<product><id>13</id></product>", "/products")
        spec = self.proto.lock_spec_for_update("d2", op)
        assert LockMode.SI in modes_for(spec, ("d2", ("products",)))
        assert LockMode.X in modes_for(spec, ("d2", ("products", "product")))
        assert LockMode.IX in modes_for(spec, ("d2", ("products",)))

    def test_insert_before_takes_sb(self, people_doc):
        self.proto.register_document(people_doc)
        op = InsertOp("<person/>", "/people/person", InsertPosition.BEFORE)
        spec = self.proto.lock_spec_for_update("d1", op)
        assert LockMode.SB in modes_for(spec, ("d1", ("people", "person")))
        assert LockMode.SI in modes_for(spec, ("d1", ("people",)))

    def test_insert_after_takes_sa(self, people_doc):
        self.proto.register_document(people_doc)
        op = InsertOp("<person/>", "/people/person", InsertPosition.AFTER)
        spec = self.proto.lock_spec_for_update("d1", op)
        assert LockMode.SA in modes_for(spec, ("d1", ("people", "person")))

    def test_remove_locks(self, products_doc):
        self.proto.register_document(products_doc)
        spec = self.proto.lock_spec_for_update("d2", RemoveOp("/products/product[id=4]"))
        assert LockMode.XT in modes_for(spec, ("d2", ("products", "product")))
        assert LockMode.IX in modes_for(spec, ("d2", ("products",)))
        # Predicate path id gets a shared-tree lock.
        assert LockMode.ST in modes_for(spec, ("d2", ("products", "product", "id")))

    def test_change_locks(self, products_doc):
        self.proto.register_document(products_doc)
        spec = self.proto.lock_spec_for_update(
            "d2", ChangeOp("/products/product/price", "1.0")
        )
        assert LockMode.X in modes_for(spec, ("d2", ("products", "product", "price")))
        assert LockMode.IX in modes_for(spec, ("d2", ("products", "product")))

    def test_rename_locks_old_and_new_paths(self, people_doc):
        self.proto.register_document(people_doc)
        spec = self.proto.lock_spec_for_update("d1", RenameOp("/people/person", "human"))
        assert LockMode.XT in modes_for(spec, ("d1", ("people", "person")))
        assert LockMode.X in modes_for(spec, ("d1", ("people", "human")))

    def test_transpose_locks(self):
        from repro.xml import E, doc

        d = doc("d", E("lib", E("archive", E("item")), E("active")))
        self.proto.register_document(d)
        spec = self.proto.lock_spec_for_update(
            "d", TransposeOp("/lib/archive/item", "/lib/active")
        )
        assert LockMode.XT in modes_for(spec, ("d", ("lib", "archive", "item")))
        assert LockMode.SI in modes_for(spec, ("d", ("lib", "active")))
        assert LockMode.X in modes_for(spec, ("d", ("lib", "active", "item")))

    def test_after_apply_keeps_guide_synced(self, products_doc):
        self.proto.register_document(products_doc)
        op = InsertOp("<product><id>13</id><stock>2</stock></product>", "/products")
        changes = apply_update(op, products_doc)
        self.proto.after_apply("d2", changes)
        self.proto.guide("d2").validate_against(products_doc)

    def test_after_undo_restores_guide(self, products_doc):
        from repro.update import revert

        self.proto.register_document(products_doc)
        op = InsertOp("<product><stock>2</stock></product>", "/products")
        changes = apply_update(op, products_doc)
        self.proto.after_apply("d2", changes)
        self.proto.after_apply("d2", [revert(c) for c in reversed(changes)])
        self.proto.guide("d2").validate_against(products_doc)

    def test_structure_size_is_guide_size(self, products_doc):
        self.proto.register_document(products_doc)
        # products, products/product, and the three leaf paths
        assert self.proto.structure_node_count("d2") == 5


class TestNode2PL:
    def setup_method(self):
        self.proto = Node2PLProtocol()

    def test_query_locks_answer_subtrees_and_charges_navigation(self, products_doc):
        self.proto.register_document(products_doc)
        spec = self.proto.lock_spec_for_query("d2", "/products/product[id=4]")
        s_keys = {r.key[1] for r in spec.requests if r.mode is TreeLockMode.S}
        matching = products_doc.root.children[0]
        other = products_doc.root.children[1]
        # Answer subtree held to end of transaction...
        assert matching.node_id in s_keys
        assert matching.child("price").node_id in s_keys
        # ...nodes merely scanned past are only charged as transient work.
        assert other.node_id not in s_keys
        assert spec.transient_ops > 0
        is_locks = [r for r in spec.requests if r.mode is TreeLockMode.IS]
        assert len(is_locks) == 1  # products root

    def test_node2pl_lock_count_grows_with_data(self, products_doc):
        self.proto.register_document(products_doc)
        spec1 = self.proto.lock_spec_for_query("d2", "/products/product")
        for _ in range(10):
            apply_update(InsertOp("<product><id>9</id></product>", "/products"), products_doc)
        spec2 = self.proto.lock_spec_for_query("d2", "/products/product")
        assert len(spec2) > len(spec1)  # the contrast with XDGL

    def test_insert_locks_connecting_node_exclusively(self, products_doc):
        self.proto.register_document(products_doc)
        op = InsertOp("<product/>", "/products")
        spec = self.proto.lock_spec_for_update("d2", op)
        root_id = products_doc.root.node_id
        # S from navigating to /products, X as the connecting node.
        assert TreeLockMode.X in modes_for(spec, ("d2", root_id))

    def test_remove_locks_subtree_exclusively(self, products_doc):
        self.proto.register_document(products_doc)
        spec = self.proto.lock_spec_for_update("d2", RemoveOp("/products/product[id=4]"))
        x_locks = [r for r in spec.requests if r.mode is TreeLockMode.X]
        assert len(x_locks) == 4

    def test_change_locks_single_node(self, products_doc):
        self.proto.register_document(products_doc)
        spec = self.proto.lock_spec_for_update(
            "d2", ChangeOp("/products/product[id=4]/price", "9")
        )
        x_locks = [r for r in spec.requests if r.mode is TreeLockMode.X]
        assert len(x_locks) == 1

    def test_transpose_locks_source_and_destination(self):
        from repro.xml import E, doc

        d = doc("d", E("lib", E("archive", E("item", E("t"))), E("active")))
        self.proto.register_document(d)
        spec = self.proto.lock_spec_for_update(
            "d", TransposeOp("/lib/archive/item", "/lib/active")
        )
        x_keys = {r.key for r in spec.requests if r.mode is TreeLockMode.X}
        active_id = d.root.child("active").node_id
        item_id = d.root.child("archive").children[0].node_id
        assert ("d", active_id) in x_keys
        assert ("d", item_id) in x_keys


class TestDocLock2PL:
    def test_query_takes_one_shared_lock(self, products_doc):
        proto = DocLock2PLProtocol()
        proto.register_document(products_doc)
        spec = proto.lock_spec_for_query("d2", "/products/product")
        assert len(spec) == 1
        assert spec.requests[0].mode is DocLockMode.S

    def test_update_takes_one_exclusive_lock(self, products_doc):
        proto = DocLock2PLProtocol()
        spec = proto.lock_spec_for_update("d2", RemoveOp("/products/product"))
        assert len(spec) == 1
        assert spec.requests[0].mode is DocLockMode.X


class TestRegistry:
    def test_builtins_available(self):
        assert {"xdgl", "node2pl", "doclock2pl"} <= set(available_protocols())

    def test_make_protocol(self):
        assert isinstance(make_protocol("xdgl"), XDGLProtocol)
        assert isinstance(make_protocol("node2pl"), Node2PLProtocol)

    def test_unknown_protocol(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            make_protocol("nope")

    def test_register_custom(self):
        class Custom(DocLock2PLProtocol):
            name = "custom-test"

        register_protocol("custom-test", Custom)
        assert isinstance(make_protocol("custom-test"), Custom)
