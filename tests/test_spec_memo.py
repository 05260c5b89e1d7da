"""XDGL's memoised query lock specs against a fresh computation.

:meth:`XDGLProtocol.lock_spec_for_query` memoises each query's deduplicated
:class:`LockSpec` by ``(doc_name, path.shape)`` — the path with its literals
and positions erased — stamped with the :attr:`DataGuide.version` it was
computed against. On every input the memo must hand back exactly what a fresh
``match_structure`` + ``_shared_tree_locks`` computes: the same requests in
the same order (acquisition order is schedule) and the same ``nodes_visited``
(it feeds the simulated CPU charge). The property below drives it with
queries that share a shape but differ in literals and positions, on two
documents at once, under interleaved updates, undos, drops and
re-registrations; the unit tests pin the cap, the eviction order and that a
shared spec cannot be changed by the lock manager.
"""

import random
from dataclasses import replace

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.deadlock.wfg import WaitForGraph
from repro.errors import ReproError
from repro.locking import LockManager, LockSpec
from repro.locking.table import LockTable
from repro.protocols import XDGLProtocol
from repro.protocols.xdgl import QUERY_SPEC_MEMO_MAX
from repro.update import InsertOp, InsertPosition, UndoLog, apply_update
from repro.xml import Document, parse_document
from repro.xpath import EvalStats, parse_xpath
from repro.xpath.ast import (
    Axis,
    BoolExpr,
    Comparison,
    Exists,
    Literal,
    LocationPath,
    NodeTest,
    NodeTestKind,
    PathOperand,
    Position,
    Step,
)
from repro.xpath.guide import match_structure

from .conftest import example_budget
from .test_xpath_equivalence import elements, paths, updates

# ---------------------------------------------------------------------------
# what "equivalent" means
# ---------------------------------------------------------------------------


def fresh_spec(protocol, doc_name, path):
    """The query rule computed from scratch against the current guide."""
    guide = protocol.guide(doc_name)
    stats = EvalStats()
    match = match_structure(path, guide.root, stats)
    spec = LockSpec(nodes_visited=stats.nodes_visited)
    protocol._shared_tree_locks(spec, doc_name, match.targets)
    protocol._shared_tree_locks(spec, doc_name, match.predicate_targets)
    return spec.deduplicated()


def assert_memo_is_fresh(protocol, doc_name, path):
    spec = protocol.lock_spec_for_query(doc_name, path)
    fresh = fresh_spec(protocol, doc_name, path)
    assert list(spec.requests) == list(fresh.requests), (doc_name, str(path))
    assert (spec.nodes_visited, spec.transient_ops) == (fresh.nodes_visited, fresh.transient_ops)
    return spec


LITERAL_POOL = ["x", "1", "", "nan", 2.0, 10.0]


def respell(path, rng):
    """The same path with every literal and position drawn afresh: a new
    parse of the same shape, as a workload's next query would be."""
    steps = tuple(
        replace(step, predicates=tuple(_respell_predicate(p, rng) for p in step.predicates))
        for step in path.steps
    )
    return replace(path, steps=steps)


def _respell_predicate(pred, rng):
    if isinstance(pred, Comparison):
        return Comparison(
            _respell_operand(pred.left, rng), pred.op, _respell_operand(pred.right, rng)
        )
    if isinstance(pred, Exists):
        return Exists(respell(pred.path, rng))
    if isinstance(pred, Position):
        return Position(rng.randint(1, 3))
    return BoolExpr(pred.op, tuple(_respell_predicate(p, rng) for p in pred.operands))


def _respell_operand(operand, rng):
    if isinstance(operand, Literal):
        return Literal(rng.choice(LITERAL_POOL))
    return PathOperand(respell(operand.path, rng))


# ---------------------------------------------------------------------------
# the gate
# ---------------------------------------------------------------------------

DOCS = ("d", "e")

actions = st.one_of(
    st.tuples(st.sampled_from(DOCS), updates),
    st.tuples(st.sampled_from(DOCS), updates),
    st.tuples(st.sampled_from(DOCS), updates),
    st.just("undo"),
    st.tuples(st.sampled_from(["drop", "rebuild"]), st.sampled_from(DOCS)),
)


class TestMemoEqualsFreshSpec:
    @settings(
        max_examples=example_budget(60),
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(
        st.tuples(elements(), elements()),
        st.lists(paths(), min_size=1, max_size=4),
        st.lists(actions, max_size=8),
        st.randoms(use_true_random=False),
    )
    def test_under_updates_undos_and_reregistration(self, roots, queries, steps, rng):
        documents = {name: Document(name, root) for name, root in zip(DOCS, roots)}
        protocol = XDGLProtocol()
        for document in documents.values():
            protocol.register_document(document)
        templates = [parse_xpath(q) for q in queries]
        applied: list = []  # (doc_name, undo log, changes), newest last

        def check():
            for template in templates:
                for doc_name in rng.sample(DOCS, len(DOCS)):
                    first = assert_memo_is_fresh(protocol, doc_name, template)
                    for _ in range(3):
                        variant = respell(template, rng)
                        assert variant.shape == template.shape, str(variant)
                        # Nothing changed the guide since `first`: one entry.
                        assert assert_memo_is_fresh(protocol, doc_name, variant) is first

        check()
        for step in steps:
            if step == "undo":
                if applied:
                    doc_name, undo, changes = applied.pop()
                    undo.rollback()
                    protocol.after_undo(doc_name, changes)
            elif step[0] in ("drop", "rebuild"):
                kind, doc_name = step
                if kind == "drop":
                    protocol.drop_document(doc_name)
                protocol.register_document(documents[doc_name])
            else:
                doc_name, op = step
                undo = UndoLog()
                try:
                    changes = apply_update(op, documents[doc_name], undo)
                except ReproError:
                    undo.rollback()  # e.g. removing the root: leave no partial apply
                    continue
                protocol.after_apply(doc_name, changes)
                applied.append((doc_name, undo, changes))
            check()


# ---------------------------------------------------------------------------
# the same, spelled out once per rule
# ---------------------------------------------------------------------------


def _lock_paths(spec):
    return {r.key[1] for r in spec.requests}


class TestMemoRules:
    def test_queries_of_one_shape_share_one_entry(self):
        protocol = XDGLProtocol()
        protocol.register_document(parse_document("<r><a id='1'><b/><b/></a></r>", "d"))
        first = protocol.lock_spec_for_query("d", '//a[@id="1"]/b[2]')
        again = protocol.lock_spec_for_query("d", '//a[@id="x"]/b[1]')
        assert again is first
        assert len(protocol._query_specs) == 1
        # structure is part of the shape: another step is another entry
        assert protocol.lock_spec_for_query("d", '//a[@k="1"]/b[2]') is not first
        assert len(protocol._query_specs) == 2

    def test_a_guide_change_and_its_undo_each_invalidate(self):
        protocol = XDGLProtocol()
        document = parse_document("<r><a id='1'/></r>", "d")
        protocol.register_document(document)
        assert _lock_paths(assert_memo_is_fresh(protocol, "d", "//b")) == set()

        undo = UndoLog()
        changes = apply_update(InsertOp("<b/>", "/r", InsertPosition.INTO), document, undo)
        protocol.after_apply("d", changes)
        assert ("r", "b") in _lock_paths(assert_memo_is_fresh(protocol, "d", "//b"))

        undo.rollback()
        protocol.after_undo("d", changes)
        assert _lock_paths(assert_memo_is_fresh(protocol, "d", "//b")) == set()

    def test_drop_and_register_forget_that_document_only(self):
        protocol = XDGLProtocol()
        protocol.register_document(parse_document("<r><a/></r>", "d"))
        protocol.register_document(parse_document("<r><a/></r>", "e"))
        kept = protocol.lock_spec_for_query("e", "//a")
        protocol.lock_spec_for_query("d", "//a")
        protocol.drop_document("d")
        assert [key[0] for key in protocol._query_specs] == ["e"]
        protocol.register_document(parse_document("<r><c><a/></c></r>", "d"))
        assert [key[0] for key in protocol._query_specs] == ["e"]
        assert ("r", "c", "a") in _lock_paths(assert_memo_is_fresh(protocol, "d", "//a"))
        protocol.register_document(parse_document("<r><a/></r>", "e"))  # a snapshot install
        assert [key[0] for key in protocol._query_specs] == ["d"]
        assert protocol.lock_spec_for_query("e", "//a") is not kept


def _one_step(i):
    return LocationPath(True, (Step(Axis.CHILD, NodeTest(NodeTestKind.NAME, f"t{i}")),))


class TestMemoBounds:
    def test_the_cap_holds_under_ten_times_as_many_shapes(self):
        protocol = XDGLProtocol()
        protocol.register_document(parse_document("<r/>", "d"))
        for i in range(10 * QUERY_SPEC_MEMO_MAX):
            protocol.lock_spec_for_query("d", _one_step(i))
            assert len(protocol._query_specs) <= QUERY_SPEC_MEMO_MAX
        assert len(protocol._query_specs) == QUERY_SPEC_MEMO_MAX

    def test_the_least_recently_used_entry_goes_first(self):
        protocol = XDGLProtocol()
        protocol.register_document(parse_document("<r/>", "d"))
        first = protocol.lock_spec_for_query("d", _one_step(0))
        for i in range(1, QUERY_SPEC_MEMO_MAX):
            protocol.lock_spec_for_query("d", _one_step(i))
        assert protocol.lock_spec_for_query("d", _one_step(0)) is first  # a hit renews it
        protocol.lock_spec_for_query("d", _one_step(QUERY_SPEC_MEMO_MAX))  # evicts t1
        shapes = {key[1] for key in protocol._query_specs}
        assert _one_step(0).shape in shapes
        assert _one_step(1).shape not in shapes
        assert protocol.lock_spec_for_query("d", _one_step(0)) is first

    def test_a_shared_spec_is_never_changed_by_the_lock_manager(self):
        protocol = XDGLProtocol()
        protocol.register_document(parse_document("<r><a><b/></a><a/></r>", "d"))
        spec = protocol.lock_spec_for_query("d", "//a[b]")
        assert isinstance(spec.requests, tuple)
        before = list(spec.requests)
        manager = LockManager(LockTable(protocol.matrix), WaitForGraph())
        for tx in ("t1", "t2"):
            assert manager.process_operation(tx, spec).granted
        for tx in ("t1", "t2"):
            manager.release_transaction(tx)
        assert list(spec.requests) == before
        assert protocol.lock_spec_for_query("d", "//a[b]") is spec
        with pytest.raises(AttributeError):
            spec.add(("d", ("r",)), spec.requests[0].mode)


def test_respell_keeps_the_shape_and_changes_the_text():
    path = parse_xpath('//a[@id="1" and b[2]]/c[d>3]')
    rng = random.Random(0)
    texts = {str(respell(path, rng)) for _ in range(20)}
    assert len(texts) > 1
    assert all(parse_xpath(t).shape == path.shape for t in texts)
