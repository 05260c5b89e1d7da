"""XDGL's memoised lock specs against a fresh computation.

:class:`XDGLProtocol` memoises each deduplicated :class:`LockSpec` under
``(doc_name, op_key)`` — a query's ``path.shape`` (the path with its literals
and positions erased), or for an update exactly what its rule reads — stamped
with the :attr:`DataGuide.version` it was computed against. On every input the
memo must hand back exactly what a fresh computation gives: the same requests
in the same order (acquisition order is schedule) and the same
``nodes_visited`` (it feeds the simulated CPU charge). The properties below
drive it with queries and updates that share a key but differ in literals,
positions, new values and fragment contents, and with updates whose keys
differ in one part, on two documents at once, under interleaved updates,
undos, drops and re-registrations. A third property pins the version law the
stamps rely on: the version moves exactly when a guide node is created or
pruned. A fourth pins the query key itself: two paths, parsed or built by
hand, share a ``shape`` exactly when they are equal with their literals and
positions erased (the erasure is kept here as the oracle). The unit tests
pin the key, the cap, the eviction order and that a shared spec cannot be
changed by the lock manager.
"""

import random
from dataclasses import replace

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.deadlock.wfg import WaitForGraph
from repro.errors import ReproError
from repro.locking import LockManager
from repro.locking.table import LockTable
from repro.protocols import XDGLProtocol
from repro.protocols.xdgl import SPEC_MEMO_MAX, _update_key
from repro.update import (
    ChangeOp,
    InsertOp,
    InsertPosition,
    RemoveOp,
    RenameOp,
    TransposeOp,
    apply_update,
    revert,
)
from repro.xml import Document, Element, parse_document, serialize_element
from repro.xpath import parse_xpath
from repro.xpath.ast import (
    Axis,
    BoolExpr,
    CompareOp,
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

from .conftest import example_budget
from .test_xpath_equivalence import TAGS, VALUES, elements, paths, updates

# ---------------------------------------------------------------------------
# what "equivalent" means
# ---------------------------------------------------------------------------


def fresh_spec(protocol, doc_name, path):
    """The query rule computed from scratch against the current guide."""
    if isinstance(path, str):
        path = parse_xpath(path)
    return protocol._compute_query_spec(doc_name, path)


def _assert_same(spec, fresh, label):
    assert list(spec.requests) == list(fresh.requests), label
    assert (spec.nodes_visited, spec.transient_ops) == (fresh.nodes_visited, fresh.transient_ops)


def assert_memo_is_fresh(protocol, doc_name, path):
    spec = protocol.lock_spec_for_query(doc_name, path)
    _assert_same(spec, fresh_spec(protocol, doc_name, path), (doc_name, str(path)))
    return spec


def assert_update_memo_is_fresh(protocol, doc_name, op):
    spec = protocol.lock_spec_for_update(doc_name, op)
    _assert_same(spec, protocol._compute_update_spec(doc_name, op), (doc_name, str(op)))
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


def _fragment(tag, rng):
    """A fragment rooted at ``tag`` with everything below the tag drawn afresh."""
    attrib = {"id": rng.choice(VALUES)} if rng.random() < 0.5 else None
    root = Element(tag, attrib, rng.choice([None, *VALUES]))
    for _ in range(rng.randint(0, 2)):
        root.append(Element(rng.choice(TAGS)))
    return serialize_element(root)


def respell_update(op, rng):
    """An update with the same key as ``op``: paths respelled, a new value and
    a fragment's content below its root tag drawn afresh."""
    if isinstance(op, InsertOp):
        return InsertOp(_fragment(op.fragment.tag, rng), respell(op.target, rng), op.position)
    if isinstance(op, RemoveOp):
        return RemoveOp(respell(op.target, rng))
    if isinstance(op, RenameOp):
        return RenameOp(respell(op.target, rng), op.new_name)
    if isinstance(op, ChangeOp):
        return ChangeOp(respell(op.target, rng), rng.choice(VALUES))
    return TransposeOp(respell(op.source, rng), respell(op.destination, rng))


def neighbours(op):
    """Updates whose keys differ from ``op``'s in exactly one part that is
    not a path: an inserted fragment's tag, an insert position, a new name."""
    if isinstance(op, InsertOp):
        for tag in TAGS:
            if tag != op.fragment.tag:
                yield InsertOp(f"<{tag}/>", op.target, op.position)
        for position in InsertPosition:
            if position is not op.position:
                yield InsertOp(serialize_element(op.fragment), op.target, position)
    elif isinstance(op, RenameOp):
        for tag in TAGS:
            if tag != op.new_name:
                yield RenameOp(op.target, tag)


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

GATE = settings(
    max_examples=example_budget(60),
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def drive(roots, steps, check):
    """Register two documents, then run ``steps`` — updates, undos, drops and
    re-registrations — calling ``check(protocol)`` before and after each."""
    documents = {name: Document(name, root) for name, root in zip(DOCS, roots)}
    protocol = XDGLProtocol()
    for document in documents.values():
        protocol.register_document(document)
    applied: list = []  # (doc_name, changes), newest last
    check(protocol)
    for step in steps:
        if step == "undo":
            if applied:
                doc_name, changes = applied.pop()
                protocol.after_apply(doc_name, [revert(c) for c in reversed(changes)])
        elif step[0] in ("drop", "rebuild"):
            kind, doc_name = step
            if kind == "drop":
                protocol.drop_document(doc_name)
            protocol.register_document(documents[doc_name])
        else:
            doc_name, op = step
            try:
                changes = apply_update(op, documents[doc_name])
            except ReproError:
                continue  # e.g. removing the root: the applier unwinds itself
            protocol.after_apply(doc_name, changes)
            applied.append((doc_name, changes))
        check(protocol)


class TestMemoEqualsFreshSpec:
    @GATE
    @given(
        st.tuples(elements(), elements()),
        st.lists(paths(), min_size=1, max_size=4),
        st.lists(actions, max_size=8),
        st.randoms(use_true_random=False),
    )
    def test_under_updates_undos_and_reregistration(self, roots, queries, steps, rng):
        templates = [parse_xpath(q) for q in queries]

        def check(protocol):
            for template in templates:
                for doc_name in rng.sample(DOCS, len(DOCS)):
                    first = assert_memo_is_fresh(protocol, doc_name, template)
                    for _ in range(3):
                        variant = respell(template, rng)
                        assert variant.shape == template.shape, str(variant)
                        # Nothing changed the guide since `first`: one entry.
                        assert assert_memo_is_fresh(protocol, doc_name, variant) is first

        drive(roots, steps, check)


class TestUpdateMemoEqualsFreshSpec:
    @GATE
    @given(
        st.tuples(elements(), elements()),
        st.lists(updates, min_size=1, max_size=4),
        st.lists(actions, max_size=8),
        st.randoms(use_true_random=False),
    )
    def test_under_updates_undos_and_reregistration(self, roots, templates, steps, rng):
        def check(protocol):
            for template in templates:
                for doc_name in rng.sample(DOCS, len(DOCS)):
                    first = assert_update_memo_is_fresh(protocol, doc_name, template)
                    for _ in range(3):
                        variant = respell_update(template, rng)
                        assert _update_key(variant) == _update_key(template), str(variant)
                        # Nothing changed the guide since `first`: one entry.
                        assert assert_update_memo_is_fresh(protocol, doc_name, variant) is first
                    for other in neighbours(template):
                        assert_update_memo_is_fresh(protocol, doc_name, other)

        drive(roots, steps, check)


# ---------------------------------------------------------------------------
# the version law the stamps rely on
# ---------------------------------------------------------------------------


def _guide_nodes(guide):
    """The guide in pre-order, which encodes child order: (node, label path)."""
    if guide.root is None:
        return []
    return [(node, node.label_path()) for node in guide.root.iter_subtree()]


def _same_nodes(before, after):
    return len(before) == len(after) and all(
        a is b and pa == pb for (a, pa), (b, pb) in zip(before, after)
    )


class TestStructuralVersion:
    @GATE
    @given(elements(), st.lists(st.one_of(updates, updates, st.just("undo")), max_size=10))
    def test_the_version_moves_exactly_when_a_guide_node_comes_or_goes(self, root, steps):
        """Synced one change record at a time, as ``after_apply`` does
        (an undo syncs the reverse records): the version is unchanged exactly when the guide's
        pre-order list of label paths is unchanged *node for node*. Nodes are
        compared by identity because a record may prune a label path and
        re-create it (a rename to the tag a node already has): the re-created
        node is new, moves to the end of its parent's children and bumps the
        version, even when the list of label paths reads the same."""
        document = Document("d", root)
        protocol = XDGLProtocol()
        protocol.register_document(document)
        guide = protocol.guide("d")
        applied: list = []  # changes of each operation, newest last

        def sync(sync_one, records):
            for change in records:
                before, version = _guide_nodes(guide), guide.version
                sync_one(change)
                after = _guide_nodes(guide)
                assert (guide.version == version) == _same_nodes(before, after), change.kind
                if guide.version == version:
                    assert [p for _, p in before] == [p for _, p in after]

        for step in steps:
            if step == "undo":
                if applied:
                    changes = applied.pop()
                    sync(guide.apply_change, [revert(c) for c in reversed(changes)])
            else:
                try:
                    changes = apply_update(step, document)
                except ReproError:
                    continue
                sync(guide.apply_change, changes)
                applied.append(changes)
            guide.validate_against(document)


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
        assert len(protocol._specs) == 1
        # structure is part of the shape: another step is another entry
        assert protocol.lock_spec_for_query("d", '//a[@k="1"]/b[2]') is not first
        assert len(protocol._specs) == 2

    def test_updates_share_an_entry_exactly_when_their_rule_reads_the_same(self):
        protocol = XDGLProtocol()
        protocol.register_document(parse_document("<r><a id='1'><b/></a><a/></r>", "d"))

        def spec(op):
            return assert_update_memo_is_fresh(protocol, "d", op)

        # what no rule reads: literals, positions, a new value, the fragment
        # below its root tag
        change = spec(ChangeOp('//a[@id="1"]/b', "x"))
        assert spec(ChangeOp('//a[@id="2"]/b', "y")) is change
        insert = spec(InsertOp("<c k='1'><d/></c>", "//a[1]", InsertPosition.INTO))
        assert spec(InsertOp("<c/>", "//a[2]", InsertPosition.INTO)) is insert
        assert ("r", "a", "c") in _lock_paths(insert)
        # what the rules read: the fragment's tag, the position, the new name
        other_tag = spec(InsertOp("<d/>", "//a[1]", InsertPosition.INTO))
        assert ("r", "a", "d") in _lock_paths(other_tag)
        assert ("r", "a", "c") not in _lock_paths(other_tag)
        after = spec(InsertOp("<c/>", "//a[1]", InsertPosition.AFTER))
        assert ("r", "c") in _lock_paths(after)
        assert ("r", "a", "c") not in _lock_paths(after)
        to_c, to_d = spec(RenameOp("//b", "c")), spec(RenameOp("//b", "d"))
        assert ("r", "a", "c") in _lock_paths(to_c) - _lock_paths(to_d)
        assert ("r", "a", "d") in _lock_paths(to_d) - _lock_paths(to_c)
        # one entry per key; queries and updates share the one memo
        assert len(protocol._specs) == 6
        spec(RemoveOp("//b"))
        spec(TransposeOp("//b", "/r/a[2]"))
        protocol.lock_spec_for_query("d", "//b")
        assert len(protocol._specs) == 9
        with pytest.raises(TypeError):
            protocol.lock_spec_for_update("d", "REMOVE //b")

    def test_a_guide_change_and_its_undo_each_invalidate(self):
        protocol = XDGLProtocol()
        document = parse_document("<r><a id='1'/></r>", "d")
        protocol.register_document(document)
        # No match: the query locks the document element's path.
        assert _lock_paths(assert_memo_is_fresh(protocol, "d", "//b")) == {("r",)}

        changes = apply_update(InsertOp("<b/>", "/r", InsertPosition.INTO), document)
        protocol.after_apply("d", changes)
        assert ("r", "b") in _lock_paths(assert_memo_is_fresh(protocol, "d", "//b"))

        protocol.after_apply("d", [revert(c) for c in reversed(changes)])
        assert _lock_paths(assert_memo_is_fresh(protocol, "d", "//b")) == {("r",)}

    def test_a_target_only_change_keeps_every_entry(self):
        """Another node under a label path that already exists changes no
        lock rule's answer, so it serves the same specs; a new label path
        does not."""
        protocol = XDGLProtocol()
        document = parse_document("<r><a><b/></a></r>", "d")
        protocol.register_document(document)
        query = protocol.lock_spec_for_query("d", "//a/b")
        update = protocol.lock_spec_for_update("d", RemoveOp("//a/b"))

        changes = apply_update(InsertOp("<b/>", "/r/a"), document)
        protocol.after_apply("d", changes)
        assert assert_memo_is_fresh(protocol, "d", "//a/b") is query
        assert assert_update_memo_is_fresh(protocol, "d", RemoveOp("//a/b")) is update

        changes = apply_update(InsertOp("<c/>", "/r/a"), document)
        protocol.after_apply("d", changes)
        assert assert_memo_is_fresh(protocol, "d", "//a/b") is not query
        assert assert_update_memo_is_fresh(protocol, "d", RemoveOp("//a/b")) is not update

    def test_drop_and_register_forget_that_document_only(self):
        protocol = XDGLProtocol()
        protocol.register_document(parse_document("<r><a/></r>", "d"))
        protocol.register_document(parse_document("<r><a/></r>", "e"))
        kept = protocol.lock_spec_for_query("e", "//a")
        protocol.lock_spec_for_query("d", "//a")
        protocol.drop_document("d")
        assert [key[0] for key in protocol._specs] == ["e"]
        protocol.register_document(parse_document("<r><c><a/></c></r>", "d"))
        assert [key[0] for key in protocol._specs] == ["e"]
        assert ("r", "c", "a") in _lock_paths(assert_memo_is_fresh(protocol, "d", "//a"))
        protocol.register_document(parse_document("<r><a/></r>", "e"))  # a snapshot install
        assert [key[0] for key in protocol._specs] == ["d"]
        assert protocol.lock_spec_for_query("e", "//a") is not kept

    def test_drop_and_register_forget_update_entries_too(self):
        protocol = XDGLProtocol()
        protocol.register_document(parse_document("<r><a/></r>", "d"))
        protocol.register_document(parse_document("<r><a/></r>", "e"))
        for doc_name in ("d", "e"):
            protocol.lock_spec_for_update(doc_name, RemoveOp("//a"))
            protocol.lock_spec_for_update(doc_name, InsertOp("<b/>", "//a"))
        kept = protocol.lock_spec_for_update("e", RemoveOp("//a"))
        protocol.drop_document("d")
        assert {key[0] for key in protocol._specs} == {"e"}
        protocol.register_document(parse_document("<r><c><a/></c></r>", "d"))
        assert {key[0] for key in protocol._specs} == {"e"}
        spec = assert_update_memo_is_fresh(protocol, "d", RemoveOp("//a"))
        assert ("r", "c", "a") in _lock_paths(spec)
        protocol.register_document(parse_document("<r><a/></r>", "e"))  # a snapshot install
        assert {key[0] for key in protocol._specs} == {"d"}
        assert protocol.lock_spec_for_update("e", RemoveOp("//a")) is not kept


def _one_step(i):
    return LocationPath(True, (Step(Axis.CHILD, NodeTest(NodeTestKind.NAME, f"t{i}")),))


class TestMemoBounds:
    def test_the_cap_holds_under_ten_times_as_many_shapes(self):
        protocol = XDGLProtocol()
        protocol.register_document(parse_document("<r/>", "d"))
        for i in range(10 * SPEC_MEMO_MAX):
            protocol.lock_spec_for_query("d", _one_step(i))
            assert len(protocol._specs) <= SPEC_MEMO_MAX
        assert len(protocol._specs) == SPEC_MEMO_MAX

    def test_the_cap_holds_with_queries_and_updates_interleaved(self):
        protocol = XDGLProtocol()
        protocol.register_document(parse_document("<r/>", "d"))
        for i in range(10 * SPEC_MEMO_MAX):
            if i % 2:
                protocol.lock_spec_for_update("d", ChangeOp(_one_step(i), "v"))
            else:
                protocol.lock_spec_for_query("d", _one_step(i))
            assert len(protocol._specs) <= SPEC_MEMO_MAX
        assert len(protocol._specs) == SPEC_MEMO_MAX
        kinds = [type(key[1]) for key in protocol._specs]
        assert kinds.count(str) == kinds.count(tuple) == SPEC_MEMO_MAX // 2

    def test_the_least_recently_used_entry_goes_first(self):
        protocol = XDGLProtocol()
        protocol.register_document(parse_document("<r/>", "d"))
        first = protocol.lock_spec_for_query("d", _one_step(0))
        for i in range(1, SPEC_MEMO_MAX):
            protocol.lock_spec_for_query("d", _one_step(i))
        assert protocol.lock_spec_for_query("d", _one_step(0)) is first  # a hit renews it
        protocol.lock_spec_for_query("d", _one_step(SPEC_MEMO_MAX))  # evicts t1
        shapes = {key[1] for key in protocol._specs}
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

    def test_a_shared_update_spec_is_never_changed_by_the_lock_manager(self):
        protocol = XDGLProtocol()
        protocol.register_document(parse_document("<r><a><b/></a><a/></r>", "d"))
        op = InsertOp("<c/>", "//a[b]", InsertPosition.INTO)
        spec = protocol.lock_spec_for_update("d", op)
        assert isinstance(spec.requests, tuple)
        before = list(spec.requests)
        manager = LockManager(LockTable(protocol.matrix), WaitForGraph())
        assert manager.process_operation("t1", spec).granted
        assert not manager.process_operation("t2", spec).granted  # X conflicts
        for tx in ("t1", "t2"):
            manager.release_transaction(tx)
        assert list(spec.requests) == before
        assert protocol.lock_spec_for_update("d", op) is spec
        with pytest.raises(AttributeError):
            spec.add(("d", ("r",)), spec.requests[0].mode)


# ---------------------------------------------------------------------------
# the shape key: one-to-one over ASTs with literals and positions erased
# ---------------------------------------------------------------------------

_ANY_LITERAL = Literal("")
_ANY_POSITION = Position(0)


def erase(path):
    """The oracle: ``path`` with every literal and every position replaced by
    one constant. Two paths must share a shape exactly when these are equal."""
    return replace(
        path,
        steps=tuple(
            replace(step, predicates=tuple(map(_erase_predicate, step.predicates)))
            for step in path.steps
        ),
    )


def _erase_predicate(pred):
    if isinstance(pred, Comparison):
        return Comparison(_erase_operand(pred.left), pred.op, _erase_operand(pred.right))
    if isinstance(pred, Exists):
        return Exists(erase(pred.path))
    if isinstance(pred, Position):
        return _ANY_POSITION
    return BoolExpr(pred.op, tuple(map(_erase_predicate, pred.operands)))


def _erase_operand(operand):
    if isinstance(operand, Literal):
        return _ANY_LITERAL
    return PathOperand(erase(operand.path))


def regroup(path):
    """The same path with each step's predicates wrapped in a one-operand
    ``and``: another tree, which reads the same if groups go undelimited."""
    return replace(
        path,
        steps=tuple(
            replace(step, predicates=tuple(BoolExpr("and", (p,)) for p in step.predicates))
            for step in path.steps
        ),
    )


def _parsed(text):
    try:
        return parse_xpath(text)
    except ReproError:
        return None


parsed_paths = paths().map(_parsed).filter(lambda p: p is not None)

# Hand-built ASTs reach what the parser never builds: relative paths inside
# predicates that start with '//' or have no step at all, empty absolute
# paths, one-operand and nested and/or groups, predicates on text() and @
# steps, integral and fractional numbers beside strings.
hand_tests = st.one_of(
    st.sampled_from(["a", "b", "*"]).map(lambda n: NodeTest(NodeTestKind.NAME, n)),
    st.sampled_from(["id", "k"]).map(lambda n: NodeTest(NodeTestKind.ATTRIBUTE, n)),
    st.just(NodeTest(NodeTestKind.TEXT, "")),
)
hand_literals = st.sampled_from(["x", "1", "", 1.0, 2.5]).map(Literal)


def _hand_paths(absolute):
    steps = st.builds(
        Step,
        st.sampled_from(Axis),
        hand_tests,
        st.lists(hand_predicates, max_size=2).map(tuple),
    )
    return st.builds(LocationPath, absolute, st.lists(steps, max_size=3).map(tuple))


hand_relative = st.deferred(lambda: _hand_paths(st.just(False)))
hand_operands = st.one_of(hand_literals, st.builds(PathOperand, hand_relative))
hand_predicates = st.deferred(
    lambda: st.one_of(
        st.integers(1, 3).map(Position),
        st.builds(Exists, hand_relative),
        st.builds(Comparison, hand_operands, st.sampled_from(CompareOp), hand_operands),
        st.builds(
            BoolExpr,
            st.sampled_from(["and", "or"]),
            st.lists(hand_predicates, min_size=1, max_size=3).map(tuple),
        ),
    )
)
hand_paths = _hand_paths(st.booleans())


class TestShapeOracle:
    @settings(
        max_examples=example_budget(100),
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(
        st.lists(st.one_of(parsed_paths, hand_paths), min_size=1, max_size=6),
        st.randoms(use_true_random=False),
    )
    def test_equal_shapes_exactly_when_the_erased_asts_are_equal(self, group, rng):
        """Each path is joined by a respelling (same erased tree, other
        values) and a regrouping (another tree, same text without groups)."""
        group = group + [respell(p, rng) for p in group] + [regroup(p) for p in group]
        for a in group:
            for b in group:
                assert (a.shape == b.shape) == (erase(a) == erase(b)), (a, b)

    def test_groups_are_delimited(self):
        """Trees that read the same with the grouping left out."""

        def step(name, *predicates):
            return Step(Axis.CHILD, NodeTest(NodeTestKind.NAME, name), predicates)

        def group(op, *operands):
            return BoolExpr(op, operands)

        def on_r(pred):
            return LocationPath(True, (step("r", pred),))

        a, b, c = (Exists(LocationPath(False, (step(name),))) for name in "abc")
        distinct = [
            (group("or", group("and", a, b), c), group("and", a, group("or", b, c))),
            (group("and", group("and", a, b), c), group("and", a, group("and", b, c))),
            (group("and", a), a),
        ]
        for left, right in distinct:
            assert erase(on_r(left)) != erase(on_r(right))
            assert on_r(left).shape != on_r(right).shape
        assert LocationPath(True, ()).shape != LocationPath(False, ()).shape

    def test_literals_and_positions_do_not_show(self):
        assert parse_xpath('//a[@id="1"][2]').shape == parse_xpath("//a[@id=7][3]").shape
        assert parse_xpath('//a[@id="1"][2]').shape is parse_xpath('//a[@id="x"][1]').shape


def test_respell_keeps_the_shape_and_changes_the_text():
    path = parse_xpath('//a[@id="1" and b[2]]/c[d>3]')
    rng = random.Random(0)
    texts = {str(respell(path, rng)) for _ in range(20)}
    assert len(texts) > 1
    assert all(parse_xpath(t).shape == path.shape for t in texts)


def test_respell_update_keeps_the_key_and_changes_what_no_rule_reads():
    rng = random.Random(0)
    ops = [
        InsertOp("<a id='1'>x</a>", '//b[@k="1"]', InsertPosition.BEFORE),
        ChangeOp('//b[@k="1"]', "x"),
        RenameOp("//b[2]", "c"),
    ]
    for op in ops:
        texts = {str(respell_update(op, rng)) for _ in range(20)}
        assert len(texts) > 1, str(op)
        assert all(_update_key(respell_update(op, rng)) == _update_key(op) for _ in range(20))
