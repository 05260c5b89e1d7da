"""Compiled XPath plans against the walking oracle, and the meter pinned.

The production evaluator (:mod:`repro.xpath.evaluator`) compiles plans and
answers a leading ``//name`` from the document's tag extents; the interpreter
it replaced lives on in :mod:`repro.verify.xpath_oracle`. On every input the
two must return the same element objects in the same order and charge the
same ``EvalStats.nodes_visited`` — that count is the simulation's CPU cost
model, so a drift of one node moves simulated schedules. The property below
drives both over random trees, random paths from the whole supported grammar
and interleaved updates and rollbacks; the table pins today's meter on one
document so that a deliberate change to it shows as a diff here.
"""

import hashlib
from dataclasses import replace

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.config import SystemConfig
from repro.dataguide import DataGuide
from repro.errors import ReproError, XPathEvalError
from repro.experiments import ExperimentConfig, build_cluster
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
from repro.verify import xpath_oracle
from repro.workload import WorkloadSpec, xmark_fragments
from repro.xml import (
    Document,
    Element,
    parse_document,
    parse_fragment,
    serialize_document,
    serialize_element,
    serialized_size,
)
from repro.xpath import EvalStats, LocationPath, evaluate, evaluate_values, parse_xpath
from repro.xpath.parser import _Parser

from .conftest import example_budget

# ---------------------------------------------------------------------------
# what "equivalent" means
# ---------------------------------------------------------------------------


def _outcome(evaluator, path, context):
    """(result as object identities | error message, nodes charged)."""
    stats = EvalStats()
    try:
        result = [id(n) for n in evaluator(path, context, stats)]
    except XPathEvalError as error:
        result = f"error: {error}"
    return result, stats.nodes_visited


def assert_same_evaluation(path, document):
    """Compiled ≡ oracle: a relative path from every element, an absolute
    one from the document and (re-rooting itself) from the last element."""
    parsed = parse_xpath(path)
    contexts = list(document.iter())
    if parsed.absolute:
        contexts = [document, contexts[-1]]
    for context in contexts:
        assert _outcome(evaluate, parsed, context) == _outcome(
            xpath_oracle.evaluate, parsed, context
        ), (path, context)
    # the scalar view rides on the same node lists
    stats, oracle_stats = EvalStats(), EvalStats()
    try:
        values = evaluate_values(parsed, contexts[0], stats)
    except XPathEvalError:
        return
    expected = xpath_oracle.evaluate_values(parsed, contexts[0], oracle_stats)
    assert list(map(repr, values)) == list(map(repr, expected))  # nan != nan
    assert stats.nodes_visited == oracle_stats.nodes_visited


def assert_extents_match_walk(document):
    """The tag extents are exactly a fresh walk's grouping by tag."""
    fresh: dict = {}
    for node in document.iter():
        fresh.setdefault(node.tag, {})[node.node_id] = node
    assert document._extents == fresh  # elements compare by identity
    for tag, extent in fresh.items():
        assert document.extent(tag) == extent
    assert document.extent("no-such-tag") == {}
    assert sum(map(len, fresh.values())) == len(document)


# ---------------------------------------------------------------------------
# strategies: small alphabets, so that paths hit and predicates flip
# ---------------------------------------------------------------------------

TAGS = ["a", "b", "c", "d"]
ATTRS = ["id", "k"]
# Beside plain numbers and words: strings float() accepts oddly ("nan",
# "inf", "-0", " 1", "1e1", "1_0"), which a raw-string fast path for
# `@attr = "lit"` must never treat as non-numeric.
VALUES = ["1", "2", "10", "1.0", "x", "y", "", "nan", "inf", "-0", " 1", "1e1", "1_0"]

tags = st.sampled_from(TAGS)


@st.composite
def elements(draw, depth=3):
    attrib = draw(st.dictionaries(st.sampled_from(ATTRS), st.sampled_from(VALUES), max_size=2))
    text = draw(st.one_of(st.none(), st.sampled_from(VALUES)))
    element = Element(draw(tags), attrib, text)
    if depth > 0:
        for child in draw(st.lists(elements(depth - 1), max_size=4)):
            element.append(child)
    return element


documents = elements().map(lambda root: Document("d", root))

node_tests = st.one_of(tags, tags, st.just("*"))
last_only_tests = st.one_of(st.sampled_from(ATTRS).map("@{}".format), st.just("text()"))
separators = st.sampled_from(["/", "/", "//"])
LITERALS = ["1", "2", "10", '"x"', '"1"', '"1.0"', '""', "1.5"] + [
    '"nan"', '"inf"', '"-0"', '" 1"', '"1e1"', '"1_0"', '"10"', '"1x"'
]
literals = st.sampled_from(LITERALS)
compare_ops = st.sampled_from(["=", "!=", "<", "<=", ">", ">="])


@st.composite
def relative_paths(draw, depth=2, max_steps=3):
    """``step (('/' | '//') step)*`` with predicates, ending in any node test;
    now and then an ``@attr`` / ``text()`` lands mid-path, which must fail the
    same way in both evaluators."""
    count = draw(st.integers(1, max_steps))
    parts = []
    for i in range(count):
        if i:
            parts.append(draw(separators))
        last = i == count - 1
        if draw(st.integers(0, 9)) < (3 if last else 1):
            parts.append(draw(last_only_tests))
            continue
        parts.append(draw(node_tests))
        if depth > 0:
            for _ in range(draw(st.sampled_from([0, 0, 0, 1, 1, 2]))):
                parts.append(f"[{draw(or_exprs(depth - 1))}]")
    return "".join(parts)


@st.composite
def operands(draw, depth):
    if draw(st.booleans()):
        return draw(literals)
    return draw(relative_paths(depth, max_steps=2))


@st.composite
def attribute_tests(draw):
    """``@attr = lit`` / ``@attr != lit``, either way round: the form the
    compiled evaluator answers by comparing raw strings."""
    sides = [draw(st.sampled_from(ATTRS).map("@{}".format)), draw(literals)]
    if draw(st.booleans()):
        sides.reverse()
    return draw(st.sampled_from(["=", "!="])).join(sides)


@st.composite
def atoms(draw, depth):
    kind = draw(st.integers(0, 9))
    if kind == 0:
        return str(draw(st.integers(1, 3)))  # positional
    if kind <= 2:
        return draw(relative_paths(depth, max_steps=2))  # existence
    if kind == 3:
        return draw(attribute_tests())
    return f"{draw(operands(depth))}{draw(compare_ops)}{draw(operands(depth))}"


@st.composite
def or_exprs(draw, depth):
    ands = [
        " and ".join(draw(st.lists(atoms(depth), min_size=1, max_size=2)))
        for _ in range(draw(st.sampled_from([1, 1, 1, 2])))
    ]
    return " or ".join(ands)


@st.composite
def paths(draw):
    prefix = draw(st.sampled_from(["/", "/", "//", "//", ""]))
    return prefix + draw(relative_paths())


@st.composite
def target_paths(draw):
    """Update targets: mostly shallow absolute paths, so that they select."""
    return draw(st.one_of(paths(), st.builds("{}{}".format, st.sampled_from(["//", "/*/"]), tags)))


fragments = elements(depth=1).map(serialize_element)
updates = st.one_of(
    st.builds(InsertOp, fragments, target_paths(), st.sampled_from(InsertPosition)),
    st.builds(RemoveOp, target_paths()),
    st.builds(RenameOp, target_paths(), tags),
    st.builds(ChangeOp, target_paths(), st.sampled_from(VALUES)),
    st.builds(TransposeOp, target_paths(), target_paths()),
)
actions = st.one_of(
    updates, updates, updates, st.just("rollback"), st.integers(1, 3).map(lambda n: ("undo", n))
)


# ---------------------------------------------------------------------------
# the gate
# ---------------------------------------------------------------------------


class TestCompiledPlansEqualOracle:
    @settings(
        max_examples=example_budget(150),
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(documents, st.lists(paths(), min_size=1, max_size=4), st.lists(actions, max_size=6))
    def test_under_updates_and_rollbacks(self, document, queries, steps):
        log: list = []  # change records still in effect, newest last

        def check():
            assert_extents_match_walk(document)
            for query in queries:
                assert_same_evaluation(query, document)

        def rollback(n):
            for _ in range(min(n, len(log))):
                revert(log.pop())

        check()
        for step in steps:
            if step == "rollback":
                rollback(len(log))
            elif isinstance(step, tuple):
                rollback(step[1])
            else:
                try:
                    log += apply_update(step, document)
                except ReproError:
                    pass  # e.g. removing the root: the applier unwinds itself
            check()
        rollback(len(log))
        check()

    @settings(max_examples=example_budget(40), deadline=None)
    @given(documents, st.lists(paths(), min_size=1, max_size=4), fragments, st.integers(1, 3))
    def test_on_every_way_a_document_is_made(self, document, queries, fragment, k):
        made = [document.clone(), parse_document(serialize_document(document), "p")]
        made.extend(xmark_fragments(document, k))
        grown = document.clone("g")
        grown.root.append(parse_fragment(fragment))
        made.append(grown)
        for other in made:
            assert_extents_match_walk(other)
            for query in queries:
                assert_same_evaluation(query, other)

    def test_a_plan_is_compiled_once_per_parse(self):
        parsed = parse_xpath('//a[@id="1"]/b')
        assert parsed.plan is None
        document = parse_document("<r><a id='1'><b/></a></r>")
        evaluate(parsed, document)
        plan = parsed.plan
        assert plan is not None
        evaluate('//a[@id="1"]/b', document)  # the parse memo hands back the same object
        assert parse_xpath('//a[@id="1"]/b').plan is plan

    def test_the_text_is_rendered_once_and_exactly(self):
        """``str(path)`` sizes every message carrying the query, so the kept
        rendering must be what a fresh, uncached copy renders."""
        parsed = parse_xpath('//a[@id="1" and b[2]]/c[d>=1.5 or text()!="x"]//@k')
        text = str(parsed)
        assert str(parsed) is text
        assert text == str(replace(parsed)) == '//a[@id="1" and b[2]]/c[d>=1.5 or text()!="x"]//@k'

    @pytest.mark.parametrize("op", ["=", "!="])
    def test_every_attribute_value_against_every_literal(self, op):
        """The raw-string test for ``@id = "lit"`` must agree with the
        coercing comparison on every value the strategies know, including
        the ones ``float()`` accepts oddly ("nan", " 1", "1_0", ...)."""
        root = Element("r")
        for value in VALUES:
            root.append(Element("a", {"id": value}))
        root.append(Element("a"))  # no attribute: no pair, so both ops fail
        document = Document("d", root)
        for literal in LITERALS:
            assert_same_evaluation(f"//a[@id{op}{literal}]", document)
            assert_same_evaluation(f"/r/a[{literal}{op}@id]", document)


# ---------------------------------------------------------------------------
# the parser: rendering round-trips, and the workloads' paths pinned
# ---------------------------------------------------------------------------


def _fresh_parse(text):
    """A parse of its own, past the memo (which would hand back the object
    it already holds)."""
    return _Parser(text).parse_path()


def _eager_rowa(**settings):
    return SystemConfig().with_(
        replication_factor=2,
        replica_read_policy="nearest",
        replica_write_policy="primary",
        **settings,
    )


#: The five dtxbench workload shapes as ``build_cluster`` configurations
#: (contended, which writes one hot document, becomes an all-update
#: workload on a small totally replicated database with 128 clients).
WORKLOAD_SHAPES = {
    "mixed": ExperimentConfig(
        system=_eager_rowa(seed=7, group_commit_window_ms=0.5),
        workload=WorkloadSpec(n_clients=12, tx_per_client=50, update_tx_ratio=0.3, seed=7),
    ),
    "read_scan": ExperimentConfig(
        db_bytes=240_000,
        system=SystemConfig().with_(seed=7),
        workload=WorkloadSpec(n_clients=12, tx_per_client=50, seed=7),
    ),
    "write_heavy": ExperimentConfig(
        system=_eager_rowa(seed=7),
        workload=WorkloadSpec(
            n_clients=12, tx_per_client=25, ops_per_tx=2,
            update_tx_ratio=1.0, update_op_ratio=1.0, seed=7,
        ),
    ),
    "contended": ExperimentConfig(
        n_sites=3,
        replication="total",
        db_bytes=5_000,
        system=SystemConfig().with_(seed=7),
        workload=WorkloadSpec(
            n_clients=128, tx_per_client=5, ops_per_tx=8,
            update_tx_ratio=1.0, update_op_ratio=1.0, seed=7,
        ),
    ),
    "regimes": ExperimentConfig(
        system=SystemConfig.preset("quorum", seed=7),
        workload=WorkloadSpec(n_clients=12, tx_per_client=45, update_tx_ratio=0.3, seed=7),
    ),
}
#: sha256 over the ``repr`` of the fresh parse of every distinct path the
#: shapes generate, one per line in sorted order: a change here is a change
#: of some AST a workload runs.
WORKLOAD_PATHS = 1173
WORKLOAD_AST_DIGEST = "f3e8ca8ee730a4a89c51abfa130026811f285272606fb2541f8f52f4dabaef2b"


def _workload_paths():
    texts = set()
    for config in WORKLOAD_SHAPES.values():
        cluster, _ = build_cluster(config)
        for client in cluster.clients:
            for tx in client.transactions:
                for op in tx.operations:
                    payload = op.payload
                    if isinstance(payload, LocationPath):
                        texts.add(str(payload))
                    else:
                        texts.update(
                            str(value) for value in vars(payload).values()
                            if isinstance(value, LocationPath)
                        )
    return sorted(texts)


class TestParseRoundTrip:
    @settings(max_examples=example_budget(150), deadline=None)
    @given(paths())
    def test_rendering_parses_back(self, text):
        """The grammar generates canonical text: it renders back as it was
        written, and the rendering parses to an equal AST."""
        parsed = _fresh_parse(text)
        assert str(parsed) == text
        assert parse_xpath(str(parsed)) == parsed
        assert _fresh_parse(str(parsed)) == parsed

    def test_every_path_the_workloads_generate(self):
        texts = _workload_paths()
        assert len(texts) == WORKLOAD_PATHS
        parsed = [_fresh_parse(text) for text in texts]
        for text, path in zip(texts, parsed):
            assert str(path) == text
            assert _fresh_parse(str(path)) == path
        digest = hashlib.sha256("\n".join(map(repr, parsed)).encode()).hexdigest()
        assert digest == WORKLOAD_AST_DIGEST


# ---------------------------------------------------------------------------
# the meter, pinned
# ---------------------------------------------------------------------------

METER_XML = """
<r>
  <a id="1"><b>1</b><b>2</b><c k="x">t</c></a>
  <a id="2"><b>3</b><d><b>4</b></d></a>
  <e/>
</r>
"""  # 10 elements; ids in pre-order: r0 a1 b2 b3 c4 a5 b6 d7 b8 e9

#: (path, context node id or None for the document, result node ids, charged)
METER_TABLE = [
    # child steps: 1 for the root test, then len(children) per context
    ("/r", None, [0], 1),
    ("/r/a/b", None, [2, 3, 6], 1 + 3 + (3 + 2)),
    ("/r/*", None, [1, 5, 9], 1 + 3),
    # a leading // is the whole document, whatever the extent holds
    ("//b", None, [2, 3, 6, 8], 10),
    ("//zzz", None, [], 10),
    ("//*", None, [0, 1, 2, 3, 4, 5, 6, 7, 8, 9], 10),
    ("//b", 7, [2, 3, 6, 8], 10),  # absolute from an element: re-rooted
    # positional: the n-th of one context's candidate list; // has one context
    ("//b[2]", None, [3], 10),
    ("/r/a/b[2]", None, [3], 1 + 3 + (3 + 2)),
    ("/r/a[2]/b", None, [6], 1 + 3 + 2),
    # an attribute probe is 1 per candidate, a child operand len(children)
    ('//a[@id="2"]/b', None, [6], 10 + 2 + 2),
    ('/r/a[@id="1"]', None, [1], 1 + 3 + 2),
    ("/r/a[b>=2]", None, [1, 5], 1 + 3 + (3 + 2)),
    ('/r/a[c/@k="x"]', None, [1], 1 + 3 + (3 + 1) + 2),
    ("/r/a[b>c]", None, [], 1 + 3 + (3 + 3) + (2 + 2)),  # both operands always read
    # and/or stop at the first operand that decides
    ("/r/a[b=3 and c]", None, [], 1 + 3 + 3 + (2 + 2)),
    ("/r/a[b=1 or c]", None, [1], 1 + 3 + 3 + (2 + 2)),
    ("/r/a[c and b=1]", None, [1], 1 + 3 + (3 + 3) + 2),
    # an empty step ends the evaluation: y and z are never charged
    ("/r/x/y/z", None, [], 1 + 3),
    ("/x/r", None, [], 1),
    # a // below the first step walks the strict descendants of each context
    ("/r//b", None, [2, 3, 6, 8], 1 + 9),
    ("//a//b", None, [2, 3, 6, 8], 10 + (3 + 3)),
    ("//d//b", None, [8], 10 + 1),
    # @attr / text() look at the context itself; widened by // or a first step
    ("/r/a/@id", None, [1, 5], 1 + 3 + 2),
    ("/r/a/c/text()", None, [4], 1 + 3 + (3 + 2) + 1),
    ("//@id", None, [1, 5], 10),
    ("/r/a//@k", None, [4], 1 + 3 + (4 + 4)),
    # relative paths start at the element
    ("b", 1, [2, 3], 3),
    ("a/b", 0, [2, 3, 6], 3 + (3 + 2)),
    ("d/b", 5, [8], 2 + 1),
]

METER_ERRORS = [
    ("/r/@id/b", None, "@id step must be the last step", 1),
    ("/r/a[c and 2]", None, "positional predicates cannot appear inside and/or", 1 + 3 + 3),
    ("a/b", None, "relative path evaluated on a document; pass an element", 0),
]


class TestMeterIsPinned:
    @pytest.fixture(scope="class")
    def document(self):
        return parse_document(METER_XML, "meter")

    @pytest.mark.parametrize("path,context,expected,charged", METER_TABLE)
    def test_result_and_charge(self, document, path, context, expected, charged):
        start = document if context is None else document.node(context)
        for evaluator in (evaluate, xpath_oracle.evaluate):
            stats = EvalStats()
            assert [n.node_id for n in evaluator(path, start, stats)] == expected
            assert stats.nodes_visited == charged

    @pytest.mark.parametrize("path,context,message,charged", METER_ERRORS)
    def test_errors_and_what_was_charged_before_them(
        self, document, path, context, message, charged
    ):
        start = document if context is None else document.node(context)
        for evaluator in (evaluate, xpath_oracle.evaluate):
            stats = EvalStats()
            with pytest.raises(XPathEvalError, match=message):
                evaluator(path, start, stats)
            assert stats.nodes_visited == charged

    def test_an_unreached_misplaced_step_does_not_raise(self, document):
        assert evaluate("/r/x/@id/b", document) == []


# ---------------------------------------------------------------------------
# one way to retag a node
# ---------------------------------------------------------------------------


class TestRename:
    def test_rename_moves_the_node_between_extents(self):
        document = parse_document("<r><a/><a/><b/></r>")
        first = document.root.children[0]
        first.rename("b")
        assert_extents_match_walk(document)
        assert [n.node_id for n in evaluate("//b", document)] == [1, 3]
        first.rename("c")
        document.root.children[1].rename("c")  # drains the extent of "a"
        assert_extents_match_walk(document)
        assert "a" not in document._extents

    def test_rename_of_a_detached_node_touches_no_extent(self):
        element = Element("a")
        element.rename("b")
        assert element.tag == "b" and element.document is None

    def test_rename_rejects_a_bad_name(self):
        document = parse_document("<r><a/></r>")
        with pytest.raises(ReproError):
            document.root.children[0].rename("1bad")
        assert_extents_match_walk(document)

    def test_rename_rollback_redo_inversion(self):
        """apply → undo restores; applying again yields the first result —
        on the tree, its extents, its guide and its serialized size."""
        document = parse_document("<r><a id='1'><b>x</b></a><a/><c><a/></c></r>")
        guide = DataGuide.build(document)
        before = serialize_document(document)
        size = serialized_size(document.root)
        op = RenameOp("//a", "item")

        def apply():
            changes = apply_update(op, document)
            for change in changes:
                guide.apply_change(change)
            return changes

        changes = apply()
        assert sum(c.byte_delta for c in changes) == serialized_size(document.root) - size
        assert_extents_match_walk(document)
        guide.validate_against(document)
        after = serialize_document(document)
        assert evaluate("//a", document) == [] and len(evaluate("//item", document)) == 3

        for change in reversed(changes):
            guide.apply_change(revert(change))
        assert serialize_document(document) == before
        assert serialized_size(document.root) == size
        assert_extents_match_walk(document)
        guide.validate_against(document)
        assert len(evaluate("//a", document)) == 3

        redone = apply()
        assert serialize_document(document) == after
        assert [c.byte_delta for c in redone] == [c.byte_delta for c in changes]
        assert [c.node for c in redone] == [c.node for c in changes]
        assert_extents_match_walk(document)
        guide.validate_against(document)
