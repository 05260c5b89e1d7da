"""Evaluation of the XPath subset over XML trees, by compiled plans.

A parsed :class:`~repro.xpath.ast.LocationPath` is compiled once into a
*plan* — one small object per step, predicate and operand, each a direct loop
over ``Element._children`` / ``attrib`` — and the plan is kept on the parsed
object, so it lives and dies with the parse memo of
:func:`~repro.xpath.parser.parse_xpath`. Each compiled step is also kept on
its :class:`~repro.xpath.ast.Step`, so paths that share step objects (the
workload's template instances) compile only the steps they do not share.

**One answer per document state.** A plan evaluated on a :class:`Document`
keeps its answer there — the elements and the nodes charged — until the tree
changes: every model method that changes an attached element's text, tag or
structure drops the document's answers (:mod:`repro.xml.model`). A repeated
evaluation returns a copy of the kept list and charges the kept count, so the
meter reads as if it had walked again. A document keeps at most
:data:`ANSWER_MEMO_MAX` answers and drops the oldest first. Evaluations from
an element (predicate sub-paths, relative paths) are not kept.

Some shapes get more than the plain loop:

* a first-step ``//name`` of an absolute path takes the document's **tag
  extent** (:meth:`repro.xml.model.Document.extent`) and puts it in document
  order with one descent from the root pruned to the extent's ancestors —
  the nodes that do not match are never touched;
* a child step without predicates filters each context's children in place,
  and one whose only predicate is ``@a = "lit"`` or ``@a != "lit"`` (a literal
  ``float()`` rejects) tests the attribute in the same loop;
* a predicate ``[name op number]`` (either way round) compares the ``name``
  children's text in one loop over the children;
* a predicate operand that is a one-step relative path (``@id``, ``price``,
  ``text()``) is read off the candidate instead of being evaluated as a path
  of its own.

Every other shape (``//*``, ``//@attr``, a ``//`` after the first step,
predicated steps) is a step that materialises its axis and filters, inside
the same plan. :mod:`repro.verify.xpath_oracle` keeps the interpreter these
plans replaced, as the differential oracle of the tests.

Node-set semantics follow XPath 1.0: results are in document order without
duplicates, predicates filter per-context candidate lists in order, and
comparisons are existential over the operand node-sets.

**The meter is a model, not the implementation.** ``EvalStats.nodes_visited``
is what a naive scan of the tree would touch; the simulation's CPU cost model
charges per node visited, which is how tree traversal overhead enters the
response times, so every simulated schedule depends on it. A plan therefore
charges arithmetically what the walk would have counted — ``len`` of a
context's children per child step, the document's node count for a leading
``//``, one per attribute or text probe, in the same ``and``/``or``
short-circuit order and with the same stop at an empty step — however few
nodes it actually looks at.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable, Optional, Union

from ..errors import XPathEvalError
from ..xml.model import Document, Element
from .ast import (
    Axis,
    BoolExpr,
    Comparison,
    CompareOp,
    Exists,
    Literal,
    LocationPath,
    NodeTestKind,
    Operand,
    PathOperand,
    Position,
    Predicate,
    Step,
)
from .parser import parse_xpath

Scalar = Union[str, float]


@dataclass
class EvalStats:
    """Work meter: number of nodes a walking evaluation would have touched."""

    nodes_visited: int = 0

    def visit(self, count: int = 1) -> None:
        self.nodes_visited += count


def evaluate(
    path: Union[str, LocationPath],
    context: Union[Document, Element],
    stats: Optional[EvalStats] = None,
) -> list[Element]:
    """Evaluate ``path`` and return the matching elements in document order.

    For paths ending in ``@attr`` or ``text()``, the *owning elements* are
    returned (the lock targets); use :func:`evaluate_values` to extract the
    scalar values instead.
    """
    if isinstance(path, str):
        path = parse_xpath(path)
    plan = _plan_for(path)
    if stats is None:
        stats = EvalStats()
    if not isinstance(context, Document):
        return plan.run(context, stats)
    answers = context._answers
    answer = answers.get(plan)
    if answer is None:
        before = stats.nodes_visited
        elements = plan.run(context, stats)
        if len(answers) >= ANSWER_MEMO_MAX:
            del answers[next(iter(answers))]  # the oldest
        answers[plan] = (elements, stats.nodes_visited - before)
    else:
        elements, charged = answer
        stats.nodes_visited += charged
    return elements.copy()


def evaluate_values(
    path: Union[str, LocationPath],
    context: Union[Document, Element],
    stats: Optional[EvalStats] = None,
) -> list[Optional[Scalar]]:
    """Evaluate ``path`` and extract scalar values from the matches.

    ``@attr`` paths yield attribute values, ``text()`` paths yield text, and
    element paths yield each element's typed text content.
    """
    if isinstance(path, str):
        path = parse_xpath(path)
    return _values(path, evaluate(path, context, stats))


def _values(path: LocationPath, nodes: list[Element]) -> list[Optional[Scalar]]:
    if not path.steps:
        return []
    last = path.steps[-1].test
    if last.kind is NodeTestKind.ATTRIBUTE:
        return [_typed(n.attrib[last.name]) for n in nodes]
    return [n.typed_value() for n in nodes]


# -- plans --------------------------------------------------------------------
#
# A plan is a tree of small slotted objects, not of closures: the parse memo
# keeps up to 4,096 paths alive and most differ only in a literal, so what a
# plan weighs is paid thousands of times over.

#: Bound on the answers one document keeps: the parse memo's.
ANSWER_MEMO_MAX = 4096


def _plan_for(path: LocationPath) -> "_Plan":
    plan = path.plan
    if plan is None:
        last = len(path.steps) - 1
        plan = _Plan(
            path.absolute,
            tuple(
                _step_plan(step, path.absolute and i == 0, i == last)
                for i, step in enumerate(path.steps)
            ),
        )
        object.__setattr__(path, "plan", plan)  # LocationPath is frozen
    return plan


def _step_plan(step: Step, at_document: bool, is_last: bool):
    """``step`` compiled for its position, kept on the step."""
    kept = step.plan
    if kept is not None and kept[0] == at_document and kept[1] == is_last:
        return kept[2]
    compiled = _compile_step(step, at_document, is_last)
    object.__setattr__(step, "plan", (at_document, is_last, compiled))  # Step is frozen
    return compiled


@dataclass(slots=True, eq=False)  # a document's answers are keyed by identity
class _Plan:
    absolute: bool
    steps: tuple

    def run(self, context: Union[Document, Element], stats: EvalStats) -> list[Element]:
        if isinstance(context, Document):
            root = context.root
            if root is None:
                return []
            if not self.absolute:
                raise XPathEvalError("relative path evaluated on a document; pass an element")
        elif self.absolute:
            document = context.document
            if document is None or document.root is None:
                raise XPathEvalError("absolute path evaluated on a detached element")
            root = document.root
        else:
            root = context
        current = [root]
        for step in self.steps:
            current = step.run(current, stats)
            if not current:
                break
        return current


def _compile_step(step: Step, at_document: bool, is_last: bool):
    """One step of a plan: contexts in, matches out, the meter charged.

    ``at_document`` marks the first step of an absolute path: the context is
    then the (virtual) document node whose only child is the root, so a child
    step looks at the root itself and a descendant step at every element.
    """
    kind, name = step.test.kind, step.test.name
    if kind is not NodeTestKind.NAME and not is_last:
        return _Unsupported(f"{step.test} step must be the last step")
    filters = tuple(_compile_filter(p) for p in step.predicates)
    descend = step.axis is Axis.DESCENDANT
    if kind is NodeTestKind.NAME:
        if name != "*":
            if at_document and descend:
                return _ExtentStep(name, filters)
            if not at_document and not descend and not filters:
                return _ChildStep(name)
            if not at_document and not descend and len(filters) == 1:
                (only,) = filters
                if only.__class__ is _Where and only.test.__class__ is _AttributeIs:
                    test = only.test
                    return _ChildAttributeStep(name, test.name, test.literal, test.equal)
        if at_document:
            expand = _subtree if descend else _self
        else:
            expand = _descendants if descend else _children
    else:
        # @attr / text() select content *of* the context node itself
        # (attribute::/text() axes); `//@attr` widens to descendants.
        expand = _subtree if descend or at_document else _self
    # Only a `//` below the first step can reach one node from two contexts.
    return _WalkingStep(expand, kind, name, filters, descend and not at_document)


@dataclass(slots=True)
class _Unsupported:
    """Stands in for a step or a test outside the subset (``@attr`` / ``text()``
    before the last step, a positional predicate inside and/or): an error once
    evaluation reaches it, not before."""

    message: str

    def run(self, current: list[Element], stats: EvalStats) -> list[Element]:
        raise XPathEvalError(self.message)

    holds = run


@dataclass(slots=True)
class _ChildStep:
    """``/name`` without predicates: one pass over each context's children."""

    name: str

    def run(self, current: list[Element], stats: EvalStats) -> list[Element]:
        name = self.name
        out: list[Element] = []
        visited = 0
        for ctx in current:
            children = ctx._children
            visited += len(children)
            for c in children:
                if c.tag == name:
                    out.append(c)
        stats.nodes_visited += visited
        return out


@dataclass(slots=True)
class _ChildAttributeStep:
    """``/name[@a = "lit"]`` / ``/name[@a != "lit"]`` for a literal
    ``float()`` rejects: one pass over each context's children, charged as
    the child step (their number) and the attribute probe of each ``name``
    child (1 each) are. The test is :class:`_AttributeIs`'s."""

    name: str
    attribute: str
    literal: str
    equal: bool

    def run(self, current: list[Element], stats: EvalStats) -> list[Element]:
        name, attribute, literal, equal = self.name, self.attribute, self.literal, self.equal
        out: list[Element] = []
        visited = 0
        for ctx in current:
            children = ctx._children
            visited += len(children)
            for c in children:
                if c.tag == name:
                    visited += 1
                    value = c.attrib.get(attribute)
                    if value is not None and (value == literal) is equal:
                        out.append(c)
        stats.nodes_visited += visited
        return out


@dataclass(slots=True)
class _ExtentStep:
    """A leading ``//name``: the tag extent, charged as the full scan."""

    name: str
    filters: tuple

    def run(self, current: list[Element], stats: EvalStats) -> list[Element]:
        root = current[0]
        document = root.document
        stats.nodes_visited += len(document)
        cands = _in_document_order(root, document.extent(self.name))
        for keep in self.filters:
            cands = keep.keep(cands, stats)
        return cands


def _in_document_order(root: Element, extent: dict[int, Element]) -> list[Element]:
    """The extent's elements in pre-order: mark their ancestors, then descend
    from the root into marked and matching children only."""
    if len(extent) < 2:
        return list(extent.values())
    marked: set[int] = set()
    for node in extent.values():
        parent = node.parent
        while parent is not None and parent.node_id not in marked:
            marked.add(parent.node_id)
            parent = parent.parent
    out: list[Element] = []
    stack = [root]
    while stack:
        node = stack.pop()
        node_id = node.node_id
        if node_id in extent:
            out.append(node)
            if node_id not in marked:
                continue
        stack.extend(
            c for c in reversed(node._children) if c.node_id in extent or c.node_id in marked
        )
    return out


@dataclass(slots=True)
class _WalkingStep:
    """The general step: materialise the axis, charge its length, filter."""

    expand: Callable[[Element], list[Element]]
    kind: NodeTestKind
    name: str
    filters: tuple
    dedupe: bool

    def run(self, current: list[Element], stats: EvalStats) -> list[Element]:
        expand, kind, name, filters = self.expand, self.kind, self.name, self.filters
        out: list[Element] = []
        for ctx in current:
            cands = expand(ctx)
            stats.nodes_visited += len(cands)
            if kind is NodeTestKind.ATTRIBUTE:
                cands = [c for c in cands if name in c.attrib]
            elif kind is NodeTestKind.TEXT:
                cands = [c for c in cands if c.text is not None]
            elif name != "*":
                cands = [c for c in cands if c.tag == name]
            for keep in filters:
                cands = keep.keep(cands, stats)
            out.extend(cands)
        if self.dedupe and len(current) > 1:
            out = list(dict.fromkeys(out))  # elements hash by identity
        return out


def _self(ctx: Element) -> list[Element]:
    return [ctx]


def _children(ctx: Element) -> list[Element]:
    return ctx._children  # the live list: steps and filters only read it


def _subtree(ctx: Element) -> list[Element]:
    return list(ctx.iter_subtree())


def _descendants(ctx: Element) -> list[Element]:
    return list(ctx.descendants())


# -- predicates ---------------------------------------------------------------


def _compile_filter(pred: Predicate):
    """A top-level predicate, over one context's candidate list."""
    if isinstance(pred, Position):
        return _Nth(pred.index - 1)
    return _Where(_compile_test(pred))


@dataclass(slots=True)
class _Nth:
    at: int

    def keep(self, cands: list[Element], stats: EvalStats) -> list[Element]:
        return cands[self.at : self.at + 1]


@dataclass(slots=True)
class _Where:
    test: object

    def keep(self, cands: list[Element], stats: EvalStats) -> list[Element]:
        holds = self.test.holds
        return [c for c in cands if holds(c, stats)]


def _compile_test(pred: Predicate):
    if isinstance(pred, Comparison):
        left, right = _operand_values(pred.left), _operand_values(pred.right)
        if pred.op in (CompareOp.EQ, CompareOp.NEQ):
            if isinstance(left, _Constant):
                left, right = right, left  # = and != are symmetric
            if isinstance(left, _AttributeValue) and _non_numeric(right):
                return _AttributeIs(left.name, right.values[0], pred.op is CompareOp.EQ)
        child, number, op = left, right, pred.op
        if isinstance(left, _Constant):
            child, number, op = right, left, _MIRRORED[op]
        if isinstance(child, _ChildValues) and _is_number(number):
            value = number.values[0]
            return _ChildCompare(child.name, _OPERATORS[op], value, str(value))
        return _AnyPair(left, _OPERATORS[pred.op], right)
    if isinstance(pred, Exists):
        return _NonEmpty(_plan_for(pred.path))
    if isinstance(pred, BoolExpr):
        tests = tuple(_compile_test(p) for p in pred.operands)
        return _Connective(all if pred.op == "and" else any, tests)
    if isinstance(pred, Position):
        return _Unsupported("positional predicates cannot appear inside and/or")
    raise XPathEvalError(f"unknown predicate {pred!r}")  # pragma: no cover


@dataclass(slots=True)
class _AnyPair:
    """A comparison: true when any pair of operand values holds. Both
    operands are always read (and charged), left first."""

    left: object
    compare: Callable[[object, object], bool]
    right: object

    def holds(self, node: Element, stats: EvalStats) -> bool:
        lvals, rvals = self.left.of(node, stats), self.right.of(node, stats)
        for a in lvals:
            if a is not None:
                for b in rvals:
                    if b is not None and _compare(a, self.compare, b):
                        return True
        return False


def _non_numeric(operand) -> bool:
    """A string literal ``float()`` rejects."""
    if not isinstance(operand, _Constant) or not isinstance(operand.values[0], str):
        return False
    try:
        float(operand.values[0])
    except ValueError:
        return True
    return False


def _is_number(operand) -> bool:
    """A number literal, as the parser makes it."""
    return isinstance(operand, _Constant) and operand.values[0].__class__ is float


@dataclass(slots=True)
class _ChildCompare:
    """``[name op number]``, or ``[number op name]`` with ``op`` mirrored:
    one pass over the candidate's children, charged their number as the
    operand read is. It answers what :class:`_AnyPair` would: a ``name``
    child's text compares as a number when ``float()`` takes it and as a
    string against ``str(number)`` when not, as :func:`_compare` coerces,
    and a child without text has no value."""

    name: str
    compare: Callable[[object, object], bool]
    number: float
    number_text: str

    def holds(self, node: Element, stats: EvalStats) -> bool:
        children = node._children
        stats.nodes_visited += len(children)
        name, compare = self.name, self.compare
        for c in children:
            if c.tag == name:
                text = c.text
                if text is None:
                    continue
                try:
                    value = float(text)
                except ValueError:
                    if compare(text, self.number_text):
                        return True
                else:
                    if compare(value, self.number):
                        return True
        return False


@dataclass(slots=True)
class _AttributeIs:
    """``@name = "lit"`` / ``@name != "lit"`` for a literal ``float()``
    rejects: a comparison of raw strings, charged 1 per candidate as the
    attribute probe is.

    It answers what :class:`_AnyPair` would. A value that parses as a
    number is compared as ``str(float(value))``, and that text always parses
    again, so it can never equal the literal; neither can the raw value
    itself. Without the attribute there is no pair, so both tests are false.
    """

    name: str
    literal: str
    equal: bool

    def holds(self, node: Element, stats: EvalStats) -> bool:
        stats.nodes_visited += 1
        value = node.attrib.get(self.name)
        return value is not None and (value == self.literal) is self.equal


@dataclass(slots=True)
class _NonEmpty:
    plan: _Plan

    def holds(self, node: Element, stats: EvalStats) -> bool:
        return bool(self.plan.run(node, stats))


@dataclass(slots=True)
class _Connective:
    """``and`` / ``or``: stops at the first operand that decides."""

    decide: Callable  # all | any
    tests: tuple

    def holds(self, node: Element, stats: EvalStats) -> bool:
        return self.decide(t.holds(node, stats) for t in self.tests)


# -- predicate operands ---------------------------------------------------------


def _operand_values(operand: Operand):
    """How to read an operand's values off a candidate. A one-step relative
    path is read inline instead of being evaluated as a path of its own."""
    if isinstance(operand, Literal):
        return _Constant([operand.value])
    if not isinstance(operand, PathOperand):
        raise XPathEvalError(f"unknown operand {operand!r}")  # pragma: no cover
    path = operand.path
    if not path.absolute and len(path.steps) == 1:
        step = path.steps[0]
        kind, name = step.test.kind, step.test.name
        if step.axis is Axis.CHILD and not step.predicates:
            if kind is NodeTestKind.ATTRIBUTE:
                return _AttributeValue(name)
            if kind is NodeTestKind.TEXT:
                return _TextValue()
            if name != "*":
                return _ChildValues(name)
    return _PathValues(path, _plan_for(path))


@dataclass(slots=True)
class _Constant:
    values: list

    def of(self, node: Element, stats: EvalStats) -> list:
        return self.values


@dataclass(slots=True)
class _AttributeValue:
    name: str

    def of(self, node: Element, stats: EvalStats) -> list:
        stats.nodes_visited += 1
        attrib = node.attrib
        return [_typed(attrib[self.name])] if self.name in attrib else []


@dataclass(slots=True)
class _TextValue:
    def of(self, node: Element, stats: EvalStats) -> list:
        stats.nodes_visited += 1
        return [node.typed_value()] if node.text is not None else []


@dataclass(slots=True)
class _ChildValues:
    name: str

    def of(self, node: Element, stats: EvalStats) -> list:
        name, children = self.name, node._children
        stats.nodes_visited += len(children)
        return [c.typed_value() for c in children if c.tag == name]


@dataclass(slots=True)
class _PathValues:
    path: LocationPath
    plan: _Plan

    def of(self, node: Element, stats: EvalStats) -> list:
        return _values(self.path, self.plan.run(node, stats))


def _typed(raw: str) -> Scalar:
    try:
        return float(raw)
    except ValueError:
        return raw


def _compare(a: Scalar, holds: Callable[[object, object], bool], b: Scalar) -> bool:
    """One comparison with XPath-flavoured coercion.

    If either side is numeric, try to compare numerically (coercing the other
    side); fall back to string comparison when coercion fails.
    """
    if isinstance(a, float) or isinstance(b, float):
        try:
            fa, fb = float(a), float(b)
        except (TypeError, ValueError):
            pass
        else:
            return holds(fa, fb)
    return holds(str(a), str(b))


_OPERATORS: dict[CompareOp, Callable[[object, object], bool]] = {
    CompareOp.EQ: operator.eq,
    CompareOp.NEQ: operator.ne,
    CompareOp.LT: operator.lt,
    CompareOp.LE: operator.le,
    CompareOp.GT: operator.gt,
    CompareOp.GE: operator.ge,
}
#: ``a op b`` holds exactly when ``b mirrored(op) a`` does.
_MIRRORED: dict[CompareOp, CompareOp] = {
    CompareOp.EQ: CompareOp.EQ,
    CompareOp.NEQ: CompareOp.NEQ,
    CompareOp.LT: CompareOp.GT,
    CompareOp.LE: CompareOp.GE,
    CompareOp.GT: CompareOp.LT,
    CompareOp.GE: CompareOp.LE,
}
