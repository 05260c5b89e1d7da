"""The walking XPath interpreter, kept as a differential oracle.

This is the evaluator the repository ran until compiled plans replaced it
(:mod:`repro.xpath.evaluator`): it answers every step by materialising the
axis and filtering, re-enters itself once per predicate operand, and charges
:class:`~repro.xpath.evaluator.EvalStats` with the length of every list it
builds. That charge is the simulation's cost model, so the production
evaluator must return the same nodes in the same order *and* the same
``nodes_visited`` on every input; ``tests/test_xpath_equivalence.py`` holds
it to that. Only tests import this module.
"""

from __future__ import annotations

from typing import Iterable, Optional, Union

from ..errors import XPathEvalError
from ..xml.model import Document, Element
from ..xpath.ast import (
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
)
from ..xpath.evaluator import EvalStats
from ..xpath.parser import parse_xpath

Scalar = Union[str, float]


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
    stats = stats if stats is not None else EvalStats()

    if isinstance(context, Document):
        if context.root is None:
            return []
        root = context.root
        from_document = True
    else:
        root = context
        from_document = False

    if path.absolute:
        if not from_document:
            if root.document is None or root.document.root is None:
                raise XPathEvalError("absolute path evaluated on a detached element")
            root = root.document.root
        current: list[Element] = [root]
        from_document = True
    else:
        if from_document:
            raise XPathEvalError("relative path evaluated on a document; pass an element")
        current = [root]

    for i, step in enumerate(path.steps):
        if step.test.kind is not NodeTestKind.NAME and i != len(path.steps) - 1:
            raise XPathEvalError(f"{step.test} step must be the last step")
        result: list[Element] = []
        seen: set[int] = set()
        for ctx in current:
            if step.test.kind is NodeTestKind.NAME:
                candidates = _step_candidates(ctx, step.axis, from_document and i == 0, stats)
                name = step.test.name
                candidates = [c for c in candidates if name == "*" or c.tag == name]
            else:
                # @attr / text() select content *of* the context node itself
                # (attribute::/text() axes); `//@attr` widens to descendants.
                if step.axis is Axis.DESCENDANT or (from_document and i == 0):
                    candidates = list(ctx.iter_subtree())
                    stats.visit(len(candidates))
                else:
                    candidates = [ctx]
                    stats.visit(len(candidates))
                if step.test.kind is NodeTestKind.ATTRIBUTE:
                    candidates = [c for c in candidates if step.test.name in c.attrib]
                else:  # TEXT
                    candidates = [c for c in candidates if c.text is not None]
            candidates = _apply_predicates(candidates, step.predicates, stats)
            for c in candidates:
                if id(c) not in seen:
                    seen.add(id(c))
                    result.append(c)
        current = result
        if not current:
            break
    return current


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
    nodes = evaluate(path, context, stats)
    if not path.steps:
        return []
    last = path.steps[-1].test
    if last.kind is NodeTestKind.ATTRIBUTE:
        return [_typed(n.attrib[last.name]) for n in nodes]
    return [n.typed_value() for n in nodes]


# ---------------------------------------------------------------------------


def _step_candidates(
    ctx: Element, axis: Axis, at_document: bool, stats: EvalStats
) -> list[Element]:
    """Nodes reachable from ``ctx`` along ``axis``.

    ``at_document`` marks the first step of an absolute path: the context is
    then the (virtual) document node whose only child is the root, so a child
    step yields the root itself and a descendant step yields every element.
    """
    if at_document:
        if axis is Axis.CHILD:
            stats.visit(1)
            return [ctx]
        out = list(ctx.iter_subtree())
        stats.visit(len(out))
        return out
    if axis is Axis.CHILD:
        out = list(ctx.children)
        stats.visit(len(out))
        return out
    out = list(ctx.descendants())
    stats.visit(len(out))
    return out


def _apply_predicates(
    candidates: list[Element], predicates: Iterable[Predicate], stats: EvalStats
) -> list[Element]:
    result = candidates
    for pred in predicates:
        if isinstance(pred, Position):
            result = [result[pred.index - 1]] if len(result) >= pred.index else []
        else:
            result = [c for c in result if _pred_true(pred, c, stats)]
    return result


def _pred_true(pred: Predicate, ctx: Element, stats: EvalStats) -> bool:
    if isinstance(pred, Comparison):
        lvals = _operand_values(pred.left, ctx, stats)
        rvals = _operand_values(pred.right, ctx, stats)
        return any(
            a is not None and b is not None and _compare(a, pred.op, b)
            for a in lvals
            for b in rvals
        )
    if isinstance(pred, Exists):
        return bool(evaluate(pred.path, ctx, stats))
    if isinstance(pred, BoolExpr):
        if pred.op == "and":
            return all(_pred_true(p, ctx, stats) for p in pred.operands)
        return any(_pred_true(p, ctx, stats) for p in pred.operands)
    if isinstance(pred, Position):  # nested positional (inside and/or): unsupported
        raise XPathEvalError("positional predicates cannot appear inside and/or")
    raise XPathEvalError(f"unknown predicate {pred!r}")  # pragma: no cover


def _operand_values(op: Operand, ctx: Element, stats: EvalStats) -> list[Optional[Scalar]]:
    if isinstance(op, Literal):
        return [op.value]
    if isinstance(op, PathOperand):
        return evaluate_values(op.path, ctx, stats)
    raise XPathEvalError(f"unknown operand {op!r}")  # pragma: no cover


def _typed(raw: str) -> Scalar:
    try:
        return float(raw)
    except ValueError:
        return raw


def _compare(a: Scalar, op: CompareOp, b: Scalar) -> bool:
    """Existential comparison with XPath-flavoured coercion.

    If either side is numeric, try to compare numerically (coercing the other
    side); fall back to string comparison when coercion fails.
    """
    if isinstance(a, float) or isinstance(b, float):
        try:
            fa = float(a)
            fb = float(b)
        except (TypeError, ValueError):
            fa, fb = None, None
        if fa is not None:
            return _cmp(fa, op, fb)
    return _cmp(str(a), op, str(b))


def _cmp(a, op: CompareOp, b) -> bool:
    if op is CompareOp.EQ:
        return a == b
    if op is CompareOp.NEQ:
        return a != b
    if op is CompareOp.LT:
        return a < b
    if op is CompareOp.LE:
        return a <= b
    if op is CompareOp.GT:
        return a > b
    return a >= b
