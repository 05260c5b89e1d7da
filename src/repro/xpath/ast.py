"""AST for the XPath subset.

A :class:`LocationPath` is a sequence of :class:`Step`\\ s; each step has an
axis (``child`` or ``descendant``), a node test and zero or more predicates.
Predicates form a tiny boolean expression tree over comparisons, existence
tests and positional indexes.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Union


class Axis(Enum):
    CHILD = "child"
    DESCENDANT = "descendant"  # descendant-or-self step introduced by '//'


class NodeTestKind(Enum):
    NAME = "name"  # element name test (possibly '*')
    ATTRIBUTE = "attribute"  # @name
    TEXT = "text"  # text()


@dataclass(frozen=True)
class NodeTest:
    kind: NodeTestKind
    name: str  # '*' for wildcard; attribute name for ATTRIBUTE; '' for TEXT

    def __str__(self) -> str:
        if self.kind is NodeTestKind.ATTRIBUTE:
            return f"@{self.name}"
        if self.kind is NodeTestKind.TEXT:
            return "text()"
        return self.name


class CompareOp(Enum):
    EQ = "="
    NEQ = "!="
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="


@dataclass(frozen=True)
class Literal:
    """A string or numeric literal operand."""

    value: Union[str, float]

    def __str__(self) -> str:
        value = self.value
        if isinstance(value, str):
            return f'"{value}"'
        return str(int(value)) if float(value).is_integer() else str(value)


@dataclass(frozen=True)
class PathOperand:
    """A relative path operand inside a predicate (e.g. ``id``, ``@id``)."""

    path: "LocationPath"


Operand = Union[Literal, PathOperand]


@dataclass(frozen=True)
class Comparison:
    left: Operand
    op: CompareOp
    right: Operand


@dataclass(frozen=True)
class Exists:
    """Existence test: ``[child]`` is true when the relative path is non-empty."""

    path: "LocationPath"


@dataclass(frozen=True)
class Position:
    """Positional predicate ``[n]`` (1-based, per XPath)."""

    index: int


@dataclass(frozen=True)
class BoolExpr:
    """``and`` / ``or`` over sub-predicates."""

    op: str  # 'and' | 'or'
    operands: tuple["Predicate", ...]


Predicate = Union[Comparison, Exists, Position, BoolExpr]


@dataclass(frozen=True)
class Step:
    axis: Axis
    test: NodeTest
    predicates: tuple[Predicate, ...] = ()
    #: ``(at_document, is_last, compiled step)``, kept by
    #: :mod:`repro.xpath.evaluator` for the position it was last compiled
    #: at, so that paths sharing this object compile it once.
    plan: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)

    def __str__(self) -> str:
        preds = "".join(f"[{_pred_str(p)}]" for p in self.predicates)
        return f"{self.test}{preds}"


@dataclass(frozen=True)
class LocationPath:
    """A parsed location path.

    ``absolute`` paths start at the document root; relative paths start at a
    context node (only used inside predicates and by the update language).
    """

    absolute: bool
    steps: tuple[Step, ...] = field(default_factory=tuple)
    #: Compiled by :mod:`repro.xpath.evaluator` on first evaluation and kept
    #: here, so a plan lives exactly as long as the parse it was built from.
    plan: Optional[object] = field(default=None, init=False, repr=False, compare=False)
    #: ``str(self)`` and :attr:`shape`, each computed on first use and kept
    #: the same way: every message carrying an operation sizes it by its
    #: text, and every XDGL query looks its lock spec up by its shape.
    _text: Optional[str] = field(default=None, init=False, repr=False, compare=False)
    _shape: Optional[str] = field(default=None, init=False, repr=False, compare=False)
    #: Whether a view pattern subsumes this path (:mod:`repro.views`),
    #: decided once per pattern and kept as ``id(pattern) -> (pattern,
    #: answer)``; holding the pattern keeps its id from being reused.
    _subsumed: Optional[dict] = field(default=None, init=False, repr=False, compare=False)

    def __str__(self) -> str:
        text = self._text
        if text is None:
            parts: list[str] = []
            for i, step in enumerate(self.steps):
                if i == 0:
                    if self.absolute:
                        parts.append("//" if step.axis is Axis.DESCENDANT else "/")
                    elif step.axis is Axis.DESCENDANT:
                        parts.append(".//")
                else:
                    parts.append("//" if step.axis is Axis.DESCENDANT else "/")
                parts.append(str(step))
            text = "".join(parts)
            object.__setattr__(self, "_text", text)  # frozen
        return text

    @property
    def shape(self) -> str:
        """The path with every predicate literal and position erased.

        Two paths have the same shape exactly when they differ only in the
        values (and types) of literals and positional indexes — which are
        the only parts of a path that structural matching
        (:func:`repro.xpath.guide.match_structure`) never reads. It is
        rendered in one pass like ``__str__``, with ``?`` for every literal
        and ``#`` for every position; every ``and``/``or`` group is
        parenthesised and an empty path is ``/`` or ``.``, so the mapping is
        one-to-one for any AST whose names are XML names (or ``*``). It is
        interned, so equal shapes are one string object however many
        parses share it.
        """
        shape = self._shape
        if shape is None:
            out: list[str] = []
            _path_shape(self, out)
            shape = sys.intern("".join(out))
            object.__setattr__(self, "_shape", shape)
        return shape


def _path_shape(path: LocationPath, out: list) -> None:
    steps = path.steps
    if not steps:
        out.append("/" if path.absolute else ".")
        return
    for i, step in enumerate(steps):
        descendant = step.axis is Axis.DESCENDANT
        if i or path.absolute:
            out.append("//" if descendant else "/")
        elif descendant:
            out.append(".//")
        test = step.test
        kind = test.kind
        if kind is NodeTestKind.NAME:
            out.append(test.name)
        elif kind is NodeTestKind.ATTRIBUTE:
            out.append(f"@{test.name}")
        else:
            out.append(f"text({test.name})")
        for pred in step.predicates:
            out.append("[")
            _predicate_shape(pred, out)
            out.append("]")


def _predicate_shape(pred: Predicate, out: list) -> None:
    cls = pred.__class__
    if cls is Comparison:
        _operand_shape(pred.left, out)
        out.append(pred.op.value)
        _operand_shape(pred.right, out)
    elif cls is Exists:
        _path_shape(pred.path, out)
    elif cls is Position:
        out.append("#")
    else:
        out.append("(")
        for i, operand in enumerate(pred.operands):
            if i:
                out.append(f" {pred.op} ")
            _predicate_shape(operand, out)
        out.append(")")


def _operand_shape(operand: Operand, out: list) -> None:
    if operand.__class__ is Literal:
        out.append("?")
    else:
        _path_shape(operand.path, out)


def _operand_str(o: Operand) -> str:
    return str(o) if isinstance(o, Literal) else str(o.path)


def _pred_str(p: Predicate) -> str:
    if isinstance(p, Comparison):
        return f"{_operand_str(p.left)}{p.op.value}{_operand_str(p.right)}"
    if isinstance(p, Exists):
        return str(p.path)
    if isinstance(p, Position):
        return str(p.index)
    return f" {p.op} ".join(_pred_str(sp) for sp in p.operands)
