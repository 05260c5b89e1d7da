"""AST for the XPath subset.

A :class:`LocationPath` is a sequence of :class:`Step`\\ s; each step has an
axis (``child`` or ``descendant``), a node test and zero or more predicates.
Predicates form a tiny boolean expression tree over comparisons, existence
tests and positional indexes.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field, replace
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
        values of literals and positional indexes — which are the only
        parts of a path that structural matching
        (:func:`repro.xpath.guide.match_structure`) never reads. It is the
        ``repr`` of the erased path (injective over the AST), interned, so
        equal shapes are one string object however many parses share it.
        """
        shape = self._shape
        if shape is None:
            shape = sys.intern(repr(_erase_path(self)))
            object.__setattr__(self, "_shape", shape)
        return shape


_ANY_LITERAL = Literal("")
_ANY_POSITION = Position(0)


def _erase_path(path: LocationPath) -> LocationPath:
    return replace(
        path,
        steps=tuple(
            replace(step, predicates=tuple(map(_erase_predicate, step.predicates)))
            for step in path.steps
        ),
    )


def _erase_predicate(pred: Predicate) -> Predicate:
    if isinstance(pred, Comparison):
        return Comparison(_erase_operand(pred.left), pred.op, _erase_operand(pred.right))
    if isinstance(pred, Exists):
        return Exists(_erase_path(pred.path))
    if isinstance(pred, Position):
        return _ANY_POSITION
    return BoolExpr(pred.op, tuple(map(_erase_predicate, pred.operands)))


def _erase_operand(operand: Operand) -> Operand:
    if isinstance(operand, Literal):
        return _ANY_LITERAL
    return PathOperand(_erase_path(operand.path))


def _operand_str(o: Operand) -> str:
    if isinstance(o, Literal):
        if isinstance(o.value, str):
            return f'"{o.value}"'
        v = o.value
        return str(int(v)) if float(v).is_integer() else str(v)
    return str(o.path)


def _pred_str(p: Predicate) -> str:
    if isinstance(p, Comparison):
        return f"{_operand_str(p.left)}{p.op.value}{_operand_str(p.right)}"
    if isinstance(p, Exists):
        return str(p.path)
    if isinstance(p, Position):
        return str(p.index)
    return f" {p.op} ".join(_pred_str(sp) for sp in p.operands)
