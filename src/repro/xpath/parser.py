"""Recursive-descent parser for the XPath subset.

Grammar (EBNF)::

    path        := ('/' | '//')? rel_path
    rel_path    := step (('/' | '//') step)*
    step        := node_test predicate*
    node_test   := NAME | '*' | '@' NAME | 'text' '(' ')'
    predicate   := '[' or_expr ']'
    or_expr     := and_expr ('or' and_expr)*
    and_expr    := atom ('and' atom)*
    atom        := NUMBER                       -- positional index
                 | operand (cmp_op operand)?    -- comparison or existence
    operand     := literal | rel_path
    literal     := STRING | NUMBER
"""

from __future__ import annotations

from ..errors import XPathSyntaxError
from .ast import (
    Axis,
    BoolExpr,
    Comparison,
    CompareOp,
    Exists,
    Literal,
    LocationPath,
    NodeTest,
    NodeTestKind,
    Operand,
    PathOperand,
    Position,
    Predicate,
    Step,
)
from .tokens import DIGITS, KEYWORDS, NAME_START, lex, positions, token_type, token_value

_CMP_OPS = {
    "=": CompareOp.EQ,
    "!=": CompareOp.NEQ,
    "<": CompareOp.LT,
    "<=": CompareOp.LE,
    ">": CompareOp.GT,
    ">=": CompareOp.GE,
}
#: What a positional index may be followed by: ``[2]``, ``[2 and x]``.
_AFTER_POSITION = ("]", "and", "or")
_ANY_NAME = NodeTest(NodeTestKind.NAME, "*")
_TEXT = NodeTest(NodeTestKind.TEXT, "")


class _Parser:
    """Recursive descent over the lexemes of :func:`repro.xpath.tokens.lex`.

    ``tokens`` ends with ``""``, the end of input; ``pos`` indexes it.
    """

    def __init__(self, source: str):
        self.source = source
        self.tokens = lex(source)
        self.tokens.append("")
        self.pos = 0

    # -- token plumbing --------------------------------------------------

    def error(self, message: str, index: int) -> XPathSyntaxError:
        return XPathSyntaxError(message, position=positions(self.source)[index])

    def found(self, index: int) -> str:
        return f"{token_type(self.tokens[index]).name} in {self.source!r}"

    def expect(self, lexeme: str, expected: str) -> None:
        if self.tokens[self.pos] != lexeme:
            raise self.error(f"expected {expected} but found {self.found(self.pos)}", self.pos)
        self.pos += 1

    def is_name(self, lexeme: str) -> bool:
        return lexeme[:1] in NAME_START and lexeme not in KEYWORDS

    def node_test(self, kind: NodeTestKind, name: str) -> NodeTest:
        """The one NodeTest of ``kind`` and ``name`` (see ``_NODE_TESTS``)."""
        key = name if kind is NodeTestKind.NAME else "@" + name
        test = _NODE_TESTS.get(key)
        if test is None:
            if len(_NODE_TESTS) >= _PARSE_CACHE_MAX:
                _NODE_TESTS.clear()
            test = _NODE_TESTS[key] = NodeTest(kind, name)
        return test

    # -- grammar ----------------------------------------------------------

    def parse_path(self) -> LocationPath:
        first = self.tokens[0]
        absolute = first == "/" or first == "//"
        if absolute:
            self.pos = 1
        path = self._rel_path(Axis.DESCENDANT if first == "//" else Axis.CHILD, absolute)
        tok = self.tokens[self.pos]
        if tok:
            raise self.error(
                f"trailing input at {token_value(tok)!r} in {self.source!r}", self.pos
            )
        return path

    def _rel_path(self, first_axis: Axis, absolute: bool) -> LocationPath:
        tokens = self.tokens
        steps = [self._step(first_axis)]
        while True:
            tok = tokens[self.pos]
            if tok == "/":
                self.pos += 1
                steps.append(self._step(Axis.CHILD))
            elif tok == "//":
                self.pos += 1
                steps.append(self._step(Axis.DESCENDANT))
            else:
                break
        return LocationPath(absolute=absolute, steps=tuple(steps))

    def _step(self, axis: Axis) -> Step:
        tokens = self.tokens
        start = self.pos
        tok = tokens[start]
        if tok == "*":
            self.pos += 1
            test = _ANY_NAME
        elif tok == "@":
            self.pos += 1
            name = tokens[self.pos]
            if not self.is_name(name):
                raise self.error(
                    f"expected NAME but found {self.found(self.pos)}", self.pos
                )
            self.pos += 1
            test = self.node_test(NodeTestKind.ATTRIBUTE, name)
        elif self.is_name(tok):
            self.pos += 1
            if tok == "text" and tokens[self.pos] == "(":
                self.pos += 1
                self.expect(")", "RPAREN")
                test = _TEXT
            else:
                test = self.node_test(NodeTestKind.NAME, tok)
        else:
            raise self.error(f"expected a step but found {self.found(start)}", start)
        if tokens[self.pos] != "[":
            return Step(axis, test)
        predicates: list[Predicate] = []
        while tokens[self.pos] == "[":
            self.pos += 1
            predicates.append(self._or_expr())
            self.expect("]", "RBRACKET")
        if test.kind is not NodeTestKind.NAME:
            raise self.error(f"predicates are not supported on {test} steps", start)
        return Step(axis, test, tuple(predicates))

    def _or_expr(self) -> Predicate:
        parts = [self._and_expr()]
        while self.tokens[self.pos] == "or":
            self.pos += 1
            parts.append(self._and_expr())
        if len(parts) == 1:
            return parts[0]
        return BoolExpr("or", tuple(parts))

    def _and_expr(self) -> Predicate:
        parts = [self._atom()]
        while self.tokens[self.pos] == "and":
            self.pos += 1
            parts.append(self._atom())
        if len(parts) == 1:
            return parts[0]
        return BoolExpr("and", tuple(parts))

    def _atom(self) -> Predicate:
        tokens = self.tokens
        start = self.pos
        tok = tokens[start]
        # A bare number predicate is positional: person[2]
        if tok[:1] in DIGITS and tokens[start + 1] in _AFTER_POSITION:
            self.pos += 1
            if "." in tok:
                raise self.error(f"positional index must be an integer: [{tok}]", start)
            index = int(tok)
            if index < 1:
                raise self.error(f"positional index must be >= 1: [{tok}]", start)
            return Position(index)
        left = self._operand()
        op = _CMP_OPS.get(tokens[self.pos])
        if op is not None:
            self.pos += 1
            return Comparison(left, op, self._operand())
        if isinstance(left, PathOperand):
            return Exists(left.path)
        raise self.error(f"a bare literal is not a predicate in {self.source!r}", self.pos)

    def _operand(self) -> Operand:
        tok = self.tokens[self.pos]
        first = tok[:1]
        if first == '"' or first == "'":
            self.pos += 1
            return Literal(tok[1:-1])
        if first in DIGITS:
            self.pos += 1
            return Literal(float(tok))
        if first == "@" or first == "*" or self.is_name(tok):
            return PathOperand(self._rel_path(Axis.CHILD, absolute=False))
        raise self.error(f"expected an operand but found {self.found(self.pos)}", self.pos)


# Parsed-expression memo. Workloads re-submit the same path strings over
# and over (templates, and every wait/retry attempt of a blocked operation
# re-parses its payload), and a LocationPath is a tree of frozen dataclasses
# — safe to share between arbitrarily many evaluations. LRU: a hit moves
# the entry to the back of the (insertion-ordered) dict, a miss at capacity
# evicts the front, so a stream of distinct expressions sheds the coldest
# entry instead of dumping the whole working set.
_PARSE_CACHE: dict[str, LocationPath] = {}
_PARSE_CACHE_MAX = 4096
# Part of the memo: the NodeTests of the paths parsed since it was last
# emptied, one per distinct name (keyed ``name`` or ``@name``), so that equal
# node tests in memoised paths are one object. Emptied with the memo, and
# whenever it reaches the memo's bound.
_NODE_TESTS: dict[str, NodeTest] = {}
_parse_cache_hits = 0
_parse_cache_misses = 0


def parse_cache_stats() -> tuple[int, int]:
    """(hits, misses) of the process-wide parse memo (benchmark telemetry)."""
    return _parse_cache_hits, _parse_cache_misses


def clear_parse_cache() -> None:
    global _parse_cache_hits, _parse_cache_misses
    _PARSE_CACHE.clear()
    _NODE_TESTS.clear()
    _parse_cache_hits = 0
    _parse_cache_misses = 0


def parse_xpath(expr: str) -> LocationPath:
    """Parse ``expr`` into a :class:`LocationPath`.

    Raises :class:`repro.errors.XPathSyntaxError` for anything outside the
    supported subset.
    """
    global _parse_cache_hits, _parse_cache_misses
    cached = _PARSE_CACHE.pop(expr, None)
    if cached is not None:
        _PARSE_CACHE[expr] = cached  # re-insert at the back: most recent
        _parse_cache_hits += 1
        return cached
    if not expr or not expr.strip():
        raise XPathSyntaxError("empty XPath expression")
    path = _Parser(expr).parse_path()
    _parse_cache_misses += 1
    if len(_PARSE_CACHE) >= _PARSE_CACHE_MAX:
        del _PARSE_CACHE[next(iter(_PARSE_CACHE))]  # evict least recent
    _PARSE_CACHE[expr] = path
    return path
