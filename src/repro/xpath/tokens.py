"""Lexer for the XPath subset used by DTX/XDGL.

The subset (paper §2: "XDGL uses a subset of the XPath language") covers
absolute/relative location paths with ``/`` and ``//`` steps, name tests,
``*`` wildcards, attribute tests (``@name``), ``text()``, and predicates with
comparisons, ``and``/``or`` and positional indexes.

One compiled regular expression splits an expression into its lexemes, the
token texts in order without the whitespace between them. The parser reads
that list of strings as it is: a lexeme's first character tells its
:class:`TokenType`, and positions are worked out only to report an error.
:func:`tokenize` gives the same lexemes as :class:`Token` objects. Digits
are XPath 1.0's ``[0-9]``, names are ASCII, whitespace is space, tab, CR and
LF; any other character is an error.
"""

from __future__ import annotations

import re
from enum import Enum, auto
from typing import NamedTuple

from ..errors import XPathSyntaxError


class TokenType(Enum):
    SLASH = auto()  # /
    DSLASH = auto()  # //
    STAR = auto()  # *
    NAME = auto()  # element name
    AT = auto()  # @
    LBRACKET = auto()  # [
    RBRACKET = auto()  # ]
    LPAREN = auto()  # (
    RPAREN = auto()  # )
    EQ = auto()  # =
    NEQ = auto()  # !=
    LT = auto()  # <
    LE = auto()  # <=
    GT = auto()  # >
    GE = auto()  # >=
    STRING = auto()  # 'x' or "x"
    NUMBER = auto()  # 42 or 10.30
    AND = auto()  # and
    OR = auto()  # or
    EOF = auto()


class Token(NamedTuple):
    type: TokenType
    value: str
    position: int


_SCANNER = re.compile(
    r"""[ \t\r\n]*                 # whitespace separates tokens
    (   //|!=|<=|>=|[/\[\]()@*=<>]  # operators and punctuation
      | '[^']*'|"[^"]*"             # string literals
      | [0-9][0-9.]*                # numbers (more than one '.' is an error)
      | [A-Za-z_][A-Za-z0-9_.:-]*   # names, and the keywords 'and'/'or'
      | [^ \t\r\n]                  # any other character: an error
    )""",
    re.VERBOSE,
)

#: Lexemes whose type their text fixes: operators, punctuation, keywords.
_FIXED = {
    "/": TokenType.SLASH,
    "//": TokenType.DSLASH,
    "*": TokenType.STAR,
    "@": TokenType.AT,
    "[": TokenType.LBRACKET,
    "]": TokenType.RBRACKET,
    "(": TokenType.LPAREN,
    ")": TokenType.RPAREN,
    "=": TokenType.EQ,
    "!=": TokenType.NEQ,
    "<": TokenType.LT,
    "<=": TokenType.LE,
    ">": TokenType.GT,
    ">=": TokenType.GE,
    "and": TokenType.AND,
    "or": TokenType.OR,
}
KEYWORDS = frozenset(("and", "or"))
NAME_START = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
DIGITS = frozenset("0123456789")
#: First characters of lexemes that are valid whatever follows.
_SAFE_START = NAME_START | frozenset("/[]()@*=<>")


def lex(expr: str) -> list[str]:
    """The lexemes of ``expr`` in order; the first lexical error raises
    :class:`XPathSyntaxError` at its position."""
    lexemes = _SCANNER.findall(expr)
    for index, lexeme in enumerate(lexemes):
        first = lexeme[0]
        if first in _SAFE_START:
            continue
        if first in DIGITS:
            if lexeme.count(".") < 2:
                continue
            message = f"bad number literal {lexeme!r}"
        elif first == "'" or first == '"':
            if len(lexeme) > 1:
                continue
            message = "unterminated string literal"
        elif lexeme == "!=":
            continue
        elif first == "!":
            message = "expected '!=' "
        else:
            message = f"unexpected character {first!r}"
        raise XPathSyntaxError(message, position=positions(expr)[index])
    return lexemes


def positions(expr: str) -> list[int]:
    """Where each lexeme of ``expr`` starts, then ``len(expr)`` (the end)."""
    starts = [match.start(1) for match in _SCANNER.finditer(expr)]
    starts.append(len(expr))
    return starts


def token_type(lexeme: str) -> TokenType:
    """The type of a valid lexeme; the empty string is the end."""
    if not lexeme:
        return TokenType.EOF
    ttype = _FIXED.get(lexeme)
    if ttype is not None:
        return ttype
    first = lexeme[0]
    if first == "'" or first == '"':
        return TokenType.STRING
    return TokenType.NUMBER if first in DIGITS else TokenType.NAME


def token_value(lexeme: str) -> str:
    """A lexeme's value: a string literal loses its quotes."""
    return lexeme[1:-1] if token_type(lexeme) is TokenType.STRING else lexeme


def tokenize(expr: str) -> list[Token]:
    """Convert ``expr`` to a token list ending with an EOF token."""
    lexemes = lex(expr)
    lexemes.append("")
    return [
        Token(token_type(lexeme), token_value(lexeme), start)
        for lexeme, start in zip(lexemes, positions(expr))
    ]
