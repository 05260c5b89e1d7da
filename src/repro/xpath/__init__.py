"""XPath subset: lexer, parser, evaluator and structural matcher.

This is the query language of DTX (paper §2: the XDGL protocol "uses a subset
of the XPath language to recover information from XML documents").

:func:`parse_xpath` memoises parsed paths; :func:`evaluate` compiles each
parsed path once into a plan kept on it (direct loops over children and
attributes, a leading ``//name`` answered from the document's tag extents —
see :mod:`repro.xpath.evaluator`); :func:`match_structure` matches the same
paths against a DataGuide. ``EvalStats.nodes_visited`` is a *model* of what a
walk of the tree would touch — it feeds the simulated CPU cost — not a count
of what the implementation looked at: an evaluator change must leave it as it
is (``tests/test_xpath_equivalence.py`` pins it).
"""

from .ast import Axis, CompareOp, LocationPath, NodeTest, NodeTestKind, Step
from .evaluator import EvalStats, evaluate, evaluate_values
from .guide import GuideMatch, match_structure
from .parser import parse_xpath
from .tokens import Token, TokenType, tokenize

__all__ = [
    "Axis",
    "CompareOp",
    "EvalStats",
    "GuideMatch",
    "LocationPath",
    "NodeTest",
    "NodeTestKind",
    "Step",
    "Token",
    "TokenType",
    "evaluate",
    "evaluate_values",
    "match_structure",
    "parse_xpath",
    "tokenize",
]
