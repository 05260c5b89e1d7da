"""Unit tests for the XPath subset: lexer, parser, evaluator."""

import pytest

from repro.errors import XPathEvalError, XPathSyntaxError
from repro.xpath import (
    EvalStats,
    evaluate,
    evaluate_values,
    parse_xpath,
    tokenize,
    TokenType,
)


#: Every kind of XPathSyntaxError, with its exact message and position.
SYNTAX_ERRORS = [
    ("", "empty XPath expression", -1),
    ("   ", "empty XPath expression", -1),
    ("/", "expected a step but found EOF in '/'", 1),
    ("/a[", "expected an operand but found EOF in '/a['", 3),
    ("/a[]", "expected an operand but found RBRACKET in '/a[]'", 3),
    ("/a]b", "trailing input at ']' in '/a]b'", 2),
    ("/a[1.5]", "positional index must be an integer: [1.5]", 3),
    ("/a[0]", "positional index must be >= 1: [0]", 3),
    ("/a[-1]", "unexpected character '-'", 3),
    ("/a[='x']", "expected an operand but found EQ in \"/a[='x']\"", 3),
    ("a b", "trailing input at 'b' in 'a b'", 2),
    ("a[b!c]", "expected '!=' ", 3),
    ('/a[b="x]', "unterminated string literal", 5),
    ("/a[1..2]", "bad number literal '1..2'", 3),
    ("/a['x']", "a bare literal is not a predicate in \"/a['x']\"", 6),
    ("/a[b]c", "trailing input at 'c' in '/a[b]c'", 5),
    ("/a/@id[1]", "predicates are not supported on @id steps", 3),
    ("/a/text()[1]", "predicates are not supported on text() steps", 3),
    ("/a[b='x'", "expected RBRACKET but found EOF in \"/a[b='x'\"", 8),
    ("/a/text(]", "expected RPAREN but found RBRACKET in '/a/text(]'", 8),
    ("/a[@]", "expected NAME but found RBRACKET in '/a[@]'", 4),
    ("a # b", "unexpected character '#'", 2),
]


class TestLexer:
    def test_simple_path(self):
        types = [t.type for t in tokenize("/people/person")]
        assert types == [
            TokenType.SLASH,
            TokenType.NAME,
            TokenType.SLASH,
            TokenType.NAME,
            TokenType.EOF,
        ]

    def test_descendant_and_star(self):
        types = [t.type for t in tokenize("//a/*")]
        assert types[:4] == [TokenType.DSLASH, TokenType.NAME, TokenType.SLASH, TokenType.STAR]

    def test_predicate_tokens(self):
        toks = tokenize('person[id=4][name!="x"]')
        values = [t.value for t in toks[:-1]]
        assert values == ["person", "[", "id", "=", "4", "]", "[", "name", "!=", "x", "]"]

    def test_comparison_operators(self):
        types = [t.type for t in tokenize("a<=b>=c<d>e")]
        assert TokenType.LE in types and TokenType.GE in types
        assert TokenType.LT in types and TokenType.GT in types

    def test_and_or_keywords(self):
        types = [t.type for t in tokenize("a and b or c")]
        assert TokenType.AND in types and TokenType.OR in types

    def test_number_literals(self):
        toks = tokenize("10.30")
        assert toks[0].type is TokenType.NUMBER
        assert toks[0].value == "10.30"

    @pytest.mark.parametrize("bad", ["a ! b", "'unterminated", "1.2.3", "a # b"])
    def test_lex_errors(self, bad):
        with pytest.raises(XPathSyntaxError):
            tokenize(bad)


class TestParser:
    def test_absolute_vs_relative(self):
        assert parse_xpath("/a").absolute
        assert not parse_xpath("a/b").absolute

    def test_roundtrip_str(self):
        for expr in [
            "/people/person",
            "//person",
            "/a//b/c",
            "/products/product[id=13]",
            '/people/person[name="Patricia"]',
            "//item[price>=10.5]",
            "/a/b[2]",
            "/a/@id",
            "/a/b/text()",
        ]:
            assert str(parse_xpath(expr)) == expr

    def test_predicate_and_or(self):
        p = parse_xpath("/a[b=1 and c=2 or d]")
        assert str(p) == "/a[b=1 and c=2 or d]"

    @pytest.mark.parametrize(
        "bad, message, position", [pytest.param(*row, id=row[0]) for row in SYNTAX_ERRORS]
    )
    def test_syntax_errors(self, bad, message, position):
        with pytest.raises(XPathSyntaxError) as caught:
            parse_xpath(bad)
        assert (str(caught.value), caught.value.position) == (message, position)

    @pytest.mark.parametrize(
        "bad, position", [("a[\u00b2]", 2), ("a[x=\u00b2]", 4), ("a[\u0663]", 2)]
    )
    def test_digits_are_ascii(self, bad, position):
        """XPath 1.0 digits are [0-9]: a superscript two or an Arabic-Indic
        three is an unexpected character, not a number (nor a ValueError
        from ``int``/``float`` escaping the syntax boundary)."""
        with pytest.raises(XPathSyntaxError) as caught:
            parse_xpath(bad)
        assert str(caught.value) == f"unexpected character {bad[position]!r}"
        assert caught.value.position == position

    def test_attribute_step_with_predicate_rejected(self):
        with pytest.raises(XPathSyntaxError):
            parse_xpath("/a/@id[1]")


class TestEvaluatorBasics:
    def test_root_match(self, people_doc):
        assert [n.tag for n in evaluate("/people", people_doc)] == ["people"]

    def test_root_mismatch(self, people_doc):
        assert evaluate("/products", people_doc) == []

    def test_child_steps(self, people_doc):
        persons = evaluate("/people/person", people_doc)
        assert len(persons) == 3

    def test_descendant(self, catalog_doc):
        items = evaluate("//item", catalog_doc)
        assert len(items) == 3

    def test_descendant_mid_path(self, catalog_doc):
        names = evaluate("/site/regions//name", catalog_doc)
        assert len(names) == 3

    def test_wildcard(self, catalog_doc):
        regions = evaluate("/site/regions/*", catalog_doc)
        assert [r.tag for r in regions] == ["europe", "asia"]

    def test_document_order_no_duplicates(self, catalog_doc):
        nodes = evaluate("//name", catalog_doc)
        texts = [n.text for n in nodes]
        assert texts == ["Sword", "Shield", "Bow", "Ana", "Bruno"]

    def test_relative_path_from_element(self, catalog_doc):
        europe = evaluate("/site/regions/europe", catalog_doc)[0]
        assert len(evaluate("item", europe)) == 2

    def test_relative_on_document_rejected(self, catalog_doc):
        with pytest.raises(XPathEvalError):
            evaluate("item", catalog_doc)

    def test_absolute_from_element_goes_to_root(self, catalog_doc):
        europe = evaluate("/site/regions/europe", catalog_doc)[0]
        assert len(evaluate("//person", europe)) == 2


class TestPredicates:
    def test_numeric_equality(self, products_doc):
        r = evaluate("/products/product[id=4]", products_doc)
        assert len(r) == 1
        assert r[0].child("description").text == "Monitor"

    def test_string_equality(self, people_doc):
        r = evaluate('/people/person[name="Maria"]', people_doc)
        assert len(r) == 1

    def test_no_match(self, products_doc):
        assert evaluate("/products/product[id=999]", products_doc) == []

    def test_inequalities(self, catalog_doc):
        assert len(evaluate("//item[price>10]", catalog_doc)) == 2
        assert len(evaluate("//item[price>=10]", catalog_doc)) == 3
        assert len(evaluate("//item[price<15]", catalog_doc)) == 1
        assert len(evaluate("//item[price!=15]", catalog_doc)) == 2

    def test_attribute_predicate(self, catalog_doc):
        r = evaluate('//person[@id="p2"]', catalog_doc)
        assert r[0].child("name").text == "Bruno"

    def test_existence_predicate(self, catalog_doc):
        assert len(evaluate("//person[age]", catalog_doc)) == 2
        assert evaluate("//person[salary]", catalog_doc) == []

    def test_positional_predicate(self, people_doc):
        r = evaluate("/people/person[2]", people_doc)
        assert r[0].child("name").text == "Maria"

    def test_positional_out_of_range(self, people_doc):
        assert evaluate("/people/person[9]", people_doc) == []

    def test_chained_predicates(self, catalog_doc):
        r = evaluate("//item[price>10][name='Shield']", catalog_doc)
        assert len(r) == 1

    def test_and_or(self, catalog_doc):
        assert len(evaluate("//item[price>10 and price<20]", catalog_doc)) == 1
        assert len(evaluate("//item[price=10.0 or price=20.0]", catalog_doc)) == 2

    def test_predicate_with_nested_path(self, catalog_doc):
        r = evaluate("/site/people/person[name='Ana']/age", catalog_doc)
        assert r[0].text == "30"

    def test_mixed_type_comparison_falls_back_to_string(self, people_doc):
        # name is a string; comparing to a number must not raise.
        assert evaluate("/people/person[name=4]", people_doc) == []


class TestValueExtraction:
    def test_text_values(self, products_doc):
        vals = evaluate_values("/products/product/price", products_doc)
        assert vals == [250.0, 35.5]

    def test_text_function(self, products_doc):
        vals = evaluate_values("/products/product/description/text()", products_doc)
        assert vals == ["Monitor", "Webcam"]

    def test_attribute_values(self, catalog_doc):
        vals = evaluate_values("/site/people/person/@id", catalog_doc)
        assert vals == ["p1", "p2"]

    def test_attribute_step_selects_owner_elements(self, catalog_doc):
        nodes = evaluate("/site/people/person/@id", catalog_doc)
        assert [n.tag for n in nodes] == ["person", "person"]

    def test_text_step_mid_path_rejected(self, catalog_doc):
        with pytest.raises(XPathEvalError):
            evaluate("/site/text()/person", catalog_doc)


class TestEvalStats:
    def test_stats_count_visits(self, catalog_doc):
        stats = EvalStats()
        evaluate("//item", catalog_doc, stats=stats)
        assert stats.nodes_visited >= len(catalog_doc)

    def test_child_path_cheaper_than_descendant(self, catalog_doc):
        s1, s2 = EvalStats(), EvalStats()
        evaluate("/site/people/person", catalog_doc, stats=s1)
        evaluate("//person", catalog_doc, stats=s2)
        assert s1.nodes_visited < s2.nodes_visited
