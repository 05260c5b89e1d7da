"""A small, dependency-free XML parser.

Parses the subset of XML needed for XML data management workloads: elements,
attributes, character data with entity references, CDATA sections, comments,
processing instructions and a DOCTYPE prolog (skipped). Namespaces are kept
verbatim in tags (``ns:tag`` is just a name).

The parser is a single forward scan with precise line/column error reporting;
it builds :class:`repro.xml.model.Document` trees directly.
"""

from __future__ import annotations

from typing import Optional

from ..errors import XMLParseError
from .model import Document, Element

_ENTITIES = {"amp": "&", "lt": "<", "gt": ">", "quot": '"', "apos": "'"}


class _Scanner:
    """Cursor over the input with line/column tracking."""

    __slots__ = ("data", "pos", "n")

    def __init__(self, data: str):
        self.data = data
        self.pos = 0
        self.n = len(data)

    def eof(self) -> bool:
        return self.pos >= self.n

    def peek(self, k: int = 1) -> str:
        return self.data[self.pos : self.pos + k]

    def advance(self, k: int = 1) -> None:
        self.pos += k

    def starts_with(self, s: str) -> bool:
        return self.data.startswith(s, self.pos)

    def skip_ws(self) -> None:
        while self.pos < self.n and self.data[self.pos] in " \t\r\n":
            self.pos += 1

    def location(self, pos: Optional[int] = None) -> tuple[int, int]:
        """1-based (line, column) of ``pos`` (default: current position)."""
        p = self.pos if pos is None else pos
        line = self.data.count("\n", 0, p) + 1
        last_nl = self.data.rfind("\n", 0, p)
        col = p - last_nl
        return line, col

    def error(self, message: str) -> XMLParseError:
        line, col = self.location()
        return XMLParseError(message, position=self.pos, line=line, column=col)


def parse_document(text: str, name: str = "document") -> Document:
    """Parse ``text`` into a :class:`Document` called ``name``.

    Whitespace-only text between elements is dropped and other character
    data is stripped. Text interleaved with child elements (mixed content)
    is joined with single spaces into the parent's one ``text`` slot, which
    is sufficient for the data-centric documents used throughout the paper.
    """
    return Document(name, _parse_root(text))


def _parse_root(text: str) -> Element:
    """The one root element of ``text``, between a prolog and trailing misc."""
    sc = _Scanner(text)
    _skip_prolog(sc)
    sc.skip_ws()
    if sc.eof() or sc.peek() != "<":
        raise sc.error("expected root element")
    root = _parse_element(sc)
    # Trailing misc: whitespace, comments, PIs only.
    while True:
        sc.skip_ws()
        if sc.eof():
            break
        if sc.starts_with("<!--"):
            _skip_comment(sc)
        elif sc.starts_with("<?"):
            _skip_pi(sc)
        else:
            raise sc.error("content after document root")
    return root


def parse_fragment_prefix(text: str, start: int = 0) -> tuple[Element, int]:
    """Parse one element starting at ``text[start]``; also return the end offset.

    The update-language parser uses this to carve an XML fragment out of a
    larger statement (``INSERT <product>...</product> INTO /products``)
    without needing a fragile textual delimiter scan.
    """
    sc = _Scanner(text)
    sc.pos = start
    sc.skip_ws()
    if sc.eof() or sc.peek() != "<":
        raise sc.error("expected an XML fragment")
    elem = _parse_element(sc)
    return elem, sc.pos


def parse_fragment(text: str) -> Element:
    """Parse a standalone element (no document wrapper).

    Useful for the update language: ``INSERT <product>...</product> INTO ...``
    carries a fragment, not a document. The element comes back detached and
    unregistered (``node_id`` -1 throughout), ready to be inserted or cloned.
    """
    return _parse_root(text)


# ---------------------------------------------------------------------------


def _skip_prolog(sc: _Scanner) -> None:
    while True:
        sc.skip_ws()
        if sc.starts_with("<?"):
            _skip_pi(sc)
        elif sc.starts_with("<!--"):
            _skip_comment(sc)
        elif sc.starts_with("<!DOCTYPE"):
            _skip_doctype(sc)
        else:
            return


def _skip_pi(sc: _Scanner) -> None:
    end = sc.data.find("?>", sc.pos)
    if end < 0:
        raise sc.error("unterminated processing instruction")
    sc.pos = end + 2


def _skip_comment(sc: _Scanner) -> None:
    end = sc.data.find("-->", sc.pos + 4)
    if end < 0:
        raise sc.error("unterminated comment")
    sc.pos = end + 3


def _skip_doctype(sc: _Scanner) -> None:
    # Balance '<' and '>' to step over an internal subset if present.
    depth = 0
    while not sc.eof():
        c = sc.data[sc.pos]
        if c == "<":
            depth += 1
        elif c == ">":
            depth -= 1
            if depth == 0:
                sc.advance()
                return
        sc.advance()
    raise sc.error("unterminated DOCTYPE")


def _parse_name(sc: _Scanner) -> str:
    start = sc.pos
    data, n = sc.data, sc.n
    while sc.pos < n and data[sc.pos] not in " \t\r\n/>=":
        sc.pos += 1
    if sc.pos == start:
        raise sc.error("expected a name")
    return data[start : sc.pos]


def _parse_attributes(sc: _Scanner) -> dict[str, str]:
    attrib: dict[str, str] = {}
    while True:
        sc.skip_ws()
        if sc.eof():
            raise sc.error("unterminated start tag")
        if sc.peek() in (">", "/"):
            return attrib
        key = _parse_name(sc)
        sc.skip_ws()
        if sc.peek() != "=":
            raise sc.error(f"attribute {key!r} missing '='")
        sc.advance()
        sc.skip_ws()
        quote = sc.peek()
        if quote not in ("'", '"'):
            raise sc.error(f"attribute {key!r} value must be quoted")
        sc.advance()
        end = sc.data.find(quote, sc.pos)
        if end < 0:
            raise sc.error(f"unterminated value for attribute {key!r}")
        raw = sc.data[sc.pos : end]
        sc.pos = end + 1
        if key in attrib:
            raise sc.error(f"duplicate attribute {key!r}")
        attrib[key] = _decode_entities(raw, sc)


def _parse_element(sc: _Scanner) -> Element:
    if sc.peek() != "<":
        raise sc.error("expected '<'")
    sc.advance()
    tag = _parse_name(sc)
    attrib = _parse_attributes(sc)
    if sc.starts_with("/>"):
        sc.advance(2)
        return Element(tag, attrib)
    if sc.peek() != ">":
        raise sc.error(f"malformed start tag <{tag}>")
    sc.advance()

    elem = Element(tag, attrib)
    text_parts: list[str] = []
    while True:
        if sc.eof():
            raise sc.error(f"unexpected end of input inside <{tag}>")
        if sc.starts_with("</"):
            sc.advance(2)
            end_tag = _parse_name(sc)
            if end_tag != tag:
                raise sc.error(f"mismatched end tag </{end_tag}> for <{tag}>")
            sc.skip_ws()
            if sc.peek() != ">":
                raise sc.error(f"malformed end tag </{end_tag}>")
            sc.advance()
            break
        if sc.starts_with("<!--"):
            _skip_comment(sc)
        elif sc.starts_with("<![CDATA["):
            end = sc.data.find("]]>", sc.pos + 9)
            if end < 0:
                raise sc.error("unterminated CDATA section")
            text_parts.append(sc.data[sc.pos + 9 : end])
            sc.pos = end + 3
        elif sc.starts_with("<?"):
            _skip_pi(sc)
        elif sc.peek() == "<":
            child = _parse_element(sc)
            elem._children.append(child)
            child.parent = elem
        else:
            start = sc.pos
            nxt = sc.data.find("<", sc.pos)
            if nxt < 0:
                raise sc.error(f"unexpected end of input inside <{tag}>")
            raw = sc.data[start:nxt]
            sc.pos = nxt
            decoded = _decode_entities(raw, sc).strip()
            if decoded:
                text_parts.append(decoded)
    if text_parts:
        elem.text = " ".join(p for p in text_parts if p)
        if elem.text == "":
            elem.text = None
    return elem


def _decode_entities(raw: str, sc: _Scanner) -> str:
    if "&" not in raw:
        return raw
    out: list[str] = []
    i, n = 0, len(raw)
    while i < n:
        c = raw[i]
        if c != "&":
            out.append(c)
            i += 1
            continue
        semi = raw.find(";", i + 1)
        if semi < 0:
            raise sc.error("unterminated entity reference")
        name = raw[i + 1 : semi]
        if name.startswith("#x") or name.startswith("#X"):
            try:
                out.append(chr(int(name[2:], 16)))
            except ValueError:
                raise sc.error(f"bad character reference &{name};") from None
        elif name.startswith("#"):
            try:
                out.append(chr(int(name[1:])))
            except ValueError:
                raise sc.error(f"bad character reference &{name};") from None
        elif name in _ENTITIES:
            out.append(_ENTITIES[name])
        else:
            raise sc.error(f"unknown entity &{name};")
        i = semi + 1
    return "".join(out)
