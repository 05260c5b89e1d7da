"""Serialization of :mod:`repro.xml.model` trees back to XML text."""

from __future__ import annotations

from .model import Document, Element

#: What ``serialize_document(..., declaration=True)`` puts before the root.
XML_DECLARATION = '<?xml version="1.0" encoding="UTF-8"?>\n'


def _escape_text(s: str) -> str:
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _escape_attr(s: str) -> str:
    return _escape_text(s).replace('"', "&quot;")


def _serialize_compact(root: Element) -> str:
    """Compact serialization with an explicit stack.

    This is the state-digest hot path (every probe digests serialized
    documents), so it avoids both recursion and the per-node tuple copy the
    public ``children`` property makes. Items on the stack are either
    elements still to open or close-tag strings already rendered.
    """
    out: list[str] = []
    append = out.append
    stack: list = [root]
    pop = stack.pop
    while stack:
        node = pop()
        if node.__class__ is str:
            append(node)
            continue
        attrib = node.attrib
        if attrib:
            attrs = "".join(f' {k}="{_escape_attr(v)}"' for k, v in attrib.items())
        else:
            attrs = ""
        children = node._children
        text = node.text
        if not children and text is None:
            append(f"<{node.tag}{attrs}/>")
            continue
        append(f"<{node.tag}{attrs}>")
        if text is not None:
            append(_escape_text(text))
        stack.append(f"</{node.tag}>")
        for i in range(len(children) - 1, -1, -1):
            stack.append(children[i])
    return "".join(out)


def _utf8_len(s: str) -> int:
    return len(s) if s.isascii() else len(s.encode("utf-8"))


def own_size(node: Element) -> int:
    """UTF-8 bytes ``node`` itself adds to the compact serialization: its
    tag(s), attributes and text, without its children's subtrees."""
    tag = _utf8_len(node.tag)
    size = tag + 3  # <tag/>
    text = node.text
    if node._children or text is not None:
        size += tag + 2  # <tag></tag>
        if text:
            size += _utf8_len(_escape_text(text))
    for k, v in node.attrib.items():
        size += _utf8_len(k) + _utf8_len(_escape_attr(v)) + 4  # ' k="v"'
    return size


def serialized_size(root: Element) -> int:
    """Exact ``len(serialize_element(root).encode("utf-8"))`` without
    building the string (every node contributes its :func:`own_size`)."""
    return sum(map(own_size, root.iter_subtree()))


def serialize_element(elem: Element, indent: int | None = None, _depth: int = 0) -> str:
    """Serialize one element (and subtree).

    ``indent=None`` produces compact one-line output; an integer produces
    pretty-printed output with that many spaces per level. Pretty printing
    only reflows structure (never text content), so compact and pretty forms
    parse back to identical trees.
    """
    if indent is None:
        return _serialize_compact(elem)
    pad = " " * (indent * _depth)
    attrs = "".join(f' {k}="{_escape_attr(v)}"' for k, v in elem.attrib.items())
    open_tag = f"{pad}<{elem.tag}{attrs}"
    if not elem.children and elem.text is None:
        return open_tag + "/>"
    parts = [open_tag + ">"]
    if elem.text is not None:
        parts.append(_escape_text(elem.text))
    if elem.children:
        child_parts = [serialize_element(c, indent, _depth + 1) for c in elem.children]
        parts.append("\n" + "\n".join(child_parts) + "\n" + pad)
        parts.append(f"</{elem.tag}>")
    else:
        parts.append(f"</{elem.tag}>")
    return "".join(parts)


def serialize_document(doc: Document, indent: int | None = None, declaration: bool = False) -> str:
    """Serialize a whole document; optionally prepend an XML declaration."""
    if doc.root is None:
        raise ValueError(f"document {doc.name!r} has no root")
    body = serialize_element(doc.root, indent)
    return XML_DECLARATION + body if declaration else body
