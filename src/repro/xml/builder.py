"""Concise programmatic construction of XML trees.

``E("person", E("id", text="4"), E("name", text="Ana"))`` builds a detached
subtree; :func:`doc` wraps a root element into a named document. Used
pervasively in tests and by the XMark generator.
"""

from __future__ import annotations

from ..errors import XMLModelError
from .model import Document, Element


def E(tag: str, *children: Element, text: str | None = None, **attrib: str) -> Element:
    """Build a detached element with ``children``, ``text`` and attributes.

    Attribute values are coerced to ``str`` so numeric literals read
    naturally: ``E("product", id="13")`` and ``E("product", id=13)`` agree.

    The children are attached directly, without :meth:`Element.append`'s
    cycle walk: the new element is fresh, so none of them can be its
    ancestor. A child that already has a parent or belongs to a document
    is refused with the error ``append`` (or attaching the result to a
    document) would raise.
    """
    elem = Element(tag, {k: str(v) for k, v in attrib.items()}, text)
    kids = elem._children
    for child in children:
        if not isinstance(child, Element):
            raise XMLModelError(f"cannot insert non-element {child!r}")
        if child.parent is not None:
            raise XMLModelError(
                f"<{child.tag}> already has a parent <{child.parent.tag}>; detach it first"
            )
        if child.document is not None:
            raise XMLModelError(f"<{child.tag}> belongs to document {child.document.name!r}")
        child.parent = elem
        kids.append(child)
    return elem


def doc(name: str, root: Element) -> Document:
    """Wrap a detached element tree into a :class:`Document`."""
    return Document(name, root)
