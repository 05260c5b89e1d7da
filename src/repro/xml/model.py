"""In-memory XML tree model.

DTX handles XML data in main memory (paper §2): the :class:`Document` /
:class:`Element` pair here is that representation. Compared to a generic DOM
it is deliberately lean but adds the three properties the concurrency and
query layers need:

* **stable node identities** — every element attached to a document gets a
  document-unique integer ``node_id`` that survives for the node's lifetime;
  lock tables, change records and DataGuide target sets refer to nodes by
  id, and a node detached by a remove keeps its id for a revert;
* **label paths** — each node knows its root-to-node tag path, the key used
  to map document nodes onto DataGuide nodes;
* **tag extents** — a document keeps, per tag, the live nodes carrying it
  (``tag -> {node_id: Element}``), so that a leading ``//name`` is answered
  from the nodes that match instead of from a walk over all that do not.
  The extents are unordered: the registry loops that already touch every
  attached and detached node keep them, :meth:`Element.rename` is the one
  way to retag a node, and the XPath evaluator recovers document order with
  one descent pruned to the extent's ancestors. They belong to the document,
  not to the DataGuide, because queries also run on trees that have no guide
  (view shadows, snapshots, the Node2PL and DocLock protocols);
* **answers** — a document also keeps, for the XPath evaluator, the answer
  of every plan evaluated on it (:mod:`repro.xpath.evaluator` reads and
  fills them). An answer describes one state of the tree, so **an attached
  element's text, tag and structure change only through the methods
  here**: :meth:`Element.insert`, :meth:`~Element.remove`,
  :meth:`~Element.rename` and :meth:`~Element.set_text`, and
  :meth:`Document.set_root` and :meth:`~Document.graft`. Each drops the
  document's answers. Nothing changes an attached element's attributes.
  Assigning ``text``, ``tag`` or ``attrib`` of an attached element by hand
  leaves stale answers behind; only detached trees (the parser's, the
  builder's) are written that way.

Mixed content is simplified: an element carries a single optional ``text``
payload plus element children, which covers the XMark-style data-management
workloads of the paper.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator, Optional, Union

from ..errors import XMLModelError

#: Value type produced by :meth:`Element.typed_value`.
Scalar = Union[str, float]


class Element:
    """A single XML element: tag, attributes, optional text, children."""

    __slots__ = ("tag", "attrib", "text", "_children", "parent", "node_id", "document")

    def __init__(self, tag: str, attrib: Optional[dict] = None, text: Optional[str] = None):
        if not tag or not _is_name(tag):
            raise XMLModelError(f"invalid element tag: {tag!r}")
        self.tag = tag
        self.attrib: dict[str, str] = dict(attrib) if attrib else {}
        self.text = text
        self._children: list[Element] = []
        self.parent: Optional[Element] = None
        self.node_id: int = -1  # assigned when attached to a Document
        self.document: Optional["Document"] = None

    # -- structure -----------------------------------------------------

    @property
    def children(self) -> tuple["Element", ...]:
        """Immutable view of the element children, in document order."""
        return tuple(self._children)

    def __len__(self) -> int:
        return len(self._children)

    def __iter__(self) -> Iterator["Element"]:
        return iter(self._children)

    def child_index(self, child: "Element") -> int:
        """Position of ``child`` among this element's children."""
        for i, c in enumerate(self._children):
            if c is child:
                return i
        raise XMLModelError(f"<{child.tag}> is not a child of <{self.tag}>")

    def append(self, child: "Element") -> "Element":
        """Attach ``child`` as the last child. Returns ``child``."""
        return self.insert(len(self._children), child)

    def insert(self, index: int, child: "Element") -> "Element":
        """Attach ``child`` at ``index`` (clamped to the valid range)."""
        if not isinstance(child, Element):
            raise XMLModelError(f"cannot insert non-element {child!r}")
        if child.parent is not None:
            raise XMLModelError(
                f"<{child.tag}> already has a parent <{child.parent.tag}>; detach it first"
            )
        if child is self or self._has_ancestor(child):
            raise XMLModelError("inserting a node under itself would create a cycle")
        index = max(0, min(index, len(self._children)))
        self._children.insert(index, child)
        child.parent = self
        if self.document is not None:
            self.document._register_subtree(child)
        return child

    def remove(self, child: "Element") -> "Element":
        """Detach ``child`` (and its subtree) from this element."""
        idx = self.child_index(child)
        self._children.pop(idx)
        child.parent = None
        if self.document is not None:
            self.document._unregister_subtree(child)
        return child

    def rename(self, new_tag: str) -> None:
        """Retag this element, moving it between its document's tag extents."""
        if not new_tag or not _is_name(new_tag):
            raise XMLModelError(f"invalid element tag: {new_tag!r}")
        doc = self.document
        if doc is not None and new_tag != self.tag:
            extents = doc._extents
            old = extents[self.tag]
            del old[self.node_id]
            if not old:
                del extents[self.tag]
            extents.setdefault(new_tag, {})[self.node_id] = self
            doc._answers.clear()
        self.tag = new_tag

    def set_text(self, text: Optional[str]) -> None:
        """Replace this element's text: the one way to change the text of an
        attached element, since its document's answers may depend on it."""
        self.text = text
        doc = self.document
        if doc is not None:
            doc._answers.clear()

    def detach(self) -> "Element":
        """Detach this element from its parent; no-op for parentless nodes."""
        if self.parent is not None:
            self.parent.remove(self)
        return self

    def _has_ancestor(self, node: "Element") -> bool:
        cur = self.parent
        while cur is not None:
            if cur is node:
                return True
            cur = cur.parent
        return False

    # -- navigation ----------------------------------------------------

    def ancestors(self) -> Iterator["Element"]:
        """Yield ancestors from parent up to the root."""
        cur = self.parent
        while cur is not None:
            yield cur
            cur = cur.parent

    def iter_subtree(self) -> Iterator["Element"]:
        """Pre-order traversal of this node and all descendants."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node._children))

    def descendants(self) -> Iterator["Element"]:
        """Pre-order traversal of strict descendants."""
        it = self.iter_subtree()
        next(it)  # skip self
        return it

    def subtree_size(self) -> int:
        """Number of elements in this subtree, including ``self``."""
        return sum(1 for _ in self.iter_subtree())

    @property
    def depth(self) -> int:
        """0 for the root, parents + 1 otherwise."""
        return sum(1 for _ in self.ancestors())

    def label_path(self) -> tuple[str, ...]:
        """Root-to-node tag path, e.g. ``('people', 'person', 'id')``."""
        parts = [self.tag]
        parts.extend(a.tag for a in self.ancestors())
        parts.reverse()
        return tuple(parts)

    # -- content helpers -------------------------------------------------

    def find_children(self, tag: str) -> list["Element"]:
        """All direct children with the given tag."""
        return [c for c in self._children if c.tag == tag]

    def child(self, tag: str) -> Optional["Element"]:
        """First direct child with the given tag, or ``None``."""
        for c in self._children:
            if c.tag == tag:
                return c
        return None

    def typed_value(self) -> Optional[Scalar]:
        """Text content coerced to ``float`` when possible, else ``str``."""
        if self.text is None:
            return None
        try:
            return float(self.text)
        except ValueError:
            return self.text

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Element {self.tag!r} id={self.node_id} children={len(self._children)}>"


class Document:
    """An XML document: a named tree with a node-id registry.

    A document owns its nodes: attaching a subtree registers every node and
    assigns fresh ids; detaching unregisters them (their ids are retired,
    never reused, so stale references can be detected).
    """

    __slots__ = ("name", "root", "_nodes", "_next_id", "_extents", "_answers")

    def __init__(self, name: str, root: Optional[Element] = None):
        if not name:
            raise XMLModelError("document name must be non-empty")
        self.name = name
        self.root: Optional[Element] = None
        self._nodes: dict[int, Element] = {}
        self._next_id = 0
        self._extents: dict[str, dict[int, Element]] = {}
        #: Owned by the XPath evaluator: plan -> (elements, nodes charged).
        self._answers: dict = {}
        if root is not None:
            self.set_root(root)

    # -- registry --------------------------------------------------------

    def set_root(self, root: Element) -> Element:
        """Install ``root`` as the document root (document must be empty)."""
        if self.root is not None:
            raise XMLModelError(f"document {self.name!r} already has a root")
        if root.parent is not None or root.document is not None:
            raise XMLModelError("root must be a detached, unowned element")
        self.root = root
        self._register_subtree(root)
        return root

    def _register_subtree(self, node: Element) -> None:
        nodes, extents = self._nodes, self._extents
        for n in node.iter_subtree():
            if n.document is not None and n.document is not self:
                raise XMLModelError(
                    f"<{n.tag}> belongs to document {n.document.name!r}"
                )
            if n.node_id < 0:
                n.node_id = self._next_id
                self._next_id += 1
            n.document = self
            nodes[n.node_id] = n
            extent = extents.get(n.tag)
            if extent is None:
                extent = extents[n.tag] = {}
            extent[n.node_id] = n
        self._answers.clear()

    def _unregister_subtree(self, node: Element) -> None:
        nodes, extents = self._nodes, self._extents
        for n in node.iter_subtree():
            if nodes.pop(n.node_id, None) is not None:
                extent = extents[n.tag]
                del extent[n.node_id]
                if not extent:
                    del extents[n.tag]
            n.document = None
        self._answers.clear()

    def node(self, node_id: int) -> Element:
        """Look up a live node by id."""
        try:
            return self._nodes[node_id]
        except KeyError:
            raise XMLModelError(
                f"node id {node_id} is not live in document {self.name!r}"
            ) from None

    def has_node(self, node_id: int) -> bool:
        return node_id in self._nodes

    def extent(self, tag: str) -> dict[int, Element]:
        """The live elements tagged ``tag``, by node id, in no particular
        order (read-only: the registry owns it)."""
        return self._extents.get(tag) or {}

    def __contains__(self, node: Element) -> bool:
        return self._nodes.get(node.node_id) is node

    def __len__(self) -> int:
        """Number of live elements."""
        return len(self._nodes)

    def iter(self) -> Iterator[Element]:
        """Pre-order traversal of the whole document."""
        if self.root is None:
            return iter(())
        return self.root.iter_subtree()

    # -- measures ----------------------------------------------------------

    def size_bytes(self) -> int:
        """Approximate serialized size (used by the network/persist models)."""
        total = 0
        for n in self.iter():
            total += 2 * len(n.tag) + 5  # <tag></tag>
            for k, v in n.attrib.items():
                total += len(k) + len(v) + 4
            if n.text:
                total += len(n.text)
        return total

    def clone(self, name: Optional[str] = None) -> "Document":
        """Deep copy numbered in pre-order from 0 (a replica at another site)."""
        copy = Document(name or self.name)
        if self.root is not None:
            copy.graft(self.root)
        return copy

    def graft(
        self, source: Element, parent: Optional[Element] = None, index: Optional[int] = None
    ) -> Element:
        """Attach a copy of the subtree at ``source`` (from any document, or
        none) under ``parent`` of this document — at ``index`` among its
        children, last by default — or as the root when ``parent`` is None.

        One pass builds the copy and registers it: its nodes take the next
        ids in pre-order, as attaching a copy with :meth:`Element.insert`
        would give them, and no attribute dict is shared with ``source``.
        Returns the copy of ``source``.
        """
        if parent is None:
            if self.root is not None:
                raise XMLModelError(f"document {self.name!r} already has a root")
        elif parent.document is not self:
            raise XMLModelError(f"<{parent.tag}> is not in document {self.name!r}")
        nodes, extents = self._nodes, self._extents
        next_id = self._next_id
        new = Element.__new__  # no __init__: the source's tags are valid names
        top: Optional[Element] = None
        stack = [(source, parent)]
        pop, push = stack.pop, stack.append
        while stack:
            original, up = pop()
            node = new(Element)
            node.tag = tag = original.tag
            node.attrib = original.attrib.copy()
            node.text = original.text
            node._children = []
            node.parent = up
            node.node_id = next_id
            node.document = self
            nodes[next_id] = node
            extent = extents.get(tag)
            if extent is None:
                extent = extents[tag] = {}
            extent[next_id] = node
            next_id += 1
            if top is None:
                top = node
            else:
                up._children.append(node)
            children = original._children
            for i in range(len(children) - 1, -1, -1):
                push((children[i], node))
        self._next_id = next_id
        if parent is None:
            self.root = top
        elif index is None:
            parent._children.append(top)
        else:
            parent._children.insert(index, top)
        self._answers.clear()
        return top

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Document {self.name!r} nodes={len(self._nodes)}>"


_NAME_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_:")
_NAME_CHARS = _NAME_START | set("0123456789.-")


@lru_cache(maxsize=1024)  # a document has few distinct tags, many nodes
def _is_name(s: str) -> bool:
    """True when ``s`` is a valid (simplified) XML name."""
    if not s or s[0] not in _NAME_START:
        return False
    return all(c in _NAME_CHARS for c in s[1:])
