"""Strong DataGuide (Goldman & Widom, VLDB '97) with incremental maintenance.

A strong DataGuide of a tree-shaped XML document is a label-path trie: every
root-to-node tag path that occurs in the document occurs **exactly once** in
the guide, and each guide node is annotated with its *target set* — the ids
of the document nodes reachable by that path.

XDGL locks guide nodes instead of document nodes: because the guide
summarizes arbitrarily many document nodes per label path, its size tracks
schema complexity rather than data volume, which is the source of DTX's low
lock-management overhead (paper §3: "it uses a summarized data structure ...
keeps a better size structure than the original XML document").

The guide is maintained incrementally from the
:class:`~repro.update.operations.AppliedChange` records produced by the
update applier, including pruning of guide nodes whose target set drains
(strong-DataGuide minimality).
"""

from __future__ import annotations

from itertools import count
from typing import Iterator, Optional

from ..errors import ReproError
from ..update.operations import AppliedChange
from ..xml.model import Document, Element

LabelPath = tuple[str, ...]

# Process-wide version clock shared by all guides: a freshly (re)built guide
# can never report a version some older guide of the same document already
# reported, so a LockSpec cached against a version stays invalid across
# rebuilds (snapshot installs, re-registration) — not just across edits.
_VERSION_CLOCK = count(1)


class DataGuideNode:
    """One label path of the document; annotated with its target set."""

    __slots__ = ("tag", "parent", "_children", "targets", "guide")

    def __init__(self, tag: str, parent: Optional["DataGuideNode"] = None):
        self.tag = tag
        self.parent = parent
        self._children: dict[str, DataGuideNode] = {}
        self.targets: set[int] = set()
        self.guide: Optional["DataGuide"] = None

    @property
    def children(self) -> tuple["DataGuideNode", ...]:
        """Child guide nodes (order = first-seen order, deterministic)."""
        return tuple(self._children.values())

    def child(self, tag: str) -> Optional["DataGuideNode"]:
        return self._children.get(tag)

    def label_path(self) -> LabelPath:
        parts = [self.tag]
        cur = self.parent
        while cur is not None:
            parts.append(cur.tag)
            cur = cur.parent
        parts.reverse()
        return tuple(parts)

    def ancestors(self) -> Iterator["DataGuideNode"]:
        cur = self.parent
        while cur is not None:
            yield cur
            cur = cur.parent

    def iter_subtree(self) -> Iterator["DataGuideNode"]:
        stack: list[DataGuideNode] = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(list(node._children.values())))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<DataGuideNode {'/'.join(self.label_path())} targets={len(self.targets)}>"


class DataGuide:
    """Strong DataGuide of one document."""

    def __init__(self, doc_name: str):
        self.doc_name = doc_name
        self.root: Optional[DataGuideNode] = None
        self._by_path: dict[LabelPath, DataGuideNode] = {}
        # Bumped only when a guide node is created (_add_path) or pruned
        # (_prune): the guide's *shape* — its label paths, their parents and
        # child order — is all an XDGL lock rule reads (match_structure looks
        # at tags and children, and nodes_visited counts candidates, never
        # targets). Adding an id to, or dropping one from, an existing label
        # path leaves it alone. A node pruned and re-created moves to the end
        # of its parent's children, and both events bump. So unchanged
        # version => unchanged shape => a lock spec computed against it is
        # still exact. Two caches rely on this: the spec a blocked operation
        # computed, reused on its retry (SiteTxContext.spec_cache), and
        # XDGLProtocol's memo of query and update specs. A rule that read
        # target sets would need another stamp.
        self.version = next(_VERSION_CLOCK)

    # -- construction -----------------------------------------------------

    @classmethod
    def build(cls, document: Document) -> "DataGuide":
        """Build the guide of ``document`` in one pre-order descent.

        Each element is handed its parent's guide node, so no label path is
        recomputed per element; guide nodes are created when first reached,
        which keeps their children in first-seen order.
        """
        guide = cls(document.name)
        if document.root is None:
            return guide
        by_path = guide._by_path
        stack: list[tuple[Element, Optional[DataGuideNode]]] = [(document.root, None)]
        while stack:
            element, above = stack.pop()
            node = guide.root if above is None else above._children.get(element.tag)
            if node is None:
                node = DataGuideNode(element.tag, parent=above)
                node.guide = guide
                if above is None:
                    guide.root = node
                else:
                    above._children[element.tag] = node
                by_path[node.label_path()] = node
            node.targets.add(element.node_id)
            stack.extend((child, node) for child in reversed(element._children))
        return guide

    # -- lookups -----------------------------------------------------------

    def node_for_path(self, path: LabelPath) -> Optional[DataGuideNode]:
        """Guide node for a label path, or ``None`` if the path never occurs."""
        return self._by_path.get(tuple(path))

    def node_for_element(self, element: Element) -> Optional[DataGuideNode]:
        return self._by_path.get(element.label_path())

    def paths(self) -> list[LabelPath]:
        """All label paths, sorted (stable for reporting and tests)."""
        return sorted(self._by_path)

    def node_count(self) -> int:
        return len(self._by_path)

    def __len__(self) -> int:
        return len(self._by_path)

    def __contains__(self, path: LabelPath) -> bool:
        return tuple(path) in self._by_path

    # -- incremental maintenance -------------------------------------------

    def _add_path(self, path: LabelPath, target_id: int) -> DataGuideNode:
        if not path:
            raise ReproError("empty label path")
        if self.root is None:
            self.version = next(_VERSION_CLOCK)
            self.root = DataGuideNode(path[0])
            self.root.guide = self
            self._by_path[(path[0],)] = self.root
        if self.root.tag != path[0]:
            raise ReproError(
                f"document {self.doc_name!r} root mismatch: "
                f"guide has {self.root.tag!r}, path starts with {path[0]!r}"
            )
        node = self.root
        for depth in range(1, len(path)):
            tag = path[depth]
            nxt = node._children.get(tag)
            if nxt is None:
                self.version = next(_VERSION_CLOCK)
                nxt = DataGuideNode(tag, parent=node)
                nxt.guide = self
                node._children[tag] = nxt
                self._by_path[path[: depth + 1]] = nxt
            node = nxt
        node.targets.add(target_id)
        return node

    def _remove_path(self, path: LabelPath, target_id: int) -> None:
        node = self._by_path.get(tuple(path))
        if node is None:
            raise ReproError(f"label path {'/'.join(path)} not in guide")
        node.targets.discard(target_id)
        self._prune(node)

    def _prune(self, node: DataGuideNode) -> None:
        """Remove ``node`` (and drained ancestors) once nothing targets it."""
        while node is not None and not node.targets and not node._children:
            self.version = next(_VERSION_CLOCK)
            parent = node.parent
            if parent is None:
                self.root = None
            else:
                del parent._children[node.tag]
            del self._by_path[node.label_path()]
            node.guide = None
            if parent is None:
                break
            node = parent

    def apply_change(self, change: AppliedChange) -> None:
        """Sync the guide with one applied (or undone) document mutation.

        For structural changes the applier records the affected subtree's
        nodes with their old and new label paths, as they were at that
        mutation; the guide re-registers the nodes' ids accordingly. Replaying
        an operation's records in order is exact even when a later record
        moves part of an earlier one's subtree away (nested transposes).
        """
        kind = change.kind
        if kind == "change":
            return  # text-only: no structural effect
        if kind == "insert":
            for path, el in zip(change.new_label_paths, change.nodes):
                self._add_path(path, el.node_id)
            return
        if kind == "remove":
            for path, el in zip(change.old_label_paths, change.nodes):
                self._remove_path(path, el.node_id)
            return
        if kind in ("rename", "transpose"):
            for path, el in zip(change.old_label_paths, change.nodes):
                self._remove_path(path, el.node_id)
            for path, el in zip(change.new_label_paths, change.nodes):
                self._add_path(path, el.node_id)
            return
        raise ReproError(f"unknown change kind {kind!r}")

    def undo_change(self, change: AppliedChange) -> None:
        """Sync the guide with the rollback of ``change``.

        Contract: unwind records newest-first, across and within operations
        (this is what ``DTXSite._abort_at_site`` does); each record is
        inverted from its recorded nodes and paths alone.
        """
        kind = change.kind
        if kind == "change":
            return
        if kind == "insert":
            for path, el in zip(change.new_label_paths, change.nodes):
                self._remove_path(path, el.node_id)
            return
        if kind == "remove":
            for path, el in zip(change.old_label_paths, change.nodes):
                self._add_path(path, el.node_id)
            return
        if kind in ("rename", "transpose"):
            for path, el in zip(change.new_label_paths, change.nodes):
                self._remove_path(path, el.node_id)
            for path, el in zip(change.old_label_paths, change.nodes):
                self._add_path(path, el.node_id)
            return
        raise ReproError(f"unknown change kind {kind!r}")

    # -- validation ----------------------------------------------------------

    def validate_against(self, document: Document) -> None:
        """Assert the strong-DataGuide invariants w.r.t. ``document``.

        1. Every label path in the document has exactly one guide node.
        2. Every guide node's target set equals the ids of the document nodes
           with that label path (completeness + minimality: no stale nodes).
        """
        expected: dict[LabelPath, set[int]] = {}
        for el in document.iter():
            expected.setdefault(el.label_path(), set()).add(el.node_id)
        actual = {path: set(node.targets) for path, node in self._by_path.items()}
        if expected != actual:
            missing = sorted(set(expected) - set(actual))
            stale = sorted(set(actual) - set(expected))
            diffs = [
                path
                for path in set(expected) & set(actual)
                if expected[path] != actual[path]
            ]
            raise ReproError(
                f"DataGuide out of sync with {document.name!r}: "
                f"missing={missing} stale={stale} target-mismatch={sorted(diffs)}"
            )

    def pretty(self) -> str:
        """Indented rendering of the guide (for docs, debugging, examples)."""
        if self.root is None:
            return "(empty guide)"
        lines: list[str] = []

        def walk(node: DataGuideNode, depth: int) -> None:
            lines.append(f"{'  ' * depth}{node.tag} [{len(node.targets)}]")
            for child in node.children:
                walk(child, depth + 1)

        walk(self.root, 0)
        return "\n".join(lines)
