"""Undo log for update operations.

DTX applies updates to the in-memory tree as soon as an operation's locks are
granted; aborting a transaction must "undo all its effects on the required
data" (paper §2). Every mutation records an inverse entry; rolling back
replays the inverses in reverse order, restoring the tree byte-for-byte
(including node identities — removed subtrees keep their node ids and regain
them when reattached).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from ..errors import UpdateError
from ..xml.model import Document, Element


@dataclass
class InsertUndo:
    """Inverse of an insert: detach the inserted subtree."""

    inserted: Element

    def rollback(self, doc: Document) -> None:
        if self.inserted.parent is None:
            raise UpdateError("cannot undo insert: node already detached")
        self.inserted.parent.remove(self.inserted)


@dataclass
class RemoveUndo:
    """Inverse of a remove: reattach the subtree at its original slot."""

    removed: Element
    parent: Element
    index: int

    def rollback(self, doc: Document) -> None:
        self.parent.insert(self.index, self.removed)


@dataclass
class RenameUndo:
    """Inverse of a rename: restore the old tag."""

    node: Element
    old_name: str

    def rollback(self, doc: Document) -> None:
        self.node.rename(self.old_name)


@dataclass
class ChangeUndo:
    """Inverse of a change: restore the old text."""

    node: Element
    old_value: Union[str, None]

    def rollback(self, doc: Document) -> None:
        self.node.text = self.old_value


@dataclass
class TransposeUndo:
    """Inverse of a transpose: move the subtree back where it came from."""

    node: Element
    old_parent: Element
    old_index: int

    def rollback(self, doc: Document) -> None:
        if self.node.parent is not None:
            self.node.parent.remove(self.node)
        self.old_parent.insert(self.old_index, self.node)


UndoEntry = Union[InsertUndo, RemoveUndo, RenameUndo, ChangeUndo, TransposeUndo]


class UndoLog:
    """Ordered log of inverse entries for one transaction at one site."""

    def __init__(self) -> None:
        self._entries: list[tuple[Document, UndoEntry]] = []

    def record(self, doc: Document, entry: UndoEntry) -> None:
        self._entries.append((doc, entry))

    def __len__(self) -> int:
        return len(self._entries)

    def rollback(self) -> int:
        """Undo everything, newest first. Returns the number of entries undone."""
        count = 0
        while self._entries:
            doc, entry = self._entries.pop()
            entry.rollback(doc)
            count += 1
        return count

    def rollback_last(self, n: int) -> int:
        """Undo only the newest ``n`` entries (used to back out one operation)."""
        count = 0
        for _ in range(min(n, len(self._entries))):
            doc, entry = self._entries.pop()
            entry.rollback(doc)
            count += 1
        return count

    def clear(self) -> None:
        """Forget all entries (after a successful commit)."""
        self._entries.clear()

    @property
    def touched_documents(self) -> list[Document]:
        """Documents with at least one pending (un-committed) change."""
        seen: list[Document] = []
        for doc, _ in self._entries:
            if doc not in seen:
                seen.append(doc)
        return seen
