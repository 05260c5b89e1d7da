"""In-memory native XML store — the reproduction's stand-in for Sedna.

DTX "recovers the XML documents from a storage structure, carries out the
necessary processing, and then updates the modifications in the storage
structure. The storage structures of these documents are independent" (paper
§2). Documents are kept *serialized* (as Sedna keeps them paged on disk):
every load really parses, and ``store`` keeps the document's text — the
caller's rendering when it passes one (the same immutable string may then
sit in several stores), its own otherwise. A per-commit ``write_back`` does
not render: it keeps the caller's renderer of the committed state and the
exact byte length the caller reports (the DataManager keeps it current from
the byte deltas of the change records), and the text is rendered only when
the durable form is read (``load``/``raw``) or when ``flush`` says the
memory is going away. The DataManager charges simulated time by the byte
counts returned here, which are the same either way; ``stats.stores``
counts persists, ``stats.bytes_written`` the bytes stored or rendered.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from ..errors import StorageError
from ..xml.model import Document
from ..xml.parser import parse_document
from ..xml.serializer import serialize_document


@dataclass
class StoreStats:
    loads: int = 0
    stores: int = 0
    bytes_written: int = 0
    bytes_read: int = 0
    per_document_stores: dict[str, int] = field(default_factory=dict)


class InMemoryStore:
    """Named, serialized XML document store (the Sedna role)."""

    def __init__(self) -> None:
        self._data: dict[str, str] = {}  # rendered text; stale while deferred
        self._sizes: dict[str, int] = {}  # UTF-8 length of the durable form
        # written back, not rendered: the renderer of the committed state
        self._deferred: dict[str, Callable[[], str]] = {}
        self.stats = StoreStats()

    def _count_store(self, name: str) -> None:
        self.stats.stores += 1
        self.stats.per_document_stores[name] = (
            self.stats.per_document_stores.get(name, 0) + 1
        )

    def store(self, doc: Document, text: Optional[str] = None) -> int:
        """Persist ``doc`` under its name; returns the serialized size in
        bytes. ``text``, when given, is ``serialize_document(doc)``, which
        is not rendered again."""
        if text is None:
            text = serialize_document(doc)
        size = len(text.encode("utf-8"))
        self._deferred.pop(doc.name, None)
        self._data[doc.name] = text
        self._sizes[doc.name] = size
        self._count_store(doc.name)
        self.stats.bytes_written += size
        return size

    def write_back(self, name: str, size: int, render: Callable[[], str]) -> int:
        """Persist the committed state of ``name``, whose serialization the
        caller knows to be ``size`` bytes long; returns the bytes to charge.
        ``render()`` returns that text: it renders the committed state as it
        is when called, and the caller moves that state only together with
        the next write-back, so it is kept and called when the durable form
        is read."""
        self._deferred[name] = render
        self._sizes[name] = size
        self._count_store(name)
        return size

    def flush(self) -> None:
        """Render everything put off (the memory holding the trees is about
        to be lost)."""
        for name in list(self._deferred):
            self.raw(name)

    def load(self, name: str) -> Document:
        """Load and parse the document called ``name``."""
        text = self.raw(name)
        self.stats.loads += 1
        self.stats.bytes_read += self._sizes[name]
        return parse_document(text, name=name)

    def exists(self, name: str) -> bool:
        return name in self._sizes

    def delete(self, name: str) -> None:
        if name not in self._sizes:
            raise StorageError(f"document {name!r} not in store")
        del self._sizes[name]
        self._data.pop(name, None)
        self._deferred.pop(name, None)

    def list_documents(self) -> list[str]:
        return sorted(self._sizes)

    def size_bytes(self, name: str) -> int:
        try:
            return self._sizes[name]
        except KeyError:
            raise StorageError(f"document {name!r} not in store") from None

    def raw(self, name: str) -> str:
        """Serialized text as stored (tests compare persisted states)."""
        render = self._deferred.pop(name, None)
        if render is not None:
            self._data[name] = render()
            self.stats.bytes_written += self._sizes[name]
        try:
            return self._data[name]
        except KeyError:
            raise StorageError(f"document {name!r} not in store") from None
