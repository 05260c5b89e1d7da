"""Storage backend interface.

DTX "recovers the XML documents from a storage structure, carries out the
necessary processing, and then updates the modifications in the storage
structure. The storage structures of these documents are independent" (paper
§2). A backend stores *serialized* documents, and the simulation's cost model
charges parse/persist time by their byte counts. What is charged and what is
rendered are separate things: :meth:`StorageBackend.store` takes the text
now — the caller's rendering when it passes one (a document placed on
several sites is rendered once, and every store keeps that one string), its
own otherwise — while :meth:`StorageBackend.write_back` — the per-commit
path — is told the exact byte length by the caller (the DataManager keeps it
current from the byte deltas of the committed updates), so a backend holding
the tree in memory may put off rendering until the durable form is read.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Optional

from ..xml.model import Document


class StorageBackend(ABC):
    """Named, serialized XML document store (the Sedna role)."""

    @abstractmethod
    def store(self, doc: Document, text: Optional[str] = None) -> int:
        """Persist ``doc`` under its name; returns the serialized size in
        bytes. ``text``, when given, is ``serialize_document(doc)``, which
        the backend need not render again."""

    def write_back(self, doc: Document, size: int) -> int:
        """Persist ``doc``, whose serialization the caller knows to be
        ``size`` bytes long; returns the bytes to charge. The caller mutates ``doc`` only
        together with the next write-back, so a backend may keep the
        reference and render on demand. This default renders now."""
        return self.store(doc)

    def rebind(self, doc: Document) -> None:
        """The committed state last written back for ``doc.name`` now lives
        in ``doc`` (an equal tree); the tree handed over before is about to
        take uncommitted writes. Nothing to do unless rendering is put off."""

    def flush(self) -> None:
        """Render everything put off (the memory holding the trees is about
        to be lost). Nothing to do unless rendering is put off."""

    @abstractmethod
    def load(self, name: str) -> Document:
        """Load and parse the document called ``name``."""

    @abstractmethod
    def exists(self, name: str) -> bool: ...

    @abstractmethod
    def delete(self, name: str) -> None: ...

    @abstractmethod
    def list_documents(self) -> list[str]: ...

    @abstractmethod
    def size_bytes(self, name: str) -> int:
        """Serialized size of a stored document."""
