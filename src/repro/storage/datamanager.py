"""The DataManager component (paper §2.1).

"The DataManager is the component used by DTX to interact with the XML data
storage structure. It is responsible for recovering XML data from the storage
structure, converting it into a proper representation structure, and
providing means for updating the data in the storage structure."

Each site has one DataManager holding the *live* in-memory documents the
TransactionManager works on, and — apart from them where they differ — the
*committed* state that storage must hold. "Updating the data" costs what the
committed batch costs, not what the document costs: the DataManager keeps the
exact serialized length of every committed tree current from the byte deltas
the update applier reports, and hands the backend the tree and that length
(``StorageBackend.write_back``). ``load``/``install``/``commit`` return byte
counts so the site can charge parse/persist time in the cost model, and
``snapshot`` hands over a clone of the committed tree with its length.
"""

from __future__ import annotations

from typing import Iterable, Optional

from ..errors import StorageError
from ..update.applier import apply_update
from ..update.operations import AppliedChange, UpdateOperation
from ..xml.model import Document
from ..xml.serializer import serialized_size
from ..xpath.evaluator import EvalStats
from .base import StorageBackend


class DataManager:
    def __init__(self, backend: StorageBackend):
        self.backend = backend
        self._live: dict[str, Document] = {}
        # Committed-state shadow copies. The live document of a doc this
        # site executes writes on can carry *uncommitted* effects of
        # in-flight transactions; persisting it verbatim would smuggle
        # those into storage, and a crash+reload would resurrect them. The
        # shadow (cloned from the live tree just before the first local
        # write) advances only by committed update batches and is what gets
        # persisted. Docs without local writes need no shadow: their live
        # tree *is* the committed state.
        self._committed: dict[str, Document] = {}
        # Exact serialized byte length of each document's committed tree
        # (the shadow where there is one, else the live tree): what
        # ``backend.store`` reported for it, moved by the applier's byte
        # deltas since. A backend that puts rendering off reads it
        # (``FileStore`` renders per write-back and counts for itself), and
        # so does a snapshot's size.
        self._sizes: dict[str, int] = {}

    # -- loading -----------------------------------------------------------

    def load(self, name: str) -> tuple[Document, int]:
        """Materialize ``name`` from storage (or return the live instance).

        Returns ``(document, bytes_parsed)``; the byte count is zero when the
        document was already live (no parse happened).
        """
        if name in self._live:
            return self._live[name], 0
        size = self.backend.size_bytes(name)
        doc = self.backend.load(name)
        self._live[name] = doc
        # Measured, not taken from the stored text: parsing normalises
        # (surrounding whitespace, '' text), so the two can differ.
        self._sizes[name] = serialized_size(doc.root)
        return doc, size

    def document(self, name: str) -> Document:
        """The live document (must have been loaded)."""
        try:
            return self._live[name]
        except KeyError:
            raise StorageError(f"document {name!r} is not loaded") from None

    def is_loaded(self, name: str) -> bool:
        return name in self._live

    def live_documents(self) -> list[str]:
        return sorted(self._live)

    # -- committed state and persistence -------------------------------------

    def begin_write(self, name: str) -> None:
        """A local transaction is about to write the live tree of ``name``.

        Before the first such write the live tree still equals the committed
        state: clone it as the shadow that persists are taken from, and move
        the backend's reference along, because from here on the live tree
        carries uncommitted effects.
        """
        if name not in self._committed:
            shadow = self._committed[name] = self.document(name).clone()
            self.backend.rebind(shadow)

    def apply_replicated(
        self, name: str, update: UpdateOperation, stats: Optional[EvalStats] = None
    ) -> list[AppliedChange]:
        """Apply one operation of a batch committed elsewhere to this copy:
        to the live tree (whose changes are returned) and to the shadow."""
        changes = apply_update(update, self.document(name), None, stats)
        shadow = self._committed.get(name)
        committed = changes if shadow is None else apply_update(update, shadow)
        self._sizes[name] += sum(c.byte_delta for c in committed)
        return changes

    def commit(self, name: str, updates: Iterable[UpdateOperation] = ()) -> int:
        """Write the committed state of ``name`` back; returns bytes written.

        ``updates`` executed on the live tree as a local transaction's
        writes and have now become committed: they are folded into the
        shadow (without one, the live tree is the committed state).
        """
        tree = self._committed.get(name)
        if tree is None:
            tree = self.document(name)
        else:
            for update in updates:
                self._sizes[name] += sum(
                    c.byte_delta for c in apply_update(update, tree)
                )
        return self.backend.write_back(tree, self._sizes[name])

    def snapshot(self, name: str) -> tuple[Document, int]:
        """A private copy of the committed state of ``name`` and its exact
        serialized byte length, for handing the state to another site.

        The clone numbers its nodes in pre-order from 0, as a parse of the
        persisted text does, but keeps the tree as it is: rendering and
        parsing back would normalise text (surrounding whitespace, ``''``).
        """
        tree = self._committed.get(name)
        if tree is None:
            tree = self.document(name)
        return tree.clone(), self._sizes[name]

    # -- lifecycle ---------------------------------------------------------------

    def install(self, doc: Document) -> int:
        """Adopt a new document: register live and persist it."""
        if doc.name in self._live:
            raise StorageError(f"document {doc.name!r} already loaded")
        return self._adopt(doc)

    def replace(self, doc: Document) -> int:
        """Swap in and persist a new live instance of an already-hosted
        document (snapshot transfer during catch-up). It is committed state:
        a shadow of the instance it replaces goes."""
        if doc.name not in self._live:
            raise StorageError(f"document {doc.name!r} is not hosted here")
        self._committed.pop(doc.name, None)
        return self._adopt(doc)

    def _adopt(self, doc: Document) -> int:
        self._live[doc.name] = doc
        size = self._sizes[doc.name] = self.backend.store(doc)
        return size

    def evict(self, name: str) -> None:
        """Drop the in-memory state (storage keeps the last persisted state)."""
        self._live.pop(name, None)
        self._committed.pop(name, None)
        self._sizes.pop(name, None)

    def drop(self, name: str) -> None:
        """Forget ``name`` altogether, in memory and in storage."""
        self.evict(name)
        if self.backend.exists(name):
            self.backend.delete(name)

    def crash(self) -> None:
        """Memory is lost: storage first renders what it still took from the
        committed trees, then the shadows go. The live documents stay listed
        until :meth:`reload` re-materializes each from storage."""
        self.backend.flush()
        self._committed.clear()

    def reload(self, name: str) -> tuple[Document, int]:
        """Discard the live copy and re-materialize from storage.

        Crash recovery: whatever was in memory is gone; the last persisted
        state is what the site restarts from.
        """
        self.evict(name)
        return self.load(name)
