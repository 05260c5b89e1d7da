"""The DataManager component (paper §2.1).

"The DataManager is the component used by DTX to interact with the XML data
storage structure. It is responsible for recovering XML data from the storage
structure, converting it into a proper representation structure, and
providing means for updating the data in the storage structure."

Each site has one DataManager and one in-memory tree per document, the
*live* tree the TransactionManager works on. Storage must hold the
*committed* state: the live tree with the change records of the local
writes still in flight reverted, newest first. It is built only where it is
read (a snapshot; the text storage renders when read or at a crash), and
the records are redone at once, so the live tree comes back node for node.

"Updating the data" costs what the committed batch costs, not what the
document costs: the exact serialized length of every live tree is kept
current from the records' byte deltas, and the committed length is that
minus the pending records' deltas. ``load``/``install``/``commit`` return
byte counts so the site can charge parse/persist time in the cost model, and
``snapshot`` hands over a clone of the committed tree with its length.
"""

from __future__ import annotations

from contextlib import contextmanager
from functools import partial
from typing import Iterable, Iterator, Optional

from ..errors import StorageError
from ..update.applier import apply_update, revert
from ..update.operations import AppliedChange, UpdateOperation
from ..xml.model import Document
from ..xml.serializer import serialize_document, serialized_size
from ..xpath.evaluator import EvalStats
from .memory import InMemoryStore


@contextmanager
def _as_committed(pending: list[AppliedChange]) -> Iterator[None]:
    """Inside the block, the tree ``pending`` was recorded on holds the
    committed state: the records are reverted newest first, then redone
    oldest first on the way out."""
    reverses = []
    try:
        for change in reversed(pending):
            reverses.append(revert(change))
        yield
    finally:
        for reverse in reversed(reverses):
            revert(reverse)


def _render_committed(doc: Document, pending: list[AppliedChange]) -> str:
    with _as_committed(pending):
        return serialize_document(doc)


class DataManager:
    def __init__(self, backend: InMemoryStore):
        self.backend = backend
        self._live: dict[str, Document] = {}
        # Per document, the change records of local writes still in flight,
        # in application order. An operation undo or an abort reverts them;
        # the commit, the sync record or a fail settles them into the
        # committed state.
        self._pending: dict[str, list[AppliedChange]] = {}
        # Exact serialized byte length of each live tree: measured when the
        # tree was adopted, moved by every change record's byte delta since.
        self._sizes: dict[str, int] = {}
        # Bumped by every change to the live set (load, _adopt, evict), so
        # a caller can keep what it derives from the set until it moves.
        self.live_version = 0

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
        self.live_version += 1
        self._pending[name] = []
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

    # -- changes -------------------------------------------------------------

    def apply_replicated(
        self, name: str, update: UpdateOperation, stats: Optional[EvalStats] = None
    ) -> list[AppliedChange]:
        """Apply one operation of a batch committed elsewhere to this copy:
        it is committed state at once."""
        changes = apply_update(update, self.document(name), stats)
        self._sizes[name] += sum(c.byte_delta for c in changes)
        return changes

    def write(
        self, name: str, update: UpdateOperation, stats: Optional[EvalStats] = None
    ) -> list[AppliedChange]:
        """Execute a local transaction's ``update`` on the live tree of
        ``name`` as :meth:`apply_replicated` does, but its records stay
        pending until :meth:`settle` or :meth:`revert`."""
        changes = self.apply_replicated(name, update, stats)
        self._pending[name].extend(changes)
        return changes

    def revert(self, name: str, changes: list[AppliedChange]) -> list[AppliedChange]:
        """Undo ``changes`` of ``name`` (one operation's, newest last),
        newest first. Returns the reverse records in the order they were
        made, which is the order to sync structure summaries in. A record
        no longer pending stays: settled, it is committed state (an abort
        can follow a sync record whose ack was lost), and one made on a
        tree since replaced is gone with it."""
        pending = self._pending[name]
        reverses = []
        for change in reversed(changes):
            try:
                pending.remove(change)
            except ValueError:
                continue
            reverse = revert(change)
            self._sizes[name] += reverse.byte_delta
            reverses.append(reverse)
        return reverses

    def settle(self, name: str, changes: Iterable[AppliedChange]) -> None:
        """Pending ``changes`` of ``name`` can no longer be undone: from now
        on they are committed state."""
        settled = set(changes)  # records hash and compare by identity
        pending = self._pending[name]
        pending[:] = [c for c in pending if c not in settled]

    # -- committed state and persistence -------------------------------------

    def _committed_size(self, name: str) -> int:
        return self._sizes[name] - sum(c.byte_delta for c in self._pending[name])

    def commit(self, name: str) -> int:
        """Write the committed state of ``name`` back; returns bytes written."""
        render = partial(_render_committed, self.document(name), self._pending[name])
        return self.backend.write_back(name, self._committed_size(name), render)

    def snapshot(self, name: str) -> tuple[Document, int]:
        """A private copy of the committed state of ``name`` and its exact
        serialized byte length, for handing the state to another site.

        The clone numbers its nodes in pre-order from 0, as a parse of the
        persisted text does, but keeps the tree as it is: rendering and
        parsing back would normalise text (surrounding whitespace, ``''``).
        """
        doc = self.document(name)
        with _as_committed(self._pending[name]):
            return doc.clone(), self._committed_size(name)

    # -- lifecycle ---------------------------------------------------------------

    def install(self, doc: Document, text: Optional[str] = None) -> int:
        """Adopt a new document: register live and persist it (``text`` is
        its rendering, if the caller has one)."""
        if doc.name in self._live:
            raise StorageError(f"document {doc.name!r} already loaded")
        return self._adopt(doc, text)

    def replace(self, doc: Document) -> int:
        """Swap in and persist a new live instance of an already-hosted
        document (snapshot transfer during catch-up). It is committed state:
        the records pending on the instance it replaces go with it."""
        if doc.name not in self._live:
            raise StorageError(f"document {doc.name!r} is not hosted here")
        return self._adopt(doc)

    def _adopt(self, doc: Document, text: Optional[str] = None) -> int:
        self._live[doc.name] = doc
        self.live_version += 1
        self._pending[doc.name] = []
        size = self._sizes[doc.name] = self.backend.store(doc, text)
        return size

    def evict(self, name: str) -> None:
        """Drop the in-memory state (storage keeps the last persisted state)."""
        self._live.pop(name, None)
        self.live_version += 1
        self._pending.pop(name, None)
        self._sizes.pop(name, None)

    def drop(self, name: str) -> None:
        """Forget ``name`` altogether, in memory and in storage."""
        self.evict(name)
        if self.backend.exists(name):
            self.backend.delete(name)

    def crash(self) -> None:
        """Memory is lost: storage first renders what it put off, while the
        pending records are still there to derive the committed state from;
        then they go. The live documents stay listed until :meth:`reload`
        re-materializes each from storage."""
        self.backend.flush()
        self._pending = {name: [] for name in self._pending}

    def reload(self, name: str) -> tuple[Document, int]:
        """Discard the live copy and re-materialize from storage.

        Crash recovery: whatever was in memory is gone; the last persisted
        state is what the site restarts from.
        """
        self.evict(name)
        return self.load(name)
