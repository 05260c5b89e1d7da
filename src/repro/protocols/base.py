"""Pluggable concurrency-protocol interface.

The paper stresses that DTX "was conceived in a flexible fashion, so that
other concurrency control protocols can be employed" and that, for the
evaluation, "the only modifications made to DTX were: the lock/document
representation structure and the lock application/release rules by
operation". This interface captures exactly those two degrees of freedom:

* a protocol owns a *representation structure* per document (XDGL: the
  DataGuide; Node2PL: the document tree itself; DocLock2PL: nothing), kept in
  sync after updates;
* a protocol translates each operation (query or update) into a
  :class:`~repro.locking.requests.LockSpec` over its own key space and mode
  vocabulary.

Everything else — scheduling, distribution, commit/abort, deadlock handling —
is protocol-independent DTX machinery.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Union

from ..locking.modes import CompatibilityMatrix
from ..locking.requests import LockSpec
from ..update.operations import AppliedChange, UpdateOperation
from ..xml.model import Document
from ..xpath.ast import LocationPath


class ConcurrencyProtocol(ABC):
    """Strategy object: lock rules + lock representation structure."""

    #: Short identifier used in reports and experiment tables.
    name: str = "abstract"

    @property
    @abstractmethod
    def matrix(self) -> CompatibilityMatrix:
        """The compatibility matrix for this protocol's lock modes."""

    @abstractmethod
    def register_document(self, doc: Document) -> None:
        """Build/refresh the representation structure for ``doc``."""

    @abstractmethod
    def drop_document(self, doc_name: str) -> None:
        """Forget a document's representation structure."""

    @abstractmethod
    def lock_spec_for_query(self, doc_name: str, path: Union[str, LocationPath]) -> LockSpec:
        """Locks needed to evaluate a read-only path expression."""

    @abstractmethod
    def lock_spec_for_update(self, doc_name: str, op: UpdateOperation) -> LockSpec:
        """Locks needed to execute one update operation."""

    def after_apply(self, doc_name: str, changes: list[AppliedChange]) -> None:
        """Sync the representation structure after changes were applied
        (a rollback hands over the reverse records it made)."""

    def structure_node_count(self, doc_name: str) -> int:
        """Size of the lock representation structure (0 if none)."""
        return 0

    def structure_version(self, doc_name: str) -> "int | None":
        """Cheap monotonic version of the representation structure.

        ``None`` (the default) means the protocol has no inexpensive way to
        detect structure change, and callers must not cache anything derived
        from it. A protocol that returns an int guarantees: same version =>
        ``lock_spec_for_*`` would return an identical spec for the same
        operation — which lets a blocked operation's spec be reused across
        wait/retry attempts instead of being recomputed.
        """
        return None
