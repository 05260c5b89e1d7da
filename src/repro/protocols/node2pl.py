"""Node2PL: strict 2PL with navigational tree locks on *document* nodes.

The paper's stand-in for related work (§3: "we opted for adapting DTX and
using a locking protocol in trees (Node2PL), since the majority of related
works uses protocols with this characteristic"). Node2PL descends from
DOM-API locking (Haustein, Härder & Luttenberger, VLDB '06): a transaction
locks the nodes it *navigates*, not just the nodes it answers with.

Interpretation used here (documented in DESIGN.md):

* every node the evaluation *navigates* (all candidate nodes of every step,
  including nodes examined only to fail a predicate) costs a short-lived S
  lock: acquired and released within the operation, as DOM protocols do for
  navigation under DTX's read-committed isolation. These are charged as
  lock-manager work (``LockSpec.transient_ops``) but not retained;
* **query p** — S held to end-of-transaction on every node of every answer
  subtree; IS on the targets' ancestors.
* **insert** — X on the connecting node, IX on its ancestors.
* **remove / rename** — X on every node of the target subtree, IX ancestors.
* **change** — X on the target node, IX on ancestors.
* **transpose** — X on the source subtree and the destination node, IX on
  both ancestor chains.

Lock keys are ``(doc_name, node_id)``. The tree-lock pathologies the paper
measures follow: lock-manager work grows with document size (navigation +
subtree enumeration, Fig. 11a), every operation pays a per-node toll
(Figs. 9, 12), while node-granular retention blocks less finely than XDGL's
schema-level locks and so produces *fewer* deadlocks (Fig. 10).
"""

from __future__ import annotations

from itertools import count
from typing import Union

from ..errors import StorageError
from ..locking.modes import TREE_MATRIX, CompatibilityMatrix, TreeLockMode
from ..locking.requests import LockSpec
from ..update.operations import (
    ChangeOp,
    InsertOp,
    InsertPosition,
    RemoveOp,
    RenameOp,
    TransposeOp,
    UpdateOperation,
)
from ..xml.model import Document, Element
from ..xpath.ast import LocationPath
from ..xpath.evaluator import EvalStats, evaluate
from .base import ConcurrencyProtocol


# Process-wide version clock shared by all Node2PL instances, mirroring the
# DataGuide's: a re-registered document (snapshot install, recovery reload)
# can never report a version an older registration already reported, so a
# LockSpec cached against a version stays invalid across rebuilds — not
# just across edits.
_VERSION_CLOCK = count(1)


class Node2PLProtocol(ConcurrencyProtocol):
    name = "node2pl"

    def __init__(self) -> None:
        self._docs: dict[str, Document] = {}
        self._versions: dict[str, int] = {}

    @property
    def matrix(self) -> CompatibilityMatrix:
        return TREE_MATRIX

    # -- structure management ------------------------------------------------

    def register_document(self, doc: Document) -> None:
        # The "representation structure" of Node2PL *is* the document tree.
        self._docs[doc.name] = doc
        self._versions[doc.name] = next(_VERSION_CLOCK)

    def drop_document(self, doc_name: str) -> None:
        self._docs.pop(doc_name, None)
        self._versions.pop(doc_name, None)

    def after_apply(self, doc_name: str, changes) -> None:
        # Node2PL locks name document *nodes*: any applied change can add,
        # remove or move nodes, so every cached spec for the document is
        # stale. (XDGL's guide can skip bumps for structure-preserving
        # changes; the tree itself cannot.)
        if changes:
            self._versions[doc_name] = next(_VERSION_CLOCK)

    def structure_version(self, doc_name: str) -> "int | None":
        """Same version => the tree is unchanged => ``lock_spec_for_*``
        would recompute the identical spec — retries may reuse it (the
        retry-time LockSpec cache, extended here from XDGL to Node2PL)."""
        return self._versions.get(doc_name)

    def _doc(self, doc_name: str) -> Document:
        try:
            return self._docs[doc_name]
        except KeyError:
            raise StorageError(f"document {doc_name!r} not registered") from None

    def structure_node_count(self, doc_name: str) -> int:
        return len(self._doc(doc_name))

    # -- lock rules -------------------------------------------------------------

    def _navigate(
        self, spec: LockSpec, doc_name: str, doc: Document, path
    ) -> tuple[list[Element], EvalStats]:
        """Evaluate ``path``, charging a short navigation lock per node."""
        stats = EvalStats()
        targets = evaluate(path, doc, stats)
        spec.transient_ops += stats.nodes_visited
        return targets, stats

    def lock_spec_for_query(
        self, doc_name: str, path: Union[str, LocationPath]
    ) -> LockSpec:
        doc = self._doc(doc_name)
        spec = LockSpec()
        targets, stats = self._navigate(spec, doc_name, doc, path)
        answer_nodes = 0
        for target in targets:
            for node in target.iter_subtree():
                spec.add((doc_name, node.node_id), TreeLockMode.S)
            answer_nodes += target.subtree_size()
            self._intention_locks(spec, doc_name, target, TreeLockMode.IS)
        spec.nodes_visited = stats.nodes_visited + answer_nodes
        return spec.deduplicated()

    def lock_spec_for_update(self, doc_name: str, op: UpdateOperation) -> LockSpec:
        doc = self._doc(doc_name)
        spec = LockSpec()
        extra_nodes = 0
        if isinstance(op, InsertOp):
            targets, stats = self._navigate(spec, doc_name, doc, op.target)
            for ref in targets:
                connecting = ref if op.position is InsertPosition.INTO else ref.parent
                if connecting is None:
                    continue
                spec.add((doc_name, connecting.node_id), TreeLockMode.X)
                self._intention_locks(spec, doc_name, connecting, TreeLockMode.IX)
        elif isinstance(op, (RemoveOp, RenameOp)):
            targets, stats = self._navigate(spec, doc_name, doc, op.target)
            for target in targets:
                for node in target.iter_subtree():
                    spec.add((doc_name, node.node_id), TreeLockMode.X)
                self._intention_locks(spec, doc_name, target, TreeLockMode.IX)
                extra_nodes += target.subtree_size()
        elif isinstance(op, ChangeOp):
            targets, stats = self._navigate(spec, doc_name, doc, op.target)
            for target in targets:
                spec.add((doc_name, target.node_id), TreeLockMode.X)
                self._intention_locks(spec, doc_name, target, TreeLockMode.IX)
        elif isinstance(op, TransposeOp):
            sources, stats = self._navigate(spec, doc_name, doc, op.source)
            destinations, dstats = self._navigate(spec, doc_name, doc, op.destination)
            for source in sources:
                for node in source.iter_subtree():
                    spec.add((doc_name, node.node_id), TreeLockMode.X)
                self._intention_locks(spec, doc_name, source, TreeLockMode.IX)
                extra_nodes += source.subtree_size()
            for dest in destinations:
                spec.add((doc_name, dest.node_id), TreeLockMode.X)
                self._intention_locks(spec, doc_name, dest, TreeLockMode.IX)
            extra_nodes += dstats.nodes_visited
        else:
            raise TypeError(f"unknown update operation {op!r}")
        spec.nodes_visited = stats.nodes_visited + extra_nodes
        return spec.deduplicated()

    def _intention_locks(
        self, spec: LockSpec, doc_name: str, node: Element, mode: TreeLockMode
    ) -> None:
        for anc in node.ancestors():
            spec.add((doc_name, anc.node_id), mode)
