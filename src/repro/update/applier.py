"""Application of update operations to documents, with undo recording.

``apply_update`` evaluates the operation's target path(s), mutates the tree,
appends inverse entries to the transaction's :class:`~repro.update.undo.UndoLog`
and returns the list of :class:`~repro.update.operations.AppliedChange`
records that structural summaries (DataGuide) use to stay in sync. Each record
also carries ``byte_delta``, by how much that one mutation changed the
document's serialized length — measured right after the mutation, because
whether a parent serializes as ``<t/>`` or ``<t></t>`` depends on what else
is in it at that moment.
"""

from __future__ import annotations

from typing import Optional

from ..errors import UpdateError
from ..xml.model import Document, Element
from ..xml.serializer import own_size, serialized_size
from ..xpath.evaluator import EvalStats, evaluate
from .operations import (
    AppliedChange,
    ChangeOp,
    InsertOp,
    InsertPosition,
    RemoveOp,
    RenameOp,
    TransposeOp,
    UpdateOperation,
)
from .undo import (
    ChangeUndo,
    InsertUndo,
    RemoveUndo,
    RenameUndo,
    TransposeUndo,
    UndoLog,
)


def apply_update(
    op: UpdateOperation,
    doc: Document,
    undo: Optional[UndoLog] = None,
    stats: Optional[EvalStats] = None,
) -> list[AppliedChange]:
    """Apply ``op`` to ``doc``; return the concrete changes (may be empty).

    An operation whose target path selects nothing is a no-op (it "affected
    zero nodes"), mirroring how an SQL UPDATE with an empty WHERE result
    behaves; callers that require a match should check the result.
    """
    stats = stats if stats is not None else EvalStats()
    if isinstance(op, InsertOp):
        return _apply_insert(op, doc, undo, stats)
    if isinstance(op, RemoveOp):
        return _apply_remove(op, doc, undo, stats)
    if isinstance(op, RenameOp):
        return _apply_rename(op, doc, undo, stats)
    if isinstance(op, ChangeOp):
        return _apply_change(op, doc, undo, stats)
    if isinstance(op, TransposeOp):
        return _apply_transpose(op, doc, undo, stats)
    raise UpdateError(f"unknown update operation {op!r}")


def _subtree_paths(node: Element) -> list[tuple[str, ...]]:
    base = node.label_path()
    paths = [base]
    for d in node.descendants():
        # label_path() walks to the root; build relative to `base` instead to
        # avoid re-walking ancestors for every descendant.
        rel: list[str] = [d.tag]
        cur = d.parent
        while cur is not None and cur is not node:
            rel.append(cur.tag)
            cur = cur.parent
        paths.append(base + tuple(reversed(rel)))
    return paths


def _apply_insert(
    op: InsertOp, doc: Document, undo: Optional[UndoLog], stats: EvalStats
) -> list[AppliedChange]:
    targets = evaluate(op.target, doc, stats)
    changes: list[AppliedChange] = []
    for target in targets:
        if op.position is InsertPosition.INTO:
            parent = target
            before = own_size(parent)
            copy = doc.graft(op.fragment, parent)
        else:
            parent = target.parent
            if parent is None:
                raise UpdateError(
                    f"cannot insert {op.position.name} the document root"
                )
            before = own_size(parent)
            idx = parent.child_index(target)
            copy = doc.graft(
                op.fragment, parent, idx if op.position is InsertPosition.BEFORE else idx + 1
            )
        if undo is not None:
            undo.record(doc, InsertUndo(copy))
        changes.append(
            AppliedChange(
                kind="insert",
                node=copy,
                nodes=list(copy.iter_subtree()),
                new_label_paths=_subtree_paths(copy),
                byte_delta=serialized_size(copy) + own_size(parent) - before,
            )
        )
    return changes


def _apply_remove(
    op: RemoveOp, doc: Document, undo: Optional[UndoLog], stats: EvalStats
) -> list[AppliedChange]:
    targets = evaluate(op.target, doc, stats)
    changes: list[AppliedChange] = []
    for target in targets:
        if target.parent is None:
            raise UpdateError("cannot remove the document root")
        if target.document is None:
            continue  # already removed as part of an ancestor's subtree
        old_paths = _subtree_paths(target)
        parent = target.parent
        index = parent.child_index(target)
        before = own_size(parent)
        parent.remove(target)
        if undo is not None:
            undo.record(doc, RemoveUndo(target, parent, index))
        changes.append(
            AppliedChange(
                kind="remove",
                node=target,
                nodes=list(target.iter_subtree()),
                old_label_paths=old_paths,
                byte_delta=own_size(parent) - before - serialized_size(target),
            )
        )
    return changes


def _apply_rename(
    op: RenameOp, doc: Document, undo: Optional[UndoLog], stats: EvalStats
) -> list[AppliedChange]:
    from ..xml.model import _is_name

    if not _is_name(op.new_name):
        raise UpdateError(f"invalid element name {op.new_name!r}")
    targets = evaluate(op.target, doc, stats)
    changes: list[AppliedChange] = []
    for target in targets:
        old_paths = _subtree_paths(target)
        old_name = target.tag
        before = own_size(target)
        target.rename(op.new_name)
        if undo is not None:
            undo.record(doc, RenameUndo(target, old_name))
        changes.append(
            AppliedChange(
                kind="rename",
                node=target,
                nodes=list(target.iter_subtree()),
                old_label_paths=old_paths,
                new_label_paths=_subtree_paths(target),
                byte_delta=own_size(target) - before,
            )
        )
    return changes


def _apply_change(
    op: ChangeOp, doc: Document, undo: Optional[UndoLog], stats: EvalStats
) -> list[AppliedChange]:
    targets = evaluate(op.target, doc, stats)
    changes: list[AppliedChange] = []
    for target in targets:
        old = target.text
        before = own_size(target)
        target.text = op.new_value
        if undo is not None:
            undo.record(doc, ChangeUndo(target, old))
        changes.append(
            AppliedChange(kind="change", node=target, byte_delta=own_size(target) - before)
        )
    return changes


def _apply_transpose(
    op: TransposeOp, doc: Document, undo: Optional[UndoLog], stats: EvalStats
) -> list[AppliedChange]:
    sources = evaluate(op.source, doc, stats)
    destinations = evaluate(op.destination, doc, stats)
    if len(destinations) != 1:
        raise UpdateError(
            f"transpose destination must select exactly one node, got {len(destinations)}"
        )
    dest = destinations[0]
    changes: list[AppliedChange] = []
    for source in sources:
        if source.parent is None:
            raise UpdateError("cannot transpose the document root")
        if source is dest or any(a is source for a in dest.ancestors()):
            raise UpdateError("cannot transpose a node into its own subtree")
        if source.document is None:
            continue  # moved away already as part of an ancestor
        old_paths = _subtree_paths(source)
        old_parent = source.parent
        old_index = old_parent.child_index(source)
        before = own_size(old_parent)
        old_parent.remove(source)
        delta = own_size(old_parent) - before
        before = own_size(dest)  # taken now: dest may be old_parent
        dest.append(source)
        delta += own_size(dest) - before
        if undo is not None:
            undo.record(doc, TransposeUndo(source, old_parent, old_index))
        changes.append(
            AppliedChange(
                kind="transpose",
                node=source,
                nodes=list(source.iter_subtree()),
                old_label_paths=old_paths,
                new_label_paths=_subtree_paths(source),
                byte_delta=delta,
            )
        )
    return changes
