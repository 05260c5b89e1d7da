"""Application of update operations to documents, and their reversal.

``apply_update`` evaluates the operation's target path(s), mutates the tree
and returns the list of :class:`~repro.update.operations.AppliedChange`
records, one per mutation. A record is all there is of a mutation: the
structural summaries (DataGuide) stay in sync from it, and :func:`revert`
undoes it. Each record also carries ``byte_delta``, by how much that one
mutation changed the document's serialized length — measured right after
the mutation, because whether a parent serializes as ``<t/>`` or ``<t></t>``
depends on what else is in it at that moment.

DTX applies updates to the in-memory tree as soon as an operation's locks
are granted; aborting a transaction must "undo all its effects on the
required data" (paper §2). Reverting its records newest first restores the
tree byte for byte, node identities included: a removed subtree keeps its
ids and regains them when reattached.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..errors import UpdateError
from ..xml.model import Document, Element, _is_name
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


def apply_update(
    op: UpdateOperation, doc: Document, stats: Optional[EvalStats] = None
) -> list[AppliedChange]:
    """Apply ``op`` to ``doc``; return the concrete changes (may be empty).

    An operation whose target path selects nothing is a no-op (it "affected
    zero nodes"), mirroring how an SQL UPDATE with an empty WHERE result
    behaves; callers that require a match should check the result. An
    operation refused part-way (:class:`UpdateError`) leaves nothing behind:
    the mutations it made are reverted before the error propagates.
    """
    stats = stats if stats is not None else EvalStats()
    changes: list[AppliedChange] = []
    try:
        if isinstance(op, InsertOp):
            _apply_insert(op, doc, stats, changes)
        elif isinstance(op, RemoveOp):
            _apply_remove(op, doc, stats, changes)
        elif isinstance(op, RenameOp):
            _apply_rename(op, doc, stats, changes)
        elif isinstance(op, ChangeOp):
            _apply_change(op, doc, stats, changes)
        elif isinstance(op, TransposeOp):
            _apply_transpose(op, doc, stats, changes)
        else:
            raise UpdateError(f"unknown update operation {op!r}")
    except UpdateError:
        for change in reversed(changes):
            revert(change)
        raise
    return changes


def apply_charged(costs, apply: Callable, *args) -> tuple[list[AppliedChange], float]:
    """Apply one update as ``apply(*args, stats)`` and price it in
    simulated ms from ``costs`` (a :class:`~repro.config.CostConfig`): the
    nodes its paths visited, plus one apply per change record and at least
    one. The one apply-and-charge step of a participant's write, a log
    replay (sync or catch-up) and a view host's delta."""
    stats = EvalStats()
    changes = apply(*args, stats)
    return changes, (
        stats.nodes_visited * costs.node_visit_ms
        + max(1, len(changes)) * costs.update_apply_ms
    )


def revert(change: AppliedChange) -> AppliedChange:
    """Undo ``change`` in its document and return the reverse record.

    The document must be as ``change`` left it, so a run of records is
    reverted newest first; a record whose node would go back under its own
    subtree raises ``UpdateError`` before anything moves. The reverse record
    is a record like any other: syncing a DataGuide with it undoes the
    guide's sync with ``change``, its ``byte_delta`` is measured (it sums
    with ``change``'s to 0), and reverting it redoes ``change`` — the same
    nodes, ids and bytes.
    """
    node, kind = change.node, change.kind
    if kind == "change":
        before, text = own_size(node), node.text
        node.set_text(change.old_text)
        return AppliedChange(
            "change", node, byte_delta=own_size(node) - before, old_text=text
        )
    if kind == "rename":
        before, tag = own_size(node), node.tag
        node.rename(change.old_tag)
        return AppliedChange(
            "rename", node, change.nodes, change.new_label_paths,
            change.old_label_paths, own_size(node) - before, old_tag=tag,
        )
    # insert, remove, transpose: move the node back to where it sat (out of
    # the tree, for an insert), and record where it is taken from.
    old_parent = change.old_parent
    if old_parent is not None and (
        old_parent is node or any(a is node for a in old_parent.ancestors())
    ):  # refused before anything moves
        raise UpdateError("cannot move a node back under its own subtree")
    parent, index, delta = node.parent, 0, 0
    subtree = 0 if kind == "transpose" else serialized_size(node)
    if parent is not None:
        index = parent.child_index(node)
        before = own_size(parent)
        parent.remove(node)
        delta = own_size(parent) - before - subtree
    if old_parent is not None:
        before = own_size(old_parent)  # after the detach: it may be parent
        old_parent.insert(change.old_index, node)
        delta += own_size(old_parent) - before + subtree
    return AppliedChange(
        {"insert": "remove", "remove": "insert"}.get(kind, kind), node, change.nodes,
        change.new_label_paths, change.old_label_paths, delta,
        old_parent=parent, old_index=index,
    )


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
    op: InsertOp, doc: Document, stats: EvalStats, changes: list[AppliedChange]
) -> None:
    for target in evaluate(op.target, doc, stats):
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
        changes.append(
            AppliedChange(
                kind="insert",
                node=copy,
                nodes=list(copy.iter_subtree()),
                new_label_paths=_subtree_paths(copy),
                byte_delta=serialized_size(copy) + own_size(parent) - before,
            )
        )


def _apply_remove(
    op: RemoveOp, doc: Document, stats: EvalStats, changes: list[AppliedChange]
) -> None:
    for target in evaluate(op.target, doc, stats):
        if target.parent is None:
            raise UpdateError("cannot remove the document root")
        if target.document is None:
            continue  # already removed as part of an ancestor's subtree
        old_paths = _subtree_paths(target)
        parent = target.parent
        index = parent.child_index(target)
        before = own_size(parent)
        parent.remove(target)
        changes.append(
            AppliedChange(
                kind="remove",
                node=target,
                nodes=list(target.iter_subtree()),
                old_label_paths=old_paths,
                byte_delta=own_size(parent) - before - serialized_size(target),
                old_parent=parent,
                old_index=index,
            )
        )


def _apply_rename(
    op: RenameOp, doc: Document, stats: EvalStats, changes: list[AppliedChange]
) -> None:
    if not _is_name(op.new_name):
        raise UpdateError(f"invalid element name {op.new_name!r}")
    for target in evaluate(op.target, doc, stats):
        old_paths = _subtree_paths(target)
        old_name = target.tag
        before = own_size(target)
        target.rename(op.new_name)
        changes.append(
            AppliedChange(
                kind="rename",
                node=target,
                nodes=list(target.iter_subtree()),
                old_label_paths=old_paths,
                new_label_paths=_subtree_paths(target),
                byte_delta=own_size(target) - before,
                old_tag=old_name,
            )
        )


def _apply_change(
    op: ChangeOp, doc: Document, stats: EvalStats, changes: list[AppliedChange]
) -> None:
    for target in evaluate(op.target, doc, stats):
        old = target.text
        before = own_size(target)
        target.set_text(op.new_value)
        changes.append(
            AppliedChange(
                kind="change", node=target, byte_delta=own_size(target) - before,
                old_text=old,
            )
        )


def _apply_transpose(
    op: TransposeOp, doc: Document, stats: EvalStats, changes: list[AppliedChange]
) -> None:
    sources = evaluate(op.source, doc, stats)
    destinations = evaluate(op.destination, doc, stats)
    if len(destinations) != 1:
        raise UpdateError(
            f"transpose destination must select exactly one node, got {len(destinations)}"
        )
    dest = destinations[0]
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
        changes.append(
            AppliedChange(
                kind="transpose",
                node=source,
                nodes=list(source.iter_subtree()),
                old_label_paths=old_paths,
                new_label_paths=_subtree_paths(source),
                byte_delta=delta,
                old_parent=old_parent,
                old_index=old_index,
            )
        )
