"""XDGL: multi-granularity locking over DataGuides (the DTX protocol).

Lock rules (paper §2, reconstructed details in DESIGN.md):

* **query p** — ST on each target guide node, IS on its ancestors; predicate
  nodes get ST + IS-ancestors.
* **insert f INTO p** — SI on the connecting node + IS ancestors; X on the
  inserted node's (possibly brand-new) guide path + IX ancestors; predicate
  nodes ST + IS. ``BEFORE``/``AFTER`` variants add SB/SA on the reference
  sibling's guide node (the parent is then the connecting node).
* **remove p** — XT on each target (the whole subtree is protected) + IX
  ancestors; predicate nodes ST + IS.
* **rename p TO n** — XT on the target (all subtree label paths change) + IX
  ancestors, plus X + IX-ancestors on the new label path.
* **change p** — X on the target + IX ancestors.
* **transpose p INTO q** — XT on the source + IX ancestors; SI on the
  destination + IS ancestors; X + IX-ancestors on the relocated path.

A query, remove, rename, change or transpose source that matches no guide
node still locks what it *names* (:func:`_named_path`) in its rule's mode:
conflicts are the operations', not the current instance's (Dekeyser et
al.) — a pruned path returns when its remover aborts, or an insert makes it.

Lock keys are ``(doc_name, label_path)`` — stable across guide-node pruning
and re-creation, so a lock can name a path that does not exist yet (inserts).

Every rule reads the guide's *shape* (label paths, parents, child order),
never a target set, and of the operation only its paths' structure and a
few fields: predicate literals and positional indexes name no guide node.
So the protocol memoises each deduplicated spec under
``(doc_name, op_key)`` in one LRU of :data:`SPEC_MEMO_MAX` entries, where
``op_key`` holds exactly what the rule reads — ``path.shape`` for a query,
and for updates:

* ``("insert", target.shape, position, fragment.tag)``
* ``("remove", target.shape)``
* ``("rename", target.shape, new_name)``
* ``("change", target.shape)``
* ``("transpose", source.shape, destination.shape)``

A change's new value and an inserted fragment below its root tag are not
part of the key: no rule reads them. Each entry is stamped with the
:attr:`DataGuide.version` it was computed against. The version comes from one
process-wide clock and is bumped whenever a guide node is created or pruned,
so an entry whose stamp still equals the guide's version is exactly what a
fresh match would compute — ``nodes_visited`` included, which keeps the
simulated CPU charge unchanged.
"""

from __future__ import annotations

from typing import Union

from ..dataguide.guide import DataGuide, DataGuideNode
from ..errors import StorageError
from ..locking.modes import XDGL_MATRIX, CompatibilityMatrix, LockMode
from ..locking.requests import LockSpec
from ..update.operations import (
    AppliedChange,
    ChangeOp,
    InsertOp,
    InsertPosition,
    RemoveOp,
    RenameOp,
    TransposeOp,
    UpdateOperation,
)
from ..xml.model import Document
from ..xpath.ast import Axis, LocationPath, NodeTestKind
from ..xpath.evaluator import EvalStats
from ..xpath.guide import GuideMatch, match_structure
from ..xpath.parser import parse_xpath
from .base import ConcurrencyProtocol

#: Bound on the spec memo, queries and updates together, over all
#: documents: the parse memo's.
SPEC_MEMO_MAX = 4096

#: The intention mode each primary mode puts on the ancestors.
_INTENTION = {LockMode.ST: LockMode.IS, LockMode.XT: LockMode.IX, LockMode.X: LockMode.IX}


def _named_path(path: LocationPath, root) -> tuple[str, ...]:
    """The label path ``path`` spells: its leading run of child-axis name
    steps (``//``, ``*``, ``@`` or ``text()`` ends it), below the document
    element if relative; the document element's path when the run is empty."""
    if root is None:
        return ()
    names = [] if path.absolute else [root.tag]
    for step in path.steps:
        test = step.test
        if step.axis is not Axis.CHILD or test.kind is not NodeTestKind.NAME or test.name == "*":
            break
        names.append(test.name)
    return tuple(names) or (root.tag,)


def _update_key(op: UpdateOperation) -> tuple:
    """What the update rule reads of ``op``: its memo key (see module doc).

    Mirrors :meth:`XDGLProtocol._compute_update_spec` field for field: a
    field a branch there starts to read must join that kind's key here, or
    the memo serves one spec to operations the rule tells apart."""
    if isinstance(op, InsertOp):
        return ("insert", op.target.shape, op.position, op.fragment.tag)
    if isinstance(op, RemoveOp):
        return ("remove", op.target.shape)
    if isinstance(op, RenameOp):
        return ("rename", op.target.shape, op.new_name)
    if isinstance(op, ChangeOp):
        return ("change", op.target.shape)
    if isinstance(op, TransposeOp):
        return ("transpose", op.source.shape, op.destination.shape)
    raise TypeError(f"unknown update operation {op!r}")


class XDGLProtocol(ConcurrencyProtocol):
    name = "xdgl"

    def __init__(self) -> None:
        self._guides: dict[str, DataGuide] = {}
        # (doc_name, shape | update key) -> (guide version, deduplicated
        # LockSpec), least recently used first.
        self._specs: dict[tuple[str, object], tuple[int, LockSpec]] = {}

    @property
    def matrix(self) -> CompatibilityMatrix:
        return XDGL_MATRIX

    # -- structure management ------------------------------------------------

    def register_document(self, doc: Document) -> None:
        self._forget_specs(doc.name)
        self._guides[doc.name] = DataGuide.build(doc)

    def drop_document(self, doc_name: str) -> None:
        self._forget_specs(doc_name)
        self._guides.pop(doc_name, None)

    def _forget_specs(self, doc_name: str) -> None:
        memo = self._specs
        for key in [key for key in memo if key[0] == doc_name]:
            del memo[key]

    def guide(self, doc_name: str) -> DataGuide:
        try:
            return self._guides[doc_name]
        except KeyError:
            raise StorageError(f"no DataGuide registered for document {doc_name!r}") from None

    def after_apply(self, doc_name: str, changes: list[AppliedChange]) -> None:
        guide = self.guide(doc_name)
        for change in changes:
            guide.apply_change(change)

    def structure_node_count(self, doc_name: str) -> int:
        return self.guide(doc_name).node_count()

    def structure_version(self, doc_name: str) -> "int | None":
        guide = self._guides.get(doc_name)
        return None if guide is None else guide.version

    # -- lock rules -------------------------------------------------------------

    def lock_spec_for_query(
        self, doc_name: str, path: Union[str, LocationPath]
    ) -> LockSpec:
        guide = self.guide(doc_name)
        if isinstance(path, str):
            path = parse_xpath(path)
        key = (doc_name, path.shape)
        spec = self._recall(key, guide.version)
        if spec is None:
            spec = self._remember(
                key, guide.version, self._compute_query_spec(doc_name, path)
            )
        return spec

    def lock_spec_for_update(self, doc_name: str, op: UpdateOperation) -> LockSpec:
        guide = self.guide(doc_name)
        key = (doc_name, _update_key(op))
        spec = self._recall(key, guide.version)
        if spec is None:
            spec = self._remember(
                key, guide.version, self._compute_update_spec(doc_name, op)
            )
        return spec

    def _recall(self, key: tuple, version: int) -> "LockSpec | None":
        """The memoised spec under ``key`` if computed at ``version``."""
        memo = self._specs
        entry = memo.pop(key, None)
        if entry is not None and entry[0] == version:
            memo[key] = entry  # re-insert at the back: most recent
            return entry[1]
        return None

    def _remember(self, key: tuple, version: int, spec: LockSpec) -> LockSpec:
        memo = self._specs
        if len(memo) >= SPEC_MEMO_MAX:
            del memo[next(iter(memo))]  # evict the least recently used
        memo[key] = (version, spec)
        return spec

    def _compute_query_spec(self, doc_name: str, path: LocationPath) -> LockSpec:
        """The query rule computed from scratch against the current guide."""
        guide = self.guide(doc_name)
        stats = EvalStats()
        match = match_structure(path, guide.root, stats)
        spec = LockSpec(nodes_visited=stats.nodes_visited)
        self._target_locks(spec, doc_name, guide, path, match, LockMode.ST)
        self._shared_tree_locks(spec, doc_name, match.predicate_targets)
        return spec.deduplicated()

    def _compute_update_spec(self, doc_name: str, op: UpdateOperation) -> LockSpec:
        """The update rule computed from scratch against the current guide.

        Reads of ``op`` only what :func:`_update_key` keys on; any further
        field a branch reads must be added to that kind's key."""
        guide = self.guide(doc_name)
        stats = EvalStats()
        spec = LockSpec()
        if isinstance(op, InsertOp):
            self._insert_locks(spec, doc_name, guide, op, stats)
        elif isinstance(op, RemoveOp):
            match = match_structure(op.target, guide.root, stats)
            self._target_locks(spec, doc_name, guide, op.target, match, LockMode.XT)
            self._shared_tree_locks(spec, doc_name, match.predicate_targets)
        elif isinstance(op, RenameOp):
            match = match_structure(op.target, guide.root, stats)
            self._target_locks(spec, doc_name, guide, op.target, match, LockMode.XT)
            for t in match.targets:
                parent_path = t.label_path()[:-1]
                new_path = parent_path + (op.new_name,)
                self._path_locks(spec, doc_name, new_path, LockMode.X)
            self._shared_tree_locks(spec, doc_name, match.predicate_targets)
        elif isinstance(op, ChangeOp):
            match = match_structure(op.target, guide.root, stats)
            self._target_locks(spec, doc_name, guide, op.target, match, LockMode.X)
            self._shared_tree_locks(spec, doc_name, match.predicate_targets)
        elif isinstance(op, TransposeOp):
            src = match_structure(op.source, guide.root, stats)
            dst = match_structure(op.destination, guide.root, stats)
            self._target_locks(spec, doc_name, guide, op.source, src, LockMode.XT)
            for d in dst.targets:
                spec.add((doc_name, d.label_path()), LockMode.SI)
                self._intention_locks(spec, doc_name, d, LockMode.IS)
                for s in src.targets:
                    new_path = d.label_path() + (s.tag,)
                    self._path_locks(spec, doc_name, new_path, LockMode.X)
            self._shared_tree_locks(spec, doc_name, src.predicate_targets)
            self._shared_tree_locks(spec, doc_name, dst.predicate_targets)
        else:
            raise TypeError(f"unknown update operation {op!r}")
        spec.nodes_visited = stats.nodes_visited
        return spec.deduplicated()

    # -- helpers -------------------------------------------------------------------

    def _shared_tree_locks(self, spec: LockSpec, doc: str, nodes: list[DataGuideNode]) -> None:
        """ST on each node, IS on each ancestor (query-side rule)."""
        for node in nodes:
            spec.add((doc, node.label_path()), LockMode.ST)
            self._intention_locks(spec, doc, node, LockMode.IS)

    def _target_locks(self, spec: LockSpec, doc: str, guide: DataGuide, path: LocationPath,
                      match: GuideMatch, mode: LockMode) -> None:
        """``mode`` on each target of ``match`` + its intention mode on each
        ancestor; with no target, the same on the path ``path`` names."""
        if not match.targets:
            named = _named_path(path, guide.root)
            if named:
                self._path_locks(spec, doc, named, mode)
            return
        intention = _INTENTION[mode]
        for node in match.targets:
            spec.add((doc, node.label_path()), mode)
            self._intention_locks(spec, doc, node, intention)

    def _path_locks(self, spec: LockSpec, doc: str, path: tuple[str, ...], mode: LockMode) -> None:
        """``mode`` on a label path (which may not exist yet) + its intention
        mode on the path's prefixes."""
        spec.add((doc, path), mode)
        intention = _INTENTION[mode]
        for depth in range(len(path) - 1, 0, -1):
            spec.add((doc, path[:depth]), intention)

    def _intention_locks(
        self, spec: LockSpec, doc: str, node: DataGuideNode, mode: LockMode
    ) -> None:
        for anc in node.ancestors():
            spec.add((doc, anc.label_path()), mode)

    def _insert_locks(
        self,
        spec: LockSpec,
        doc_name: str,
        guide: DataGuide,
        op: InsertOp,
        stats: EvalStats,
    ) -> None:
        match = match_structure(op.target, guide.root, stats)
        for ref in match.targets:
            if op.position is InsertPosition.INTO:
                connecting = ref
            else:
                connecting = ref.parent
                # SB/SA protect the insertion position relative to the
                # reference sibling.
                side = LockMode.SB if op.position is InsertPosition.BEFORE else LockMode.SA
                spec.add((doc_name, ref.label_path()), side)
                self._intention_locks(spec, doc_name, ref, LockMode.IS)
            if connecting is None:
                continue  # inserting beside the root: rejected at apply time
            spec.add((doc_name, connecting.label_path()), LockMode.SI)
            self._intention_locks(spec, doc_name, connecting, LockMode.IS)
            new_path = connecting.label_path() + (op.fragment.tag,)
            self._path_locks(spec, doc_name, new_path, LockMode.X)
        self._shared_tree_locks(spec, doc_name, match.predicate_targets)
