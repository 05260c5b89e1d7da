"""The XDGL update language operations.

Paper §2: "In order to update data in XML documents an update language was
defined. This language has five types of update operations: insert, remove,
transpose, rename and change."

Each operation targets nodes selected by an XPath-subset expression. Insert
supports three placements — ``INTO`` (append as last child of the target),
``BEFORE``/``AFTER`` (as a sibling of the target) — which is what the SI/SA/SB
lock modes of XDGL exist for.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Union

from ..errors import UpdateError
from ..xml.model import Element
from ..xml.parser import parse_fragment
from ..xml.serializer import serialize_element
from ..xpath.ast import LocationPath
from ..xpath.parser import parse_xpath


class InsertPosition(Enum):
    INTO = "into"  # last child of the target node
    BEFORE = "before"  # immediately preceding sibling of the target node
    AFTER = "after"  # immediately following sibling of the target node


def _as_path(path: Union[str, LocationPath]) -> LocationPath:
    return parse_xpath(path) if isinstance(path, str) else path


def _as_fragment(fragment: Union[str, Element]) -> Element:
    if isinstance(fragment, Element):
        if fragment.parent is not None or fragment.document is not None:
            raise UpdateError("insert fragment must be a detached element")
        return fragment
    return parse_fragment(fragment)


@dataclass
class InsertOp:
    """Insert a copy of ``fragment`` at each node selected by ``target``."""

    fragment: Element
    target: LocationPath
    position: InsertPosition = InsertPosition.INTO

    def __init__(
        self,
        fragment: Union[str, Element],
        target: Union[str, LocationPath],
        position: InsertPosition = InsertPosition.INTO,
    ):
        self.fragment = _as_fragment(fragment)
        self.target = _as_path(target)
        self.position = position

    def __str__(self) -> str:
        return (
            f"INSERT {serialize_element(self.fragment)} "
            f"{self.position.name} {self.target}"
        )


@dataclass
class RemoveOp:
    """Remove every subtree selected by ``target``."""

    target: LocationPath

    def __init__(self, target: Union[str, LocationPath]):
        self.target = _as_path(target)

    def __str__(self) -> str:
        return f"REMOVE {self.target}"


@dataclass
class RenameOp:
    """Change the tag of every node selected by ``target`` to ``new_name``."""

    target: LocationPath
    new_name: str

    def __init__(self, target: Union[str, LocationPath], new_name: str):
        self.target = _as_path(target)
        self.new_name = new_name

    def __str__(self) -> str:
        return f"RENAME {self.target} TO {self.new_name}"


@dataclass
class ChangeOp:
    """Replace the text content of every node selected by ``target``."""

    target: LocationPath
    new_value: str

    def __init__(self, target: Union[str, LocationPath], new_value: Union[str, float, int]):
        self.target = _as_path(target)
        self.new_value = str(new_value)

    def __str__(self) -> str:
        return f'CHANGE {self.target} TO "{self.new_value}"'


@dataclass
class TransposeOp:
    """Move the subtree selected by ``source`` under the ``destination`` node."""

    source: LocationPath
    destination: LocationPath

    def __init__(
        self, source: Union[str, LocationPath], destination: Union[str, LocationPath]
    ):
        self.source = _as_path(source)
        self.destination = _as_path(destination)

    def __str__(self) -> str:
        return f"TRANSPOSE {self.source} INTO {self.destination}"


UpdateOperation = Union[InsertOp, RemoveOp, RenameOp, ChangeOp, TransposeOp]

#: All concrete operation classes, for isinstance checks and registries.
UPDATE_OP_TYPES = (InsertOp, RemoveOp, RenameOp, ChangeOp, TransposeOp)


@dataclass
class AppliedChange:
    """One concrete tree mutation produced by applying an operation.

    The locking and DataGuide layers consume these records to keep the
    structural summaries in sync with the document.
    """

    kind: str  # 'insert' | 'remove' | 'rename' | 'change' | 'transpose'
    node: Element  # the affected (inserted / removed / renamed / ...) node
    #: ``node``'s subtree in pre-order, taken when the record was made; the
    #: label-path lists run parallel to it. A later mutation of the same
    #: operation may move part of the subtree away (a transpose whose
    #: sources nest), so the live subtree is not a substitute.
    nodes: list[Element] = field(default_factory=list)
    old_label_paths: list[tuple[str, ...]] = field(default_factory=list)
    new_label_paths: list[tuple[str, ...]] = field(default_factory=list)
    byte_delta: int = 0  # change of the document's serialized UTF-8 length
