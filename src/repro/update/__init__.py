"""The XDGL update language: operations, applier and its reversal, textual parser."""

from .applier import apply_update, revert
from .language import parse_update
from .operations import (
    UPDATE_OP_TYPES,
    AppliedChange,
    ChangeOp,
    InsertOp,
    InsertPosition,
    RemoveOp,
    RenameOp,
    TransposeOp,
    UpdateOperation,
)

__all__ = [
    "UPDATE_OP_TYPES",
    "AppliedChange",
    "ChangeOp",
    "InsertOp",
    "InsertPosition",
    "RemoveOp",
    "RenameOp",
    "TransposeOp",
    "UpdateOperation",
    "apply_update",
    "parse_update",
    "revert",
]
