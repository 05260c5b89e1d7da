"""Correctness verifiers usable by tests and downstream users."""

from .progress import progress
from .quiescent import KINDS, Violation, quiescent
from .schedule_digest import ReferenceEnvironment, TraceRecorder, describe_item, trace_digest
from .serial import final_state_serializable, find_equivalent_serial_order, replay_serial

__all__ = [
    "KINDS",
    "ReferenceEnvironment",
    "TraceRecorder",
    "Violation",
    "describe_item",
    "final_state_serializable",
    "find_equivalent_serial_order",
    "progress",
    "quiescent",
    "replay_serial",
    "trace_digest",
]
