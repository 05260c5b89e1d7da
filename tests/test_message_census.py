"""Message census: every class in ``repro.core.messages`` is both sent and
received by the program.

A unification that retires a protocol path can orphan its message classes
without any test noticing — the class still imports, it is merely dead. This
guard walks the module and fails on a class no listener dispatches or no
code under ``src/`` constructs.
"""

import ast
import dataclasses
import inspect
from pathlib import Path

import repro
from repro import DTXCluster
from repro.core import messages
from repro.core.messages import TxOutcome

SRC = Path(repro.__file__).resolve().parent


def message_classes() -> list[type]:
    return [
        cls
        for _, cls in inspect.getmembers(messages, inspect.isclass)
        if cls.__module__ == messages.__name__ and dataclasses.is_dataclass(cls)
    ]


def constructed_names() -> set[str]:
    """Names called — ``Cls(...)`` — anywhere under ``src/repro``."""
    names: set[str] = set()
    for path in SRC.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name):
                names.add(func.id)
            elif isinstance(func, ast.Attribute):
                names.add(func.attr)
    return names


def test_the_walk_sees_the_message_module():
    names = {cls.__name__ for cls in message_classes()}
    assert {"RemoteOpRequest", "ReplicaSyncBatch", "TxOutcome"} <= names


def test_every_message_class_has_a_receiver():
    cluster = DTXCluster()
    cluster.add_site("s1")
    # TxOutcome is the one message no site listens for: the coordinator
    # hands it to the submitting client's callback (core/client.py).
    received = set(cluster.site("s1")._dispatch_table()) | {TxOutcome}
    orphans = sorted(cls.__name__ for cls in message_classes() if cls not in received)
    assert not orphans, f"message classes nobody receives: {orphans}"


def test_every_message_class_is_constructed_under_src():
    built = constructed_names()
    unsent = sorted(cls.__name__ for cls in message_classes() if cls.__name__ not in built)
    assert not unsent, f"message classes nothing under src/ constructs: {unsent}"
