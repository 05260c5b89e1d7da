"""Config census: every configuration field is read by the program and
documented where it is declared.

A knob that outlives the code path it selected still validates, still shows
up in every ``repr`` and still doubles the configurations a reader must
consider — it is merely dead. This guard (the sibling of
``test_message_census.py``) walks the three config dataclasses and fails on
a field nothing under ``src/repro`` reads, or that its class docstring does
not describe. The ``SystemConfig`` field count, the ``Transaction`` fields
and the parameters of the other constructors that once took settings are
pinned, so that the next knob is a visible diff here.
"""

import ast
import dataclasses
import functools
import inspect
import re
from pathlib import Path

import pytest

import repro
from repro.config import CostConfig, NetworkConfig, SystemConfig
from repro.core.transaction import Transaction
from repro.distribution.migration import MigrationManager
from repro.xml import parse_document

SRC = Path(repro.__file__).resolve().parent
CONFIG_CLASSES = (SystemConfig, CostConfig, NetworkConfig)


@functools.cache
def attributes_read() -> frozenset[str]:
    """Every name loaded as ``<expr>.name`` under ``src/repro``, outside the
    module that declares the config classes."""
    names: set[str] = set()
    for path in SRC.rglob("*.py"):
        if path == SRC / "config.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
    return frozenset(names)


def documented_fields(cls) -> set[str]:
    """Names heading a paragraph of the class docstring's parameter list
    (``name:`` or ``name_a, name_b:`` on a line of their own)."""
    names: set[str] = set()
    for line in cls.__doc__.splitlines():
        match = re.fullmatch(r"\s*(\w+(?:, \w+)*):", line)
        if match:
            names.update(match.group(1).split(", "))
    return names


def test_system_config_field_count_is_pinned():
    assert len(dataclasses.fields(SystemConfig)) == 19


def test_transaction_fields_are_pinned():
    assert [f.name for f in dataclasses.fields(Transaction)] == [
        "operations", "client_id", "label", "tid", "state", "sites_involved", "stats",
        "abort_reason",
    ]


def test_constructor_parameters_are_pinned():
    assert list(inspect.signature(MigrationManager.__init__).parameters) == ["self", "cluster"]
    assert list(inspect.signature(parse_document).parameters) == ["text", "name"]


@pytest.mark.parametrize("cls", CONFIG_CLASSES, ids=lambda c: c.__name__)
def test_every_field_is_read_outside_config(cls):
    read = attributes_read()
    dead = sorted(f.name for f in dataclasses.fields(cls) if f.name not in read)
    assert not dead, f"{cls.__name__} fields nothing under src/repro reads: {dead}"


@pytest.mark.parametrize("cls", CONFIG_CLASSES, ids=lambda c: c.__name__)
def test_every_field_has_a_docstring_paragraph(cls):
    described = documented_fields(cls)
    missing = sorted(f.name for f in dataclasses.fields(cls) if f.name not in described)
    assert not missing, f"{cls.__name__} fields its docstring does not describe: {missing}"


def test_the_census_catches_an_unread_undocumented_field():
    @dataclasses.dataclass(frozen=True)
    class Grown(NetworkConfig):
        __doc__ = NetworkConfig.__doc__
        never_read_anywhere_ms: float = 0.0

    read, described = attributes_read(), documented_fields(Grown)
    new = [f.name for f in dataclasses.fields(Grown) if f.name not in read]
    assert new == ["never_read_anywhere_ms"]
    assert "never_read_anywhere_ms" not in described
