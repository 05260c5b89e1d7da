"""Shared fixtures: the paper's example documents and small helpers.

Also registers the Hypothesis profiles:

* ``default`` — the per-test example counts as written (fast local runs);
* ``ci`` — same counts, but no deadline (shared runners are jittery);
* ``nightly`` — a raised example budget: ``example_budget(n)`` scales every
  per-test count by ``REPRO_NIGHTLY_SCALE`` (default 10x), and deadlines
  are disabled. Select with ``--hypothesis-profile=nightly``.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import settings as hyp_settings

from repro.storage import InMemoryStore
from repro.xml import E, doc, parse_document, serialize_document

hyp_settings.register_profile("default", hyp_settings())
hyp_settings.register_profile("ci", hyp_settings(deadline=None))
hyp_settings.register_profile(
    "nightly", hyp_settings(deadline=None, print_blob=True)
)

_EXAMPLE_SCALE = 1.0


def pytest_configure(config) -> None:
    """Scale property-test example budgets when the nightly profile runs.

    Explicit ``@settings(max_examples=...)`` decorators override whatever a
    profile says, so the budget has to be raised where the counts are
    written: test modules call :func:`example_budget` inside their
    decorators, and this hook (which runs before test modules import) sets
    the multiplier from the selected Hypothesis profile.
    """
    global _EXAMPLE_SCALE
    try:
        profile = config.getoption("hypothesis_profile")
    except (ValueError, KeyError):  # hypothesis plugin not active
        profile = None
    profile = profile or os.environ.get("HYPOTHESIS_PROFILE")
    if profile == "nightly":
        _EXAMPLE_SCALE = float(os.environ.get("REPRO_NIGHTLY_SCALE", "10"))


def example_budget(n: int) -> int:
    """Per-test max_examples, scaled up under the nightly profile."""
    return max(1, int(n * _EXAMPLE_SCALE))


class EagerReferenceStore(InMemoryStore):
    """``InMemoryStore`` checked against the eager store it replaces.

    Every persist also renders the tree it was handed, as
    ``store(committed tree)`` would have, into ``reference``; the byte count
    charged must be that text's length. ``check_reads`` then compares what
    the real store answers (rendered when read) with the reference — which
    also catches a tree mutated after the store took it.
    """

    def __init__(self) -> None:
        super().__init__()
        self.reference: dict[str, str] = {}
        self.persists = 0

    def store(self, doc, text=None):
        self.reference[doc.name] = serialize_document(doc)
        assert text is None or text == self.reference[doc.name], (
            f"store of {doc.name!r} handed a stale rendering"
        )
        return super().store(doc, text)

    def write_back(self, doc, size):
        self.reference[doc.name] = serialize_document(doc)
        assert size == len(self.reference[doc.name].encode("utf-8")), (
            f"persist of {doc.name!r} charged {size} bytes"
        )
        self.persists += 1
        return super().write_back(doc, size)

    def delete(self, name):
        super().delete(name)
        del self.reference[name]

    def check_reads(self) -> None:
        assert self.list_documents() == sorted(self.reference)
        for name, text in self.reference.items():
            assert self.size_bytes(name) == len(text.encode("utf-8"))
            assert self.raw(name) == text
            assert serialize_document(self.load(name)) == serialize_document(
                parse_document(text, name=name)
            )


def make_people_doc(name: str = "d1"):
    """Paper §2.4 document d1: people with person{id,name}."""
    root = E(
        "people",
        E("person", E("id", text="1"), E("name", text="Carlos")),
        E("person", E("id", text="4"), E("name", text="Maria")),
        E("person", E("id", text="7"), E("name", text="Joao")),
    )
    return doc(name, root)


def make_unnormalised_people_doc(name: str = "d1"):
    """``make_people_doc`` holding text that a parse of its own rendering
    does not give back: the parser strips the whitespace around Carlos and
    reads the empty note's ``''`` as no text (``<note/>``)."""
    root = E(
        "people",
        E("person", E("id", text="1"), E("name", text="  Carlos  "), E("note", text="")),
        E("person", E("id", text="4"), E("name", text="Maria")),
        E("person", E("id", text="7"), E("name", text="Joao")),
    )
    return doc(name, root)


def make_products_doc(name: str = "d2"):
    """Paper §2.4 document d2: products with product{id,description,price}."""
    root = E(
        "products",
        E(
            "product",
            E("id", text="4"),
            E("description", text="Monitor"),
            E("price", text="250.00"),
        ),
        E(
            "product",
            E("id", text="14"),
            E("description", text="Webcam"),
            E("price", text="35.50"),
        ),
    )
    return doc(name, root)


@pytest.fixture
def people_doc():
    return make_people_doc()


@pytest.fixture
def products_doc():
    return make_products_doc()


@pytest.fixture
def catalog_doc():
    """A deeper document exercising //, predicates and repetition."""
    text = """
    <site>
      <regions>
        <europe>
          <item id="i1"><name>Sword</name><price>10.0</price></item>
          <item id="i2"><name>Shield</name><price>20.0</price></item>
        </europe>
        <asia>
          <item id="i3"><name>Bow</name><price>15.0</price></item>
        </asia>
      </regions>
      <people>
        <person id="p1"><name>Ana</name><age>30</age></person>
        <person id="p2"><name>Bruno</name><age>41</age></person>
      </people>
    </site>
    """
    return parse_document(text, name="catalog")
