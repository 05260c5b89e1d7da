"""Shared fixtures: the paper's example documents, the replicated test
cluster and small helpers.

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

from repro import DTXCluster, Operation, Transaction
from repro.locking import LockMode, LockSpec
from repro.storage import InMemoryStore
from repro.update import InsertOp
from repro.verify import progress
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

    Every persist also renders the committed state it was handed at once,
    as ``store(committed tree)`` would have, into ``reference``; the byte
    count charged must be that text's length. ``check_reads`` then compares
    what the real store answers (rendered when read) with the reference —
    which also catches a committed state that moved without a persist.
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

    def write_back(self, name, size, render):
        self.reference[name] = render()
        assert size == len(self.reference[name].encode("utf-8")), (
            f"persist of {name!r} charged {size} bytes"
        )
        self.persists += 1
        return super().write_back(name, size, render)

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


def replicated_cluster(config, n_sites=4, replicate_at=None, document=None, run_until=None,
                       **cluster_options):
    """Sites s1..s<n_sites> under ``config``, with ``document`` (default:
    ``make_people_doc``'s d1) replicated at ``replicate_at`` (default: s1
    primary, s2, s3), started and run until ``run_until`` if given;
    ``cluster_options`` go to ``DTXCluster`` (XDGL unless ``protocol``)."""
    cluster = DTXCluster(config=config, **cluster_options)
    sites = [f"s{i + 1}" for i in range(n_sites)]
    for s in sites:
        cluster.add_site(s)
    cluster.replicate_document(document or make_people_doc(), replicate_at or sites[:3])
    if run_until is not None:
        cluster.start()
        cluster.env.run(until=run_until)
    return cluster


def insert_op(marker):
    """Insert ``<person><id>marker</id></person>`` into d1's people."""
    return Operation.update("d1", InsertOp(f"<person><id>{marker}</id></person>", "/people"))


def insert_tx(marker, label=""):
    return Transaction([insert_op(marker)], label=label or f"w{marker}")


def read_tx(label="r"):
    return Transaction([Operation.query("d1", "/people/person")], label=label)


def settle_migrations(cluster, budget_ms=3000.0, drain_ms=0.0):
    """Run until no migration is in flight (at most ``budget_ms``), then
    ``drain_ms`` more."""
    deadline = cluster.env.now + budget_ms
    while not cluster.migration.quiesced() and cluster.env.now < deadline:
        cluster.env.run(until=cluster.env.now + 25.0)
    if drain_ms:
        cluster.env.run(until=cluster.env.now + drain_ms)


def run_to_horizon(cluster, until=5000.0):
    """Run ``cluster`` to a simulated horizon and return its result, failing
    with the run's ``progress`` violations if any. With
    ``lock_wait_timeout_ms`` 0 a lost wake-up never ends: the deadlock
    detector's sweeps keep the event queue alive, so ``cluster.run()``
    would spin; a horizon turns the stall into a list of parked waiters,
    turns and wakes."""
    result = cluster.run(until=until)
    assert progress(cluster, result) == []
    return result


def x_spec() -> LockSpec:
    """A lock spec of one request: X on one key."""
    spec = LockSpec()
    spec.add("d1:/", LockMode.X)
    return spec


def refuse(manager, tid, holder, coordinator="s1", attempt=1):
    """``holder`` takes :func:`x_spec` from ``manager`` and ``tid`` is
    refused it, for ``coordinator``'s ``attempt``; returns the manager."""
    spec = x_spec()
    assert manager.process_operation(holder, spec).granted
    assert not manager.process_operation(tid, spec, coordinator, attempt).granted
    return manager


def plant_waiter(manager, tid, holder, coordinator="s1", attempt=1) -> None:
    """Leave ``tid`` registered as a waiter and nothing else: it is refused,
    and its holder is then released behind the wait policy's back (no
    walk), the way a lost wake-up leaves it."""
    refuse(manager, tid, holder, coordinator, attempt)
    manager.table.release_transaction(holder)
    manager.wfg.remove_node(holder)


def plant_turn(manager, tid, holder, coordinator="s1") -> None:
    """Leave ``tid`` a turn and nothing else: its holder's release wakes it,
    and its retry never comes."""
    refuse(manager, tid, holder, coordinator).release_transaction(holder)


def doc_at(cluster, site, doc_name="d1") -> str:
    """The rendering of ``site``'s live copy of ``doc_name``."""
    return serialize_document(cluster.document_at(site, doc_name))


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
