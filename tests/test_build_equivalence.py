"""A cluster build against the route it replaced.

``build_cluster`` deals the generated XMark tree into its fragments by
moving the entity subtrees, where it used to register the tree as a
document and copy every entity out of it (``xmark_fragments``); and the
workload templates build their paths from patterns parsed once per tester
and their insert fragments with ``E``, where they used to format and parse
text. Everything the build hands on must be what the old route made: the
same fragments (text and node ids), the same placed copies, paths equal to
the parse of the old text, fragments that serialize alike. And none of it
may outlive the build.
"""

import gc
import random
import weakref
from dataclasses import replace

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.errors import XMLModelError
from repro.experiments import build_cluster
from repro.workload import generate_xmark, xmark_fragments
from repro.workload.queries import (
    CLOSED_AUCTION,
    CLOSED_AUCTION_PRICE_AT_LEAST,
    ITEM_ANYWHERE,
    OPEN_AUCTION,
    OPEN_AUCTION_CURRENT,
    OPEN_AUCTION_INCREASES,
    PATH_TEMPLATES,
    PERSON_CITY,
    PERSON_NAME,
    PERSON_PHONE,
    IdPools,
    TemplatePaths,
    u_new_bid,
    u_new_item,
    u_new_person,
)
from repro.xml import Document, E, Element, parse_fragment, serialize_document
from repro.xml.serializer import serialize_element
from repro.xpath.parser import _Parser

from .conftest import example_budget
from .test_xpath_equivalence import WORKLOAD_SHAPES, _generated_paths


def _small(config, seed):
    """``config`` at a small database and stream, seeded ``seed``."""
    return replace(
        config,
        db_bytes=12_000 if config.replication == "total" else 30_000,
        workload=replace(config.workload, tx_per_client=2, seed=seed),
        system=config.system.with_(seed=seed),
    )


def _ids(document):
    return [(node.node_id, node.tag) for node in document.iter()]


def _assert_same_document(got, want):
    assert got.name == want.name
    assert serialize_document(got) == serialize_document(want)
    assert _ids(got) == _ids(want)


# ---------------------------------------------------------------------------
# dealt fragments and placed copies
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", [3, 29])
@pytest.mark.parametrize("shape", sorted(WORKLOAD_SHAPES))
def test_fragments_and_placed_copies_match_the_copying_route(shape, seed):
    config = _small(WORKLOAD_SHAPES[shape], seed)
    cluster, tester = build_cluster(config)
    base, _ = generate_xmark(config.db_bytes, seed=config.system.seed)
    expected = (
        [base] if config.replication == "total" else xmark_fragments(base, config.n_sites)
    )
    assert sorted(tester.documents) == sorted(want.name for want in expected)
    for want in expected:
        _assert_same_document(tester.documents[want.name], want)
        sites = cluster.catalog.sites_for(want.name)
        assert sites
        for site in sites:
            _assert_same_document(cluster.document_at(site, want.name), want.clone())


def test_dealing_a_document_leaves_it_whole():
    document, _ = generate_xmark(20_000, seed=5)
    before = serialize_document(document), _ids(document)
    first = xmark_fragments(document, 3)
    assert (serialize_document(document), _ids(document)) == before
    for again, frag in zip(xmark_fragments(document, 3), first):
        _assert_same_document(again, frag)


# ---------------------------------------------------------------------------
# template-built paths
# ---------------------------------------------------------------------------

#: The f-strings the templates formatted before, per pattern.
OLD_PATHS = {
    PERSON_NAME: lambda v: f'/site/people/person[@id="{v}"]/name',
    PERSON_CITY: lambda v: f'/site/people/person[@id="{v}"]/address/city',
    PERSON_PHONE: lambda v: f'/site/people/person[@id="{v}"]/phone',
    OPEN_AUCTION: lambda v: f'/site/open_auctions/open_auction[@id="{v}"]',
    OPEN_AUCTION_CURRENT: lambda v: f'/site/open_auctions/open_auction[@id="{v}"]/current',
    OPEN_AUCTION_INCREASES: (
        lambda v: f'/site/open_auctions/open_auction[@id="{v}"]/bidder/increase'
    ),
    CLOSED_AUCTION: lambda v: f'/site/closed_auctions/closed_auction[@id="{v}"]',
    CLOSED_AUCTION_PRICE_AT_LEAST: (
        lambda v: f"/site/closed_auctions/closed_auction[price>={v}]"
    ),
    ITEM_ANYWHERE: lambda v: f'//item[@id="{v}"]',
}

#: What the string literals may hold: anything the quotes can delimit.
id_literals = st.text(st.characters(exclude_characters="\"'"), max_size=24)
thresholds = st.integers(0, 10**9)


def test_every_template_has_its_old_text():
    assert set(OLD_PATHS) == set(PATH_TEMPLATES)


@settings(max_examples=example_budget(60), deadline=None)
@given(st.data())
def test_built_paths_equal_the_parse_of_the_old_text(data):
    paths = TemplatePaths()
    for template in PATH_TEMPLATES:
        numeric = template is CLOSED_AUCTION_PRICE_AT_LEAST
        value = data.draw(thresholds if numeric else id_literals)
        built = paths.path(template, value)
        text = OLD_PATHS[template](value)
        parsed = _Parser(text).parse_path()
        assert built == parsed
        assert repr(built) == repr(parsed)  # literal types too: 20.0, not 20
        assert str(built) == str(parsed) == text
        assert built.shape == parsed.shape
        assert paths.path(template, value) is built


# ---------------------------------------------------------------------------
# insert fragments built with E
# ---------------------------------------------------------------------------


def _old_new_bid(rng, pools):
    aid = rng.choice(pools.ids("open_auctions", "open_auction"))
    pid = rng.choice(pools.ids("people", "person"))
    frag = (
        f"<bidder><date>06/2009</date><increase>{rng.uniform(1, 15):.2f}</increase>"
        f'<personref person="{pid}"/></bidder>'
    )
    return frag, OLD_PATHS[OPEN_AUCTION](aid)


def _old_new_item(rng, pools):
    region = rng.choice(("africa", "asia", "australia", "europe", "namerica", "samerica"))
    new_id = f"itemN{rng.randrange(10_000_000)}"
    frag = (
        f'<item id="{new_id}"><location>Brazil</location><quantity>1</quantity>'
        f"<name>fresh item</name><payment>Creditcard</payment></item>"
    )
    return frag, f"/site/regions/{region}"


def _old_new_person(rng, pools):
    new_id = f"personN{rng.randrange(10_000_000)}"
    frag = (
        f'<person id="{new_id}"><name>New Person</name>'
        f"<emailaddress>mailto:{new_id}@example.net</emailaddress></person>"
    )
    return frag, "/site/people"


def _tree(element):
    """Everything an element holds, parent by tag (as it is detached, the
    top has none)."""
    parent = element.parent
    return (
        element.tag, element.attrib, element.text, parent and parent.tag,
        element.node_id, element.document, [_tree(child) for child in element],
    )


@pytest.mark.parametrize(
    "template,old",
    [(u_new_bid, _old_new_bid), (u_new_item, _old_new_item), (u_new_person, _old_new_person)],
)
def test_insert_fragments_serialize_like_the_old_text(template, old):
    document, _ = generate_xmark(20_000, seed=5)
    pools = IdPools(document)
    for seed in range(20):
        new_rng, old_rng = random.Random(seed), random.Random(seed)
        op = template(new_rng, "xmark", pools).payload
        text, target = old(old_rng, pools)
        parsed = parse_fragment(text)
        assert serialize_element(op.fragment) == serialize_element(parsed) == text
        assert _tree(op.fragment) == _tree(parsed)
        assert str(op.target) == target
        assert new_rng.getstate() == old_rng.getstate()  # the same draws


# ---------------------------------------------------------------------------
# E's checks
# ---------------------------------------------------------------------------


def _error(attach):
    with pytest.raises(XMLModelError) as caught:
        attach()
    return str(caught.value)


def test_e_refuses_a_child_with_a_parent_as_append_does():
    child = Element("c")
    E("p", child)
    assert _error(lambda: E("x", child)) == _error(lambda: Element("y").append(child))
    assert "already has a parent <p>" in _error(lambda: E("x", child))


def test_e_refuses_a_child_of_a_document_as_append_does():
    owned = Document("d", Element("r")).root
    via_e = _error(lambda: E("x", owned))
    # (A refused append has already linked the child: it goes second.)
    via_append = _error(lambda: Document("e", Element("y")).root.append(owned))
    assert via_e == via_append == "<r> belongs to document 'd'"


def test_e_refuses_a_repeated_child_and_a_non_element():
    child = Element("c")
    assert "already has a parent <x>" in _error(lambda: E("x", child, child))
    assert _error(lambda: E("x", "text")) == _error(lambda: Element("y").append("text"))


def test_e_attaches_children_in_order():
    a, b = Element("a"), Element("b")
    parent = E("p", a, b, text="t", k=1)
    assert list(parent) == [a, b]
    assert a.parent is parent and b.parent is parent
    assert (parent.text, parent.attrib) == ("t", {"k": "1"})


# ---------------------------------------------------------------------------
# nothing outlives the build
# ---------------------------------------------------------------------------


def test_no_build_state_survives_the_build():
    cluster, tester = build_cluster(_small(WORKLOAD_SHAPES["mixed"], 3))
    built = [
        weakref.ref(path)
        for path in _generated_paths(cluster)
        if any(step.predicates for step in path.steps)  # the template-built ones
    ]
    assert built
    tester_ref = weakref.ref(tester)
    del cluster, tester
    gc.collect()
    assert tester_ref() is None
    assert [ref for ref in built if ref() is not None] == []
