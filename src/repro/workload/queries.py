"""XMark query and update templates adapted to the DTX languages.

The paper §3: "the XMark benchmark is extended, adapting its queries to the
XPath language and adding update operations". The templates below follow the
spirit of XMark's Q1-Q20 where they fit the XPath subset (id lookups, value
range scans, structural scans) and add the update mix (inserts of bids,
items and persons; price/phone changes; closed-auction removals; an
occasional item transposition between regions).

Each template is a callable ``(rng, doc_name, pools) -> Operation``, where
``pools`` are the :class:`IdPools` of the document: operations reference ids
that exist in that fragment.

The templates that draw an id or a threshold do not format and parse a
path per operation. Their paths are the ``{}`` patterns below, and
``pools.paths`` (a :class:`TemplatePaths`, one per tester and shared by its
documents' pools) parses each pattern once and builds every instance from
that parse with its own ``Literal``. An instance is kept per (pattern,
literal) for as long as the tester lives, so within one build equal paths
are one object and their plan, ``str`` and ``shape`` are computed once;
nothing is kept at module level, so nothing outlives the build. Instances
of one pattern share its other steps, so each compiles only its predicate
step, and its ``shape`` (which erases the literal) and its text come from
the pattern. Insert fragments are built with
:func:`~repro.xml.builder.E`, not parsed.
"""

from __future__ import annotations

import random
from typing import Callable, Optional, Union

from ..core.transaction import Operation
from ..update.operations import ChangeOp, InsertOp, RemoveOp, TransposeOp
from ..xml.builder import E
from ..xml.model import Document
from ..xpath.ast import Comparison, Literal, LocationPath, Step
from ..xpath.parser import parse_xpath
from .xmark import REGIONS


def _ids(doc: Document, container: str, tag: str) -> list[str]:
    root = doc.root
    cont = root.child(container) if root is not None else None
    if cont is None:
        return []
    if container == "regions":
        out = []
        for region in cont.children:
            out.extend(i.attrib["id"] for i in region.children if "id" in i.attrib)
        return out
    return [e.attrib["id"] for e in cont.children if e.tag == tag and "id" in e.attrib]


#: The paths of the templates that draw a literal, ``{}`` where it goes.
PERSON_NAME = '/site/people/person[@id="{}"]/name'
PERSON_CITY = '/site/people/person[@id="{}"]/address/city'
PERSON_PHONE = '/site/people/person[@id="{}"]/phone'
OPEN_AUCTION = '/site/open_auctions/open_auction[@id="{}"]'
OPEN_AUCTION_CURRENT = OPEN_AUCTION + "/current"
OPEN_AUCTION_INCREASES = OPEN_AUCTION + "/bidder/increase"
CLOSED_AUCTION = '/site/closed_auctions/closed_auction[@id="{}"]'
CLOSED_AUCTION_PRICE_AT_LEAST = "/site/closed_auctions/closed_auction[price>={}]"
ITEM_ANYWHERE = '//item[@id="{}"]'
PATH_TEMPLATES = (
    PERSON_NAME, PERSON_CITY, PERSON_PHONE, OPEN_AUCTION, OPEN_AUCTION_CURRENT,
    OPEN_AUCTION_INCREASES, CLOSED_AUCTION, CLOSED_AUCTION_PRICE_AT_LEAST, ITEM_ANYWHERE,
)


class TemplatePaths:
    """The paths built from :data:`PATH_TEMPLATES`, for one tester.

    A pattern is parsed once, with a stand-in literal, and split around the
    one step that has a predicate. :meth:`path` builds an instance from
    those parts — a new ``LocationPath``, ``Step``, ``Comparison`` and
    ``Literal``, every other node shared with the parse — and keeps it per
    (pattern, literal). It equals the parse of the pattern formatted with
    the literal: the literal takes the stand-in's type, so a threshold is a
    ``float`` as the parser makes it. It takes the parse's ``shape``, and
    its text is the pattern around the literal's own rendering when the
    pattern renders the stand-in as ``str()`` of the parse does.
    """

    def __init__(self) -> None:
        self._parts: dict[str, tuple] = {}
        self._paths: dict[tuple[str, Union[str, int, float]], LocationPath] = {}

    def path(self, template: str, value: Union[str, int, float]) -> LocationPath:
        key = (template, value)
        path = self._paths.get(key)
        if path is None:
            parts = self._parts.get(template)
            if parts is None:
                parts = self._parts[template] = _split(template)
            absolute, head, axis, test, left, op, kind, tail, shape, text = parts
            literal = Literal(kind(value))
            step = Step(axis, test, (Comparison(left, op, literal),))
            path = self._paths[key] = LocationPath(absolute, (*head, step, *tail))
            object.__setattr__(path, "_shape", shape)  # LocationPath is frozen
            if text is not None:
                object.__setattr__(path, "_text", text.format(literal))
        return path


def _split(template: str) -> tuple:
    parsed = parse_xpath(template.format(0))
    steps = parsed.steps
    for i, step in enumerate(steps):
        if step.predicates:
            (cmp,) = step.predicates
            stand_in = cmp.right
            # The pattern with the literal's rendering (quotes included) as
            # its one field, kept only if it renders the stand-in exactly.
            text = template.replace('"{}"', "{}")
            if text.format(stand_in) != str(parsed):
                text = None
            return (
                parsed.absolute, steps[:i], step.axis, step.test,
                cmp.left, cmp.op, type(stand_in.value), steps[i + 1:], parsed.shape, text,
            )
    raise ValueError(f"template {template!r} has no predicate")


class IdPools:
    """The entity ids of one document, by container, in document order.

    Each pool is drawn from the tree on its first use and kept, so a
    document is scanned once per container however many operations pick
    from it: the pools see the tree as it was then, which is what the
    templates want while a workload is generated and nothing runs.
    ``paths`` builds the templates' paths; a tester hands all its pools
    one, so equal paths across its documents are one object.
    """

    def __init__(self, doc: Document, paths: Optional[TemplatePaths] = None):
        self.doc = doc
        self.paths = TemplatePaths() if paths is None else paths
        self._pools: dict[tuple[str, str], list[str]] = {}

    def ids(self, container: str, tag: str) -> list[str]:
        key = (container, tag)
        pool = self._pools.get(key)
        if pool is None:
            pool = self._pools[key] = _ids(self.doc, container, tag)
        return pool


TemplateFn = Callable[[random.Random, str, IdPools], Optional[Operation]]


def _pick(rng: random.Random, pool: list[str]) -> Optional[str]:
    return rng.choice(pool) if pool else None


# -- queries (XMark-flavoured, XPath subset) --------------------------------


def q_person_name(rng, doc_name, pools):
    pid = _pick(rng, pools.ids("people", "person"))
    if pid is None:
        return None
    return Operation.query(doc_name, pools.paths.path(PERSON_NAME, pid))


def q_open_auction_current(rng, doc_name, pools):
    aid = _pick(rng, pools.ids("open_auctions", "open_auction"))
    if aid is None:
        return None
    return Operation.query(doc_name, pools.paths.path(OPEN_AUCTION_CURRENT, aid))


def q_region_items(rng, doc_name, pools):
    region = rng.choice(REGIONS)
    return Operation.query(doc_name, f"/site/regions/{region}/item/name")


def q_items_anywhere(rng, doc_name, pools):
    return Operation.query(doc_name, "//item/name")


def q_expensive_closed(rng, doc_name, pools):
    threshold = rng.randint(20, 150)
    return Operation.query(
        doc_name, pools.paths.path(CLOSED_AUCTION_PRICE_AT_LEAST, threshold)
    )


def q_categories(rng, doc_name, pools):
    return Operation.query(doc_name, "/site/categories/category/name")


def q_person_city(rng, doc_name, pools):
    pid = _pick(rng, pools.ids("people", "person"))
    if pid is None:
        return None
    return Operation.query(doc_name, pools.paths.path(PERSON_CITY, pid))


def q_auction_bidders(rng, doc_name, pools):
    aid = _pick(rng, pools.ids("open_auctions", "open_auction"))
    if aid is None:
        return None
    return Operation.query(doc_name, pools.paths.path(OPEN_AUCTION_INCREASES, aid))


QUERY_TEMPLATES: list[TemplateFn] = [
    q_person_name,
    q_open_auction_current,
    q_region_items,
    q_items_anywhere,
    q_expensive_closed,
    q_categories,
    q_person_city,
    q_auction_bidders,
]


# -- updates ------------------------------------------------------------------


def u_new_bid(rng, doc_name, pools):
    aid = _pick(rng, pools.ids("open_auctions", "open_auction"))
    pid = _pick(rng, pools.ids("people", "person")) or "person0"
    if aid is None:
        return None
    frag = E(
        "bidder",
        E("date", text="06/2009"),
        E("increase", text=f"{rng.uniform(1, 15):.2f}"),
        E("personref", person=pid),
    )
    return Operation.update(doc_name, InsertOp(frag, pools.paths.path(OPEN_AUCTION, aid)))


def u_change_current(rng, doc_name, pools):
    aid = _pick(rng, pools.ids("open_auctions", "open_auction"))
    if aid is None:
        return None
    return Operation.update(
        doc_name,
        ChangeOp(
            pools.paths.path(OPEN_AUCTION_CURRENT, aid), f"{rng.uniform(10, 300):.2f}"
        ),
    )


def u_new_item(rng, doc_name, pools):
    region = rng.choice(REGIONS)
    new_id = f"itemN{rng.randrange(10_000_000)}"
    frag = E(
        "item",
        E("location", text="Brazil"),
        E("quantity", text="1"),
        E("name", text="fresh item"),
        E("payment", text="Creditcard"),
        id=new_id,
    )
    return Operation.update(doc_name, InsertOp(frag, f"/site/regions/{region}"))


def u_new_person(rng, doc_name, pools):
    new_id = f"personN{rng.randrange(10_000_000)}"
    frag = E(
        "person",
        E("name", text="New Person"),
        E("emailaddress", text=f"mailto:{new_id}@example.net"),
        id=new_id,
    )
    return Operation.update(doc_name, InsertOp(frag, "/site/people"))


def u_change_phone(rng, doc_name, pools):
    pid = _pick(rng, pools.ids("people", "person"))
    if pid is None:
        return None
    return Operation.update(
        doc_name,
        ChangeOp(
            pools.paths.path(PERSON_PHONE, pid), f"+55 (85) {rng.randint(1000000, 9999999)}"
        ),
    )


def u_remove_closed(rng, doc_name, pools):
    aid = _pick(rng, pools.ids("closed_auctions", "closed_auction"))
    if aid is None:
        return None
    return Operation.update(doc_name, RemoveOp(pools.paths.path(CLOSED_AUCTION, aid)))


def u_transpose_item(rng, doc_name, pools):
    iid = _pick(rng, pools.ids("regions", "item"))
    if iid is None:
        return None
    dest = rng.choice(REGIONS)
    return Operation.update(
        doc_name,
        TransposeOp(pools.paths.path(ITEM_ANYWHERE, iid), f"/site/regions/{dest}"),
    )


UPDATE_TEMPLATES: list[TemplateFn] = [
    u_new_bid,
    u_change_current,
    u_new_item,
    u_new_person,
    u_change_phone,
    u_remove_closed,
    u_transpose_item,
]
#: Weights mirror a plausible auction-site mix: bids and price changes
#: dominate; structural moves are rare.
UPDATE_WEIGHTS = [4, 4, 2, 2, 2, 1, 1]
