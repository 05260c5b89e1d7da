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
"""

from __future__ import annotations

import random
from typing import Callable, Optional

from ..core.transaction import Operation
from ..update.operations import ChangeOp, InsertOp, RemoveOp, TransposeOp
from ..xml.model import Document
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


class IdPools:
    """The entity ids of one document, by container, in document order.

    Each pool is drawn from the tree on its first use and kept, so a
    document is scanned once per container however many operations pick
    from it: the pools see the tree as it was then, which is what the
    templates want while a workload is generated and nothing runs.
    """

    def __init__(self, doc: Document):
        self.doc = doc
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
    return Operation.query(doc_name, f'/site/people/person[@id="{pid}"]/name')


def q_open_auction_current(rng, doc_name, pools):
    aid = _pick(rng, pools.ids("open_auctions", "open_auction"))
    if aid is None:
        return None
    return Operation.query(doc_name, f'/site/open_auctions/open_auction[@id="{aid}"]/current')


def q_region_items(rng, doc_name, pools):
    region = rng.choice(REGIONS)
    return Operation.query(doc_name, f"/site/regions/{region}/item/name")


def q_items_anywhere(rng, doc_name, pools):
    return Operation.query(doc_name, "//item/name")


def q_expensive_closed(rng, doc_name, pools):
    threshold = rng.randint(20, 150)
    return Operation.query(
        doc_name, f"/site/closed_auctions/closed_auction[price>={threshold}]"
    )


def q_categories(rng, doc_name, pools):
    return Operation.query(doc_name, "/site/categories/category/name")


def q_person_city(rng, doc_name, pools):
    pid = _pick(rng, pools.ids("people", "person"))
    if pid is None:
        return None
    return Operation.query(doc_name, f'/site/people/person[@id="{pid}"]/address/city')


def q_auction_bidders(rng, doc_name, pools):
    aid = _pick(rng, pools.ids("open_auctions", "open_auction"))
    if aid is None:
        return None
    return Operation.query(
        doc_name, f'/site/open_auctions/open_auction[@id="{aid}"]/bidder/increase'
    )


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
    frag = (
        f"<bidder><date>06/2009</date><increase>{rng.uniform(1, 15):.2f}</increase>"
        f'<personref person="{pid}"/></bidder>'
    )
    return Operation.update(
        doc_name, InsertOp(frag, f'/site/open_auctions/open_auction[@id="{aid}"]')
    )


def u_change_current(rng, doc_name, pools):
    aid = _pick(rng, pools.ids("open_auctions", "open_auction"))
    if aid is None:
        return None
    return Operation.update(
        doc_name,
        ChangeOp(
            f'/site/open_auctions/open_auction[@id="{aid}"]/current',
            f"{rng.uniform(10, 300):.2f}",
        ),
    )


def u_new_item(rng, doc_name, pools):
    region = rng.choice(REGIONS)
    new_id = f"itemN{rng.randrange(10_000_000)}"
    frag = (
        f'<item id="{new_id}"><location>Brazil</location><quantity>1</quantity>'
        f"<name>fresh item</name><payment>Creditcard</payment></item>"
    )
    return Operation.update(doc_name, InsertOp(frag, f"/site/regions/{region}"))


def u_new_person(rng, doc_name, pools):
    new_id = f"personN{rng.randrange(10_000_000)}"
    frag = (
        f'<person id="{new_id}"><name>New Person</name>'
        f"<emailaddress>mailto:{new_id}@example.net</emailaddress></person>"
    )
    return Operation.update(doc_name, InsertOp(frag, "/site/people"))


def u_change_phone(rng, doc_name, pools):
    pid = _pick(rng, pools.ids("people", "person"))
    if pid is None:
        return None
    return Operation.update(
        doc_name,
        ChangeOp(
            f'/site/people/person[@id="{pid}"]/phone',
            f"+55 (85) {rng.randint(1000000, 9999999)}",
        ),
    )


def u_remove_closed(rng, doc_name, pools):
    aid = _pick(rng, pools.ids("closed_auctions", "closed_auction"))
    if aid is None:
        return None
    return Operation.update(
        doc_name, RemoveOp(f'/site/closed_auctions/closed_auction[@id="{aid}"]')
    )


def u_transpose_item(rng, doc_name, pools):
    iid = _pick(rng, pools.ids("regions", "item"))
    if iid is None:
        return None
    dest = rng.choice(REGIONS)
    return Operation.update(
        doc_name,
        TransposeOp(f'//item[@id="{iid}"]', f"/site/regions/{dest}"),
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
