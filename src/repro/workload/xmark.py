"""Scaled-down XMark database generator (Schmidt et al., VLDB '02).

Generates the auction-site schema of the paper's Fig. 7::

    site
    ├── regions/{africa,asia,australia,europe,namerica,samerica}/item*
    ├── categories/category*
    ├── catgraph/edge*
    ├── people/person*
    ├── open_auctions/open_auction*   (with nested bidder* lists)
    └── closed_auctions/closed_auction*

The generator is deterministic (seeded) and sized by ``target_bytes``: entity
counts scale linearly with the target, preserving XMark's relative
cardinalities, so a "200 MB" experiment point and a "50 MB" point differ the
way the paper's do — only scaled down (see EXPERIMENTS.md).

The paper fragments the database at root-child granularity; this schema has
six fine-grained region/entity containers under a two-level root, so for
fragmentation we also provide :func:`xmark_fragments`, which splits by
*entity groups* keeping every fragment a valid ``site`` document.

Fragmenting is one dealing rule (``_deal``) with two ways to hand an entity
to its fragment. :func:`xmark_fragments` copies it out of a document, which
stays whole (Fig. 8 deals one base three times). :func:`deal_xmark` moves
it out of the detached tree :func:`xmark_tree` generates, which is what a
cluster build does: the generated tree is never registered as a document
nor copied, and the fragments come out with the same texts and node ids.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from ..errors import XMLModelError
from ..sim.rng import substream
from ..xml.builder import E
from ..xml.model import Document, Element

REGIONS = ("africa", "asia", "australia", "europe", "namerica", "samerica")

_WORDS = (
    "gold silver bronze ancient modern rare classic plain ornate carved "
    "leather wooden silk copper iron glass marble ivory amber jade crystal "
    "swift quiet bold grand small large heavy light dark bright"
).split()

_CITIES = (
    "Fortaleza Lisboa Paris Tokyo Cairo Sydney Toronto Lima Oslo Madrid "
    "Berlin Rome Athens Dublin Vienna Prague"
).split()

_COUNTRIES = (
    "Brazil Portugal France Japan Egypt Australia Canada Peru Norway Spain "
    "Germany Italy Greece Ireland Austria Czechia"
).split()

_NAMES = (
    "Ana Bruno Carla Diego Elena Fabio Gina Hugo Iris Joao Karla Luis Maria "
    "Nuno Olga Paulo Quita Rui Sofia Tiago"
).split()

#: Approximate serialized bytes of one of each entity (measured; used to
#: convert a byte budget into entity counts).
_BYTES_PER = {"item": 260, "person": 230, "open": 280, "closed": 170, "category": 60}


@dataclass
class XMarkStats:
    items: int = 0
    persons: int = 0
    open_auctions: int = 0
    closed_auctions: int = 0
    categories: int = 0
    item_ids: list[str] = field(default_factory=list)
    person_ids: list[str] = field(default_factory=list)
    open_ids: list[str] = field(default_factory=list)
    closed_ids: list[str] = field(default_factory=list)


def generate_xmark(
    target_bytes: int = 200_000, seed: int = 7, name: str = "xmark"
) -> tuple[Document, XMarkStats]:
    """Generate an XMark-schema document of roughly ``target_bytes``."""
    root, stats = xmark_tree(target_bytes, seed, name)
    return Document(name, root), stats


def xmark_tree(
    target_bytes: int = 200_000, seed: int = 7, name: str = "xmark"
) -> tuple[Element, XMarkStats]:
    """The tree :func:`generate_xmark` wraps, detached and unnumbered:
    what :func:`deal_xmark` splits without copying. ``name`` seeds the
    generator, as it names the document there."""
    if target_bytes < 5_000:
        raise ValueError("target_bytes too small for the XMark schema (min 5000)")
    rng = substream(seed, "xmark", name)
    stats = XMarkStats()

    # XMark relative cardinalities: per scale unit, roughly
    # items : persons : open : closed : categories = 4 : 3 : 2 : 2 : 1.
    unit_bytes = (
        4 * _BYTES_PER["item"]
        + 3 * _BYTES_PER["person"]
        + 2 * _BYTES_PER["open"]
        + 2 * _BYTES_PER["closed"]
        + 1 * _BYTES_PER["category"]
    )
    units = max(1, target_bytes // unit_bytes)
    n_items = int(4 * units)
    n_persons = int(3 * units)
    n_open = int(2 * units)
    n_closed = int(2 * units)
    n_categories = max(3, int(units))

    root = E("site")

    categories = root.append(E("categories"))
    for c in range(n_categories):
        cat = E(
            "category",
            E("name", text=f"{rng.choice(_WORDS)} goods {c}"),
            E("description", text=" ".join(rng.choice(_WORDS) for _ in range(4))),
            id=f"category{c}",
        )
        categories.append(cat)
    stats.categories = n_categories

    catgraph = root.append(E("catgraph"))
    for _ in range(max(1, n_categories // 2)):
        a, b = rng.randrange(n_categories), rng.randrange(n_categories)
        catgraph.append(E("edge", **{"from": f"category{a}", "to": f"category{b}"}))

    regions = root.append(E("regions"))
    region_elems = {r: regions.append(E(r)) for r in REGIONS}
    for i in range(n_items):
        region = REGIONS[i % len(REGIONS)]
        item_id = f"item{i}"
        item = E(
            "item",
            E("location", text=rng.choice(_COUNTRIES)),
            E("quantity", text=str(rng.randint(1, 10))),
            E("name", text=f"{rng.choice(_WORDS)} {rng.choice(_WORDS)} {i}"),
            E("payment", text="Creditcard"),
            E(
                "description",
                E("text", text=" ".join(rng.choice(_WORDS) for _ in range(8))),
            ),
            E("incategory", category=f"category{rng.randrange(n_categories)}"),
            id=item_id,
        )
        region_elems[region].append(item)
        stats.item_ids.append(item_id)
    stats.items = n_items

    people = root.append(E("people"))
    for p in range(n_persons):
        pid = f"person{p}"
        person = E(
            "person",
            E("name", text=f"{rng.choice(_NAMES)} {rng.choice(_NAMES)}"),
            E("emailaddress", text=f"mailto:{pid}@example.net"),
            E("phone", text=f"+55 ({rng.randint(10, 99)}) {rng.randint(1000000, 9999999)}"),
            E(
                "address",
                E("street", text=f"{rng.randint(1, 999)} {rng.choice(_WORDS)} St"),
                E("city", text=rng.choice(_CITIES)),
                E("country", text=rng.choice(_COUNTRIES)),
                E("zipcode", text=str(rng.randint(10000, 99999))),
            ),
            E("creditcard", text=" ".join(str(rng.randint(1000, 9999)) for _ in range(4))),
            id=pid,
        )
        people.append(person)
        stats.person_ids.append(pid)
    stats.persons = n_persons

    open_auctions = root.append(E("open_auctions"))
    for a in range(n_open):
        aid = f"open_auction{a}"
        initial = round(rng.uniform(1.0, 100.0), 2)
        auction = E(
            "open_auction",
            E("initial", text=f"{initial:.2f}"),
            E("current", text=f"{initial + rng.uniform(0, 50):.2f}"),
            E("itemref", item=f"item{rng.randrange(max(1, n_items))}"),
            E("seller", person=f"person{rng.randrange(max(1, n_persons))}"),
            E("quantity", text=str(rng.randint(1, 5))),
            E("type", text=rng.choice(("Regular", "Featured"))),
            id=aid,
        )
        for b in range(rng.randint(0, 3)):
            auction.append(
                E(
                    "bidder",
                    E("date", text=f"0{rng.randint(1, 9)}/2008"),
                    E("increase", text=f"{rng.uniform(1.0, 20.0):.2f}"),
                    E("personref", person=f"person{rng.randrange(max(1, n_persons))}"),
                )
            )
        open_auctions.append(auction)
        stats.open_ids.append(aid)
    stats.open_auctions = n_open

    closed_auctions = root.append(E("closed_auctions"))
    for a in range(n_closed):
        aid = f"closed_auction{a}"
        closed_auctions.append(
            E(
                "closed_auction",
                E("seller", person=f"person{rng.randrange(max(1, n_persons))}"),
                E("buyer", person=f"person{rng.randrange(max(1, n_persons))}"),
                E("itemref", item=f"item{rng.randrange(max(1, n_items))}"),
                E("price", text=f"{rng.uniform(5.0, 200.0):.2f}"),
                E("date", text=f"1{rng.randint(0, 2)}/2008"),
                E("quantity", text=str(rng.randint(1, 5))),
                id=aid,
            )
        )
        stats.closed_ids.append(aid)
    stats.closed_auctions = n_closed

    return root, stats


def xmark_fragments(doc: Document, k: int) -> list[Document]:
    """Split an XMark document into ``k`` valid ``site`` fragments.

    Entity elements (items, persons, auctions, categories) are dealt
    round-robin into ``k`` documents that all keep the full container
    skeleton, so every fragment answers the same structural paths — the
    Kurita-style "structure and size" fragmentation the paper uses, adapted
    to XMark's two-level containers. ``doc`` is left as it was: each
    fragment holds copies of its entities.
    """
    return _deal(doc.root, doc.name, k, Document.graft)


def deal_xmark(root: Element, k: int, name: str = "xmark") -> list[Document]:
    """The fragments :func:`xmark_fragments` makes of ``Document(name,
    root)``, made by moving each entity subtree of the detached tree
    ``root`` (from :func:`xmark_tree`) into its fragment instead of copying
    it: the same texts and the same node ids, and ``root`` is left as an
    empty skeleton."""
    if root.parent is not None or root.document is not None:
        raise XMLModelError("deal_xmark needs a detached, unowned tree")
    return _deal(root, name, k, _move)


def _move(fragment: Document, entity: Element, container: Element) -> None:
    container.append(entity.detach())


def _deal(
    root: Element, name: str, k: int,
    attach: Callable[[Document, Element, Element], object],
) -> list[Document]:
    """The one dealing rule: register ``k`` skeleton documents, then
    ``attach`` each entity under its container in fragment ``counter % k``,
    in document order. Either way of attaching numbers an entity's nodes
    with its fragment's next ids in pre-order, so the ids depend only on
    the deal order."""
    if k < 1:
        raise ValueError("k must be >= 1")

    frags: list[Document] = []
    skeletons: list[dict[tuple[str, ...], Element]] = []
    for i in range(k):
        containers: dict[tuple[str, ...], Element] = {}
        tops = []
        for top in root:
            if top.tag == "regions":
                regions = [E(region.tag) for region in top]
                for region in regions:
                    containers[(top.tag, region.tag)] = region
                top_copy = E(top.tag, *regions)
            else:
                top_copy = E(top.tag)
            containers[(top.tag,)] = top_copy
            tops.append(top_copy)
        frags.append(Document(f"{name}#{i}", E("site", *tops)))
        skeletons.append(containers)

    counter = 0
    for top in root:
        if top.tag == "regions":
            for region in top:
                for item in region.children:
                    i = counter % k
                    attach(frags[i], item, skeletons[i][(top.tag, region.tag)])
                    counter += 1
        else:
            for entity in top.children:
                i = counter % k
                attach(frags[i], entity, skeletons[i][(top.tag,)])
                counter += 1
    return frags
