"""Tour of the data layer: XMark generation, DataGuide, fragmentation.

Shows the substrate pieces individually — generate an auction database,
summarize it into the DataGuide XDGL locks against, fragment it for partial
replication, and run a few XPath queries and update-language statements.

Run:  python examples/xmark_tour.py
"""

from repro.dataguide import DataGuide
from repro.update import apply_update, parse_update, revert
from repro.workload import generate_xmark, xmark_fragments
from repro.xpath import evaluate, evaluate_values
from repro.xml import serialize_document


def main() -> None:
    # 1. Generate a deterministic, scaled-down XMark database (Fig. 7 schema).
    doc, stats = generate_xmark(target_bytes=60_000, seed=7)
    print(f"generated {doc.name!r}: {len(doc)} elements, "
          f"{doc.size_bytes()} bytes")
    print(f"  items={stats.items} persons={stats.persons} "
          f"open={stats.open_auctions} closed={stats.closed_auctions}")

    # 2. The DataGuide: every label path exactly once. This is the structure
    #    XDGL locks — compare its size with the document's.
    guide = DataGuide.build(doc)
    print(f"\nDataGuide: {guide.node_count()} nodes summarize "
          f"{len(doc)} document nodes "
          f"({len(doc) / guide.node_count():.0f}x compression)")
    print("first levels of the guide:")
    for line in guide.pretty().splitlines()[:12]:
        print(" ", line)

    # 3. XPath queries from the XMark-adapted workload.
    print("\nqueries:")
    expensive = evaluate("/site/closed_auctions/closed_auction[price>=100]", doc)
    print(f"  closed auctions with price >= 100: {len(expensive)}")
    names = evaluate_values("/site/regions/europe/item/name", doc)
    print(f"  items in europe: {len(names)}, first: {names[0]!r}")
    person = evaluate_values('/site/people/person[@id="person0"]/name', doc)
    print(f"  person0 name: {person[0]!r}")

    # 4. The update language, with undo: each change record reverts itself.
    stmt = ('INSERT <item id="tour-item"><location>Brazil</location>'
            "<quantity>1</quantity><name>tour special</name></item> "
            "INTO /site/regions/samerica")
    changes = apply_update(parse_update(stmt), doc)
    for c in changes:
        guide.apply_change(c)
    print(f"\napplied: {stmt[:60]}...")
    print(f"  samerica now has {len(evaluate('/site/regions/samerica/item', doc))} items")
    for c in reversed(changes):
        guide.apply_change(revert(c))
    guide.validate_against(doc)
    print("  rolled back; DataGuide re-validated against the document")

    # 5. Fragmentation for partial replication (Fig. 8).
    frags = xmark_fragments(doc, 4)
    print("\nfragments for 4 sites:")
    for f in frags:
        n_items = len(evaluate("//item", f))
        print(f"  {f.name}: {f.size_bytes():>7} bytes, {n_items} items")


if __name__ == "__main__":
    main()
