"""The paper's §2.4 execution scenario, narrated step by step.

Two sites, three transactions, one distributed deadlock: t1 and t2 block
each other crosswise (each needs an IX lock under the other's held ST), the
periodic detector unions the two wait-for graphs, finds the cycle, and rolls
back the most recent transaction (t2). t1 then completes; client c2 discards
t2 and runs t3. ``python -m repro scenario`` and
``examples/paper_scenario.py`` both run :func:`paper_scenario`.
"""

from __future__ import annotations

import sys
from typing import Optional, TextIO

from ..config import SystemConfig
from ..core import DTXCluster, Operation, RunResult, Transaction
from ..update import InsertOp
from ..xml import E, doc, serialize_document


def paper_scenario(out: Optional[TextIO] = None) -> RunResult:
    """Run the scenario, narrate it to ``out`` (default: standard output)
    and return its result."""
    out = sys.stdout if out is None else out
    cfg = SystemConfig().with_(
        client_think_ms=0.0, detector_interval_ms=50.0, detector_initial_delay_ms=10.0
    )
    cluster = DTXCluster(protocol="xdgl", config=cfg)
    d1 = doc("d1", E(
        "people",
        E("person", E("id", text="1"), E("name", text="Carlos")),
        E("person", E("id", text="4"), E("name", text="Maria")),
    ))
    d2 = doc("d2", E(
        "products",
        E("product", E("id", text="4"), E("description", text="Monitor"),
          E("price", text="250.00")),
        E("product", E("id", text="14"), E("description", text="Webcam"),
          E("price", text="35.50")),
    ))
    cluster.add_site("s1", [d1])           # s1 holds a copy of d1
    cluster.add_site("s2", [d1, d2])       # s2 holds d1 and d2 (Fig. 4)

    t1 = Transaction(
        [
            Operation.query("d1", "/people/person[id=4]"),  # t1op1
            Operation.update("d2", InsertOp(                # t1op2
                "<product><id>13</id><description>Mouse</description>"
                "<price>10.30</price></product>", "/products")),
        ],
        label="t1",
    )
    t2 = Transaction(
        [
            Operation.query("d2", "/products/product"),     # t2op1
            Operation.update("d1", InsertOp(                # t2op2
                "<person><id>22</id><name>Patricia</name></person>", "/people")),
        ],
        label="t2",
    )
    t3 = Transaction(
        [
            Operation.query("d2", "/products/product[id=14]"),  # t3op1
            Operation.update("d2", InsertOp(                    # t3op2
                "<product><id>32</id><description>Keyboard</description>"
                "<price>9.90</price></product>", "/products")),
        ],
        label="t3",
    )

    cluster.add_client("c1", "s1", [t1])
    cluster.add_client("c2", "s2", [t2, t3])

    # Show the DataGuides the locks live on (paper Fig. 5).
    cluster.start()
    print("DataGuide of d1 at s1 (locks are taken on these nodes):", file=out)
    print(cluster.site("s1").protocol.guide("d1").pretty(), file=out)
    print(file=out)

    result = cluster.run()

    print("outcomes:", file=out)
    for r in sorted(result.records, key=lambda r: r.label):
        reason = f" ({r.reason})" if r.reason else ""
        print(f"  {r.label}: {r.status}{reason}  response={r.response_ms:.2f} ms", file=out)
    print(f"\ndistributed deadlocks detected: {result.distributed_deadlocks}", file=out)
    print(f"detector sweeps: {result.detector_sweeps}", file=out)

    print("\nd2 after the scenario (Mouse and Keyboard in, no Patricia anywhere):", file=out)
    print(serialize_document(cluster.document_at("s2", "d2"), indent=2), file=out)

    same = serialize_document(cluster.document_at("s1", "d1")) == serialize_document(
        cluster.document_at("s2", "d1")
    )
    print(f"\nd1 replicas identical across sites: {same}", file=out)
    return result
