"""The paper's §2.4 execution scenario, narrated step by step.

Two sites, three transactions, one distributed deadlock: t1 and t2 block
each other crosswise (each needs an IX lock under the other's held ST), the
periodic detector unions the two wait-for graphs, finds the cycle, and rolls
back the most recent transaction (t2). t1 then completes; client c2 discards
t2 and runs t3. The scenario itself is ``repro.experiments.scenario``, which
``python -m repro scenario`` runs too.

Run:  python examples/paper_scenario.py
"""

from repro.experiments.scenario import paper_scenario


def main() -> None:
    result = paper_scenario()
    outcome = {r.label: (r.status, r.reason) for r in result.records}
    assert outcome == {
        "t1": ("committed", ""),
        "t2": ("aborted", "distributed-deadlock"),
        "t3": ("committed", ""),
    }, outcome


if __name__ == "__main__":
    main()
