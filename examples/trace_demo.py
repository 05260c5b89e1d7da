"""Trace a contended workload under XDGL vs Node2PL — the paper's comparison.

The paper's claim is that locking the DataGuide (XDGL, O(depth) locks per
operation on a structure summary) beats locking the document tree
(Node2PL, O(subtree) locks on the instance). Throughput tables show
*that* it does; a latency decomposition shows *where*: this demo traces
the same seeded workload — disjoint writer groups that conflict
internally but never with each other, every coordinator remote — under
both protocols and diffs the per-transaction critical path, phase by
phase.

Run:  python examples/trace_demo.py
"""

from repro import DTXCluster, Operation, SystemConfig, Transaction
from repro.obs import (
    critical_path_report,
    diff_reports,
    render_diff,
    render_report,
    span_forest_errors,
)
from repro.obs.critical_path import PHASES
from repro.update import ChangeOp
from repro.xml import E, doc

GROUPS, CLIENTS_PER_GROUP, TX_PER_CLIENT, OPS_PER_TX = 8, 4, 2, 6


def contended_cluster(protocol: str) -> DTXCluster:
    """Writer groups hammering one two-copy document through a data-less
    coordinator site: heavy genuine lock waiting inside each group, zero
    genuine conflict between groups."""
    cfg = SystemConfig().with_(client_think_ms=0.0, tracing=True)
    cluster = DTXCluster(protocol=protocol, config=cfg)
    hot = doc("hot", E("hot", *[E(f"v{g}", text="0") for g in range(GROUPS)]))
    cluster.add_site("s1", [hot])
    cluster.add_site("s2", [hot])
    cluster.add_site("s3", [])  # pure coordinator site: every wake is a notice
    n = 0
    for g in range(GROUPS):
        for _ in range(CLIENTS_PER_GROUP):
            txs = [
                Transaction(
                    [
                        Operation.update("hot", ChangeOp(f"/hot/v{g}", "x"))
                        for _ in range(OPS_PER_TX)
                    ],
                    label=f"c{n}t{t}",
                )
                for t in range(TX_PER_CLIENT)
            ]
            cluster.add_client(f"c{n}", "s3", txs)
            n += 1
    return cluster


def main() -> None:
    reports = {}
    for protocol in ("xdgl", "node2pl"):
        result = contended_cluster(protocol).run()
        errors = span_forest_errors(result.spans)
        assert not errors, errors[:5]
        report = critical_path_report(result.spans, per_tx_limit=0)
        assert abs(sum(report["phase_share"].values()) - 1.0) < 1e-6
        reports[protocol] = report
        print(f"\n=== protocol={protocol} ({len(result.committed)} committed, "
              f"{len(result.spans)} spans, {result.duration_ms:.1f} sim-ms) ===")
        for line in render_report(report, title=f"critical path ({protocol})"):
            print(line)

    print()
    diff = diff_reports(reports["xdgl"], reports["node2pl"])
    for line in render_diff(diff, label_a="xdgl", label_b="node2pl"):
        print(line)

    # Shares are relative; the absolute decomposition is mean milliseconds
    # per committed transaction spent in each phase (duration-weighted
    # share x mean).
    print("\nmean ms per committed tx (xdgl -> node2pl):")
    a, b = reports["xdgl"], reports["node2pl"]
    for phase in PHASES:
        ms_a = a["phase_share"][phase] * a["mean_ms"]
        ms_b = b["phase_share"][phase] * b["mean_ms"]
        if max(ms_a, ms_b) < 0.05:
            continue
        pct = (ms_b - ms_a) / ms_a * 100.0 if ms_a else 0.0
        print(f"  {phase:<10} {ms_a:8.2f} -> {ms_b:8.2f}  ({pct:+.0f}%)")

    wait_a = a["phase_share"]["lock_wait"] * a["mean_ms"]
    wait_b = b["phase_share"]["lock_wait"] * b["mean_ms"]
    assert wait_a < wait_b and a["mean_ms"] < b["mean_ms"]  # the paper's claim
    print(
        f"\nlock wait per committed tx: {wait_a:.1f} ms -> {wait_b:.1f} ms "
        f"({(wait_b - wait_a) / wait_a * 100.0:+.0f}%) under tree locking; "
        f"response mean {a['mean_ms']:.1f} -> {b['mean_ms']:.1f} ms."
    )


if __name__ == "__main__":
    main()
