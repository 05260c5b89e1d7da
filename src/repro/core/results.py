"""Run results: per-transaction records plus site/network/detector telemetry.

Everything the paper's evaluation measures comes out of this object:
response times (Figs. 9–11), deadlock counts (Figs. 10–11), and committed
transactions over time / concurrency degree (Fig. 12).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from statistics import mean

from .client import ClientTxRecord


@dataclass
class RunResult:
    records: list[ClientTxRecord] = field(default_factory=list)
    duration_ms: float = 0.0
    site_stats: dict = field(default_factory=dict)  # site_id -> SiteStats
    network_messages: int = 0
    network_bytes: int = 0
    detector_sweeps: int = 0
    distributed_deadlocks: int = 0
    site_crashes: int = 0
    site_recoveries: int = 0
    promotions: int = 0  # primary failovers performed by the fault manager
    protocol: str = ""
    label: str = ""
    # Span forest recorded by the run's Tracer (config.tracing only;
    # empty otherwise). Shared with the cluster's tracer, not copied.
    spans: list = field(default_factory=list)

    # -- aggregation -----------------------------------------------------

    @property
    def committed(self) -> list[ClientTxRecord]:
        return [r for r in self.records if r.status == "committed"]

    @property
    def aborted(self) -> list[ClientTxRecord]:
        return [r for r in self.records if r.status == "aborted"]

    @property
    def failed(self) -> list[ClientTxRecord]:
        return [r for r in self.records if r.status == "failed"]

    def mean_response_ms(self, committed_only: bool = True) -> float:
        pool = self.committed if committed_only else self.records
        if not pool:
            return 0.0
        return mean(r.response_ms for r in pool)

    def max_response_ms(self) -> float:
        if not self.committed:
            return 0.0
        return max(r.response_ms for r in self.committed)

    @property
    def local_deadlocks(self) -> int:
        return sum(s.local_deadlocks for s in self.site_stats.values())

    @property
    def total_deadlocks(self) -> int:
        return self.local_deadlocks + self.distributed_deadlocks

    @property
    def total_restarts(self) -> int:
        return sum(r.restarts for r in self.records)

    def throughput_series(self, bucket_ms: float) -> list[tuple[float, int]]:
        """Committed transactions per time bucket (Fig. 12 left axis)."""
        if bucket_ms <= 0:
            raise ValueError("bucket_ms must be > 0")
        horizon = max((r.finished_ts for r in self.committed), default=0.0)
        n_buckets = int(horizon // bucket_ms) + 1 if horizon > 0 else 0
        buckets = [0] * n_buckets
        for r in self.committed:
            buckets[int(r.finished_ts // bucket_ms)] += 1
        return [((i + 1) * bucket_ms, c) for i, c in enumerate(buckets)]

    def concurrency_series(self, bucket_ms: float) -> list[tuple[float, int]]:
        """Transactions in flight per time bucket (Fig. 12 right axis)."""
        if bucket_ms <= 0:
            raise ValueError("bucket_ms must be > 0")
        horizon = max((r.finished_ts for r in self.records), default=0.0)
        n_buckets = int(horizon // bucket_ms) + 1 if horizon > 0 else 0
        out: list[tuple[float, int]] = []
        for i in range(n_buckets):
            t0, t1 = i * bucket_ms, (i + 1) * bucket_ms
            active = sum(
                1 for r in self.records if r.submitted_ts < t1 and r.finished_ts > t0
            )
            out.append((t1, active))
        return out

    def completion_time_ms(self) -> float:
        """When the last committed transaction finished (Fig. 12 totals)."""
        return max((r.finished_ts for r in self.committed), default=0.0)

    def summary(self) -> str:
        lines = [
            f"run {self.label or self.protocol}: "
            f"{len(self.committed)} committed, {len(self.aborted)} aborted, "
            f"{len(self.failed)} failed ({len(self.records)} total)",
            f"  mean response: {self.mean_response_ms():.2f} ms; "
            f"duration: {self.duration_ms:.1f} ms",
            f"  deadlocks: {self.local_deadlocks} local + "
            f"{self.distributed_deadlocks} distributed",
            f"  network: {self.network_messages} messages, {self.network_bytes} bytes",
        ]
        return "\n".join(lines)
