"""The paper's evaluation, figure by figure (experiments E1-E6).

Every public ``fig*`` function reproduces one figure of §3 and returns the
measured data; ``python -m repro figures`` renders each and runs its check.

Scaling: the paper ran a 40-200 MB XMark database on eight physical PCs; we
run KB-scale databases on a discrete-event simulator. ``FigureParams.quick()``
(default, CI-friendly) and ``FigureParams.paper()`` (``--full``: every
client count and size point of the paper, scaled 400:1 by bytes) control the
sweep density — the *shapes* are the reproduction target, not absolute
numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..config import SystemConfig
from ..core.results import RunResult
from ..workload.generator import WorkloadSpec
from ..workload.metrics import FigureData, point_from_run
from ..workload.xmark import generate_xmark, xmark_fragments
from .runner import ExperimentConfig, run_experiment

#: 400:1 byte scaling — the paper's 40 MB base maps to 100 kB here.
SCALE = 400
BASE_DB_BYTES = 40 * 1024 * 1024 // SCALE  # "40 MB"

PROTOCOLS = ("xdgl", "node2pl")


def _system() -> SystemConfig:
    return SystemConfig().with_(client_think_ms=1.0)


@dataclass(frozen=True)
class FigureParams:
    client_counts: tuple[int, ...] = (10, 30, 50)
    update_ratios: tuple[float, ...] = (0.2, 0.4, 0.6)
    db_scales: tuple[float, ...] = (1.25, 2.5, 5.0)  # x BASE => "50..200 MB"
    site_counts: tuple[int, ...] = (2, 4, 8)
    fig9_clients_cap: int = 50
    tx_per_client: int = 5
    ops_per_tx: int = 5

    @classmethod
    def quick(cls) -> "FigureParams":
        return cls()

    @classmethod
    def paper(cls) -> "FigureParams":
        return cls(
            client_counts=(10, 20, 30, 40, 50),
            update_ratios=(0.2, 0.3, 0.4, 0.5, 0.6),
            db_scales=(1.25, 2.5, 3.75, 5.0),
            site_counts=(2, 3, 4, 5, 6, 7, 8),
        )


def _workload(params: FigureParams, n_clients: int, update_ratio: float) -> WorkloadSpec:
    return WorkloadSpec(
        n_clients=n_clients,
        tx_per_client=params.tx_per_client,
        ops_per_tx=params.ops_per_tx,
        update_tx_ratio=update_ratio,
        update_op_ratio=0.2,
    )


# ---------------------------------------------------------------------------
# Fig. 8 — fragmentation and data allocation
# ---------------------------------------------------------------------------


@dataclass
class Fig8Result:
    rows: list[tuple[int, str, list[str]]] = field(default_factory=list)
    balance_ratios: dict[int, float] = field(default_factory=dict)

    def render(self) -> str:
        lines = ["Fig. 8: fragmentation and data allocation", "sites | site | content"]
        for n, site, content in self.rows:
            lines.append(f"{n:5d} | {site} | {', '.join(content)}")
        return "\n".join(lines)


def fig8(db_bytes: int = BASE_DB_BYTES) -> Fig8Result:
    """Fragment the scaled 40 MB base for 2/4/8 sites (paper Fig. 8)."""
    out = Fig8Result()
    doc, _ = generate_xmark(db_bytes)
    for n_sites in (2, 4, 8):
        frags = xmark_fragments(doc, n_sites)
        sizes = [f.size_bytes() for f in frags]
        out.balance_ratios[n_sites] = max(sizes) / min(sizes)
        for i, frag in enumerate(frags):
            out.rows.append((n_sites, f"s{i + 1}", [f"{frag.name} ({sizes[i]} B)"]))
    return out


# ---------------------------------------------------------------------------
# Fig. 9 — response time vs number of clients (total & partial replication)
# ---------------------------------------------------------------------------


def fig9(params: FigureParams | None = None) -> FigureData:
    """Read-only clients sweep: XDGL vs Node2PL x partial vs total."""
    params = params or FigureParams.quick()
    fig = FigureData("fig9", "response time vs number of clients", "clients")
    for protocol in PROTOCOLS:
        for replication in ("partial", "total"):
            for n_clients in params.client_counts:
                cfg = ExperimentConfig(
                    protocol=protocol,
                    n_sites=4,
                    replication=replication,
                    db_bytes=BASE_DB_BYTES,
                    workload=_workload(params, n_clients, update_ratio=0.0),
                    system=_system(),
                )
                run = run_experiment(cfg)
                fig.add(point_from_run(f"{protocol}/{replication}", n_clients, run))
    return fig


# ---------------------------------------------------------------------------
# Fig. 10 — response time and deadlocks vs update percentage
# ---------------------------------------------------------------------------


def fig10(params: FigureParams | None = None) -> FigureData:
    """50 clients; update-transaction percentage swept 20-60 %."""
    params = params or FigureParams.quick()
    fig = FigureData("fig10", "response time / deadlocks vs update %", "update %")
    for protocol in PROTOCOLS:
        for ratio in params.update_ratios:
            cfg = ExperimentConfig(
                protocol=protocol,
                n_sites=4,
                replication="partial",
                db_bytes=BASE_DB_BYTES,
                workload=_workload(params, params.fig9_clients_cap, update_ratio=ratio),
                system=_system(),
            )
            run = run_experiment(cfg)
            fig.add(point_from_run(protocol, round(ratio * 100), run))
    return fig


# ---------------------------------------------------------------------------
# Fig. 11a — response time and deadlocks vs database size
# ---------------------------------------------------------------------------


def fig11a(params: FigureParams | None = None) -> FigureData:
    params = params or FigureParams.quick()
    fig = FigureData("fig11a", "response time / deadlocks vs base size", "size (scaled MB)")
    for protocol in PROTOCOLS:
        for scale in params.db_scales:
            db_bytes = int(BASE_DB_BYTES * scale)
            cfg = ExperimentConfig(
                protocol=protocol,
                n_sites=4,
                replication="partial",
                db_bytes=db_bytes,
                workload=_workload(params, params.fig9_clients_cap, update_ratio=0.2),
                system=_system(),
            )
            run = run_experiment(cfg)
            fig.add(point_from_run(protocol, round(40 * scale), run))
    return fig


# ---------------------------------------------------------------------------
# Fig. 11b — response time vs number of sites
# ---------------------------------------------------------------------------


def fig11b(params: FigureParams | None = None) -> FigureData:
    params = params or FigureParams.quick()
    fig = FigureData("fig11b", "response time vs number of sites", "sites")
    for protocol in PROTOCOLS:
        for n_sites in params.site_counts:
            cfg = ExperimentConfig(
                protocol=protocol,
                n_sites=n_sites,
                replication="partial",
                db_bytes=BASE_DB_BYTES,
                workload=_workload(params, params.fig9_clients_cap, update_ratio=0.2),
                system=_system(),
            )
            run = run_experiment(cfg)
            fig.add(point_from_run(protocol, n_sites, run))
    return fig


# ---------------------------------------------------------------------------
# Fig. 12 — throughput and concurrency degree over time
# ---------------------------------------------------------------------------


@dataclass
class Fig12Result:
    runs: dict[str, RunResult] = field(default_factory=dict)
    throughput: dict[str, list[tuple[float, int]]] = field(default_factory=dict)
    concurrency: dict[str, list[tuple[float, int]]] = field(default_factory=dict)
    bucket_ms: float = 0.0

    def completed(self, protocol: str) -> int:
        return len(self.runs[protocol].committed)

    def not_executed(self, protocol: str) -> int:
        r = self.runs[protocol]
        return len(r.records) - len(r.committed)

    def completion_time_ms(self, protocol: str) -> float:
        return self.runs[protocol].completion_time_ms()

    def render(self) -> str:
        lines = ["Fig. 12: throughput and concurrency degree"]
        for proto, run in self.runs.items():
            lines.append(
                f"  {proto}: {len(run.committed)} tx committed in "
                f"{run.completion_time_ms():.1f} ms "
                f"({self.not_executed(proto)} not executed)"
            )
            series = ", ".join(f"{int(c)}" for _, c in self.throughput[proto][:20])
            lines.append(f"    throughput/bucket: {series}")
        return "\n".join(lines)


def fig12(params: FigureParams | None = None, n_buckets: int = 20) -> Fig12Result:
    """250 transactions (50 clients x 5 tx), 20 % updates, 4 sites."""
    params = params or FigureParams.quick()
    out = Fig12Result()
    for protocol in PROTOCOLS:
        cfg = ExperimentConfig(
            protocol=protocol,
            n_sites=4,
            replication="partial",
            db_bytes=BASE_DB_BYTES,
            workload=_workload(params, 50, update_ratio=0.2),
            system=_system(),
        )
        out.runs[protocol] = run_experiment(cfg)
    horizon = max(r.duration_ms for r in out.runs.values())
    out.bucket_ms = max(1.0, horizon / n_buckets)
    for protocol, run in out.runs.items():
        out.throughput[protocol] = run.throughput_series(out.bucket_ms)
        out.concurrency[protocol] = run.concurrency_series(out.bucket_ms)
    return out
