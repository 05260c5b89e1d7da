"""Experiment runner: paper §3.1 environment assembly.

"A set of sites S = {S1..SN} is given. Each site possesses a Sedna Native XML
DBMS containing the XML documents adequate for each experiment, and an
instance of DTX. A set of clients C = {C1..CM} is considered. To process a
transaction t, a client connects to DTX and submits t."

One :class:`ExperimentConfig` fully determines a run: protocol, number of
sites, replication regime, database size, workload spec and system config.
Runs with equal configs are bit-identical (everything is seeded).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..config import SystemConfig
from ..core.cluster import DTXCluster
from ..core.results import RunResult
from ..distribution.replication import replica_placement
from ..errors import ConfigError
from ..workload.generator import DTXTester, WorkloadSpec
from ..workload.xmark import deal_xmark, xmark_tree
from ..xml.model import Document


@dataclass(frozen=True)
class ExperimentConfig:
    protocol: str = "xdgl"
    n_sites: int = 4
    replication: str = "partial"  # 'partial' | 'total'
    db_bytes: int = 120_000
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    system: SystemConfig = field(default_factory=SystemConfig)
    label: str = ""

    def validate(self) -> None:
        if self.n_sites < 1:
            raise ConfigError("n_sites must be >= 1")
        if self.replication not in ("partial", "total"):
            raise ConfigError(f"unknown replication regime {self.replication!r}")
        if self.system.replication_factor > self.n_sites:
            raise ConfigError(
                f"replication_factor {self.system.replication_factor} exceeds "
                f"n_sites {self.n_sites}"
            )
        self.workload.validate()
        self.system.validate()


def build_cluster(cfg: ExperimentConfig) -> tuple[DTXCluster, DTXTester]:
    """Assemble (but do not run) the cluster + workload for ``cfg``."""
    cfg.validate()
    # The generated tree is never registered and copied: it becomes the one
    # document, or its entities are moved into the fragments.
    tree, _ = xmark_tree(cfg.db_bytes, seed=cfg.system.seed)
    site_ids = [f"s{i + 1}" for i in range(cfg.n_sites)]

    cluster = DTXCluster(protocol=cfg.protocol, config=cfg.system)
    for sid in site_ids:
        cluster.add_site(sid)

    if cfg.replication == "total":
        base_doc = Document("xmark", tree)
        documents = [base_doc]
        cluster.place_document(base_doc, site_ids)
    else:
        fragments = deal_xmark(tree, cfg.n_sites)
        documents = fragments
        # replication_factor > 1 places each fragment on that many
        # consecutive sites (primary first), opening the replicated
        # read-one-write-all axis for every figure sweep.
        for i, frag in enumerate(fragments):
            cluster.place_document(
                frag, replica_placement(i, site_ids, cfg.system.replication_factor)
            )

    tester = DTXTester(cfg.workload, documents)
    placement = tester.assign_clients_to_sites(site_ids)
    for client_idx, sid in placement.items():
        cluster.add_client(
            f"c{client_idx}", sid, tester.transactions_for_client(client_idx)
        )
    return cluster, tester


def run_experiment(cfg: ExperimentConfig) -> RunResult:
    cluster, _ = build_cluster(cfg)
    label = cfg.label or f"{cfg.protocol}/{cfg.replication}/{cfg.n_sites}sites"
    return cluster.run(label=label)
