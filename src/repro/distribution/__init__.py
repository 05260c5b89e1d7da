"""Data distribution: placement catalog, replication, quorums, hash-ring
placement and online migration."""

from .catalog import Catalog, CatalogView
from .migration import Migration, MigrationManager, MigrationStats
from .placement import HashRing, ring_rebalance
from .quorum import (
    QuorumSpec,
    VersionVector,
    choose_read_replica,
    majority,
    version_frontier,
)
from .replication import (
    COMMIT_SYNC_POLICIES,
    PRIMARY_COPY_POLICIES,
    READ_POLICIES,
    WRITE_POLICIES,
    ReplicaSet,
    ReplicationPolicy,
    UpdateLog,
    UpdateLogEntry,
    replica_placement,
)

__all__ = [
    "COMMIT_SYNC_POLICIES",
    "Catalog",
    "CatalogView",
    "HashRing",
    "Migration",
    "MigrationManager",
    "MigrationStats",
    "PRIMARY_COPY_POLICIES",
    "QuorumSpec",
    "READ_POLICIES",
    "ReplicaSet",
    "ReplicationPolicy",
    "UpdateLog",
    "UpdateLogEntry",
    "VersionVector",
    "WRITE_POLICIES",
    "choose_read_replica",
    "majority",
    "replica_placement",
    "ring_rebalance",
    "version_frontier",
]
