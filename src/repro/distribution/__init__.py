"""Data distribution: fragmentation, allocation, placement catalog, replication."""

from .catalog import Catalog, CatalogView
from .migration import Migration, MigrationManager, MigrationStats
from .placement import (
    Allocation,
    ExplicitPlacement,
    HashRing,
    HashRingPlacement,
    PartialPlacement,
    PlacementPolicy,
    ReplicatedPlacement,
    TotalPlacement,
    ring_rebalance,
)
from .fragmentation import (
    Fragment,
    FragmentationPlan,
    fragment_document,
    fragment_name,
    is_fragment_of,
)
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
    "Allocation",
    "COMMIT_SYNC_POLICIES",
    "Catalog",
    "CatalogView",
    "ExplicitPlacement",
    "Fragment",
    "FragmentationPlan",
    "HashRing",
    "HashRingPlacement",
    "Migration",
    "MigrationManager",
    "MigrationStats",
    "PRIMARY_COPY_POLICIES",
    "PartialPlacement",
    "PlacementPolicy",
    "QuorumSpec",
    "READ_POLICIES",
    "ReplicaSet",
    "ReplicatedPlacement",
    "ReplicationPolicy",
    "TotalPlacement",
    "UpdateLog",
    "UpdateLogEntry",
    "VersionVector",
    "WRITE_POLICIES",
    "choose_read_replica",
    "fragment_document",
    "fragment_name",
    "is_fragment_of",
    "majority",
    "replica_placement",
    "ring_rebalance",
    "version_frontier",
]
