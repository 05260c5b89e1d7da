"""Replica sets and routing policy: primary-copy read-one-write-all.

The paper's DTX ships *every* operation to *every* site holding the target
document (Alg. 1) — reads included — which is why total replication pays a
synchronization cost even for read-only workloads (Fig. 9). That regime is
kept as the default (``read_policy="all"``, ``write_policy="all"``).

This module adds the primary-copy ROWA regime used to scale read-heavy
workloads (cf. Abiteboul et al., "Distributed XML Design"; the ViP2P
materialized-view platform):

* each document/fragment has one **primary** replica (the first site in its
  catalog placement) and any number of **secondaries**;
* **reads** lock and execute at a *single* replica, chosen by
  ``read_policy`` (``primary`` | ``random`` | ``nearest``);
* **writes** lock and execute at the primary only; at commit time the
  update operations are propagated synchronously to every secondary over
  the network *before* the primary's locks are released, so replicas never
  diverge and writers on the same document serialize through the primary's
  lock table.

Within a transaction, a read on a document the transaction has already
written is pinned to the primary (read-your-writes — secondaries only see
the update after commit).

Isolation guarantee: write effects are one-copy serializable (the primary's
lock table orders all writers, and sync streams apply at secondaries in
commit order — `repro.verify.serial` validates this per replica). Reads at
*secondaries* see committed data only, but a sync may apply between two
reads of the same transaction: replica reads are READ COMMITTED, not
repeatable. Route reads to the primary (``read_policy="primary"``) when a
workload needs fully serializable reads.

A third write regime, ``write_policy="lazy"``, commits at the primary
*without* waiting for the secondaries: the primary appends the committed
updates to its durable :class:`UpdateLog` while its locks are still held
(so log order equals commit order) and propagates them asynchronously
after a fixed staleness delay. Lazy replication trades the eager
regime's freshness for availability and commit latency: secondary reads may
be stale by up to ``LAZY_STALENESS_MS`` plus a network hop, and a primary
crash can lose the committed-but-unpropagated tail of the log — the
tradeoff the ``availability`` experiment measures.

The :class:`UpdateLog` is also what crash recovery is built on: every
replica (primary and secondaries alike) logs each applied update batch
under a per-document log sequence number (LSN) that the primary's log
mints when it records the batch (:meth:`UpdateLog.append`), so a
recovering replica can ask the primary for the entries it missed, and a
deposed primary can detect that its log diverged (same LSN, different
epoch) and fall back to a snapshot transfer.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Hashable, Optional

from ..errors import ConfigError, DistributionError
from .quorum import QuorumSpec
from .quorum import majority as _majority

READ_POLICIES = ("all", "primary", "random", "nearest", "quorum")
WRITE_POLICIES = ("all", "primary", "lazy", "quorum")
# Writes lock and execute at the primary only; they differ in how the
# committed batch reaches the secondaries (eagerly/asynchronously/quorum).
PRIMARY_COPY_POLICIES = ("primary", "lazy", "quorum")
# Commit-time synchronous propagation (the _sync_replicas path).
COMMIT_SYNC_POLICIES = ("primary", "quorum")


@dataclass(frozen=True)
class ReplicaSet:
    """The placement of one document: a primary plus ordered secondaries."""

    doc_name: str
    primary: Hashable
    secondaries: tuple = ()

    def __post_init__(self) -> None:
        if self.primary in self.secondaries:
            raise DistributionError(
                f"primary of {self.doc_name!r} repeated among its secondaries"
            )

    @property
    def all_sites(self) -> tuple:
        return (self.primary, *self.secondaries)

    @property
    def degree(self) -> int:
        return 1 + len(self.secondaries)

    @property
    def is_replicated(self) -> bool:
        return bool(self.secondaries)

    def __contains__(self, site_id: Hashable) -> bool:
        return site_id == self.primary or site_id in self.secondaries

    def most_caught_up(self, applied: dict) -> Hashable:
        """The promotion winner among ``applied`` (site -> applied LSN):
        the highest applied LSN, placement order breaking ties. Failover
        and the lease election both pick by this rule."""
        order = self.all_sites
        return min(applied, key=lambda s: (-applied[s], order.index(s)))

    def __str__(self) -> str:
        sites = ", ".join(str(s) for s in self.secondaries)
        return f"{self.doc_name}@{self.primary}" + (f"+[{sites}]" if sites else "")


@dataclass(frozen=True)
class ReplicationPolicy:
    """How operations are routed across a document's replicas.

    ``factor`` is the *placement* knob (how many copies the experiment
    runner places); ``read_policy``/``write_policy`` are the *routing* knobs. The
    defaults reproduce the paper's behaviour exactly: every operation runs
    at every replica.
    """

    factor: int = 1
    read_policy: str = "all"
    write_policy: str = "all"
    # Quorum sizes for the "quorum" policies; 0 means "majority of the
    # replica set". Validated against ``factor`` at construction time and
    # re-resolved per replica set at run time (see :meth:`quorum_for`).
    read_quorum_r: int = 0
    write_quorum_w: int = 0

    def validate(self) -> None:
        if self.factor < 1:
            raise ConfigError(f"replication factor must be >= 1, got {self.factor}")
        if self.read_policy not in READ_POLICIES:
            raise ConfigError(
                f"read_policy must be one of {READ_POLICIES}, got {self.read_policy!r}"
            )
        if self.write_policy not in WRITE_POLICIES:
            raise ConfigError(
                f"write_policy must be one of {WRITE_POLICIES}, got {self.write_policy!r}"
            )
        uses_quorum = "quorum" in (self.read_policy, self.write_policy)
        if uses_quorum and self.factor < 2:
            raise ConfigError(
                "quorum read/write policies need replication_factor >= 2 "
                f"(got {self.factor}): with a single copy there is nothing "
                "to form a quorum over"
            )
        if self.read_policy == "quorum" and self.write_policy == "lazy":
            raise ConfigError(
                "replica_read_policy='quorum' cannot intersect lazy writes: "
                "a lazy commit is durable at the primary alone (W=1), so no "
                "read quorum short of R=N could cover it — use "
                "replica_write_policy='quorum' or 'primary'"
            )
        if not uses_quorum and (self.read_quorum_r or self.write_quorum_w):
            raise ConfigError(
                "read_quorum_r/write_quorum_w are set but neither "
                "replica_read_policy nor replica_write_policy is 'quorum'"
            )
        for name, value in (
            ("read_quorum_r", self.read_quorum_r),
            ("write_quorum_w", self.write_quorum_w),
        ):
            if value < 0:
                raise ConfigError(f"{name} must be >= 0 (0 = majority), got {value}")
            if value > self.factor:
                raise ConfigError(
                    f"{name}={value} exceeds the replica count "
                    f"(replication_factor={self.factor})"
                )
        if uses_quorum:
            # Resolve against the configured factor so impossible explicit
            # combinations (R+W <= N, W <= N/2) fail at construction time
            # with the laws spelled out, not at the first routed operation.
            QuorumSpec(
                n=self.factor,
                read_quorum=self.read_quorum_r or _majority(self.factor),
                write_quorum=self.write_quorum_w or _majority(self.factor),
            ).validate()

    @classmethod
    def from_config(cls, config) -> "ReplicationPolicy":
        """Build from a :class:`repro.config.SystemConfig`."""
        policy = cls(
            factor=config.replication_factor,
            read_policy=config.replica_read_policy,
            write_policy=config.replica_write_policy,
            read_quorum_r=config.read_quorum_r,
            write_quorum_w=config.write_quorum_w,
        )
        policy.validate()
        return policy

    # -- routing -----------------------------------------------------------

    def route_read(
        self,
        rset: ReplicaSet,
        origin: Hashable,
        rng=None,
        wrote_before: bool = False,
    ) -> list:
        """Sites that must lock and execute a query on ``rset.doc_name``.

        ``origin`` is the coordinator's site (the "nearest" candidate);
        ``wrote_before`` pins the read to the primary when the transaction
        already updated the document under primary-copy writes.
        """
        # The read-your-writes pin outranks every read policy: under
        # primary-copy writes only the primary has the update before commit.
        if wrote_before and self.write_policy in PRIMARY_COPY_POLICIES:
            return [rset.primary]
        if self.read_policy == "all":
            return list(rset.all_sites)
        if self.read_policy in ("primary", "quorum"):
            # "quorum" is resolved by the coordinator's version-probe round
            # (DTXSite), which overrides this with the freshest responder;
            # the primary is the degenerate (and always-safe) answer for
            # callers outside that path and for unreplicated documents.
            return [rset.primary]
        if self.read_policy == "random":
            if rng is None:
                return [rset.primary]
            return [rng.choice(rset.all_sites)]
        # "nearest": the coordinator's own replica when it has one (zero
        # network hops in the simulated LAN), otherwise the primary.
        if origin in rset:
            return [origin]
        return [rset.primary]

    def route_write(self, rset: ReplicaSet) -> list:
        """Sites that must lock and execute an update on ``rset.doc_name``."""
        if self.write_policy == "all":
            return list(rset.all_sites)
        return [rset.primary]

    def sync_targets(self, rset: ReplicaSet) -> list:
        """Secondaries needing commit-time propagation of executed updates."""
        if self.write_policy == "all":
            return []  # eager writes already ran everywhere
        return list(rset.secondaries)

    @property
    def is_primary_copy(self) -> bool:
        """Writes lock and execute at the primary only (eager or lazy)."""
        return self.write_policy in PRIMARY_COPY_POLICIES

    @property
    def is_eager(self) -> bool:
        """Secondaries are synchronized before the commit is acknowledged."""
        return self.write_policy == "primary"

    @property
    def is_lazy(self) -> bool:
        """Commit at the primary immediately; propagate asynchronously."""
        return self.write_policy == "lazy"

    @property
    def is_quorum_write(self) -> bool:
        """Commit once W replicas (primary included) durably hold the batch."""
        return self.write_policy == "quorum"

    @property
    def is_quorum_read(self) -> bool:
        """Reads probe R replicas' versions and execute at the freshest."""
        return self.read_policy == "quorum"

    @property
    def syncs_at_commit(self) -> bool:
        """Committed updates are propagated before the commit acknowledges
        (waiting for all live secondaries under ``"primary"``, for W
        durable copies under ``"quorum"``)."""
        return self.write_policy in COMMIT_SYNC_POLICIES

    def quorum_for(self, degree: int) -> QuorumSpec:
        """The effective (N, R, W) for a replica set of ``degree`` copies.

        Documents can be replicated at fewer sites than the configured
        ``factor`` (hand-built clusters, shrunken placements):
        :meth:`QuorumSpec.resolve` re-anchors the configured quorums to
        the actual degree, falling back to majorities where the
        configured values would break the intersection laws.
        """
        return QuorumSpec.resolve(degree, r=self.read_quorum_r, w=self.write_quorum_w)

    def describe(self) -> str:
        out = f"factor={self.factor} read={self.read_policy} write={self.write_policy}"
        if "quorum" in (self.read_policy, self.write_policy):
            spec = self.quorum_for(self.factor)
            out += f" R={spec.read_quorum} W={spec.write_quorum}"
        return out


@dataclass(frozen=True)
class UpdateLogEntry:
    """One committed update batch of one transaction on one document.

    ``lsn`` is the per-document log sequence number, 0 until the primary's
    log records the entry and mints it (:meth:`UpdateLog.append`). That
    happens while the primary's write locks are still held, so LSN order
    equals commit order and per-document LSNs are gapless. ``epoch`` is
    the primary-election epoch the entry was produced under; a recovering
    replica whose entry at some LSN carries a different epoch than the
    current primary's knows its log diverged (it applied writes of a
    deposed primary) and must fall back to a snapshot transfer.
    """

    lsn: int
    epoch: int
    tid: object
    doc_name: str
    ops: tuple = ()  # executed update Operations, transaction order

    def payload_size(self) -> int:
        return 24 + sum(op.payload_size() for op in self.ops)


@dataclass
class UpdateLog:
    """The durable per-document redo log kept at every replica.

    Modeled as persistent storage: a site crash wipes its in-memory
    documents and lock tables but *not* its logs (nor the storage backend),
    which is exactly what makes catch-up after recovery possible.
    ``base_lsn``/``base_epoch`` describe the state the log starts from —
    after a snapshot transfer the entries are discarded and the base is
    moved forward, so the watermark stays meaningful.

    The primary's log is the one place an LSN is picked (:meth:`append`):
    a promoted primary continues above its own tip, a deposed one on its
    own fenced timeline, and every other replica records entries as shipped.

    Entries are keyed by LSN and may arrive **out of order**: conflicting
    writers are serialized by the primary's lock table (their batches can
    never race), but *non-conflicting* writers on the same document commit
    — and therefore ship their batches — concurrently. Their data effects
    commute (disjoint lock scopes), so replicas apply them in arrival
    order; the log records them under their minted LSNs and
    ``applied_lsn`` reports the highest *contiguous* watermark, which is
    what catch-up requests and promotion decisions are based on.
    Transient holes above the watermark (batches still in flight) fill in
    as their entries arrive.
    """

    doc_name: str
    entries: dict = field(default_factory=dict)  # lsn -> UpdateLogEntry
    base_lsn: int = 0
    base_epoch: int = 0
    # Maintained incrementally by record()/reset_to_snapshot so the
    # hot-path reads below stay O(1) instead of re-walking the log.
    _watermark: int = 0
    _tip: int = 0

    def __post_init__(self) -> None:
        self._watermark = max(self._watermark, self.base_lsn)
        while self._watermark + 1 in self.entries:
            self._watermark += 1
        self._tip = max(self.entries, default=self.base_lsn)

    @property
    def applied_lsn(self) -> int:
        """Highest LSN such that every entry up to it is present."""
        return self._watermark

    @property
    def last_epoch(self) -> int:
        """Epoch at the contiguous watermark."""
        tip = self.applied_lsn
        entry = self.entries.get(tip)
        return entry.epoch if entry is not None else self.base_epoch

    @property
    def max_recorded_lsn(self) -> int:
        """Highest LSN recorded (equals ``applied_lsn`` iff hole-free)."""
        return self._tip

    def has(self, lsn: int) -> bool:
        """Whether ``lsn``'s batch is already incorporated here (recorded as
        an entry, or subsumed by the snapshot base)."""
        return lsn <= self.base_lsn or lsn in self.entries

    def record(self, entry: UpdateLogEntry) -> UpdateLogEntry:
        """Record an entry under the LSN it carries; returns it."""
        if self.has(entry.lsn):
            raise DistributionError(
                f"log of {self.doc_name!r}: lsn {entry.lsn} recorded twice"
            )
        self.entries[entry.lsn] = entry
        self._tip = max(self._tip, entry.lsn)
        while self._watermark + 1 in self.entries:
            self._watermark += 1
        return entry

    def append(self, entry: UpdateLogEntry) -> UpdateLogEntry:
        """Record an entry built with ``lsn=0`` under the next LSN above
        everything recorded here; returns the recorded entry."""
        if entry.lsn:
            raise DistributionError(f"log of {self.doc_name!r}: append of lsn {entry.lsn}")
        return self.record(replace(entry, lsn=self._tip + 1))

    def contiguous_entries_after(self, lsn: int) -> list:
        """The gapless run of entries directly above ``lsn``, in LSN order.

        What a primary serves to a catch-up request: entries above its own
        first hole (a batch whose log-record is still in flight to it) are
        withheld — the requester heals them on a later trigger.
        """
        out = []
        next_lsn = lsn + 1
        while next_lsn in self.entries:
            out.append(self.entries[next_lsn])
            next_lsn += 1
        return out

    def can_serve_after(self, lsn: int) -> bool:
        """Entries ``> lsn`` are all present (``lsn`` predates no snapshot)."""
        return lsn >= self.base_lsn

    def epoch_at(self, lsn: int) -> Optional[int]:
        """Epoch of the entry with ``lsn`` (``None`` when not in the log)."""
        if lsn == self.base_lsn:
            return self.base_epoch
        entry = self.entries.get(lsn)
        return entry.epoch if entry is not None else None

    def reset_to_snapshot(self, lsn: int, epoch: int) -> None:
        """Discard all entries: the document state now *is* ``lsn``."""
        self.entries.clear()
        self.base_lsn = lsn
        self.base_epoch = epoch
        self._watermark = self._tip = lsn

    def compact_to(self, lsn: int) -> int:
        """Fold entries at or below ``lsn`` into the snapshot base.

        The log-compaction checkpoint: once every replica's applied
        watermark has passed an entry, no catch-up request can ever need
        it (requests ask for entries *above* the requester's watermark),
        so the prefix is truncated and the base moved up. Never compacts
        past this log's own contiguous watermark — an entry above a hole
        may still be needed to serve the hole's eventual healing. Returns
        the number of entries discarded.
        """
        lsn = min(lsn, self.applied_lsn)
        if lsn <= self.base_lsn:
            return 0
        epoch = self.epoch_at(lsn)
        discard = [recorded for recorded in self.entries if recorded <= lsn]
        for recorded in discard:
            del self.entries[recorded]
        self.base_lsn = lsn
        self.base_epoch = epoch if epoch is not None else self.base_epoch
        return len(discard)

    def __len__(self) -> int:
        return len(self.entries)


def replica_placement(
    index: int, site_ids, factor: int, primary: Optional[Hashable] = None
) -> list:
    """Round-robin placement of the ``index``-th item on ``factor``
    consecutive sites; the first listed site is the primary."""
    if not site_ids:
        raise DistributionError("need at least one site")
    if factor < 1 or factor > len(site_ids):
        raise DistributionError(
            f"replication factor must be in [1, {len(site_ids)}], got {factor}"
        )
    home = (
        list(site_ids).index(primary) if primary is not None else index % len(site_ids)
    )
    return [site_ids[(home + r) % len(site_ids)] for r in range(factor)]
