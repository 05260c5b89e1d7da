"""System configuration for DTX simulations.

All tunables of the reproduction live here: the simulated cost model (what a
lock-table operation, a node visit, a network hop or a persist costs in
simulated milliseconds), deadlock-detector cadence, and client behaviour.

The defaults are calibrated so that the *relative* results of the paper's
evaluation (Figs. 9-12) emerge from structural asymmetries between protocols
(XDGL touches O(depth) DataGuide nodes per operation, Node2PL touches
O(subtree) document nodes) rather than from per-protocol fudge factors: every
protocol is charged through the same knobs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace

from .errors import ConfigError


@dataclass(frozen=True)
class NetworkConfig:
    """Latency model for the simulated 100 Mbit/s switched LAN.

    A message of ``n`` bytes from one site to another costs
    ``latency_ms + (n / 1024) * per_kb_ms`` plus jitter.

    Parameters
    ----------
    latency_ms:
        Fixed per-message cost of a hop between two different sites.
    per_kb_ms:
        Transfer cost per KB of ``size_bytes`` (~100 Mbit/s full duplex
        => ~12.5 KB/ms).
    jitter_ms:
        Upper end of the uniform ``[0, jitter_ms]`` jitter drawn from the
        experiment RNG for every remote message.
    local_ms:
        Cost of a same-site delivery (no latency, transfer or jitter).
    """

    latency_ms: float = 0.25
    per_kb_ms: float = 0.08
    jitter_ms: float = 0.05
    local_ms: float = 0.01

    def validate(self) -> None:
        for f in fields(self):
            if getattr(self, f.name) < 0:
                raise ConfigError(f"NetworkConfig.{f.name} must be >= 0")


@dataclass(frozen=True)
class CostConfig:
    """Per-action CPU cost model, in simulated milliseconds.

    Parameters
    ----------
    lock_op_ms:
        The paper's "lock management overhead": charged for every
        lock-table check/insert/release, so protocols that take many
        locks (tree locking) pay proportionally more than protocols with a
        summarized structure (XDGL on the DataGuide).
    node_visit_ms:
        Per document/DataGuide node processed (XPath evaluation and lock
        spec derivation both report a ``nodes_visited`` meter).
    update_apply_ms:
        Per update operation applied to (or rolled back from) a tree.
    persist_per_kb_ms:
        DataManager -> storage write-back, per KB persisted at commit.
    parse_per_kb_ms:
        Materialising a snapshot (catch-up install, view hydration) as a
        site's in-memory representation, per KB of its serialized size.
    scheduler_dispatch_ms:
        Picking one unit of work from a site's queue.
    wfg_merge_per_edge_ms:
        Deadlock detector's wait-for-graph union, per edge collected.
    """

    lock_op_ms: float = 0.02
    node_visit_ms: float = 0.002
    update_apply_ms: float = 0.05
    persist_per_kb_ms: float = 0.02
    parse_per_kb_ms: float = 0.01
    scheduler_dispatch_ms: float = 0.01
    wfg_merge_per_edge_ms: float = 0.005

    def validate(self) -> None:
        for f in fields(self):
            if getattr(self, f.name) < 0:
                raise ConfigError(f"CostConfig.{f.name} must be >= 0")


@dataclass(frozen=True)
class SystemConfig:
    """Top-level configuration of a DTX cluster simulation.

    Parameters
    ----------
    network, costs:
        Sub-models, see :class:`NetworkConfig` and :class:`CostConfig`.
    detector_interval_ms:
        Period of the distributed deadlock detector (Algorithm 4). The
        detector runs on the site with the lowest id, mirroring the paper's
        "a process ... periodically goes through all instances".
    detector_initial_delay_ms:
        Delay before the first detector sweep.
    client_think_ms:
        Mean think time between a client receiving a transaction result and
        submitting the next transaction (exponential).
    lock_wait_timeout_ms:
        Safety valve: a transaction waiting longer than this is aborted.
        ``0`` disables the timeout (the paper relies purely on detection).
    seed:
        Master seed; every stochastic component derives its stream from it,
        making whole-cluster runs exactly reproducible.
    max_restarts:
        How many times a client resubmits an aborted transaction before
        giving up (Fig. 12 counts never-completed transactions).
    replication_factor:
        Copies per document/fragment created by placement policies and the
        experiment runner (1 = disjoint placement, the paper's partial
        regime).
    replica_read_policy:
        Where queries lock and execute: ``"all"`` replicas (the paper's
        behaviour), the ``"primary"``, a ``"random"`` replica, the
        ``"nearest"`` one (the coordinator's own copy when it has one), or
        ``"quorum"`` — the coordinator probes the version state
        (per-document applied LSN + election epoch) of ``read_quorum_r``
        replicas, executes at the freshest responder that provably covers
        every committed write, and triggers read repair on the laggards
        the probes revealed. With ``read_quorum_r + write_quorum_w > N``
        a quorum read can never miss a quorum-committed write.
    replica_write_policy:
        ``"all"`` executes updates eagerly at every replica (the paper's
        behaviour); ``"primary"`` locks and executes at the primary copy
        only and synchronously propagates the committed updates to the
        secondaries before the primary's locks are released (primary-copy
        ROWA); ``"lazy"`` also locks at the primary only but commits
        immediately and propagates asynchronously after
        ``lazy_staleness_ms`` (bounded-staleness primary copy);
        ``"quorum"`` locks and executes at the primary like ``"primary"``
        but acknowledges the commit as soon as ``write_quorum_w`` replicas
        (the primary's durable log record included) hold the batch —
        commit latency stops tracking the slowest replica, and stragglers
        converge through catch-up / anti-entropy.
    read_quorum_r, write_quorum_w:
        Quorum sizes for the ``"quorum"`` policies; ``0`` (default) means
        "majority of the replica set". Validated at construction time:
        ``R + W > N`` (read/write quorums intersect) and ``W > N/2``
        (write quorums intersect each other), with ``N``
        = ``replication_factor``; both must also fit in ``[1, N]``.
        Tuning is a consistency/latency spectrum: ``W=N, R=1`` is the
        eager regime (reads are free, commits pay every replica),
        ``W=majority, R=majority`` balances both, larger ``R`` shifts
        cost from writers to readers.
    lazy_staleness_ms:
        Upper bound on how long a committed update may sit in the primary's
        log before asynchronous propagation to the secondaries starts
        (``replica_write_policy="lazy"`` only).
    max_read_staleness_ms:
        Follower-read fence for lease-mode secondary reads (``0`` = off,
        the pre-existing behaviour). A secondary serving a read under
        ``failure_detector="lease"`` refuses it when nothing was heard
        from the document's primary for longer than this bound — inside
        a false-suspicion window (primary partitioned away, lease not yet
        expired) the secondary can no longer bound its staleness, so the
        coordinator re-routes the read to the primary instead of serving
        possibly-ancient data. Quorum reads carry their own freshness
        proof and are exempt.
    catchup_timeout_ms:
        How long a recovering or gap-detecting replica waits for the
        primary's catch-up response before giving up and retrying on the
        next trigger.
    group_commit_window_ms:
        How long a commit-time sync outbox waits before it flushes — a
        delay, not a switch: every commit under the eager and quorum
        regimes stages its per-document batch in the coordinator's
        (primary, document) outbox, and whatever reached commit by the
        time the outbox flushes rides one ReplicaSyncBatch per target
        (one batched log append at the primary and one ack round per
        secondary, shared by every transaction in the batch). ``0``
        (default) flushes with no simulated delay, so an uncontended
        commit is a batch of one; ``> 0`` trades that much commit latency
        for fewer, larger sync messages.
    failure_detector:
        How the cluster learns about membership. ``"perfect"`` (default,
        the paper's modeling assumption) is the oracle: crashes are
        announced within one hop by an omniscient monitor that reads
        candidates' log tips directly — schedules are bit-identical to
        the pre-membership-refactor code. ``"lease"`` removes the oracle:
        every membership fact travels as a message — sites heartbeat each
        other, a peer is *suspected* only when its lease expires, primary
        election is a LogTipQuery/LogTipReport exchange requiring reports
        from a majority of the replica set, and the winner's epoch-bumped
        PrimaryAnnounce (plus heartbeat-carried views) re-points each
        site's own catalog view. Under ``"lease"`` network partitions and
        false suspicion become survivable: split-brain is prevented by
        epoch fencing and the commit-time sync quorum, not by the oracle.
    heartbeat_interval_ms:
        Period of each site's heartbeat broadcast (``"lease"`` only).
    lease_timeout_ms:
        A peer is suspected once nothing was heard from it for this long
        (``"lease"`` only). Must comfortably exceed
        ``heartbeat_interval_ms`` plus network jitter, or live sites get
        falsely suspected under load.
    election_timeout_ms:
        How long an election waits for LogTipReports before deciding (or
        giving up for lack of a majority) (``"lease"`` only).
    view_staleness_ms:
        Default staleness bound for materialized-view reads (``0`` = view
        routing off, the default). When positive and a registered view's
        pattern subsumes a read-only transaction's query, the coordinator
        answers the query from the view host — no locks, no 2PC — as long
        as the view's shadow provably matched the primary's committed log
        within the last ``view_staleness_ms``. Per-transaction overridable
        via ``Transaction.view_staleness_ms`` (like the quorum overrides);
        any refusal, epoch change or view-host crash falls back to the
        normal locked read path, so correctness never depends on a view.
    view_refresh_ms:
        Period of the primary's view-delta push loop. Each tick ships the
        committed log entries accumulated since the last one as a single
        ``ViewDeltaBatch`` per view host (an empty batch is a freshness
        beacon for idle documents). The effective view lag is roughly one
        period plus network latency, so ``view_staleness_ms`` should
        comfortably exceed this.
    tracing:
        Record causally-linked spans (``repro.obs``) across the whole
        transaction lifecycle: client submit, per-operation coordinator
        rounds, lock waits, participant execution, message transfers,
        2PC rounds, replica sync, view serves, elections, catch-up and
        detector sweeps. Pure wall-clock instrumentation: no messages,
        no RNG draws, no simulated delays are added, so schedules and
        state digests are byte-identical with tracing on or off (and the
        off path is a single attribute check — zero allocation).
    """

    network: NetworkConfig = field(default_factory=NetworkConfig)
    costs: CostConfig = field(default_factory=CostConfig)
    # The detection cadence is scaled to the simulated operation costs the
    # same way the paper's (unspecified) cadence was scaled to its seconds-
    # long transactions: a victim should wait a small multiple of an
    # operation time, not orders of magnitude longer.
    detector_interval_ms: float = 25.0
    detector_initial_delay_ms: float = 10.0
    client_think_ms: float = 1.0
    lock_wait_timeout_ms: float = 0.0
    seed: int = 0xD7C5
    max_restarts: int = 0
    replication_factor: int = 1
    replica_read_policy: str = "all"
    replica_write_policy: str = "all"
    read_quorum_r: int = 0
    write_quorum_w: int = 0
    lazy_staleness_ms: float = 5.0
    max_read_staleness_ms: float = 0.0
    catchup_timeout_ms: float = 50.0
    group_commit_window_ms: float = 0.0
    failure_detector: str = "perfect"
    heartbeat_interval_ms: float = 1.0
    lease_timeout_ms: float = 4.0
    election_timeout_ms: float = 4.0
    view_staleness_ms: float = 0.0
    view_refresh_ms: float = 2.0
    tracing: bool = False

    def validate(self) -> None:
        self.network.validate()
        self.costs.validate()
        # Routing knobs are validated by the policy object they configure.
        from .distribution.replication import ReplicationPolicy

        ReplicationPolicy.from_config(self).validate()
        if self.detector_interval_ms <= 0:
            raise ConfigError("detector_interval_ms must be > 0")
        if self.detector_initial_delay_ms < 0:
            raise ConfigError("detector_initial_delay_ms must be >= 0")
        if self.client_think_ms < 0:
            raise ConfigError("client_think_ms must be >= 0")
        if self.lock_wait_timeout_ms < 0:
            raise ConfigError("lock_wait_timeout_ms must be >= 0")
        if self.max_restarts < 0:
            raise ConfigError("max_restarts must be >= 0")
        if self.lazy_staleness_ms < 0:
            raise ConfigError("lazy_staleness_ms must be >= 0")
        if self.max_read_staleness_ms < 0:
            raise ConfigError("max_read_staleness_ms must be >= 0")
        if self.catchup_timeout_ms <= 0:
            raise ConfigError("catchup_timeout_ms must be > 0")
        if self.group_commit_window_ms < 0:
            raise ConfigError("group_commit_window_ms must be >= 0")
        if self.failure_detector not in ("perfect", "lease"):
            raise ConfigError(
                f"failure_detector must be 'perfect' or 'lease', "
                f"got {self.failure_detector!r}"
            )
        if self.heartbeat_interval_ms <= 0:
            raise ConfigError("heartbeat_interval_ms must be > 0")
        if self.lease_timeout_ms <= self.heartbeat_interval_ms:
            raise ConfigError(
                "lease_timeout_ms must exceed heartbeat_interval_ms "
                "(a lease shorter than one heartbeat suspects everyone)"
            )
        if self.election_timeout_ms <= 0:
            raise ConfigError("election_timeout_ms must be > 0")
        if self.view_staleness_ms < 0:
            raise ConfigError("view_staleness_ms must be >= 0")
        if self.view_refresh_ms <= 0:
            raise ConfigError("view_refresh_ms must be > 0")

    def with_(self, **kwargs) -> "SystemConfig":
        """Return a copy with the given top-level fields replaced."""
        _reject_unknown_fields(kwargs)
        cfg = replace(self, **kwargs)
        cfg.validate()
        return cfg

    @classmethod
    def preset(cls, name: str, **overrides) -> "SystemConfig":
        """A validated named configuration — the safe front door to the
        constructor (whose field count ``tests/test_config_census.py`` pins).

        ``"paper"``
            The paper's regime: every operation executes at every replica
            (read/write policy ``"all"``), perfect failure detector.
            Identical to ``SystemConfig()``.
        ``"eager"``
            Primary-copy ROWA at replication factor 3: updates lock and
            execute at the primary and propagate synchronously before its
            locks release; reads at the nearest copy.
        ``"quorum"``
            Versioned quorum reads/writes (majority R and W, factor 3)
            under the lease detector:
            commit settles at W durable copies, reads probe R versions.
        ``"lazy"``
            Bounded-staleness primary copy at factor 3: commits return
            immediately, propagation is asynchronous.

        Keyword overrides are applied on top (and re-validated), so
        ``SystemConfig.preset("quorum", seed=7)`` works as expected.
        """
        try:
            base = dict(_PRESETS[name])
        except KeyError:
            raise ConfigError(
                f"unknown preset {name!r}; choose from {sorted(_PRESETS)}"
            ) from None
        _reject_unknown_fields(overrides)
        base.update(overrides)
        cfg = cls(**base)
        cfg.validate()
        return cfg


def _reject_unknown_fields(kwargs) -> None:
    valid = {f.name for f in fields(SystemConfig)}
    unknown = sorted(set(kwargs) - valid)
    if unknown:
        raise ConfigError(
            f"unknown SystemConfig field(s) {unknown}; valid fields: {sorted(valid)}"
        )


_PRESETS: dict[str, dict] = {
    "paper": {},
    "eager": {
        "replication_factor": 3,
        "replica_write_policy": "primary",
        "replica_read_policy": "nearest",
    },
    "quorum": {
        "replication_factor": 3,
        "replica_write_policy": "quorum",
        "replica_read_policy": "quorum",
        "failure_detector": "lease",
        "heartbeat_interval_ms": 1.0,
        "lease_timeout_ms": 4.0,
        "election_timeout_ms": 4.0,
    },
    "lazy": {
        "replication_factor": 3,
        "replica_write_policy": "lazy",
        "replica_read_policy": "nearest",
    },
}


DEFAULT_CONFIG = SystemConfig()
