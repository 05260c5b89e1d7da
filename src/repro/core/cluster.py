"""Cluster assembly: sites + network + catalog + clients + detector.

The top-level convenience API of the reproduction. A typical use::

    from repro import DTXCluster, Operation, Transaction

    cluster = DTXCluster(protocol="xdgl")
    cluster.add_site("s1", [people_doc])
    cluster.add_site("s2", [people_doc, products_doc])
    cluster.add_client("c1", "s1", [Transaction([...])])
    result = cluster.run()

Each site gets its own protocol instance, storage backend, lock table and
wait-for graph; the deadlock detector runs on the first site added.
"""

from __future__ import annotations

from typing import Callable, Hashable, Optional, Sequence

from ..config import DEFAULT_CONFIG, SystemConfig
from ..distribution.catalog import Catalog, CatalogView
from ..distribution.replication import ReplicationPolicy
from ..errors import ConfigError
from ..obs import Tracer
from ..protocols import ConcurrencyProtocol, make_protocol
from ..sim.environment import Environment
from ..sim.network import Network
from ..storage.memory import InMemoryStore
from ..xml.model import Document
from ..xml.serializer import serialize_document
from ..xpath.parser import parse_cache_stats
from .client import Client
from .detector import DeadlockDetector
from .faults import MembershipService
from .results import RunResult
from .site import DTXSite
from .transaction import Transaction


class DTXCluster:
    def __init__(
        self,
        protocol: str = "xdgl",
        config: Optional[SystemConfig] = None,
        env: Optional[Environment] = None,
        backend_factory: Optional[Callable[[], InMemoryStore]] = None,
    ):
        self.config = config or DEFAULT_CONFIG
        self.config.validate()
        self.protocol_name = protocol
        self.env = env if env is not None else Environment()
        self.network = Network(self.env, self.config.network, seed=self.config.seed)
        self.catalog = Catalog()
        self.replication = ReplicationPolicy.from_config(self.config)
        self.sites: dict[Hashable, DTXSite] = {}
        self.clients: list[Client] = []
        self.detector: Optional[DeadlockDetector] = None
        self.faults = MembershipService(
            self.env,
            self.network,
            self.catalog,
            self.sites,
            detector=self.config.failure_detector,
        )
        self._backend_factory = backend_factory or InMemoryStore
        self._migration = None  # built lazily; absent from default schedules
        self._started = False
        # One span recorder per cluster run (config.tracing): span ids
        # migrate between sites inside messages, so all sites of a run must
        # share the tracer — and it is per-run, never global. ``None`` keeps
        # every instrumentation point a single falsy attribute check (the
        # zero-allocation off path).
        self.tracer = Tracer() if self.config.tracing else None

    # -- construction ------------------------------------------------------

    def add_site(self, site_id: Hashable, documents: Sequence[Document] = ()) -> DTXSite:
        """Create a DTX instance at ``site_id`` hosting copies of ``documents``."""
        if self._started:
            raise ConfigError("cannot add sites after the cluster started")
        if site_id in self.sites:
            raise ConfigError(f"site {site_id!r} already exists")
        protocol: ConcurrencyProtocol = make_protocol(self.protocol_name)
        # Under the lease detector every site holds its *own* catalog view:
        # primary/epoch facts at that site advance only by PrimaryAnnounce
        # and heartbeat-carried views, never by another site's mutation.
        # The perfect detector keeps the shared object (the oracle).
        catalog = (
            CatalogView(self.catalog, site_id)
            if self.config.failure_detector == "lease"
            else self.catalog
        )
        site = DTXSite(
            env=self.env,
            network=self.network,
            site_id=site_id,
            protocol=protocol,
            backend=self._backend_factory(),
            catalog=catalog,
            config=self.config,
            faults=self.faults,
            replication=self.replication,
        )
        site.tracer = self.tracer
        self.sites[site_id] = site
        for doc in documents:
            self.host_document(site_id, doc)
        return site

    def host_document(self, site_id: Hashable, doc: Document) -> None:
        """Place a copy of ``doc`` at ``site_id`` and update the catalog."""
        self.place_document(doc, (site_id,))

    def place_document(self, doc: Document, site_ids: Sequence[Hashable]) -> None:
        """Place a copy of ``doc`` at each of ``site_ids`` in turn, appending
        each to the document's placement (a new document's first site is its
        primary). ``doc`` is rendered once: every store keeps that text."""
        text = serialize_document(doc)
        for site_id in site_ids:
            self.sites[site_id].host_document(doc.clone(), text)
            if self.catalog.has_document(doc.name):
                existing = self.catalog.sites_for(doc.name)
                if site_id not in existing:
                    self.catalog.add(doc.name, (*existing, site_id))
            else:
                self.catalog.add(doc.name, (site_id,))

    def replicate_document(self, doc: Document, site_ids: Sequence[Hashable]) -> None:
        """Place copies of ``doc`` at each of ``site_ids`` (first = primary).

        The primary election holds even when the document already had a
        placement (``place_document`` appends to it, so the pre-existing
        site would otherwise stay first).
        """
        self.place_document(doc, site_ids)
        self.catalog.set_primary(doc.name, site_ids[0])

    def add_client(
        self, client_id: Hashable, site_id: Hashable, transactions: list[Transaction]
    ) -> Client:
        client = Client(
            client_id=client_id,
            site=self.sites[site_id],
            transactions=transactions,
            config=self.config,
        )
        self.clients.append(client)
        return client

    # -- execution -------------------------------------------------------------

    def start(self) -> None:
        """Arm the deadlock detector (first site added runs it)."""
        if self._started:
            return
        self._started = True
        if self.sites:
            first = next(iter(self.sites.values()))
            self.detector = DeadlockDetector(
                site=first, all_site_ids=list(self.sites), config=self.config
            )

    def run(
        self, until: Optional[float] = None, label: str = "", drain_ms: float = 5.0
    ) -> RunResult:
        """Run until every client finished (or until a time horizon).

        After the last client completes, the simulation runs ``drain_ms``
        longer so in-flight messages (fail notices, final acks, wake
        notices) are delivered before results are collected.
        """
        self.start()
        if self.clients:
            everyone = self.env.all_of([c.process for c in self.clients])
            if until is not None:
                self.env.run(until=until)
            else:
                self.env.run(until=everyone)
                if drain_ms > 0:
                    self.env.run(until=self.env.now + drain_ms)
        elif until is not None:
            self.env.run(until=until)
        return self.collect_results(label=label)

    def collect_results(self, label: str = "") -> RunResult:
        result = RunResult(
            duration_ms=self.env.now,
            protocol=self.protocol_name,
            label=label,
        )
        for client in self.clients:
            result.records.extend(client.records)
        parse_counts = parse_cache_stats()
        for site in self.sites.values():
            site.stats.parse_cache_hits, site.stats.parse_cache_misses = parse_counts
        result.site_stats = {sid: site.stats for sid, site in self.sites.items()}
        result.network_messages = self.network.stats.messages
        result.network_bytes = self.network.stats.bytes
        result.site_crashes = self.faults.stats.crashes
        result.site_recoveries = self.faults.stats.recoveries
        result.promotions = self.faults.stats.promotions
        if self.detector is not None:
            result.detector_sweeps = self.detector.stats.sweeps
            result.distributed_deadlocks = self.detector.stats.deadlocks_found
        if self.tracer is not None:
            # Clip spans left open by crashes/partitions to the run end so
            # exports and analysis see finite intervals.
            self.tracer.finish(self.env.now)
            result.spans = self.tracer.spans
        return result

    # -- online migration --------------------------------------------------

    @property
    def migration(self):
        """The cluster's :class:`MigrationManager`, built on first use.

        Lazy on purpose: constructing the manager requires a primary-copy
        write regime, and a cluster that never migrates must not carry the
        manager at all — default-config schedules stay bit-identical.
        """
        if self._migration is None:
            from ..distribution.migration import MigrationManager

            self._migration = MigrationManager(self)
        return self._migration

    def schedule_migration(
        self, doc_name: str, targets: Sequence[Hashable], at_ms: float, label: str = ""
    ) -> None:
        """Kick off a migration at simulated time ``at_ms`` (like
        ``schedule_crash``, driven through the kernel)."""
        if at_ms < self.env.now:
            raise ConfigError(f"cannot schedule a migration in the past ({at_ms})")
        self.migration  # fail fast now if the regime cannot migrate
        self.env.schedule_call(
            at_ms - self.env.now, self.migration.migrate, doc_name, tuple(targets), label
        )

    # -- materialized views ------------------------------------------------

    def register_view(
        self,
        name: str,
        pattern: str,
        doc_names: Sequence[str],
        host: Hashable,
    ):
        """Register a materialized XPath view and start maintaining it.

        ``host`` materializes a shadow of each document from a committed
        snapshot, then stays fresh from :class:`ViewDeltaBatch` pushes off
        each document's primary. Requires a primary-copy write regime with
        replication degree >= 2 for every document: view maintenance
        consumes the primary's committed update log, and unreplicated or
        write-all documents record no log entries to push. Returns the
        :class:`~repro.views.ViewDefinition`.
        """
        from ..views import ViewDefinition

        if host not in self.sites:
            raise ConfigError(f"view host {host!r} is not a site")
        if self.config.replica_write_policy == "all":
            raise ConfigError(
                "materialized views need a primary-copy write regime "
                "(replica_write_policy != 'all'): write-all documents record "
                "no update log to maintain the view from"
            )
        view = ViewDefinition.define(
            name=name, pattern=pattern, doc_names=doc_names, host=host
        )
        for doc_name in view.doc_names:
            if not self.catalog.has_document(doc_name):
                raise ConfigError(f"view {name!r} spans unplaced document {doc_name!r}")
            if self.catalog.replication_degree(doc_name) < 2:
                raise ConfigError(
                    f"view {name!r}: document {doc_name!r} is unreplicated; "
                    "its commits bypass the update log"
                )
        self.catalog.register_view(view)
        host_views = self.sites[host].views
        for doc_name in view.doc_names:
            host_views.add_doc(doc_name)
            # Open the view outbox, and with it the push loop, at every
            # replica-set member: any of them may be (or become) the
            # document's primary.
            for sid in self.catalog.sites_for(doc_name):
                self.sites[sid].views.open_outbox(doc_name)
            host_views.hydrate(doc_name)
        return view

    # -- fault injection ---------------------------------------------------

    def crash_site(self, site_id: Hashable) -> None:
        """Fail-stop ``site_id`` now: volatile state is lost, the failure
        monitor promotes new primaries for the documents it led and
        notifies the survivors."""
        self.sites[site_id].crash()

    def recover_site(self, site_id: Hashable) -> None:
        """Restart ``site_id``: it reloads its persisted state, rejoins the
        network (as a secondary where it was deposed) and catches up from
        the current primaries' update logs."""
        self.sites[site_id].recover()

    def schedule_crash(
        self,
        site_id: Hashable,
        at_ms: float,
        recover_at_ms: Optional[float] = None,
    ) -> None:
        """Crash ``site_id`` at simulated time ``at_ms`` (and recover it at
        ``recover_at_ms``). Driven through the simulation kernel, so the
        fault fires even if no process at the site is runnable."""
        if at_ms < self.env.now:
            raise ConfigError(f"cannot schedule a crash in the past ({at_ms})")
        if recover_at_ms is not None and recover_at_ms <= at_ms:
            raise ConfigError("recover_at_ms must be after at_ms")
        self.env.schedule_call(at_ms - self.env.now, self.crash_site, site_id)
        if recover_at_ms is not None:
            self.env.schedule_call(
                recover_at_ms - self.env.now, self.recover_site, site_id
            )

    def partition_network(self, *groups) -> None:
        """Split the network now: sites in different groups cannot talk.

        Sites in no listed group form one implicit extra group. Every site
        stays alive — with ``failure_detector="lease"`` each side suspects
        the other once leases expire, and only a side holding a majority
        of a document's replicas can elect a new primary for it."""
        self.network.partition(*groups)

    def heal_network(self) -> None:
        """Reconnect all partition groups (in-flight cut messages stay lost)."""
        self.network.heal_partition()

    def schedule_partition(
        self,
        groups: Sequence[Sequence[Hashable]],
        at_ms: float,
        heal_at_ms: Optional[float] = None,
    ) -> None:
        """Partition the network at ``at_ms`` (and heal it at ``heal_at_ms``),
        driven through the simulation kernel like ``schedule_crash``."""
        if at_ms < self.env.now:
            raise ConfigError(f"cannot schedule a partition in the past ({at_ms})")
        if heal_at_ms is not None and heal_at_ms <= at_ms:
            raise ConfigError("heal_at_ms must be after at_ms")
        self.env.schedule_call(
            at_ms - self.env.now, self.partition_network, *[list(g) for g in groups]
        )
        if heal_at_ms is not None:
            self.env.schedule_call(heal_at_ms - self.env.now, self.heal_network)

    # -- inspection ----------------------------------------------------------------

    def site(self, site_id: Hashable) -> DTXSite:
        return self.sites[site_id]

    def document_at(self, site_id: Hashable, doc_name: str) -> Document:
        """The live in-memory document at a site (tests inspect replicas)."""
        return self.sites[site_id].data_manager.document(doc_name)
