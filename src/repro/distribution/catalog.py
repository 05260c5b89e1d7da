"""The placement catalog: which sites hold a copy of which document.

DTX routes every operation to *all* sites holding the target document
(paper Alg. 1: "it will be sent and executed in all the participants that
contain the data involved in this operation") — replicas are kept
synchronously identical, which is why total replication pays a
synchronization cost even for read-only workloads (Fig. 9).
"""

from __future__ import annotations

from typing import Hashable, Iterable

from ..errors import DistributionError
from .replication import ReplicaSet


class Catalog:
    def __init__(self) -> None:
        self._placement: dict[str, tuple[Hashable, ...]] = {}
        # The placement as a frozen ReplicaSet, shared by every lookup:
        # rebuilt by the placement's only two writers, add and apply_primary.
        self._replica_sets: dict[str, ReplicaSet] = {}
        # Primary-election epoch per document: bumped on every primary
        # change, carried by replica-sync traffic, and used to fence
        # deposed primaries (a sync stamped with an older epoch is refused).
        self._epochs: dict[str, int] = {}
        # Highest election epoch ever *claimed* per document.
        # Claiming is the uniqueness RPC: no two election winners can be
        # handed the same epoch, so equal-epoch split-brain (two primaries
        # whose batches both pass the `epoch < current` fence) is
        # structurally impossible.
        self._claimed_epochs: dict[str, int] = {}
        # Materialized views (repro.views): definition registry plus a
        # doc -> views index for the O(1) routing check. Static during a
        # run, like placement; empty unless views are registered, so
        # default schedules never touch it.
        self._views: dict[str, object] = {}
        self._views_by_doc: dict[str, tuple] = {}
        # Bumped by every placement change (``_place``), so a caller can
        # keep what it derives from the placement until it moves.
        self.placement_version = 0

    def add(self, doc_name: str, site_ids: Iterable[Hashable]) -> None:
        sites = tuple(site_ids)
        if not sites:
            raise DistributionError(f"document {doc_name!r} must live somewhere")
        if len(set(sites)) != len(sites):
            raise DistributionError(f"duplicate sites in placement of {doc_name!r}")
        self._place(doc_name, sites)

    def _place(self, doc_name: str, sites: tuple[Hashable, ...]) -> None:
        self._placement[doc_name] = sites
        self.placement_version += 1
        self._replica_sets[doc_name] = ReplicaSet(
            doc_name=doc_name, primary=sites[0], secondaries=sites[1:]
        )

    def sites_for(self, doc_name: str) -> tuple[Hashable, ...]:
        try:
            return self._placement[doc_name]
        except KeyError:
            raise DistributionError(f"document {doc_name!r} not in catalog") from None

    def has_document(self, doc_name: str) -> bool:
        return doc_name in self._placement

    def documents_at(self, site_id: Hashable) -> list[str]:
        return sorted(d for d, sites in self._placement.items() if site_id in sites)

    def all_documents(self) -> list[str]:
        return sorted(self._placement)

    def all_sites(self) -> list:
        sites: set = set()
        for placement in self._placement.values():
            sites.update(placement)
        return sorted(sites)

    def primary_site(self, doc_name: str) -> Hashable:
        """First site in the placement (deterministic coordinator choice)."""
        return self.sites_for(doc_name)[0]

    def replica_set(self, doc_name: str) -> ReplicaSet:
        """The placement as a :class:`ReplicaSet` (primary = first site);
        the same object until the placement next changes."""
        try:
            return self._replica_sets[doc_name]
        except KeyError:
            raise DistributionError(f"document {doc_name!r} not in catalog") from None

    def set_primary(self, doc_name: str, site_id: Hashable) -> None:
        """Promote ``site_id`` under the next epoch (placement time and tests;
        a running cluster promotes through ``DTXSite.assume_primacy``)."""
        self.apply_primary(doc_name, site_id, self.claim_epoch(doc_name))

    def apply_primary(self, doc_name: str, primary: Hashable, epoch: int) -> bool:
        """Make ``primary`` lead under ``epoch``, the fence replica-sync
        traffic is checked against; False when the epoch is stale. The
        contract of :meth:`CatalogView.apply_primary`, so a promotion makes
        one call under either detector."""
        if epoch <= self.epoch(doc_name):
            return False
        sites = self.sites_for(doc_name)
        if primary not in sites:
            raise DistributionError(
                f"site {primary!r} holds no replica of {doc_name!r}"
            )
        self._place(doc_name, (primary, *[s for s in sites if s != primary]))
        self._epochs[doc_name] = epoch
        return True

    # -- epochs -------------------------------------------------------------

    def epoch(self, doc_name: str) -> int:
        """Current primary-election epoch of ``doc_name`` (0 = never elected)."""
        return self._epochs.get(doc_name, 0)

    def claim_epoch(self, doc_name: str, at_least: int = 0) -> int:
        """Hand out the next election epoch — unique across all claimants.

        Every promotion's "epoch RPC" (a stand-in for an epoch CAS at a
        coordination service); under the perfect detector it is simply the
        next epoch. Under the lease detector two concurrent electors
        that both reach a majority — possible under asymmetric message
        loss with replica degree >= 5 — receive *different* epochs, so
        the lower one is fenced on first contact with any site that
        learned the higher one, instead of both serving an identical
        epoch the `epoch < current` fence cannot tell apart.
        """
        epoch = (
            max(
                self._claimed_epochs.get(doc_name, 0),
                self.epoch(doc_name),
                at_least,
            )
            + 1
        )
        self._claimed_epochs[doc_name] = epoch
        return epoch

    def replication_degree(self, doc_name: str) -> int:
        return len(self.sites_for(doc_name))

    # -- materialized views (repro.views) ------------------------------------

    def register_view(self, view) -> None:
        """Register a :class:`~repro.views.ViewDefinition` (static, like
        placement). Every document the view spans must already be placed."""
        if view.name in self._views:
            raise DistributionError(f"view {view.name!r} already registered")
        for doc_name in view.doc_names:
            if doc_name not in self._placement:
                raise DistributionError(
                    f"view {view.name!r} spans unplaced document {doc_name!r}"
                )
        self._views[view.name] = view
        for doc_name in view.doc_names:
            self._views_by_doc[doc_name] = (
                *self._views_by_doc.get(doc_name, ()),
                view,
            )

    def has_views(self, doc_name: str) -> bool:
        return doc_name in self._views_by_doc

    def views_for(self, doc_name: str) -> tuple:
        """Views spanning ``doc_name``, in registration order."""
        return self._views_by_doc.get(doc_name, ())

    def __len__(self) -> int:
        return len(self._placement)

    def describe(self) -> str:
        """Fig. 8-style table: one row per site listing its documents."""
        lines = []
        for site in self.all_sites():
            docs = self.documents_at(site)
            marked = []
            for d in docs:
                # Bold-in-the-paper = replicated on other sites too.
                marked.append(f"*{d}*" if self.replication_degree(d) > 1 else d)
            lines.append(f"site {site}: {', '.join(marked)}")
        return "\n".join(lines)


class CatalogView:
    """One site's *own* view of the catalog (``failure_detector="lease"``).

    Under the perfect detector the shared :class:`Catalog` object stands in
    for the placement/election RPCs: a promotion mutates it and every site
    sees the change instantly. Lease mode removes that oracle — each site
    holds a view whose **primary/epoch facts advance only by messages**
    (:class:`~repro.core.messages.PrimaryAnnounce`, or the view summaries
    heartbeats carry). Placement (which sites hold a copy) stays delegated
    to the shared catalog: it is static during a run.

    Views at different sites can disagree — that is the point: a deposed
    primary that has not heard the announce still believes it leads, and
    must be stopped by epoch fencing and the sync quorum, not by this
    object.
    """

    def __init__(self, shared: Catalog, owner: Hashable = None) -> None:
        self._shared = shared
        self._owner = owner  # the site this view serves
        self._overrides: dict[str, tuple[Hashable, int]] = {}  # doc -> (primary, epoch)
        # Facts adopted so far: with the shared placement's version, the
        # version of everything :meth:`replica_set` answers.
        self._adopted = 0
        self._led: tuple = (None, {})  # (version, led_by's answer)

    # -- membership facts: view-local ---------------------------------------

    def replica_set(self, doc_name: str) -> ReplicaSet:
        override = self._overrides.get(doc_name)
        if override is None or override[1] <= self._shared.epoch(doc_name):
            return self._shared.replica_set(doc_name)
        primary = override[0]
        return ReplicaSet(
            doc_name=doc_name,
            primary=primary,
            secondaries=tuple(
                s for s in self._shared.sites_for(doc_name) if s != primary
            ),
        )

    def epoch(self, doc_name: str) -> int:
        override = self._overrides.get(doc_name)
        shared = self._shared.epoch(doc_name)
        return shared if override is None else max(shared, override[1])

    def apply_primary(self, doc_name: str, primary: Hashable, epoch: int) -> bool:
        """Adopt an announced election result; False when it is stale."""
        if epoch <= self.epoch(doc_name):
            return False
        if primary not in self._shared.sites_for(doc_name):
            raise DistributionError(
                f"announced primary {primary!r} holds no replica of {doc_name!r}"
            )
        self._overrides[doc_name] = (primary, epoch)
        self._adopted += 1
        return True

    def led_by(self) -> dict:
        """The replicated documents the owning site holds, as leader ->
        their replica sets in name order, as this view sees them. Kept
        until the placement changes or the view adopts a fact."""
        version = (self._shared.placement_version, self._adopted)
        seen, led = self._led
        if seen != version:
            led = {}
            for name in self._shared.all_documents():
                rset = self.replica_set(name)
                if rset.is_replicated and self._owner in rset:
                    led.setdefault(rset.primary, []).append(rset)
            self._led = (version, led)
        return led

    def view_of(self, doc_name: str) -> tuple[int, Hashable]:
        """The ``(epoch, primary)`` fact heartbeats disseminate."""
        return self.epoch(doc_name), self.replica_set(doc_name).primary

    def claim_epoch(self, doc_name: str) -> int:
        """Claim a unique election epoch, newer than this view's."""
        return self._shared.claim_epoch(doc_name, at_least=self.epoch(doc_name))

    # -- everything else: delegated -----------------------------------------

    @property
    def placement_version(self) -> int:
        return self._shared.placement_version

    def sites_for(self, doc_name: str) -> tuple[Hashable, ...]:
        return self._shared.sites_for(doc_name)

    def has_document(self, doc_name: str) -> bool:
        return self._shared.has_document(doc_name)

    def has_views(self, doc_name: str) -> bool:
        return self._shared.has_views(doc_name)

    def views_for(self, doc_name: str) -> tuple:
        return self._shared.views_for(doc_name)
