"""Placement policies: one ``place()`` front door for every allocation shape
(paper Fig. 8).

Every policy answers the same question — *which sites hold a copy of which
document, and who is primary* — through a single :class:`PlacementPolicy`
interface, and returns the same :class:`Allocation`::

    alloc = ReplicatedPlacement(factor=2).place(documents, sites)
    cluster = DTXCluster.from_allocation(alloc)

The paper's two regimes (§3.2) are :class:`TotalPlacement` — every
document copied to every site — and :class:`PartialPlacement` — the
database is fragmented (one fragment per site by default) and each
fragment lives on its primary site, optionally with ``replicas - 1`` extra
copies on the following sites (the bold entries in Fig. 8).

:class:`HashRingPlacement` is the elastic-sharding policy: placement is a
pure function of a consistent-hash ring over the site set, so adding or
removing a site moves only the documents whose ring arcs the change
touches. The difference between two ring placements is exactly the
migration plan the :class:`~repro.distribution.migration.MigrationManager`
executes online.
"""

from __future__ import annotations

import hashlib
from abc import ABC, abstractmethod
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Hashable, Mapping, Sequence

from ..errors import DistributionError
from ..xml.model import Document
from .catalog import Catalog
from .fragmentation import FragmentationPlan, fragment_document
from .replication import replica_placement


@dataclass
class Allocation:
    """A catalog plus the concrete documents each site must load."""

    catalog: Catalog
    site_documents: dict[Hashable, list[Document]] = field(default_factory=dict)
    # Filled by PartialPlacement: one plan per fragmented source document.
    fragment_plans: list[FragmentationPlan] = field(default_factory=list)

    def documents_for(self, site_id: Hashable) -> list[Document]:
        return self.site_documents.get(site_id, [])

    def total_bytes_per_site(self) -> dict[Hashable, int]:
        return {
            site: sum(d.size_bytes() for d in docs)
            for site, docs in self.site_documents.items()
        }


class PlacementPolicy(ABC):
    """Maps a set of documents onto a set of sites.

    ``place(documents, sites)`` returns an :class:`Allocation`: the catalog
    (placement + primaries) plus the concrete document copies each site
    must load. Policies are small value objects — construct once, reuse
    freely; ``place`` never mutates the inputs.
    """

    @abstractmethod
    def place(
        self, documents: Sequence[Document], sites: Sequence[Hashable]
    ) -> Allocation:
        """Compute the allocation of ``documents`` across ``sites``."""

    @staticmethod
    def _require_sites(sites: Sequence[Hashable]) -> None:
        if not sites:
            raise DistributionError("need at least one site")


@dataclass(frozen=True)
class TotalPlacement(PlacementPolicy):
    """Every document replicated on every site (paper §3.2, total regime)."""

    def place(
        self, documents: Sequence[Document], sites: Sequence[Hashable]
    ) -> Allocation:
        self._require_sites(sites)
        catalog = Catalog()
        alloc = Allocation(catalog, {s: [] for s in sites})
        for doc in documents:
            catalog.add(doc.name, sites)
            for site in sites:
                alloc.site_documents[site].append(doc.clone())
        return alloc


@dataclass(frozen=True)
class ReplicatedPlacement(PlacementPolicy):
    """Whole-document replication at ``factor`` sites each.

    Primaries rotate round-robin so no single site coordinates every
    document; each document's ``factor - 1`` secondaries sit on the
    following sites. ``factor == len(sites)`` is total replication.
    """

    factor: int = 2

    def place(
        self, documents: Sequence[Document], sites: Sequence[Hashable]
    ) -> Allocation:
        self._require_sites(sites)
        catalog = Catalog()
        alloc = Allocation(catalog, {s: [] for s in sites})
        for i, doc in enumerate(documents):
            placement = replica_placement(i, sites, self.factor)
            catalog.add(doc.name, placement)
            for site in placement:
                alloc.site_documents[site].append(doc.clone())
        return alloc


@dataclass(frozen=True)
class PartialPlacement(PlacementPolicy):
    """Fragment each document and spread the fragments round-robin.

    ``fragments_per_doc`` defaults to the number of sites (the paper's
    setup: similar data volume everywhere). ``replicas`` > 1 places each
    fragment on that many consecutive sites. The fragmentation plans land
    on ``Allocation.fragment_plans``.
    """

    replicas: int = 1
    fragments_per_doc: int | None = None

    def place(
        self, documents: Sequence[Document], sites: Sequence[Hashable]
    ) -> Allocation:
        self._require_sites(sites)
        if self.replicas < 1 or self.replicas > len(sites):
            raise DistributionError(
                f"replicas must be in [1, {len(sites)}], got {self.replicas}"
            )
        k = self.fragments_per_doc if self.fragments_per_doc is not None else len(sites)
        catalog = Catalog()
        alloc = Allocation(catalog, {s: [] for s in sites})
        for doc in documents:
            plan = fragment_document(doc, k)
            alloc.fragment_plans.append(plan)
            for frag in plan.fragments:
                home = frag.index % len(sites)
                placement = [
                    sites[(home + r) % len(sites)] for r in range(self.replicas)
                ]
                catalog.add(frag.name, placement)
                for site in placement:
                    alloc.site_documents[site].append(frag.document.clone())
        return alloc


@dataclass(frozen=True)
class ExplicitPlacement(PlacementPolicy):
    """Fully explicit placement (the paper's §2.4 scenario: d1 on s1+s2,
    d2 only on s2). ``placements`` maps document name -> site sequence;
    the ``sites`` argument of ``place`` may extend the site set with
    sites that hold nothing (they still get an empty document list)."""

    placements: Mapping[str, Sequence[Hashable]] = field(default_factory=dict)

    def place(
        self, documents: Sequence[Document], sites: Sequence[Hashable] = ()
    ) -> Allocation:
        by_name = {doc.name: doc for doc in documents}
        catalog = Catalog()
        all_sites: set = set(sites)
        for placement in self.placements.values():
            all_sites.update(placement)
        if not all_sites:
            raise DistributionError("need at least one site")
        alloc = Allocation(catalog, {s: [] for s in sorted(all_sites, key=str)})
        for name, placement in self.placements.items():
            if name not in by_name:
                raise DistributionError(f"no document supplied for placement {name!r}")
            catalog.add(name, placement)
            for site in placement:
                alloc.site_documents[site].append(by_name[name].clone())
        return alloc


# ----------------------------------------------------------------------
# consistent hashing
# ----------------------------------------------------------------------


def _hash64(key: str) -> int:
    """Stable 64-bit hash (blake2b — identical across runs and platforms,
    unlike the salted builtin ``hash``)."""
    return int.from_bytes(
        hashlib.blake2b(key.encode("utf-8"), digest_size=8).digest(), "big"
    )


class HashRing:
    """A consistent-hash ring over a site set.

    Each site contributes ``vnodes`` virtual points; a key's replica set
    is the first ``factor`` *distinct* sites clockwise from the key's
    hash. The classic minimal-movement property follows: adding (or
    removing) one site changes a key's replica set by at most one member —
    only keys whose successor window the new site's points fall into move
    at all, ~``1/n`` of them in expectation.
    """

    def __init__(self, sites: Sequence[Hashable], vnodes: int = 64):
        if not sites:
            raise DistributionError("need at least one site")
        if len(set(sites)) != len(sites):
            raise DistributionError("duplicate sites in hash ring")
        if vnodes < 1:
            raise DistributionError("vnodes must be >= 1")
        self.sites = tuple(sites)
        self.vnodes = vnodes
        points = []
        for site in sites:
            for v in range(vnodes):
                points.append((_hash64(f"{site}#{v}"), site))
        points.sort(key=lambda p: (p[0], str(p[1])))
        self._hashes = [h for h, _ in points]
        self._owners = [s for _, s in points]

    def placement(self, key: str, factor: int) -> tuple[Hashable, ...]:
        """The first ``factor`` distinct sites clockwise from ``key``
        (primary first). ``factor`` is clamped to the ring's site count."""
        factor = max(1, min(factor, len(self.sites)))
        start = bisect_right(self._hashes, _hash64(key))
        chosen: list[Hashable] = []
        seen: set = set()
        n = len(self._owners)
        for k in range(n):
            site = self._owners[(start + k) % n]
            if site not in seen:
                seen.add(site)
                chosen.append(site)
                if len(chosen) == factor:
                    break
        return tuple(chosen)


@dataclass(frozen=True)
class HashRingPlacement(PlacementPolicy):
    """Consistent-hash placement: each document's replica set is the first
    ``factor`` distinct sites clockwise from its name's hash.

    The elastic policy behind ``python -m repro scale``: recomputing the
    placement after a site joins or leaves yields a new allocation that
    differs from the old one only on the ring arcs the change touched —
    :func:`ring_rebalance` turns that difference into the migration list.
    """

    factor: int = 2
    vnodes: int = 64

    def ring(self, sites: Sequence[Hashable]) -> HashRing:
        return HashRing(sites, vnodes=self.vnodes)

    def place(
        self, documents: Sequence[Document], sites: Sequence[Hashable]
    ) -> Allocation:
        self._require_sites(sites)
        ring = self.ring(sites)
        catalog = Catalog()
        alloc = Allocation(catalog, {s: [] for s in sites})
        for doc in documents:
            placement = ring.placement(doc.name, self.factor)
            catalog.add(doc.name, placement)
            for site in placement:
                alloc.site_documents[site].append(doc.clone())
        return alloc


def ring_rebalance(
    policy: HashRingPlacement,
    doc_names: Sequence[str],
    old_sites: Sequence[Hashable],
    new_sites: Sequence[Hashable],
) -> dict[str, tuple[Hashable, ...]]:
    """The migration plan from one site set to another.

    Maps each document whose ring placement changes to its *new* replica
    set (primary first) — exactly the argument list for
    :meth:`~repro.distribution.migration.MigrationManager.migrate`.
    Documents whose placement is unchanged are omitted (consistent
    hashing keeps this map small: ~``1/n`` of the keys per site change).
    """
    old_ring = policy.ring(old_sites)
    new_ring = policy.ring(new_sites)
    moves: dict[str, tuple[Hashable, ...]] = {}
    for name in doc_names:
        before = old_ring.placement(name, policy.factor)
        after = new_ring.placement(name, policy.factor)
        if before != after:
            moves[name] = after
    return moves
