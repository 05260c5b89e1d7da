"""Membership: who is up, who leads, and how the cluster finds out.

Two regimes, selected by ``SystemConfig.failure_detector``:

**"perfect"** (default — the paper's modeling assumption, and bit-identical
to the pre-membership code). The cluster owns one omniscient monitor: when
a site crashes it

1. partitions the site off the network (its sends and deliveries drop);
2. for every document the dead site led, picks the **most-caught-up live
   secondary** (highest applied LSN in its durable update log; placement
   order breaks ties deterministically — the rule the lease election
   applies too) and has it promote itself through
   :meth:`~repro.core.site.DTXSite.assume_primacy`, which bumps the
   document's election epoch so the deposed primary is fenced;
3. broadcasts a :class:`~repro.core.messages.SiteDownNotice` to every live
   site so in-flight coordinators stop waiting on the dead participant.

The monitor reads the candidates' log tips directly off the in-process
site objects, and the winner's promotion lands in the *shared* catalog
every site reads — the in-process stand-in for the election round trip
and its announcement. Recovery is the inverse (rejoin + a
:class:`~repro.core.messages.SiteUpNotice` broadcast).

**"lease"**. The oracle is gone: every membership fact travels as a
message over :class:`~repro.sim.network.Network`. Each site heartbeats
every other site (every ``repro.config.HEARTBEAT_INTERVAL_MS``); a peer
becomes *suspected* only when its lease expires (nothing heard for
``lease_timeout_ms``) — which a crash, a partition, or plain message loss
can all cause, so suspicion can be **false**. A site that suspects the
primary of a document it hosts runs an election over the wire
(:class:`LogTipQuery` / :class:`LogTipReport`, requiring reports from a
**majority** of the replica set), and the winner promotes itself through
the same ``assume_primacy`` and announces itself with an epoch-bumped
:class:`PrimaryAnnounce` applied at each receiver's own
:class:`~repro.distribution.catalog.CatalogView`. Nothing here mutates
the shared catalog; split-brain is prevented by epoch fencing and the
commit-time sync quorum, not by perfect knowledge. The per-site state for
all of this lives in :class:`SiteMembership`; the processes that drive it
live in :class:`~repro.core.site.DTXSite`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable

from ..distribution.catalog import Catalog
from ..sim.network import Network
from .messages import SiteDownNotice, SiteUpNotice

# Source id used for monitor broadcasts; never registered, never down.
MONITOR_ID = "$failure-monitor"


@dataclass
class FaultStats:
    crashes: int = 0
    recoveries: int = 0
    promotions: int = 0
    orphaned_docs: int = 0  # primary crashed with no live secondary
    promotion_log: list = field(default_factory=list)  # (time, doc, old, new, epoch)
    # (time, event, site): "crash" / "recover" of a site, "partition" /
    # "heal" of the network (site None); repro.verify.progress reads it.
    fault_log: list = field(default_factory=list)


class MembershipService:
    """Cluster-level membership authority and promotion scorekeeper.

    In perfect mode this *is* the failure monitor. In lease mode it only
    flips the physical network state on crash/recovery — detection,
    election and dissemination all run at the sites. In both it aggregates
    the promotions the sites report via :meth:`record_promotion`.
    """

    def __init__(
        self,
        env,
        network: Network,
        catalog: Catalog,
        sites: dict,
        detector: str = "perfect",
    ):
        self.env = env
        self.network = network
        self.catalog = catalog
        self.sites = sites  # site_id -> DTXSite (the cluster's live view)
        self.detector = detector
        self.stats = FaultStats()

    @property
    def is_lease(self) -> bool:
        return self.detector == "lease"

    # -- crash -------------------------------------------------------------

    def on_site_crashed(self, site_id: Hashable) -> None:
        """Called by the crashing site after it wiped its volatile state."""
        self.stats.crashes += 1
        self.stats.fault_log.append((self.env.now, "crash", site_id))
        self.network.set_down(site_id)
        if self.is_lease:
            # No oracle: the crash is physical only. Peers notice when the
            # site's lease expires and elect over the wire.
            return
        self._promote_away_from(site_id)
        for other_id, other in self.sites.items():
            if other_id != site_id and other.alive:
                self.network.send(MONITOR_ID, other_id, SiteDownNotice(site=site_id))

    def _promote_away_from(self, down: Hashable) -> None:
        for doc_name in self.catalog.documents_at(down):
            rset = self.catalog.replica_set(doc_name)
            if rset.primary != down:
                continue
            live = [s for s in rset.secondaries if self.network.is_up(s)]
            if not live:
                # Every replica is down: the document is unavailable until a
                # holder recovers (operations on it abort with
                # 'no-live-replica' in the meantime).
                self.stats.orphaned_docs += 1
                continue
            best = rset.most_caught_up(
                {s: self.sites[s].log_for(doc_name).applied_lsn for s in live}
            )
            self.sites[best].assume_primacy(doc_name)

    def incarnation_of(self, site_id: Hashable) -> int:
        """Current restart count of ``site_id`` (the perfect-mode oracle
        read; lease-mode sites track peer incarnations from heartbeats)."""
        return self.sites[site_id].incarnation

    # -- recovery ----------------------------------------------------------

    def on_site_recovered(self, site_id: Hashable) -> None:
        """Rejoin the network; the site itself drives catch-up afterwards.

        Perfect mode also tells the survivors: a replica whose earlier
        catch-up attempts were swallowed by this site's outage (it leads
        documents they host) retries once the primary is back. Lease mode
        leaves that to the resuming heartbeats."""
        self.stats.recoveries += 1
        self.stats.fault_log.append((self.env.now, "recover", site_id))
        self.network.set_up(site_id)
        if self.is_lease:
            return
        for other_id, other in self.sites.items():
            if other_id != site_id and other.alive:
                self.network.send(MONITOR_ID, other_id, SiteUpNotice(site=site_id))

    # -- reporting ---------------------------------------------------------

    def record_promotion(
        self, doc_name: str, old: Hashable, new: Hashable, epoch: int
    ) -> None:
        """A site assumed primacy; keep the cluster tallies
        (``RunResult.promotions``, the demo's promotion log)."""
        self.stats.promotions += 1
        self.stats.promotion_log.append((self.env.now, doc_name, old, new, epoch))


@dataclass
class SiteMembership:
    """One site's lease table: what *it* believes about every peer.

    Volatile (a crash resets it — a recovered site re-learns the world
    from the heartbeats that greet it). The owning
    :class:`~repro.core.site.DTXSite` drives every transition; this object
    just holds the facts:

    * ``last_heard`` — when a heartbeat from each peer last arrived;
    * ``suspected`` — peers whose lease has expired. Suspicion is a local
      belief, not a fact: a suspected peer may be alive across a
      partition, so acting on suspicion must stay safe under falseness
      (epoch fencing + sync quorum, not state destruction);
    * ``incarnations`` — highest restart counter heard per peer, the
      lease-mode replacement for the monitor's ``incarnation_of`` oracle;
    * ``watermarks`` — per peer, per document applied-LSN watermarks from
      heartbeats; what primaries base log compaction on.
    """

    lease_timeout_ms: float
    last_heard: dict = field(default_factory=dict)  # peer -> sim time
    suspected: set = field(default_factory=set)
    incarnations: dict = field(default_factory=dict)  # peer -> int
    watermarks: dict = field(default_factory=dict)  # peer -> {doc -> lsn}

    def is_live(self, peer: Hashable) -> bool:
        return peer not in self.suspected

    def heard_from(self, peer: Hashable, now: float, incarnation: int) -> bool:
        """Record a heartbeat; True when ``peer`` was suspected (a false
        suspicion, or a recovery — either way the peer is back)."""
        self.last_heard[peer] = now
        known = self.incarnations.get(peer, 0)
        if incarnation > known:
            self.incarnations[peer] = incarnation
        was_suspected = peer in self.suspected
        self.suspected.discard(peer)
        return was_suspected

    def lease_expired(self, peer: Hashable, now: float) -> bool:
        heard = self.last_heard.get(peer)
        return heard is not None and (now - heard) > self.lease_timeout_ms

    def grace(self, peers, now: float) -> None:
        """Start (or restart) every peer's lease as of ``now`` — a site
        coming up owes each peer one full lease before suspecting it."""
        for peer in peers:
            self.last_heard.setdefault(peer, now)

    def incarnation_of(self, peer: Hashable) -> int:
        return self.incarnations.get(peer, 0)

    def watermark_of(self, peer: Hashable, doc_name: str) -> int:
        return self.watermarks.get(peer, {}).get(doc_name, 0)
