"""Simulated LAN connecting DTX sites.

Models the paper's evaluation network (eight PCs on a 100 Mbit/s full-duplex
Ethernet hub): per-message cost = base latency + size/bandwidth + jitter.
Same-site delivery (coordinator sending to itself as a participant) costs a
small constant.

The network owns one :class:`~repro.sim.queues.Inbox` per registered site
(the site serves it with its dispatch function) and keeps delivery
statistics that the experiment reports surface (message counts and bytes
are how "synchronization overhead in all the sites" shows up in the
numbers).

Besides fail-stop endpoints (``set_down``), the network models the faults a
lease-based failure detector exists for: **partitions** (``partition`` splits
the sites into groups; traffic between groups is dropped until ``heal``) and
**per-link loss** (``set_link_loss`` drops a fraction of one direction's
messages, drawn from a dedicated RNG substream so configurations without
loss consume exactly the same jitter stream as before). Both make *false
suspicion* reachable: a site can be alive yet unheard-from.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Hashable, Iterable, Optional

from ..config import NetworkConfig
from ..errors import SimulationError
from .environment import Environment
from .queues import Inbox
from .rng import substream


@dataclass
class NetworkStats:
    messages: int = 0
    bytes: int = 0
    by_kind: dict[str, int] = field(default_factory=dict)
    local_messages: int = 0
    dropped: int = 0  # messages lost to crashed endpoints
    partition_drops: int = 0  # messages lost to a partition cut
    loss_drops: int = 0  # messages lost to per-link loss


class Network:
    def __init__(self, env: Environment, config: NetworkConfig, seed: int = 0):
        self.env = env
        self.config = config
        self._inboxes: dict[Hashable, Inbox] = {}
        self._rng = substream(seed, "network")
        self._down: set = set()
        # Partition state: site -> group index. Sites mapped to different
        # groups cannot exchange messages; unmapped sites share one
        # implicit group. Empty dict = fully connected.
        self._partition: dict[Hashable, int] = {}
        # Per-directed-link loss probability, (src, dst) -> p in (0, 1].
        # Drawn from its own substream so runs without configured loss
        # consume exactly the same jitter stream as before.
        self._link_loss: dict[tuple, float] = {}
        self._loss_rng = substream(seed, "network", "loss")
        self.stats = NetworkStats()

    # -- topology -----------------------------------------------------------

    def register(self, site_id: Hashable) -> Inbox:
        if site_id in self._inboxes:
            raise SimulationError(f"site {site_id!r} already registered")
        inbox = Inbox(self.env)
        self._inboxes[site_id] = inbox
        return inbox

    def inbox(self, site_id: Hashable) -> Inbox:
        try:
            return self._inboxes[site_id]
        except KeyError:
            raise SimulationError(f"unknown site {site_id!r}") from None

    @property
    def site_ids(self) -> list:
        return list(self._inboxes)

    # -- liveness -----------------------------------------------------------

    def set_down(self, site_id: Hashable) -> None:
        """Partition ``site_id`` off: its sends and deliveries are dropped."""
        self._down.add(site_id)

    def set_up(self, site_id: Hashable) -> None:
        self._down.discard(site_id)

    def is_up(self, site_id: Hashable) -> bool:
        return site_id not in self._down

    # -- partitions and lossy links ------------------------------------------

    def partition(self, *groups: Iterable[Hashable]) -> None:
        """Split the network: sites in different ``groups`` cannot talk.

        Sites not named in any group form one implicit extra group of
        their own (together). Replaces any previous partition. Messages
        already in flight across the new cut are dropped at delivery time
        — a partition severs the wire, not just future sends.
        """
        self._partition = {}
        for index, group in enumerate(groups):
            for site_id in group:
                if site_id in self._partition:
                    raise SimulationError(
                        f"site {site_id!r} named in two partition groups"
                    )
                self._partition[site_id] = index

    def heal_partition(self) -> None:
        """Reconnect everything (in-flight cross-cut messages stay lost)."""
        self._partition = {}

    def set_link_loss(
        self, src: Hashable, dst: Hashable, probability: float, symmetric: bool = True
    ) -> None:
        """Drop ``probability`` of the messages on ``src -> dst``.

        ``probability`` 0 removes the rule; 1 blackholes the link.
        ``symmetric`` applies the same rule to the reverse direction.
        """
        if not 0.0 <= probability <= 1.0:
            raise SimulationError(f"loss probability {probability!r} not in [0, 1]")
        links = [(src, dst), (dst, src)] if symmetric else [(src, dst)]
        for link in links:
            if probability <= 0.0:
                self._link_loss.pop(link, None)
            else:
                self._link_loss[link] = probability

    def reachable(self, src: Hashable, dst: Hashable) -> bool:
        """Whether the partition map currently lets ``src`` reach ``dst``.

        Liveness (`is_up`) and probabilistic loss are separate concerns;
        this answers only the partition question.
        """
        if src == dst or not self._partition:
            return True
        implicit = max(self._partition.values()) + 1
        return self._partition.get(src, implicit) == self._partition.get(dst, implicit)

    # -- transmission ----------------------------------------------------------

    def delay_for(self, src: Hashable, dst: Hashable, size_bytes: int) -> float:
        """The modelled delay of one message: ``local_ms`` on the same
        site, else ``latency_ms + size/1024 * per_kb_ms + jitter`` with
        jitter uniform in ``[0, jitter_ms]`` (one draw from the network
        RNG). ``jitter_ms * random()`` is ``uniform(0.0, jitter_ms)`` bit
        for bit, from the same draw."""
        cfg = self.config
        if src == dst:
            return cfg.local_ms
        return (
            cfg.latency_ms
            + (size_bytes / 1024.0) * cfg.per_kb_ms
            + cfg.jitter_ms * self._rng.random()
        )

    def send(
        self,
        src: Hashable,
        dst: Hashable,
        payload: Any,
        size_bytes: Optional[int] = None,
    ) -> float:
        """Deliver ``payload`` to ``dst``'s inbox after the modelled delay.

        Returns the delay used (:meth:`delay_for`; tests assert on it).
        ``size_bytes`` defaults to ``payload.size_bytes()`` when the
        payload provides it. A message to or from a down site, across a
        partition or lost on its link is dropped, counted, and returns 0.0.
        Each check is skipped while its structure is empty.
        """
        stats = self.stats
        down = self._down
        if down and (src in down or dst in down):
            # A crashed endpoint neither transmits nor receives; the message
            # silently disappears (timeouts / failure notices recover).
            stats.dropped += 1
            return 0.0
        if self._partition and not self.reachable(src, dst):
            stats.partition_drops += 1
            return 0.0
        if self._link_loss:
            loss = self._link_loss.get((src, dst))
            if loss is not None and self._loss_rng.random() < loss:
                stats.loss_drops += 1
                return 0.0
        inbox = self._inboxes.get(dst)
        if inbox is None:
            raise SimulationError(f"unknown site {dst!r}")
        if size_bytes is None:
            sizer = getattr(payload, "size_bytes", None)
            size_bytes = sizer() if sizer is not None else 64
        delay = self.delay_for(src, dst, size_bytes)
        if src == dst:
            stats.local_messages += 1
        stats.messages += 1
        stats.bytes += size_bytes
        by_kind = stats.by_kind
        kind = payload.__class__.__name__
        by_kind[kind] = by_kind.get(kind, 0) + 1
        # Flat scheduling: no Event or closure per message. All deliveries
        # landing on the same tick share one kernel bucket and are drained
        # in a single dispatch pass.
        self.env._schedule_flat(delay, self._deliver, (src, dst, inbox, payload))
        return delay

    def _deliver(self, args: tuple) -> None:
        # Re-check at delivery time: the destination may have crashed —
        # or a partition may have cut the link — while the message was
        # in flight.
        src, dst, inbox, payload = args
        if self._down and dst in self._down:
            self.stats.dropped += 1
            return
        if self._partition and not self.reachable(src, dst):
            self.stats.partition_drops += 1
            return
        inbox.put(payload)
