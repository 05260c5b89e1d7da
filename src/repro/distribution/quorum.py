"""Quorum replication (R+W > N): the regime between eager and lazy.

The paper's scheduler relies on every copy of a document exposing a single
update timeline; the other regimes achieve that either by paying the slowest replica
on every commit (eager primary-copy: the commit waits for *all* live
secondaries) or by giving up commit-time freshness altogether (lazy
propagation). Quorum intersection buys back most of both: a write is
committed once it is durable at **W** replicas (the primary included), a
read consults the version state of **R** replicas and executes at one that
provably holds every committed write, and ``R + W > N`` guarantees the two
sets overlap — the availability/consistency middle ground studied for
distributed XML placement (Abiteboul et al., *Distributed XML Design*) and
the run-time consistency knob of adaptive concurrency control schemes
(*O|R|P|E*).

Concretely, with ``replica_write_policy="quorum"``:

* writes still lock and execute at the **primary** only (the primary's
  lock table keeps ordering conflicting writers — quorums replace the
  *ack barrier*, not the serialization point);
* at commit the update batch is shipped to every live secondary exactly
  like the eager regime, but the commit point fires as soon as ``W``
  replicas (primary's durable log record + ``W - 1`` sync acks) have it —
  stragglers apply the batch late or converge through the existing
  catch-up / heartbeat-watermark anti-entropy paths;
* ``W > N/2`` keeps any two write quorums (and every lease-mode election
  majority) overlapping, so the epoch fencing of failover carries
  over unchanged.

With ``replica_read_policy="quorum"`` a query fans a version probe
(per-document applied LSN + election epoch) to ``R`` replicas, executes at
the freshest responder that provably covers every committed write, and
nudges the laggards it discovered into catch-up (**read repair**).

The freshness rule needs care because replicas apply *commuting* batches
out of order (see :class:`~repro.distribution.replication.UpdateLog`): a
replica may have **recorded** LSN 7 while a hole at 5 keeps its contiguous
**applied** watermark at 4. Every committed write is recorded at some
probed replica (quorum intersection), so ``M = max(max_recorded_lsn)``
over the probes bounds every committed LSN — and a responder is a safe
execution target iff its *applied* watermark has reached ``M``. When no
responder qualifies (racing batches still in flight), the primary is the
universal fallback: primary-copy writes execute there before they commit
anywhere, so its live tree covers every committed write by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Optional

from ..errors import ConfigError


def majority(n: int) -> int:
    """Smallest integer strictly greater than ``n / 2``."""
    return n // 2 + 1


@dataclass(frozen=True)
class QuorumSpec:
    """Resolved (N, R, W) for one replica set, with the intersection laws.

    ``read_quorum + write_quorum > n`` makes every read quorum overlap
    every write quorum (a quorum read cannot miss a committed write);
    ``2 * write_quorum > n`` makes write quorums overlap *each other* (two
    concurrent regimes cannot both assemble one, which is what lets the
    election/epoch machinery fence a deposed primary's writers).
    """

    n: int
    read_quorum: int
    write_quorum: int

    def validate(self) -> None:
        if self.n < 2:
            raise ConfigError(
                f"quorum replication needs at least 2 replicas, got n={self.n}"
            )
        for name, value in (
            ("read_quorum", self.read_quorum),
            ("write_quorum", self.write_quorum),
        ):
            if not 1 <= value <= self.n:
                raise ConfigError(
                    f"{name} must be in [1, {self.n}], got {value}"
                )
        if self.read_quorum + self.write_quorum <= self.n:
            raise ConfigError(
                f"quorums must intersect: R + W > N required, got "
                f"R={self.read_quorum} + W={self.write_quorum} <= N={self.n}"
            )
        if 2 * self.write_quorum <= self.n:
            raise ConfigError(
                f"write quorums must intersect each other: W > N/2 required, "
                f"got W={self.write_quorum}, N={self.n}"
            )

    @classmethod
    def resolve(cls, n: int, r: int = 0, w: int = 0) -> "QuorumSpec":
        """Effective quorums for a replica set of degree ``n``.

        ``0`` means "majority" for either knob. Explicitly configured
        values are honoured when they are lawful for this degree; a value
        that is not (a document replicated at fewer sites than the
        configured ``replication_factor`` can shrink N below a configured
        R or W) falls back to the majority, which satisfies both
        intersection laws for every N >= 2.
        """
        w_eff = w if (0 < w <= n and 2 * w > n) else majority(n)
        r_eff = r if 0 < r <= n else majority(n)
        if r_eff + w_eff <= n:
            r_eff = n - w_eff + 1
        spec = cls(n=n, read_quorum=r_eff, write_quorum=w_eff)
        spec.validate()
        return spec


@dataclass(frozen=True)
class VersionVector:
    """One replica's answer to a version probe: its durable log position."""

    site: Hashable
    epoch: int
    applied_lsn: int  # highest gapless LSN (every earlier batch applied)
    max_recorded_lsn: int  # highest LSN recorded at all (holes allowed)


def version_frontier(reports: dict) -> tuple:
    """``(top_epoch, frontier)`` of a probe round's reports.

    The newest log-tip epoch any responder reported, and the highest
    recorded LSN among *those* responders — the current timeline's known
    extent. This is the read-repair target and the primary-fallback gate;
    :func:`choose_read_replica` uses the same numbers for its laggard
    listing so the two views of "behind" cannot drift apart.
    """
    top_epoch = max(v.epoch for v in reports.values())
    frontier = max(
        v.max_recorded_lsn for v in reports.values() if v.epoch == top_epoch
    )
    return top_epoch, frontier


def choose_read_replica(
    reports: dict,
    primary: Hashable,
    preferred: Optional[Hashable] = None,
    placement: tuple = (),
) -> tuple:
    """Pick the execution site for a quorum read; returns (winner, laggards).

    ``reports`` maps site -> :class:`VersionVector` (one per probe
    response). The winner is the freshest responder that provably covers
    every write committed before the probe round: it reports the newest
    election epoch seen, and its *applied* watermark has reached ``M``,
    the highest *recorded* LSN across **all** reports. Quorum
    intersection puts every committed write's LSN at or below ``M`` —
    and the report carrying that evidence may well be from a *deposed*
    epoch (a healed ex-primary still holds the committed prefix under the
    old number); restricting the frontier to max-epoch reports would
    throw the evidence away and hand the read to a new-timeline replica
    that has not caught up past it yet. A deposed tail can also alias
    LSNs the new timeline reused, which only ever *inflates* ``M`` —
    conservative: the read falls back to the primary rather than trusting
    an unprovable responder. The believed ``primary`` qualifies
    regardless of its watermark — primary-copy writes execute there
    before committing anywhere, so its live tree is always complete. Ties
    prefer ``preferred`` (the coordinator's own replica: zero network
    hops), then ``placement`` order. Returns ``winner=None`` when no
    responder qualifies (racing in-flight commits, or only stale-epoch
    evidence): the caller falls back to the primary or retries.

    ``laggards`` lists the responding sites that are provably behind —
    on a stale epoch, or with an applied watermark below the *top-epoch*
    frontier (the all-reports frontier gates eligibility only: a fenced
    tail's aliased LSNs must not flag caught-up current-timeline replicas
    for repair they don't need).
    """
    if not reports:
        return None, []
    top_epoch, top_frontier = version_frontier(reports)
    frontier = max(v.max_recorded_lsn for v in reports.values())
    order = list(placement)

    def rank(site: Hashable) -> tuple:
        v = reports[site]
        return (
            -v.applied_lsn,
            0 if site == preferred else 1,
            order.index(site) if site in order else len(order),
        )

    eligible = [
        site
        for site, v in reports.items()
        if v.epoch == top_epoch
        and (v.applied_lsn >= frontier or site == primary)
    ]
    winner = min(eligible, key=rank) if eligible else None
    laggards = [
        site
        for site, v in sorted(reports.items(), key=lambda kv: str(kv[0]))
        if site != winner
        and (v.epoch < top_epoch or v.applied_lsn < top_frontier)
    ]
    return winner, laggards
