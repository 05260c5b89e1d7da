"""Consistent-hash placement: the elastic-sharding ring (``python -m repro
scale``).

Placement on a :class:`HashRing` is a pure function of the site set, so
adding or removing a site moves only the documents whose ring arcs the
change touches. :func:`ring_rebalance` turns the difference between two
rings into exactly the migration plan the
:class:`~repro.distribution.migration.MigrationManager` executes online.

The paper's two regimes (§3.2, Fig. 8) do not live here: the experiment
runner fragments the database with
:func:`~repro.workload.xmark.xmark_fragments` and places each fragment
(or the whole document, under total replication) with
:func:`~repro.distribution.replication.replica_placement`.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right
from typing import Hashable, Sequence

from ..errors import DistributionError


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


def ring_rebalance(
    old: HashRing, new: HashRing, doc_names: Sequence[str], factor: int
) -> dict[str, tuple[Hashable, ...]]:
    """The migration plan from one ring to another.

    Maps each document whose ``factor``-way ring placement changes to its
    *new* replica set (primary first) — exactly the argument list for
    :meth:`~repro.distribution.migration.MigrationManager.migrate`.
    Documents whose placement is unchanged are omitted (consistent
    hashing keeps this map small: ~``1/n`` of the keys per site change).
    """
    moves: dict[str, tuple[Hashable, ...]] = {}
    for name in doc_names:
        after = new.placement(name, factor)
        if old.placement(name, factor) != after:
            moves[name] = after
    return moves
