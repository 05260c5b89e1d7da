"""Distributed deadlock detection (Algorithm 4).

A single designated site periodically collects every site's wait-for graph,
unions them, and looks for a cycle. If one is found, the most recently
started transaction in the cycle is ordered aborted at its coordinator site.

Modification (iii) of the paper: "a process was added that periodically goes
through all instances of DTX and verifies if a circle is present at the union
of the wait-for graphs."
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..deadlock.wfg import WaitForGraph, newest_transaction
from .messages import AbortOrder, WfgRequest
from .rounds import Round


@dataclass
class DetectorStats:
    sweeps: int = 0
    deadlocks_found: int = 0
    victims: list = field(default_factory=list)
    edges_examined: int = 0


class DeadlockDetector:
    def __init__(self, site, all_site_ids: list, config):
        self.site = site
        self.env = site.env
        self.network = site.network
        self.all_site_ids = list(all_site_ids)
        self.config = config
        self.stats = DetectorStats()
        # The WFG collection in flight (None between sweeps). The site's
        # dispatch hands it each WfgResponse; the site's failure handling
        # drops crashed sites from it.
        self.round = None
        site.detector = self
        self.process = self.env.process(self._run())

    def _run(self):
        yield self.env.timeout(self.config.detector_initial_delay_ms)
        while True:
            if self.site.alive:
                # Sweeps poll every site's wait-for graph: global span.
                yield from self.site._span(self._sweep(), "detector_sweep", "deadlock")
            yield self.env.timeout(self.config.detector_interval_ms)

    def _sweep(self):
        self.stats.sweeps += 1
        # Local graph is read directly; remote graphs are requested from the
        # *live* sites (Alg. 4 l. 4); a site crashing mid-collection is
        # dropped from the round, and the interval timeout bounds the
        # sweep either way (detection pauses rather than wedges while the
        # detector's own site is down).
        edges = list(self.site.wfg.snapshot())
        others = [
            s
            for s in self.all_site_ids
            if s != self.site.site_id and self.network.is_up(s)
        ]
        if others:
            rnd = self.round = Round(self.env, "wfg", others)
            for s in others:
                self.network.send(self.site.site_id, s, WfgRequest(requester=self.site.site_id))
            yield from rnd.wait(self.config.detector_interval_ms)
            self.round = None
            if not self.site.alive:
                return
            # A dropped site's late graph is stale: its waits died with it.
            for site, msg in rnd.replies.items():
                if site not in rnd.dropped:
                    edges.extend(msg.edges)
        self.stats.edges_examined += len(edges)
        if edges:
            yield self.env.timeout(len(edges) * self.config.costs.wfg_merge_per_edge_ms)
        graph = WaitForGraph.from_edges(edges)
        cycle = graph.find_any_cycle()
        if cycle is None:
            return
        victim = newest_transaction(cycle)
        self.stats.deadlocks_found += 1
        self.stats.victims.append(victim)
        tr = self.site.tracer
        if tr is not None:
            now = self.env.now
            tr.add(
                "deadlock_victim", "deadlock", self.site.site_id, 0, now, now,
                {"tx": str(victim), "cycle": str(len(cycle))},
            )
        # The victim's coordinator lives at the site that assigned its TxId.
        self.network.send(self.site.site_id, victim.site, AbortOrder(tid=victim))
