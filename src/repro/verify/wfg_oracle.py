"""The scanning wait-for graph, kept as a differential oracle.

This is :class:`~repro.deadlock.wfg.WaitForGraph` as the repository ran it
until the indexed graph replaced it: one forward map, "does this node still
have an incoming edge?" answered by scanning every edge, ``remove_node``
asking that of every source (O(V*E) per finished transaction) and a
recursive ``find_cycle_from``. One behaviour differs by design: a holder
whose last waiter calls ``clear_waits`` lingers here as an isolated key of
``_out`` until the next ``remove_node`` sweeps it, where the indexed graph
drops it at once. Only ``nodes()`` can see such a node; edges, cycle
searches and snapshots cannot, and ``tests/test_wfg_equivalence.py`` holds
the production graph to this one on all of them. A second difference is not
pinned: this graph enters a holder into ``_out`` at its first ``add_edge``
and keeps emptied entries in place, the indexed one orders ``_out`` by first
out-edge, so ``edges()``/``snapshot()`` order and, after removals, which
cycle ``find_cycle_from`` walks can differ (no consumer reads either). Only
tests import this module.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Optional


class WaitForGraph:
    def __init__(self) -> None:
        self._out: dict[Hashable, set[Hashable]] = {}

    # -- mutation -----------------------------------------------------------

    def add_edge(self, waiter: Hashable, holder: Hashable) -> None:
        if waiter == holder:
            return  # a transaction never waits for itself
        self._out.setdefault(waiter, set()).add(holder)
        self._out.setdefault(holder, set())

    def clear_waits(self, waiter: Hashable) -> None:
        """Drop ``waiter``'s outgoing edges (it acquired its locks)."""
        if waiter in self._out:
            self._out[waiter] = set()
            self._gc(waiter)

    def remove_node(self, node: Hashable) -> None:
        """Forget a finished transaction entirely (in- and out-edges)."""
        self._out.pop(node, None)
        for src in list(self._out):
            self._out[src].discard(node)
            self._gc(src)

    def _gc(self, node: Hashable) -> None:
        if node in self._out and not self._out[node] and not self._has_incoming(node):
            del self._out[node]

    def _has_incoming(self, node: Hashable) -> bool:
        return any(node in dsts for src, dsts in self._out.items() if src != node)

    # -- inspection -----------------------------------------------------------

    def edges(self) -> list[tuple[Hashable, Hashable]]:
        return [(a, b) for a, dsts in self._out.items() for b in dsts]

    def successors(self, node: Hashable) -> frozenset:
        return frozenset(self._out.get(node, ()))

    def nodes(self) -> set:
        out = set(self._out)
        for dsts in self._out.values():
            out |= dsts
        return out

    @property
    def edge_count(self) -> int:
        return sum(len(d) for d in self._out.values())

    def waits(self, waiter: Hashable) -> bool:
        return bool(self._out.get(waiter))

    # -- cycle detection --------------------------------------------------------

    def find_cycle_from(self, start: Hashable) -> Optional[list]:
        """A cycle through ``start``, as a node list, or ``None``.

        Used at lock-acquisition time (Algorithm 3 line 9): adding the new
        wait edges may have closed a cycle through the requesting
        transaction.
        """
        path: list = [start]
        on_path = {start}
        visited: set = set()

        def dfs(node) -> Optional[list]:
            for nxt in self._out.get(node, ()):
                if nxt == start:
                    return list(path)
                if nxt in on_path or nxt in visited:
                    continue
                path.append(nxt)
                on_path.add(nxt)
                found = dfs(nxt)
                if found is not None:
                    return found
                on_path.discard(path.pop())
            visited.add(node)
            return None

        return dfs(start)

    def find_any_cycle(self) -> Optional[list]:
        """Any cycle in the graph (iterative DFS with colouring), or ``None``."""
        WHITE, GREY, BLACK = 0, 1, 2
        colour = {n: WHITE for n in self._out}
        parent: dict = {}
        # Deterministic iteration keeps victim selection reproducible.
        for root in sorted(self._out, key=repr):
            if colour.get(root, WHITE) is not WHITE:
                continue
            stack: list[tuple] = [(root, iter(sorted(self._out.get(root, ()), key=repr)))]
            colour[root] = GREY
            while stack:
                node, it = stack[-1]
                advanced = False
                for nxt in it:
                    c = colour.get(nxt, WHITE)
                    if c is GREY:
                        # back edge: recover the cycle from the grey stack
                        cycle = [nxt]
                        cur = node
                        while cur != nxt:
                            cycle.append(cur)
                            cur = parent[cur]
                        cycle.reverse()
                        return cycle
                    if c is WHITE:
                        colour[nxt] = GREY
                        parent[nxt] = node
                        stack.append((nxt, iter(sorted(self._out.get(nxt, ()), key=repr))))
                        advanced = True
                        break
                if not advanced:
                    colour[node] = BLACK
                    stack.pop()
        return None

    # -- distribution -------------------------------------------------------------

    def union(self, *others: "WaitForGraph") -> "WaitForGraph":
        """A new graph containing this graph's and all ``others``' edges."""
        merged = WaitForGraph()
        for g in (self, *others):
            for a, b in g.edges():
                merged.add_edge(a, b)
        return merged

    def snapshot(self) -> list[tuple[Hashable, Hashable]]:
        """Serializable edge list (what a site ships to the detector)."""
        return self.edges()

    @classmethod
    def from_edges(cls, edges: Iterable[tuple[Hashable, Hashable]]) -> "WaitForGraph":
        g = cls()
        for a, b in edges:
            g.add_edge(a, b)
        return g
