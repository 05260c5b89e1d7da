"""The indexed wait-for graph against the scanning oracle.

The production graph (:mod:`repro.deadlock.wfg`) keeps a reverse adjacency
map so that every lock event costs the degree of the node it touches; the
single-map graph it replaced lives on in :mod:`repro.verify.wfg_oracle`.
Whatever the schedule can see must be the same on both after any sequence of
``add_edge`` / ``clear_waits`` / ``remove_node``: the edge set (its size is
charged as merge time by the detector), whether a cycle closes through a
requester (a local deadlock) and the exact cycle the detector's
``find_any_cycle`` returns (the victim is chosen from it).

Two things differ and are *not* pinned here:

* Presence, by design: the oracle lets a holder that lost its last waiter
  linger as an edgeless node until the next ``remove_node``; the indexed
  graph holds a node exactly while it has an edge.
* Iteration order. The oracle enters every holder into ``_out`` at its first
  ``add_edge`` and empties entries in place; the indexed graph orders
  ``_out`` by each node's first out-edge and drops an emptied set for a
  fresh one. So ``edges()`` / ``snapshot()`` come out in a different order
  (compared as sets below), and after removals a successor set's history —
  hence the cycle ``find_cycle_from`` walks through a node — may differ
  (only ``is None`` and validity are compared then; the exact path is
  compared on graphs built by ``add_edge`` alone). Nothing reads either
  order today: the detector rebuilds its graph from the shipped edges and
  ``find_any_cycle`` sorts by ``repr``; ``AcquireOutcome.cycle`` is only
  tested for ``None``. A consumer that iterates a snapshot in order, or
  reads the local cycle's members, has to pin that order here first.
"""

import hypothesis.strategies as st
from hypothesis import given, settings
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.core.transaction import TxId
from repro.deadlock import WaitForGraph
from repro.verify import wfg_oracle

from .conftest import example_budget

#: Real transaction ids, few enough that re-adds, self-edges and operations
#: on absent nodes all happen. ``repr`` order (what ``find_any_cycle`` sorts
#: by) and start-time order (the victim rule) disagree on several of them.
POOL = [
    TxId("s1", 1, 0.0),
    TxId("s1", 2, 3.5),
    TxId("s2", 1, 0.0),
    TxId("s2", 10, 1.25),
    TxId("s3", 2, 0.5),
    TxId("s3", 7, 2.0),
    TxId("s10", 1, 0.25),
]

nodes = st.sampled_from(POOL)
edge_lists = st.lists(st.tuples(nodes, nodes), max_size=12)


def assert_is_cycle_through(graph, start, path):
    assert path[0] == start and len(set(path)) == len(path)
    for a, b in zip(path, path[1:] + [start]):
        assert b in graph.successors(a), (path, graph.edges())


def assert_equivalent(graph, oracle):
    graph.check_consistency()
    edges = graph.edges()
    assert len(edges) == len(set(edges)) == graph.edge_count == oracle.edge_count
    assert set(edges) == set(oracle.edges())
    assert set(graph.snapshot()) == set(oracle.snapshot())
    with_an_edge = {n for edge in edges for n in edge}
    assert graph.nodes() == with_an_edge <= oracle.nodes()
    for n in POOL:
        assert graph.waits(n) == oracle.waits(n)
        assert graph.successors(n) == oracle.successors(n)
        cycle = graph.find_cycle_from(n)
        assert (cycle is None) == (oracle.find_cycle_from(n) is None)
        if cycle is not None:
            assert_is_cycle_through(graph, n, cycle)
    assert graph.find_any_cycle() == oracle.find_any_cycle()


class WfgMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.graph = WaitForGraph()
        self.oracle = wfg_oracle.WaitForGraph()

    @rule(waiter=nodes, holder=nodes)
    def add_edge(self, waiter, holder):
        self.graph.add_edge(waiter, holder)
        self.oracle.add_edge(waiter, holder)

    @rule(waiter=nodes)
    def clear_waits(self, waiter):
        self.graph.clear_waits(waiter)
        self.oracle.clear_waits(waiter)

    @rule(node=nodes)
    def remove_node(self, node):
        self.graph.remove_node(node)
        self.oracle.remove_node(node)

    @rule(edges=edge_lists)
    def ship_and_merge(self, edges):
        """What a detector sweep does: snapshot, ship, rebuild, union."""
        rebuilt = WaitForGraph.from_edges(self.graph.snapshot())
        assert_equivalent(rebuilt, wfg_oracle.WaitForGraph.from_edges(self.oracle.snapshot()))
        assert set(rebuilt.edges()) == set(self.graph.edges())
        assert_equivalent(
            self.graph.union(WaitForGraph.from_edges(edges)),
            self.oracle.union(wfg_oracle.WaitForGraph.from_edges(edges)),
        )

    @invariant()
    def same_as_oracle(self):
        assert_equivalent(self.graph, self.oracle)


TestWfgMachine = WfgMachine.TestCase
TestWfgMachine.settings = settings(
    max_examples=example_budget(60), stateful_step_count=40, deadline=None
)


@settings(max_examples=example_budget(100), deadline=None)
@given(edges=edge_lists)
def test_iterative_search_visits_in_the_recursive_order(edges):
    """Built by ``add_edge`` alone, both graphs' successor sets have the same
    history and iterate alike — so the explicit-stack search must return the
    very list the recursive one does, not just agree on ``None``."""
    graph = WaitForGraph.from_edges(edges)
    oracle = wfg_oracle.WaitForGraph.from_edges(edges)
    for n in POOL:
        assert graph.find_cycle_from(n) == oracle.find_cycle_from(n)


def test_presence_is_exact_where_the_oracle_lingers():
    a, b = POOL[0], POOL[1]
    graph, oracle = WaitForGraph(), wfg_oracle.WaitForGraph()
    for g in (graph, oracle):
        g.add_edge(a, b)
        g.clear_waits(a)
    assert oracle.nodes() == {b} and oracle.edges() == []
    assert graph.nodes() == set() and graph.edges() == []
    assert_equivalent(graph, oracle)
